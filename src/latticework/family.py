"""Bitmask subsets of [n], set families of them, and the package's errors.

This is the value layer.  It loads no other latticework module, so a module
that only reads families (`lubell`, `colouring`, a bare `import latticework`)
does not load the bit kernels in `core`, which re-exports every name here.

Conventions used across the package:

* The ground set is [n] = {1, ..., n} with 1 <= n <= 63.
* A subset of [n] is encoded as an integer mask: element i corresponds to
  bit i-1, so {1, 3} over any n is the mask 0b101 = 5.  Masks are an
  internal encoding; JSON interchange uses sorted element lists.
* A set family is a duplicate-free collection of masks over one ground set,
  kept sorted by mask value (`SetFamily`).
* `_mask_relabel_table`, the only builder of relabelling tables, maps every
  mask under a permutation of [n].
* Value classes are `_Record`s: immutable, compared and hashed by their
  fields, printed as `Name(field=value, ...)`, and built by their own
  `__init__`, which sets the fields and then validates them.  A record's
  fields are its `__init__` parameters, in order.  Records are
  plain classes, not dataclasses: importing `dataclasses` loads `inspect`,
  and each generated class costs about a millisecond, so together they
  took longer than many short CLI commands' own work.
"""

from __future__ import annotations

import json
from functools import cached_property
from operator import attrgetter

MAX_GROUND = 63


class LatticeError(Exception):
    """Base class for contract violations raised by this package."""


class DomainError(LatticeError):
    """An argument lies outside the operation's mathematical domain."""


class PreconditionError(LatticeError):
    """Input fails a structural precondition (for example: not an antichain)."""


class ResourceLimitError(LatticeError):
    """The request exceeds a documented size cap for exact computation."""


class BudgetExhaustedError(ResourceLimitError):
    """A search's node budget ran out before it finished."""


class VerificationError(LatticeError):
    """A computed result failed its independent re-check: a defect, not bad input."""


class _Record:
    """Base of the immutable value classes.

    A subclass's fields are its `__init__` parameters, in order, and
    `__init_subclass__` lists them in `_fields`.  That `__init__` sets them
    with `object.__setattr__`.  (Writing `self.__dict__` instead builds
    faster but materialises the dict, and every later read of a field then
    takes about three times as long.)  Records of the same class are equal
    when their field tuples are, and hash as that tuple; fields (and any
    other attribute) cannot be assigned or deleted afterwards.  Instances
    keep a dict, so `cached_property` still works; what an instance keeps
    there (a `SetFamily`'s bitset, say) never enters equality, hash or repr.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]
        cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def mask_of(elements) -> int:
    """Encode an iterable of elements from [n] as a mask.

    >>> mask_of([1, 3])
    5
    """
    m = 0
    for e in elements:
        if e < 1 or e > MAX_GROUND:
            raise DomainError(f"element {e} outside 1..{MAX_GROUND}")
        m |= 1 << (e - 1)
    return m


def elements_of(mask: int) -> tuple[int, ...]:
    """Decode a mask back to a sorted tuple of elements.

    >>> elements_of(5)
    (1, 3)
    """
    if mask < 0:
        raise DomainError("mask must be non-negative")
    out = []
    e = 1
    while mask:
        if mask & 1:
            out.append(e)
        mask >>= 1
        e += 1
    return tuple(out)


def _check_ground(n: int) -> None:
    if not 1 <= n <= MAX_GROUND:
        raise DomainError(f"ground set size {n} outside 1..{MAX_GROUND}")


class SetFamily(_Record):
    """A duplicate-free family of subsets of [n], sorted by mask value.

    `SetFamily(n, members)` validates every member.  A family may also keep
    its bitset-of-masks (`core.family_bits`), which is not a field: it never
    enters equality, hash, repr or the JSON form.
    """

    def __init__(self, n: int, members: tuple[int, ...]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "members", members)
        _check_ground(n)
        prev = -1
        for m in members:
            if not prev < m:
                raise DomainError("members must be strictly increasing masks")
            prev = m
        # the members ascend, so the last is the largest
        if prev >= 1 << n:
            raise DomainError(f"mask {prev} does not fit in ground set [{n}]")

    @classmethod
    def from_masks(cls, n: int, masks) -> "SetFamily":
        """Build a family from any iterable of masks (sorted, deduplicated)."""
        return cls(n, tuple(sorted(set(masks))))

    @classmethod
    def from_sets(cls, n: int, sets) -> "SetFamily":
        """Build a family from an iterable of element iterables."""
        return cls.from_masks(n, (mask_of(s) for s in sets))

    @cached_property
    def member_set(self) -> frozenset:
        return frozenset(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def __contains__(self, mask: int) -> bool:
        return mask in self.member_set

    def to_sets(self) -> list[tuple[int, ...]]:
        return [elements_of(m) for m in self.members]

    def sizes(self) -> list[int]:
        return [m.bit_count() for m in self.members]

    def remove(self, mask: int) -> "SetFamily":
        if mask not in self.member_set:
            raise DomainError(f"mask {mask} not in family")
        return SetFamily(self.n, tuple(m for m in self.members if m != mask))

    def relabel(self, perm: tuple[int, ...]) -> "SetFamily":
        """Apply a permutation of [n] (perm[i-1] is the image of element i)."""
        if sorted(perm) != list(range(1, self.n + 1)):
            raise DomainError("perm must be a permutation of 1..n")
        table = _mask_relabel_table(self.n, perm)
        return SetFamily.from_masks(self.n, (table[m] for m in self.members))

    def to_jsonable(self) -> dict:
        return {"n": self.n, "sets": [list(s) for s in self.to_sets()]}

    def to_json(self) -> str:
        return json.dumps(self.to_jsonable(), separators=(",", ":"))

    @classmethod
    def from_jsonable(cls, obj: dict) -> "SetFamily":
        if not isinstance(obj, dict) or "n" not in obj or "sets" not in obj:
            raise DomainError('family JSON must be {"n": int, "sets": [[...]]}')
        n, sets = obj["n"], obj["sets"]
        if type(n) is not int:
            raise DomainError(f"family JSON n must be an integer, got {n!r}")
        if not isinstance(sets, list):
            raise DomainError(f'family JSON "sets" must be a list, got {sets!r}')
        for s in sets:
            if not isinstance(s, list):
                raise DomainError(f"family JSON set {s!r} is not a list of elements")
            for e in s:
                # bool is an int subclass, so True would otherwise read as 1
                if type(e) is not int:
                    raise DomainError(f"family JSON element {e!r} in set {s!r} is not an integer")
        return cls.from_sets(n, sets)

    @classmethod
    def from_json(cls, text: str) -> "SetFamily":
        return cls.from_jsonable(json.loads(text))

    def digest(self) -> str:
        """Stable sha256 of the canonical JSON encoding."""
        import hashlib  # only here, so most processes never load _hashlib

        return hashlib.sha256(self.to_json().encode()).hexdigest()


def _mask_relabel_table(n: int, perm: tuple[int, ...]) -> list[int]:
    bits = [1 << (perm[i] - 1) for i in range(n)]
    table = [0] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        table[m] = table[m ^ low] | bits[low.bit_length() - 1]
    return table
