"""Command line front end binding every module behind stable JSON output.

Commands: construct, analyze, normalize, boundary, verify, search,
reproduce.  Families travel as {"n": int, "sets": [[elements]...]} JSON.
A command's options are the parameters of the library function it runs:
a parameter without a default is a required option, an unset option
leaves the function's default in place, and an option the function does
not take is ignored.
Every command other than a bare `construct` wraps its results in a run
report that echoes the command, parameters, seed, version, and timing, so
a report is reproducible from its own content.  `timing_seconds` covers
the command itself, including the imports of the modules only it uses:
each command imports what it runs when it runs.  Commands put result
objects into their reports as they are; `_emit` is the one place they
become JSON, through json's own encoder, whose `_encode` fallback renders
exact rationals as strings like "4/3" and records through their
`to_jsonable`.  Exit codes are 0 (pass), 1 (verification failure,
including a result that fails its own re-check), 2 (usage error), 3 (a
search budget ran out), 4 (a size cap was exceeded).  A reader that closes
stdout early ends the command quietly with its own exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from collections import Counter
from fractions import Fraction

from . import __version__
from .core import (
    BudgetExhaustedError,
    DomainError,
    LatticeError,
    PreconditionError,
    ResourceLimitError,
    SetFamily,
    VerificationError,
    comparability_graph,
    full_cube,
    height,
    mask_of,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CAP = 4
# the keys of verify.VERIFIERS, which only `verify` and `reproduce` import
SUITE_NAMES = ("blym", "colouring", "diamond-blym", "fact-ab", "key-lemma", "kk", "technical")


class _UsageError(Exception):
    pass


def _encode(obj):
    """json's fallback for what it cannot encode itself: a record as its
    `to_jsonable()`, anything else (a fraction as 'p/q') as its str."""
    if hasattr(obj, "to_jsonable"):
        return obj.to_jsonable()
    return str(obj)


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except (RecursionError, ValueError) as exc:
        # a JSONDecodeError has a place; deep nesting and overlong integers do not
        place = f" at line {exc.lineno} column {exc.colno}" if hasattr(exc, "lineno") else ""
        raise _UsageError(f"parse error in {path}{place}: {getattr(exc, 'msg', exc)}") from exc


def _write_family(path: str, family: SetFamily) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(family.to_jsonable(), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _load_family(path: str) -> SetFamily:
    data = _read_json(path)
    try:
        return SetFamily.from_jsonable(data)
    except (LatticeError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"invalid family in {path}: {exc}") from exc


def _parse_elements(text: str | None) -> tuple[int, ...]:
    if not text:
        return ()
    try:
        parts = tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise _UsageError(f"expected comma-separated integers, got {text!r}") from exc
    return parts


def _flatten(obj, prefix: str, lines: list[str]) -> None:
    if hasattr(obj, "to_jsonable"):
        obj = obj.to_jsonable()
    if isinstance(obj, dict):
        for key, val in obj.items():
            _flatten(val, f"{prefix}{key}." if prefix else f"{key}.", lines)
        return
    label = prefix[:-1]
    if isinstance(obj, (list, tuple)):
        if any(isinstance(v, (list, tuple, dict)) or hasattr(v, "to_jsonable") for v in obj):
            lines.append(f"{label}: {json.dumps(obj, separators=(',', ':'), default=_encode)}")
        else:
            lines.append(f"{label}: {', '.join(str(v) for v in obj)}")
        return
    lines.append(f"{label}: {obj}")


def _emit(report, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(report, indent=2, default=_encode)
    else:
        lines: list[str] = []
        _flatten(report, "", lines)
        text = "\n".join(lines)
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # The reader closed stdout (`| head`).  Point stdout at devnull so the
        # interpreter's flush at exit has nowhere to fail either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _bind(fn, args) -> dict:
    """The options of args that fn takes, as keyword arguments in fn's
    parameter order.  An unset option leaves fn's default in place, or is
    a usage error where the parameter has none."""
    code, kwdefaults = fn.__code__, fn.__kwdefaults__ or {}
    # the positional parameters from index `optional` on take fn.__defaults__
    positional = code.co_argcount
    optional = positional - len(fn.__defaults__ or ())
    kwargs = {}
    for i, name in enumerate(code.co_varnames[:positional + code.co_kwonlyargcount]):
        if (value := getattr(args, name, None)) is not None:
            kwargs[name] = value
        elif i < optional or (i >= positional and name not in kwdefaults):
            raise _UsageError(f"--{name.replace('_', '-')} is required here")
    return kwargs


# The builders import `constructions` only when called.
def _sharp(n: int, k: int, ceil_middle: bool = False) -> SetFamily:
    from .constructions import sharp_family

    return sharp_family(n, k, ceil_middle=ceil_middle)


def _disconnected(n: int) -> SetFamily:
    from .constructions import disconnected_extremal

    return disconnected_extremal(n)


def _diamond(n: int, bottom: str | None = None, *, top: str) -> SetFamily:
    from .constructions import Diamond, diamond_family

    d = Diamond(mask_of(_parse_elements(bottom)), mask_of(_parse_elements(top)))
    return diamond_family(d, n)


def _layer_pair(n: int, k: int) -> SetFamily:
    from .constructions import full_layer_pair

    a, b = full_layer_pair(n, k)
    return SetFamily.from_masks(n, a.members + b.members)


CONSTRUCTIONS = {
    "sharp": _sharp,
    "disconnected": _disconnected,
    "diamond": _diamond,
    "full-cube": full_cube,
    "layer-pair": _layer_pair,
}


def cmd_construct(args) -> tuple[dict, dict, int]:
    build = CONSTRUCTIONS[args.name]
    kwargs = _bind(build, args)
    fam = build(**kwargs)
    if not args.out:
        # a bare construct prints the family alone, so it needs no digest
        return {"name": args.name, **kwargs}, {"family": fam}, EXIT_OK
    _write_family(args.out, fam)
    results = {"family": fam, "size": len(fam), "digest": fam.digest(), "written_to": args.out}
    return {"name": args.name, **kwargs}, results, EXIT_OK


def cmd_analyze(args) -> tuple[dict, dict, int]:
    from .lubell import lubell
    from .normalize import skip_count

    fam = _load_family(args.family)
    results: dict = {"n": fam.n, "size": len(fam), "digest": fam.digest()}
    if len(fam) == 0:
        results.update({"height": None, "lubell": Fraction(0), "two_chains": 0, "skips": 0})
        return {"family": args.family}, results, EXIT_OK
    g = comparability_graph(fam)
    results["height"] = height(fam)
    results["component_orders"] = sorted(g.component_orders)
    results["component_order_histogram"] = dict(sorted(Counter(g.component_orders).items()))
    results["component_size_histogram"] = dict(sorted(Counter(g.component_sizes).items()))
    # the comparability edges are exactly the 2-chains
    results["two_chains"] = sum(g.component_sizes)
    results["lubell"] = lubell(fam)
    try:
        results["skips"] = skip_count(fam)
    except ResourceLimitError as exc:
        # skips need cube-wide closures; every other field has a pairwise route
        results["skips"] = None
        results["skips_reason"] = str(exc)
    return {"family": args.family}, results, EXIT_OK


def cmd_normalize(args) -> tuple[dict, dict, int]:
    from .normalize import make_skipless_with_trace, skip_count

    params = _bind(make_skipless_with_trace, args)
    fam = _load_family(args.family)
    before = skip_count(fam)
    out, steps = make_skipless_with_trace(fam, params["t"])
    results = {
        "family": out,
        "digest": out.digest(),
        "size": len(out),
        "skips_before": before,
        "skips_after": skip_count(out),
    }
    if args.trace:
        results["trace"] = steps
    if args.out:
        _write_family(args.out, out)
        results["written_to"] = args.out
    return {**params, "trace": args.trace}, results, EXIT_OK


def _is_index_list(value) -> bool:
    # bool is an int subclass, so true would otherwise read as index 1
    return isinstance(value, list) and all(type(i) is int for i in value)


def cmd_boundary(args) -> tuple[dict, dict, int]:
    from .shadow import boundary_report

    fam = _load_family(args.family)
    split = _read_json(args.split_file)
    if not (isinstance(split, dict) and _is_index_list(split.get("a"))
            and _is_index_list(split.get("b"))):
        raise _UsageError('split file must be {"a": [component indices], "b": [...]}')
    g = comparability_graph(fam)
    side_a, side_b = split["a"], split["b"]
    chosen = side_a + side_b
    if sorted(chosen) != list(range(g.n_components)):
        raise _UsageError(
            f"split must use each of the {g.n_components} component indices exactly once"
        )

    def side(indices: list[int]) -> SetFamily:
        return SetFamily.from_masks(fam.n, (m for i in indices for m in g.component_members[i]))

    results = boundary_report(side(side_a), side(side_b))
    params = {"family": args.family, "split_file": args.split_file, "a": side_a, "b": side_b}
    return params, results, EXIT_OK


def cmd_verify(args) -> tuple[dict, dict, int]:
    from .verify import VERIFIERS, run_verifier

    params = _bind(VERIFIERS[args.name], args)
    # a family is loaded only for a suite that takes one, and echoed as its path
    kwargs = {k: (_load_family(v) if k == "family" else v) for k, v in params.items()}
    results = run_verifier(args.name, **kwargs)
    return {"suite": args.name, **params}, results, EXIT_OK if results["passed"] else EXIT_FAIL


# operation -> function name in `search`
SEARCHES = {
    "la": "la_exact",
    "la-restricted": "la_exact_restricted",
    "lambda-star": "lambda_star_exact",
    "disconnected": "max_disconnected",
    "xi-star": "xi_star_exact",
    "min2chains": "min_two_chains",
    "madstar": "mad_star_probe",
}


def cmd_search(args) -> tuple[dict, object, int]:
    from . import search

    run = getattr(search, SEARCHES[args.op])
    kwargs = _bind(run, args)
    res = run(**kwargs)
    return {"op": args.op, **kwargs}, res, EXIT_OK if res.proven_optimal else EXIT_BUDGET


def cmd_reproduce(args) -> tuple[dict, dict, int]:
    from .verify import REPRODUCTIONS, run_reproduction

    if args.list:
        return {"list": True}, {"registry": list(REPRODUCTIONS.values())}, EXIT_OK
    if args.name is None:
        raise _UsageError("give a reproduction name or --list")
    results = run_reproduction(args.name)
    return {"name": args.name}, results, EXIT_OK if results["passed"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latticework",
        description="Exact workbench for subfamilies of the Boolean lattice.",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--budget-nodes", type=int)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="emit a named construction as family JSON")
    p.add_argument("name", choices=tuple(CONSTRUCTIONS))
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--ceil-middle", action="store_true")
    p.add_argument("--bottom", help="diamond bottom corner, comma-separated elements")
    p.add_argument("--top", help="diamond top corner, comma-separated elements")
    p.add_argument("--out", help="also write the family JSON to this file")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("analyze", help="size, height, components, 2-chains, Lubell, skips")
    p.add_argument("--family", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("normalize", help="rewrite to a skipless family of equal size")
    p.add_argument("--family", required=True)
    p.add_argument("--t", type=int, help="component order bound the input satisfies")
    p.add_argument("--trace", action="store_true", help="record (added, removed) mask pairs")
    p.add_argument("--out", help="also write the result family JSON to this file")
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("boundary", help="boundary families and excluded count of a split")
    p.add_argument("--family", required=True)
    p.add_argument("--split-file", required=True,
                   help='JSON {"a": [component indices], "b": [...]}')
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument("name", choices=SUITE_NAMES)
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--samples", type=int)
    p.add_argument("--nmax", type=int)
    p.add_argument("--kmax", type=int)
    p.add_argument("--sharp-n", type=int)
    p.add_argument("--family")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exact extremal searches with explicit budgets")
    p.add_argument("op", choices=tuple(SEARCHES))
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--kmin", type=int)
    p.add_argument("--kmax", type=int)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("reproduce", help="rerun a pinned computation and diff the value")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        params, results, code = args.func(args)
    except (_UsageError, DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhaustedError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ResourceLimitError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except VerificationError as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_FAIL
    if args.command == "construct" and not args.out:
        # Bare construct emits the family file format itself, so the output
        # pipes straight back into --family arguments.
        _emit(results["family"], "json")
        return code
    report = {
        "command": args.command,
        "params": params,
        "results": results,
        "seed": args.seed,
        "version": __version__,
        "timing_seconds": round(time.perf_counter() - started, 6),
    }
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
