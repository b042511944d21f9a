"""Input guards that no other test reaches, each pinned to its error and message."""

import pytest

from latticework import search
from latticework.colouring import EdgeColouredGraph, LayerPairGraph, find_rainbow_cycle
from latticework.constructions import Diamond, diamond_family
from latticework.core import (
    DomainError,
    PreconditionError,
    ResourceLimitError,
    SetFamily,
    bits_to_family,
    elements_of,
)
from latticework.lubell import average_meet_count
from latticework.normalize import make_skipless
from latticework.shadow import boundary_report, technical_bound_check


def _at(n, *sets):
    return SetFamily.from_sets(n, sets)


# name -> (call, error, message)
GUARDS = {
    "la_exact t": (lambda: search.la_exact(3, 0), DomainError,
                   "component order bound must be >= 1"),
    "lambda_star_exact t": (lambda: search.lambda_star_exact(3, 0), DomainError,
                            "component order bound must be >= 1"),
    "xi_star_exact m": (lambda: search.xi_star_exact(3, 0), DomainError,
                        "order m out of range for adjacent layer pairs"),
    "xi_star_exact large m": (lambda: search.xi_star_exact(4, 13), DomainError,
                              "order m out of range for adjacent layer pairs"),
    "min_two_chains m": (lambda: search.min_two_chains(3, 9), DomainError,
                         "no family of size 9 in a cube of 8 sets"),
    "make_skipless t": (lambda: make_skipless(SetFamily(3, (1,)), 0), DomainError,
                        "order bound t must be >= 1"),
    "technical_bound_check size": (
        lambda: technical_bound_check(SetFamily(3, ()), "k_plus_one"), PreconditionError,
        "family too small for the requested mode"),
    "boundary_report cubes": (lambda: boundary_report(_at(3, (1,)), _at(4, (2,))), DomainError,
                              "split sides live in different cubes"),
    "LayerPairGraph cubes": (lambda: LayerPairGraph(_at(3, (1,)), _at(4, (1, 2))), DomainError,
                             "layer pair sides live in different cubes"),
    "find_rainbow_cycle vertices": (
        lambda: find_rainbow_cycle(EdgeColouredGraph(65, ()), 3), ResourceLimitError,
        "exhaustive cycle search capped at 64 vertices, length 64"),
    "find_rainbow_cycle length": (
        lambda: find_rainbow_cycle(EdgeColouredGraph(3, ()), 65), ResourceLimitError,
        "exhaustive cycle search capped at 64 vertices, length 64"),
    "diamond_family top": (lambda: diamond_family(Diamond(0, 8), 3), DomainError,
                           "diamond does not fit in the ground set"),
    "bits_to_family mask": (lambda: bits_to_family(3, 1 << 8), DomainError,
                            "mask 8 does not fit in ground set [3]"),
    "elements_of mask": (lambda: elements_of(-1), DomainError, "mask must be non-negative"),
    "remove absent": (lambda: SetFamily(3, (1,)).remove(2), DomainError,
                      "mask 2 not in family"),
    "average_meet_count empty": (lambda: average_meet_count(SetFamily(3, ())), DomainError,
                                 "average meet count of the empty family is undefined"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS)
def test_guard_refuses_with_its_error_and_message(call, error, message):
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message
