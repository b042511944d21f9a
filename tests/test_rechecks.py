"""Each re-check of a computed result fires on a planted defect.

The searches re-check their witnesses, the normalization re-checks each
step, and the shadow calculus re-checks its cascades and boundaries.  No
valid input reaches these checks, so each test below plants one defect
with monkeypatch and asserts the error and its message.  A check that is
never reached here could be deleted, or go wrong, without a test noticing.
"""

import json
import sys
from fractions import Fraction
from math import comb, factorial

import pytest

from latticework import blym, constructions, core, normalize, search, shadow
from latticework.cli import main
from latticework.constructions import disconnected_extremal
from latticework.core import SetFamily, VerificationError
from latticework.normalize import NormalizationError, make_skipless
from latticework.shadow import boundary_report, kk_cascade


def _band_with(change):
    """A `search._band` whose tables are changed by change(masks, rows).

    It builds its own tables from the unwrapped function, so the tables
    cached by the real `_band` stay as built."""
    build = search._band.__wrapped__
    return lambda n, kmin, kmax: change(*build(n, kmin, kmax))


def _first_mask_only(masks, rows):
    return masks[:1] * len(masks), rows


def _no_rows(masks, rows):
    return masks, (0,) * len(rows)


BAND_PLANTS = {
    # la(4, 3) = 7 beats the seed of 6, so the witness is built from the band
    "la_exact size": (_first_mask_only, lambda: search.la_exact(4, 3),
                      "witness has 1 members, not 7"),
    "la_exact order": (_no_rows, lambda: search.la_exact(3, 2),
                       "witness has a component of order above 2"),
    "lambda_star_exact order": (_no_rows, lambda: search.lambda_star_exact(3, 1),
                                "witness has a component of order above 1"),
    "max_disconnected size": (_first_mask_only, lambda: search.max_disconnected(4),
                              "witness has 1 members, not 10"),
    "max_disconnected connected": (_no_rows, lambda: search.max_disconnected(3),
                                   "witness is connected"),
    "min_two_chains count": (_no_rows, lambda: search.min_two_chains(3, 4),
                             "witness has 5 2-chains, not 0"),
}


@pytest.mark.parametrize("change, call, message", BAND_PLANTS.values(), ids=BAND_PLANTS)
def test_search_witness_recheck_fires_on_a_changed_band(monkeypatch, change, call, message):
    monkeypatch.setattr(search, "_band", _band_with(change))
    with pytest.raises(VerificationError, match=f"^{message}$"):
        call()


def test_la_band_recheck_fires_on_a_seed_outside_the_band(monkeypatch):
    # a zero budget stops the search at once, so the seed is the witness
    monkeypatch.setattr(search, "_la_seeds", lambda n, t, kmin, kmax: SetFamily(3, (0,)))
    with pytest.raises(VerificationError, match=r"^witness leaves the layer band \[1, 1\]$"):
        search.la_exact_restricted(3, 1, 1, 1, budget_nodes=0)


def test_xi_star_order_recheck_fires_on_a_repeated_layer(monkeypatch):
    layer_masks = search.layer_masks
    monkeypatch.setattr(search, "layer_masks",
                        lambda n, k: layer_masks(n, k)[:1] * len(layer_masks(n, k)))
    with pytest.raises(VerificationError, match="^witness has order 2, not 4$"):
        search.xi_star_exact(3, 4)


def test_xi_star_degree_recheck_fires_on_rows_that_hold_every_pair(monkeypatch):
    monkeypatch.setattr(search, "_comparability_rows",
                        lambda masks: [(1 << len(masks)) - 1] * len(masks))
    with pytest.raises(VerificationError, match="^witness has average degree 1, not 2$"):
        search.xi_star_exact(3, 4)


# {} and {1, 2}: the one step adds the skip {1} and removes {1, 2}
SKIPPED = SetFamily.from_sets(3, [(), (1, 2)])


def test_step_size_recheck_fires_on_a_member_taken_for_a_skip(monkeypatch):
    # the empty set is a member, so adding it leaves the family one short
    monkeypatch.setattr(normalize, "_skip_bits", lambda n, bits: 1)
    with pytest.raises(NormalizationError, match="^step changed the family cardinality$"):
        make_skipless(SKIPPED, 2)


def test_step_skip_recheck_fires_on_a_count_that_stays(monkeypatch):
    monkeypatch.setattr(normalize, "_skip_bits", lambda n, bits: 0b110)
    with pytest.raises(NormalizationError,
                       match="^skip count failed to decrease: added 1, removed 3$"):
        make_skipless(SKIPPED, 2)


def test_step_order_recheck_fires_on_a_graph_past_the_bound(monkeypatch):
    # the input passes its precondition graph; the component the step leaves
    # reads as 99 members
    monkeypatch.setattr(normalize, "_components_meeting",
                        lambda n, bits, seed, region: [(1 << 99) - 1])
    with pytest.raises(NormalizationError, match=(
            "^order bound violated after step 0: added 1, removed 3, max order 99 > 2$")):
        make_skipless(SKIPPED, 2)


def test_cascade_sum_recheck_fires_on_a_wrong_value(monkeypatch):
    monkeypatch.setattr(shadow.CascadeRep, "value", property(lambda rep: -1))
    with pytest.raises(VerificationError, match="^cascade of m=5 at k=2 sums to -1$"):
        kk_cascade(5, 2)


def test_cascade_tops_recheck_fires_on_tops_that_do_not_fall(monkeypatch):
    # C(a, 2) out of reach for a >= 3 keeps the level-2 top at 2, and level 1 takes 4
    monkeypatch.setattr(shadow, "binomial", lambda a, b: comb(a, b) if b != 2 or a < 3 else 10**9)
    with pytest.raises(VerificationError, match="^cascade of m=5 at k=2 has non-decreasing tops$"):
        kk_cascade(5, 2)


def test_cascade_level_check_is_a_defect_not_bad_input(monkeypatch):
    # level 1 always takes the rest as its top; a level-1 binomial that
    # takes nothing leaves a rest that no level can take
    monkeypatch.setattr(shadow, "binomial",
                        lambda a, b: comb(a, b) if b >= 2 else (0 if a < 2 else 10**9))
    with pytest.raises(VerificationError, match="^no cascade for m=5 at k=2$"):
        kk_cascade(5, 2)


def test_boundary_recheck_fires_on_a_split_of_every_set(monkeypatch):
    monkeypatch.setattr(shadow, "_split_bits", lambda a, b: (1 << 8) - 1)
    a, b = SetFamily.from_sets(3, [(1,)]), SetFamily.from_sets(3, [(2,)])
    with pytest.raises(VerificationError, match="^split has an empty boundary side$"):
        boundary_report(a, b)


def test_interval_meet_count_check_is_a_defect_not_bad_input(monkeypatch):
    # n! * a! * (n - b)! / (n - b + a)! is n! / C(n - h, a), always whole;
    # `from latticework import lubell` would give the function, not the module
    lubell = sys.modules["latticework.lubell"]
    monkeypatch.setattr(lubell, "factorial", lambda x: factorial(x) + (x == 4))
    with pytest.raises(VerificationError, match="^interval meet count did not divide evenly$"):
        lubell.diamond_meet_count(1, 7, 4)


# A family built with its bitset is cross-checked against it by count and
# largest mask; each builder's route plants a bitset that disagrees.
BITS_PLANTS = {
    "bits_to_family count": (core, "iter_bits", lambda bits: [],
                             lambda: core.bits_to_family(3, 0b101),
                             "bitset of 2 masks up to 2 disagrees with 0 members up to -1"),
    "disconnected_extremal top": (core, "iter_bits", lambda bits: list(range(bits.bit_count())),
                                  lambda: disconnected_extremal(3),
                                  "bitset of 4 masks up to 6 disagrees with 4 members up to 3"),
    "sharp_family count": (constructions, "family_bits", lambda masks: 1,
                           lambda: constructions.sharp_family(4, 1),
                           "bitset of 2 masks up to 8 disagrees with 6 members up to 12"),
    "full_cube count": (core, "_full", lambda n: (1 << (1 << n)) - 2, lambda: core.full_cube(2),
                        "bitset of 3 masks up to 3 disagrees with 4 members up to 3"),
}


@pytest.mark.parametrize("module, name, plant, call, message", BITS_PLANTS.values(),
                         ids=BITS_PLANTS)
def test_kept_bitset_recheck_fires_on_members_that_disagree(monkeypatch, module, name, plant,
                                                             call, message):
    monkeypatch.setattr(module, name, plant)
    with pytest.raises(VerificationError, match=f"^{message}$"):
        call()


# One planted re-check per command that can reach one, run through the CLI,
# which exits 1 with the message on stderr and nothing on stdout; normalize
# and search have theirs in tests/test_cli.py.  analyze reaches no re-check
# site: it reads the graph, height, Lubell sum and skip count of a family
# read from JSON, and none of these re-checks.
CLI_PLANTS = {
    "construct": (constructions, "family_bits", lambda masks: 1,
                  ["construct", "sharp", "--n", "4", "--k", "1"],
                  "bitset of 2 masks up to 8 disagrees with 6 members up to 12"),
    "boundary": (shadow, "shade_bits", lambda n, bits: (1 << (1 << n)) - 1,
                 ["boundary", "--family", "{family}", "--split-file", "{split}"],
                 "split has an empty boundary side"),
    "verify": (blym, "lubell", lambda family: Fraction(2),
               ["verify", "blym", "--family", "{antichain}"],
               "BLYM sum 2 of an antichain exceeds 1"),
    "reproduce": (search, "_band", _band_with(_no_rows), ["reproduce", "sperner-n3"],
                  "witness has a component of order above 1"),
}


@pytest.mark.parametrize("module, name, plant, argv, message", CLI_PLANTS.values(), ids=CLI_PLANTS)
def test_each_command_exits_one_on_a_planted_recheck(capsys, monkeypatch, tmp_path,
                                                     module, name, plant, argv, message):
    files = {"family": disconnected_extremal(4).to_jsonable(), "split": {"a": [0], "b": [1]},
             "antichain": SetFamily.from_sets(3, [(1,), (2,), (3,)]).to_jsonable()}
    for key, obj in files.items():
        (tmp_path / key).write_text(json.dumps(obj))
    monkeypatch.setattr(module, name, plant)
    assert main([arg.format_map({key: tmp_path / key for key in files}) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"verification failed: {message}\n")
