"""What importing the package, and running one CLI command, loads.

The package namespace is lazy: a bare `import latticework` loads `family` and
`lubell`, and every other public name imports its submodule on first use.
`family`, the value layer, loads no other latticework module, so neither
does a module that only reads families.
The first half pins that namespace to the public names the eager package
had.  The second half runs each CLI command in a fresh process and pins
the package modules it leaves in `sys.modules`, so an eager import put back
anywhere on a command's path fails here.  Neither a bare import nor any
command may load `dataclasses` or `inspect`, which cost a short process
more than its own work.  Those children start with `-S`: they need only the
stdlib and `src/`, and `site` may import modules of its own from the
site-packages of whatever interpreter runs the tests.
"""

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path
from types import ModuleType

import pytest

import latticework
from latticework.constructions import disconnected_extremal

ROOT = Path(__file__).resolve().parent.parent
# stdlib modules no latticework process may load
SLOW_STDLIB = ("dataclasses", "inspect")

# `[n for n in dir(latticework) if not n.startswith("_")]` after a bare
# `import latticework`, as the eager package gave it
PUBLIC_NAMES = """
BudgetExhaustedError CascadeRep CertificationReport CheckResult
ComparabilityGraph Diamond DiamondProfile DomainError EdgeColouredGraph LatticeError
LayerPairGraph MeetProfile NormalizationError PreconditionError REPRODUCTIONS
ResourceLimitError SearchResult SetFamily SkipReport StepRecord VERIFIERS
VerificationError all_diamond_bound average_meet_count avg_degree binomial blym blym_sum
boundary_report certify colouring comparability_graph constructions core
count_two_chains detect_diamond diamond_blym_sum diamond_claim
diamond_family diamond_meet_count diamond_profile disconnected_claim
disconnected_extremal disconnected_extremal_size disconnected_splits down_closure
elements_of family find_rainbow_cycle find_skips full_cube
full_layer_pair height is_antichain is_proper kk_cascade kk_shadow_bound
la_exact la_exact_restricted lambda_star_exact layer_colouring layer_masks lower_shadow
lubell lubell_by_permutations mad_star_probe make_skipless make_skipless_with_trace
mask_of max_disconnected meet_profile min_two_chains normalize run_reproduction
run_verifier sampling search shadow sharp_claim sharp_family skip_count
technical_bound_check up_closure verify xi xi_star_exact
""".split()


def test_each_name_resolves_to_its_module_object():
    modules = {
        m.name: importlib.import_module(f"latticework.{m.name}")
        for m in pkgutil.iter_modules(latticework.__path__)
    }
    for name in PUBLIC_NAMES:
        obj = getattr(latticework, name)
        if isinstance(obj, ModuleType):
            assert obj is modules[name], name
            continue
        # every module that holds the name holds this very object
        held = [getattr(mod, name) for mod in modules.values() if hasattr(mod, name)]
        assert held and all(value is obj for value in held), name


def test_lubell_is_the_function_before_and_after_the_search_import(run_python):
    script = (
        "import inspect, json, latticework\n"
        "before = latticework.lubell\n"
        "import latticework.search, latticework.lubell\n"
        "print(json.dumps([inspect.isfunction(before), latticework.lubell is before,\n"
        "                  latticework.search.lubell is before]))\n"
    )
    assert run_python("-c", script, timeout=None) == [True, True, True]
    assert inspect.isfunction(latticework.lubell)
    assert latticework.lubell is latticework.search.lubell


def test_each_export_is_defined_in_the_module_it_is_listed_under():
    # a name re-exported through a second module would be listed there
    for module, names in latticework._EXPORTS.items():
        for name in names:
            defined_in = getattr(getattr(latticework, name), "__module__", None)
            assert defined_in in (None, f"latticework.{module}"), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        latticework.no_such_name
    # a constant that only the submodules export
    assert not hasattr(latticework, "NODE_BUDGET")


def test_star_import_binds_the_public_names():
    namespace: dict = {}
    exec("from latticework import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC_NAMES


def test_bare_import_loads_only_family_and_lubell(run_python):
    script = (
        "import json, sys, latticework\n"
        "print(json.dumps([sorted(m for m in sys.modules if m.startswith('latticework.')),\n"
        "                  [n for n in dir(latticework) if not n.startswith('_')],\n"
        f"                  [m for m in {SLOW_STDLIB!r} if m in sys.modules]]))\n"
    )
    loaded, public, slow = run_python("-S", "-c", script, timeout=None)
    assert loaded == ["latticework.family", "latticework.lubell"]
    assert public == PUBLIC_NAMES
    assert slow == []


def test_family_imports_no_latticework_module():
    # read, not imported: importing latticework.family runs the package __init__
    tree = ast.parse((ROOT / "src" / "latticework" / "family.py").read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert "json" in imported
    assert [m for m in imported if m.startswith((".", "latticework"))] == []


def test_colouring_loads_no_kernel_module(run_python):
    script = (
        "import json, sys, latticework\n"
        "before = set(sys.modules)\n"
        "import latticework.colouring\n"
        "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
        "                        if m.startswith('latticework'))))\n"
    )
    assert run_python("-c", script, timeout=None) == ["latticework.colouring"]


FOOTPRINT_SCRIPT = f"""
import contextlib, io, json, sys
from latticework import cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
loaded = sorted(m.partition(".")[2] for m in sys.modules if m.startswith("latticework."))
slow = [m for m in {SLOW_STDLIB!r} if m in sys.modules]
print(json.dumps([code, loaded, "hashlib" in sys.modules, slow]))
"""

BASE = ["cli", "core", "family", "lubell"]
SEARCH = ["constructions", "search"]

# argv -> (package modules loaded beyond BASE, whether hashlib is loaded)
FOOTPRINTS = {
    # a bare construct prints no digest, so it never hashes
    "construct sharp --n 7 --k 2": (["constructions"], False),
    "construct sharp --n 7 --k 2 --out out.json": (["constructions"], True),
    "analyze --family family.json": (["normalize"], True),
    "normalize --family family.json --t 16 --trace": (["normalize"], True),
    "search la --n 4 --t 2": (SEARCH, True),
    "verify kk --n 4 --k 2": (["shadow", "verify"], False),
    "verify technical --nmax 4 --kmax 2": (["shadow", "verify"], False),
    "boundary --family family.json --split-file split.json": (["shadow"], False),
    "reproduce la-n4-t4": (SEARCH + ["verify"], False),
    "reproduce sharp-size-n12-k3": (["constructions", "verify"], False),
}


def test_each_command_imports_only_what_it_runs(tmp_path, run_python):
    (tmp_path / "family.json").write_text(disconnected_extremal(4).to_json())
    (tmp_path / "split.json").write_text(json.dumps({"a": [1], "b": [0]}))
    for command, (extra, hashes) in FOOTPRINTS.items():
        code, loaded, hashlib_loaded, slow = run_python(
            "-S", "-c", FOOTPRINT_SCRIPT, json.dumps(command.split()), timeout=None, cwd=tmp_path
        )
        assert code == 0, command
        assert loaded == sorted(BASE + extra), command
        assert hashlib_loaded == hashes, command
        assert slow == [], command
