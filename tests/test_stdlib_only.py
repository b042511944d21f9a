"""The package runs on the standard library alone.

A subprocess installs an import hook that refuses every top-level module
outside `sys.stdlib_module_names` and the package itself, then runs the
code that once needed a third-party graph atlas.  The tests' definitional
reference, `reference.py` beside this file, imports the standard library
alone as well: nothing from the package it checks.
"""

import ast
import sys
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.py")

SCRIPT = """
import sys


class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top not in sys.stdlib_module_names and top != "latticework":
            raise ImportError(f"refused non-stdlib import {name!r}")
        return None


sys.meta_path.insert(0, StdlibOnly())

from latticework import cli
from latticework.search import mad_star_probe

for t in range(1, 8):
    assert mad_star_probe(t).proven_optimal, t
sys.exit(cli.main(["reproduce", "madstar-t4"]))
"""


def test_mad_star_runs_on_the_stdlib_alone(run_python):
    assert "passed: True" in run_python("-c", SCRIPT, timeout=None, parse=str)


def test_reference_imports_only_the_standard_library():
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert imported
    assert [m for m in imported if m.partition(".")[0] not in sys.stdlib_module_names] == []
