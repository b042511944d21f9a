"""The package runs on the standard library alone.

A subprocess installs an import hook that refuses every top-level module
outside `sys.stdlib_module_names` and the package itself, then runs the
code that once needed a third-party graph atlas.
"""

import subprocess
import sys

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


def test_mad_star_runs_on_the_stdlib_alone(src_env):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=src_env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert "passed: True" in proc.stdout
