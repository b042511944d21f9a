"""Fixtures shared by the test modules."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

# the one graph check reports its failed assertions as the test modules do
pytest.register_assert_rewrite("graph_oracle")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# the one table of proven values: per entry an op, its positional args, the
# value (a fraction as "p/q") and how it was proven
KNOWN_VALUES = Path(__file__).with_name("known_values.json")


@pytest.fixture
def src_env():
    """The environment of a child Python that imports this checkout's `src/`
    ahead of anything already on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))


@pytest.fixture
def run_python(src_env):
    """Run `python *args` in a child with `src_env`, check that it exits 0
    within timeout seconds (None waits as long as it takes), and return its
    stdout read by parse, as JSON unless told otherwise."""

    def run(*args, timeout, cwd=ROOT, parse=json.loads):
        proc = subprocess.run([sys.executable, *args], env=src_env, cwd=cwd,
                              capture_output=True, text=True, timeout=timeout)
        assert proc.returncode == 0, proc.stderr
        return parse(proc.stdout)

    return run


# What a probe's child makes of one call: read(value) of the expression,
# evaluated with names bound, or the type name of the exception it raised
OUTCOME = """
import json


def outcome(call, read=lambda value: "returned", **names):
    try:
        return read(eval(call, globals(), names))
    except Exception as exc:
        return type(exc).__name__
"""


@pytest.fixture
def run_probe(run_python):
    """Run script in a child as `run_python` does, with `outcome` defined
    for it, and return the JSON it prints."""

    def run(script, timeout=None):
        return run_python("-c", OUTCOME + script, timeout=timeout)

    return run


@pytest.fixture(scope="session")
def known_entries():
    """The entries of `known_values.json`, in file order."""
    return json.loads(KNOWN_VALUES.read_text())


@pytest.fixture(scope="session")
def known(known_entries):
    """Each proven value by (op, *args), a "p/q" string read as a Fraction."""
    return {(e["op"], *e["args"]): Fraction(e["value"]) if isinstance(e["value"], str)
            else e["value"] for e in known_entries}
