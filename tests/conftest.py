"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def src_env():
    """The environment of a child Python that imports this checkout's `src/`
    ahead of anything already on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])]))
