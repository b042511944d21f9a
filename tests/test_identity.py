"""tools/identity.py's corpus definitions, checked without running the full corpus."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tool():
    spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_plant_names_an_attribute_of_its_module():
    # a plant whose name left its module would raise only when the corpus runs
    for label, module, name, _, cases in load_tool().plants():
        assert hasattr(module, name), (label, module.__name__, name)
        assert cases, label


def test_every_suite_entry_is_named_once():
    names = [name for name, *_ in load_tool().suite_runs()]
    assert len(set(names)) == len(names)


def test_every_search_entry_is_named_once():
    names = [name for name, *_ in load_tool().search_runs()]
    assert names and len(set(names)) == len(names)


def test_the_graph_corpus_names_397_families_once():
    # the definitions only: building the families takes about 2 s
    names = [name for name, *_ in load_tool().graph_runs()]
    assert len(names) == 397 and len(set(names)) == len(names)


def test_the_normalize_corpus_builds_to_plain_json():
    entries = load_tool().normalize_entries()
    assert len(entries) == 418
    assert not [name for name, value in entries.items() if "error" in value]
    # no `default` hook: this tree's skips and traces are plain tuples
    json.dumps(entries)
