"""Every command of the golden-output corpus prints the bytes, exit code and first
stderr line it was recorded with (tools/golden_outputs.py --record rewrites it)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden_outputs", ROOT / "tools" / "golden_outputs.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

ENTRIES = json.loads(golden.CORPUS.read_text())


@pytest.mark.parametrize("entry", ENTRIES, ids=[f"{i:02d}-{e['argv'][0]}" for i, e in enumerate(ENTRIES)])
def test_command_replays_its_recorded_outcome(entry):
    assert golden.outcome(entry["argv"]) == entry


def test_the_corpus_holds_exactly_the_commands_it_is_recorded_from():
    assert [entry["argv"] for entry in ENTRIES] == golden.commands()
