from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = importlib.util.spec_from_file_location("compare_records", ROOT / "scripts" / "compare_records.py")
compare_records = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(compare_records)


@pytest.fixture
def demo():
    """The committed demo run's results.json, parsed."""
    return json.loads((ROOT / "out" / "demo" / "results.json").read_text(encoding="utf-8"))


def compare(tmp_path, a, b) -> int:
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, doc in zip(paths, (a, b)):
        path.write_text(json.dumps(doc), encoding="utf-8")
    return compare_records.main([str(path) for path in paths])


def test_two_copies_of_one_file_compare_equal(tmp_path, demo, capsys):
    assert compare(tmp_path, demo, demo) == 0
    out = capsys.readouterr().out
    assert "tix_fourier mae: 0 of 164 moved, largest relative move 0\n" in out
    # The demo has no quantile head: an empty wql on both sides is no value to compare.
    assert " wql" not in out


def test_a_mae_moved_by_one_part_in_a_trillion_fails(tmp_path, demo, capsys):
    moved = json.loads(json.dumps(demo))
    moved["records"][100]["mae"] *= 1 + 1e-12
    assert compare(tmp_path, demo, moved) == 1
    imputer = demo["records"][100]["imputer_id"]
    assert f"{imputer} mae: 1 of 164 moved" in capsys.readouterr().out


def test_a_dropped_record_fails(tmp_path, demo, capsys):
    dropped = {**demo, "records": demo["records"][:5] + demo["records"][6:]}
    assert compare(tmp_path, demo, dropped) == 1
    assert capsys.readouterr().out.startswith("keys differ: 984 against 983 records")


def test_a_wql_on_one_side_only_fails(tmp_path, demo):
    scored = json.loads(json.dumps(demo))
    scored["records"][0]["wql"] = 0.25
    assert compare(tmp_path, demo, scored) == 1
    assert compare(tmp_path, scored, demo) == 1
