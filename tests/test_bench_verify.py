"""The three verdicts of .github/bench_verify.py's judge, on recorded and synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _judge():
    spec = importlib.util.spec_from_file_location("bench_verify", ROOT / ".github" / "bench_verify.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.judge


# a verify row's wall time takes the bound of item_p50_ms, as bench_verify.verify_rows reads it
END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
WALL = [dict(m, name="wall_s") for m in END_TO_END if m["name"] == "item_p50_ms"]


def test_a_recorded_row_wider_than_its_bound_is_unresolved():
    # the record made over 27817dd judged desk case 7 worse than its bound
    # (median 0.146 -> 0.194 s), on change runs of 0.131-0.211 s: their IQR,
    # 0.060 s, is wider than 0.24 of their median, so the runs cannot tell
    # that change from the host's spread
    record = next(r for r in json.loads((ROOT / "BENCH_verify.json").read_text()) if r["commit"].startswith("27817dd"))
    row = next(r for r in record["rows"] if r["command"].startswith("verify --suite main-theorem-desk --case 7 "))
    assert row["judged"]["wall_s"]["worse_than_bound"]
    assert _judge()(row["runs"]["parent"], row["runs"]["change"], WALL)["wall_s"]["verdict"] == "unresolved"


PARENT = [1.0, 1.01, 0.99, 1.005, 0.995]


@pytest.mark.parametrize(
    "change, verdict",
    [
        ([x * 1.3 for x in PARENT], "worse"),  # a tight slowdown of 30%, above the bound of 24%
        (PARENT, "not worse"),  # the same runs on both sides
        ([x * 1.1 for x in PARENT], "not worse"),  # a tight slowdown within the bound
        ([0.5, 0.9, 0.6, 0.95, 0.7], "not worse"),  # wide, but every run beats every parent run
        ([0.5, 1.4, 0.6, 1.5, 1.0], "unresolved"),  # wide and mixed
    ],
)
def test_synthetic_runs_read_their_verdict(change, verdict):
    runs = [[{"wall_s": x} for x in side] for side in (PARENT, change)]
    assert _judge()(*runs, WALL)["wall_s"]["verdict"] == verdict
