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


ITEMS = [m for m in END_TO_END if m["name"] == "items_per_s"]
# ten parent runs with median 1,498.6 and inclusive IQR 1,579 - 1,400 = 179
PARENT_ITEMS = [1300, 1350, 1400, 1400, 1498.6, 1498.6, 1579, 1579, 1650, 1700]


@pytest.mark.parametrize(
    "change, wins, gain",
    [
        # 9 of 10 pairs won (the last lost), medians 1,498.6 -> 1,626.9: a move
        # of 128.3, inside the parent's IQR of 179, so the gain is not resolved
        ([1400, 1450, 1500, 1626.9, 1626.9, 1650, 1700, 1720, 1750, 1610], 9, "not resolved"),
        # 10 of 10 won and the medians move by 250, past the IQR
        ([x + 250 for x in PARENT_ITEMS], 10, "resolved"),
        # the median moves past the IQR, but 8 of 10 pairs are won
        ([x + 250 for x in PARENT_ITEMS[:8]] + [1200, 1300], 8, "not resolved"),
    ],
)
def test_a_claimed_gain_is_resolved_by_nine_wins_in_ten_and_a_move_past_the_parent_iqr(change, wins, gain):
    runs = [[{"items_per_s": x} for x in side] for side in (PARENT_ITEMS, change)]
    judged = _judge()(*runs, ITEMS)["items_per_s"]
    assert judged["parent_iqr"] == pytest.approx(179)
    assert (judged["wins"], judged["gain"]) == (wins, gain)


def test_a_gain_in_a_lower_is_better_metric_moves_the_median_down():
    faster = [{"item_p50_ms": x} for x in (0.40, 0.41, 0.39, 0.40, 0.42, 0.40, 0.41, 0.39, 0.40, 0.41)]
    slower = [{"item_p50_ms": x * 1.5} for x in (0.40, 0.41, 0.39, 0.40, 0.42, 0.40, 0.41, 0.39, 0.40, 0.41)]
    p50 = [m for m in END_TO_END if m["name"] == "item_p50_ms"]
    assert _judge()(slower, faster, p50)["item_p50_ms"]["gain"] == "resolved"
    assert _judge()(faster, slower, p50)["item_p50_ms"]["gain"] == "not resolved"
