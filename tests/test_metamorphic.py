"""Metamorphic properties of the command line.

Shifting every timestamp by one constant leaves every age unchanged, and
an order-preserving relabelling of user and item ids leaves every index
unchanged, so neither may change the ssnr curve, the trend fit or the
hit counts.  (A relabelling that reorders ids may legitimately change
results: ties between equal scores break by item index.)
"""

import pytest

from driftcf.cli import main


@pytest.fixture(scope="module")
def base_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("meta") / "log.tsv"
    assert main([
        "synth", "--seed", "3", "--out", str(path),
        "--users", "120", "--items", "300", "--events", "9000", "--topics", "8",
    ]) == 0
    return path


def shift_timestamps(user, item, ts):
    return user, item, ts + 10**12 + 7


def prefix_ids(user, item, ts):
    return "member-" + user, "entry-" + item, ts


def outputs(log, work):
    """analyze-ssnr curve and trend bytes and evaluate report bytes."""
    curve, trend, report = work / "curve.csv", work / "trend.json", work / "report.json"
    assert main([
        "analyze-ssnr", "--in", str(log), "--curve-out", str(curve), "--trend-out", str(trend),
    ]) == 0
    assert main([
        "evaluate", "--in", str(log), "--decay", "piecewise:Ts=5e4,Tl=1e6,Ks=0.6,Kl=0.3",
        "--out", str(report),
    ]) == 0
    return curve.read_bytes(), trend.read_bytes(), report.read_bytes()


@pytest.mark.parametrize("transform", [shift_timestamps, prefix_ids])
def test_outputs_unchanged(base_log, tmp_path, transform):
    lines = []
    for line in base_log.read_text().splitlines():
        user, item, ts = line.split("\t")
        user, item, ts = transform(user, item, int(ts))
        lines.append(f"{user}\t{item}\t{ts}\n")
    moved = tmp_path / "moved.tsv"
    moved.write_text("".join(lines))
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    assert outputs(moved, tmp_path / "b") == outputs(base_log, tmp_path / "a")
