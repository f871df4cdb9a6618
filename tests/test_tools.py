"""Tooling kept with the package: the output hash listing of the benchmark
workloads, by which a refactor is checked to keep every output byte-identical,
and the peak memory of each command on them."""

import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"
OUTPUT_HASHES = TOOLS / "output_hashes.py"


def test_output_hashes_repeat(tmp_path):
    """Two runs into one work directory list the same 13 files of
    reg-short-windows (two cache splits of two scales, models, the scale-0
    warm start, metrics, summary, the scale-0 evaluation report and
    snapshot) with the same hashes."""
    listings = [subprocess.run([sys.executable, OUTPUT_HASHES, tmp_path, "reg-short-windows"],
                               capture_output=True, text=True, check=True).stdout
                for _ in range(2)]
    lines = listings[0].splitlines()
    assert len(lines) == 13
    assert all(line.split("  ")[1].startswith("reg-short-windows/out/") for line in lines)
    assert listings[1] == listings[0]


def test_peak_rss_lists_each_command(tmp_path):
    """One line per command of reg-short-windows, preprocess then pipeline,
    each with a positive peak RSS in MB."""
    listing = subprocess.run([sys.executable, TOOLS / "peak_rss.py", tmp_path,
                              "reg-short-windows"],
                             capture_output=True, text=True, check=True).stdout
    rows = [line.split() for line in listing.splitlines()]
    assert [row[:2] for row in rows] == [["reg-short-windows", "preprocess"],
                                         ["reg-short-windows", "pipeline"]]
    assert all(float(row[2]) > 0 for row in rows)
