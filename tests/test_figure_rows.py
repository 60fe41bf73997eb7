"""Golden rows: the CSV data rows of ``otfslab figure 1..4`` stay fixed.

``tests/data/figure<N>.rows`` holds the data rows (no manifest, no header)
that ``otfslab figure N`` writes with the flags below, the ones CI uses.  A
change that moves a single error count, interval or closed-form digit of a
paper figure fails here; one that means to must regenerate the file with
the same command and say why.
"""

import os

import pytest

from otfslab.cli import CSV_HEADER, main

DATA = os.path.join(os.path.dirname(__file__), "data")
FLAGS = {1: ["--frames-max", "16384"], 2: ["--frames-max", "8192"], 3: [], 4: []}


@pytest.mark.parametrize("number", sorted(FLAGS))
def test_figure_data_rows_are_the_golden_rows(number, tmp_path, capsys):
    out = str(tmp_path / f"figure{number}.csv")
    assert main(["figure", str(number), *FLAGS[number], "--out", out]) == 0
    with open(out, encoding="utf-8") as fh:
        got = [line for line in fh.read().splitlines()
               if not line.startswith("#") and line != CSV_HEADER]
    with open(os.path.join(DATA, f"figure{number}.rows"), encoding="utf-8") as fh:
        want = fh.read().splitlines()
    assert got == want
