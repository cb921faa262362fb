"""Reports of existing scenarios stay byte-identical across code changes.

The files under ``tests/data`` were written by the command-line tool with
the scenario next to them: the suites before the class cones became
index-array matrices, the ``solve``, ``dominate``, single-case
``verify``, ``simulate`` and table/csv reports before the scenario layer
moved to one option table, and the convex ``verify`` suite and ``dominate``
failure before the convex cone became a ``ConeMatrix``, and the convex
clamp closure before convex membership passed subgradients between
neighbouring nodes.  The convex spread ``dominate`` report and the seed-11
3x3x3 T2b suite were written when convex dominance first tried a
martingale coupling; that suite's rows other than cases 1, 10 and 11
(vacuous before, after the cone LP stalled) equal the ones written
without it.  Scenario paths appear in the report header, so each
command runs from the data directory with a relative path.
"""
import contextlib
import io
from pathlib import Path

import pytest

from mcsearch.cli import run_command

DATA = Path(__file__).resolve().parent / "data"

FORMAT_OF = {".jsonl": "json-lines", ".csv": "csv", ".txt": "table"}

#: (subcommand, scenario stem, golden report file, expected exit code)
CASES = [("verify", f"verify_{t}", f"verify_{t}.jsonl", 0) for t in ("T2a", "T2b", "T2c", "T3", "T4")] + [
    ("closure", "closure_supermodular_truncate", "closure_supermodular_truncate.jsonl", 0),
    ("closure", "closure_convex_clamp", "closure_convex_clamp.jsonl", 0),
    ("solve", "solve_product", "solve_product.jsonl", 0),
    ("dominate", "dominate_supermodular", "dominate_supermodular.jsonl", 0),
    ("dominate", "dominate_increasing_fails", "dominate_increasing_fails.jsonl", 1),
    ("dominate", "dominate_convex_fails", "dominate_convex_fails.jsonl", 1),
    ("dominate", "dominate_convex_spread", "dominate_convex_spread.jsonl", 0),
    ("verify", "verify_T2b_3x3x3", "verify_T2b_3x3x3.jsonl", 0),
    ("verify", "verify_single_T3", "verify_single_T3.jsonl", 0),
    ("simulate", "simulate_reservation", "simulate_reservation.jsonl", 0),
    ("verify", "verify_T2a", "verify_T2a.txt", 0),
    ("verify", "verify_T2a", "verify_T2a.csv", 0),
]


def _case_id(case):
    _, stem, golden, _ = case
    return stem if golden == f"{stem}.jsonl" else golden


@pytest.mark.parametrize("command,stem,golden,code", CASES, ids=[_case_id(c) for c in CASES])
def test_report_matches_golden(command, stem, golden, code, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA)
    out = tmp_path / golden
    fmt = FORMAT_OF[out.suffix]
    with contextlib.redirect_stdout(io.StringIO()):
        assert run_command([command, f"{stem}.json", "--out", str(out), "--format", fmt]) == code
    assert out.read_bytes() == (DATA / golden).read_bytes()
