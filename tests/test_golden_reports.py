"""Reports of existing scenarios stay byte-identical across code changes.

The files under ``tests/data`` were written by ``mcsearch verify`` and
``mcsearch closure`` before the class cones became index-array matrices.
Scenario paths appear in the report header, so each command runs from the
data directory with a relative path.
"""
import contextlib
import io
from pathlib import Path

import pytest

from mcsearch.cli import run_command

DATA = Path(__file__).resolve().parent / "data"

CASES = [("verify", f"verify_{t}") for t in ("T2a", "T2c", "T3", "T4")] + [
    ("closure", "closure_supermodular_truncate")
]


@pytest.mark.parametrize("command,name", CASES, ids=[name for _, name in CASES])
def test_report_matches_golden(command, name, tmp_path, monkeypatch):
    monkeypatch.chdir(DATA)
    out = tmp_path / f"{name}.jsonl"
    with contextlib.redirect_stdout(io.StringIO()):
        code = run_command([command, f"{name}.json", "--out", str(out), "--format", "json-lines"])
    assert code == 0
    assert out.read_bytes() == (DATA / f"{name}.jsonl").read_bytes()
