"""Whole-output replay of the command line.

`cli_golden.json` holds input files and, for each recorded command, its
exact stdout, stderr and exit code, with run times masked.  Each case runs
in process in a fresh directory that holds the input files, so the paths a
command prints are the relative ones it was given.

Regenerate the expected outputs from the current code, after a deliberate
change of output, with `PYTHONPATH=src python tests/test_cli_golden.py`;
new cases are added by appending their argv to the file's "cases" list.
"""

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path

import pytest

from navlog.cli import run_cli

CORPUS = Path(__file__).resolve().with_name("cli_golden.json")
_ELAPSED = re.compile(r'("elapsed_(?:ms|s)": )[0-9.e+-]+|(elapsed: )[0-9.]+s')


def mask(text: str) -> str:
    """The text with every run time replaced by '*'."""
    return _ELAPSED.sub(lambda m: (m.group(1) or m.group(2)) + "*", text)


def replay(argv, directory: Path, files) -> dict:
    for name, text in files.items():
        (directory / name).write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_cli(argv)
    return {"argv": argv, "code": code, "stdout": mask(out.getvalue()),
            "stderr": mask(err.getvalue())}


def _load():
    corpus = json.loads(CORPUS.read_text())
    return corpus["files"], corpus["cases"]


FILES, CASES = _load()


@pytest.mark.parametrize(
    "case", CASES,
    ids=[f"{k:02d}-{case['argv'][0] if case['argv'] else 'none'}"
         for k, case in enumerate(CASES)])
def test_recorded_output(case, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")
    assert replay(case["argv"], tmp_path, FILES) == case


def _regenerate() -> None:
    os.environ["COLUMNS"] = "80"
    files, cases = _load()
    fresh = []
    for case in cases:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            fresh.append(replay(case["argv"], Path(tmp), files))
    CORPUS.write_text(json.dumps({"files": files, "cases": fresh}, indent=1,
                                 ensure_ascii=False) + "\n")
    print(f"recorded {len(fresh)} cases in {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
