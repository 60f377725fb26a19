"""The command line's contract: golden transcripts of whole CLI runs.

Each case is one command line, run in-process through ``cli.main``, with
its stdout, stderr and exit code recorded in ``golden/cli/<name>.json``.
A transcript changes only with a bug fix that names it; it is never
recorded again to make a change pass.  Running this file as a script
records the cases that have no transcript yet and leaves the others as
they are:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from growthdiagrams.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli"

# name -> (argv, GROWTH_BUDGET or None)
CASES = {
    "demo": (["demo"], None),
    "map": (["map", "--shape", "RDRDDRDDRRD", "--cells", "2,2 1,4 5,1"],
            None),
    "inverse": (["inverse", "--word", "RRDD", "--tableau", "e,1,2,1,e",
                 "--variant", "rsk"], None),
    "greene": (["greene", "--shape", "3,2,1", "--cells", "1,3 2,2 3,1"],
               None),
    **{f"verify-{theorem}": (["verify", "--theorem", theorem], None)
       for theorem in ("T2", "T2a-NES1", "T2a-NES2", "T2sym", "T2asym", "T4",
                       "T5", "T6")},
    "count-staircase-9": (["count", "--shape", "9,8,7,6,5,4,3,2,1"], None),
    "count-arbitrary-json": (["count", "--shape", "3,2,2", "--class",
                              "arbitrary", "--max-n", "3", "--format",
                              "json"], None),
    "explore-stack-table": (["explore", "--stack", "1,3,2", "--table"], None),
    "jonsson": (["verify", "--jonsson", "2,3,5,5,3,2", "--s", "1"], None),
    "count-row-4000": (["count", "--shape", "4000", "--max-n", "1"], None),
    "exit2-shape-not-integer": (["count", "--shape", "3,x"], None),
    "exit2-one-chain-code": (["count", "--shape", "2,2", "--chains", "NE"],
                             None),
    "exit2-no-shapes": (["verify", "--theorem", "T2", "--max-cells", "0"],
                        None),
    "exit2-jonsson-zero-s": (["verify", "--jonsson", "1,3,2", "--s", "0"],
                             None),
    "exit2-verify-without-target": (["verify"], None),
    "exit3-count-arbitrary": (["count", "--shape", "3,3", "--class",
                               "arbitrary", "--max-n", "3"], "50"),
    "exit3-jonsson": (["verify", "--jonsson", "2,3,5,5,3,2", "--s", "1"],
                      "1000"),
}


def transcript(argv) -> dict:
    """stdout, stderr and exit code of one in-process run of the CLI; a
    usage error exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_transcript(monkeypatch, name):
    argv, budget = CASES[name]
    if budget is None:
        monkeypatch.delenv("GROWTH_BUDGET", raising=False)
    else:
        monkeypatch.setenv("GROWTH_BUDGET", budget)
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert (golden["argv"], golden["budget"]) == (argv, budget)
    got = transcript(argv)
    assert got == {key: golden[key] for key in got}


def record():
    """Write the transcript of every case that has none."""
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, (argv, budget) in CASES.items():
        path = GOLDEN / f"{name}.json"
        if path.exists():
            continue
        os.environ.pop("GROWTH_BUDGET", None)
        if budget is not None:
            os.environ["GROWTH_BUDGET"] = budget
        case = {"argv": argv, "budget": budget, **transcript(argv)}
        path.write_text(json.dumps(case, indent=1) + "\n")
        print(f"recorded {name}: exit {case['exit']}", file=sys.stderr)


if __name__ == "__main__":
    record()
