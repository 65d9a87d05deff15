"""Golden-file regression: every worked example reproduces byte for byte."""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from qsection.cli import main
from qsection.divisors import QDivisor
from qsection.elliptic import WeierstrassCurve
from qsection.section_ring import Piece

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_manifest_covers_every_job_and_golden():
    with open(SCRIPTS / "manifest.json", encoding="utf-8") as fh:
        names = {e["name"] for e in json.load(fh)["examples"]}
    jobs = {p.stem for p in (SCRIPTS / "jobs").glob("*.json")}
    goldens = {p.stem for p in (SCRIPTS / "golden").glob("*.json")}
    assert names == jobs == goldens


def test_all_examples_match_goldens():
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "run_examples.py")],
        capture_output=True,
        text=True,
        timeout=150,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 15
    assert all(line.startswith("ok ") for line in lines)


def test_replay_prints_one_line_per_workload():
    """small-jobs at seed 0: its 85 jobs, every one exiting 0, and the
    sha256 over their ids, exit codes and output bytes."""
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "replay_workloads.py"), "--seeds", "0",
         "--workload", "small-jobs"],
        capture_output=True,
        text=True,
        timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"small-jobs: 85 jobs, exit 0: 85, sha256 [0-9a-f]{64}\n", proc.stdout)


def manifest():
    with open(SCRIPTS / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["examples"]


def weierstrass_points(job: dict) -> int:
    """How many points a job writes on a Weierstrass curve."""
    if job.get("curve", {}).get("type") != "weierstrass":
        return 0
    return len(job.get("divisor", [])) + ("point" in job)


# Piece.coords calls per primes job: a check job reads its one candidate
# once; enumerate and construct read each candidate they confirm
COORDS_READS = {
    "half_integer_check_ok": 1,
    "half_integer_check_refuted": 1,
    "half_integer_enumerate": 2,
    "deg42_enumerate": 5,
    "scroll_enumerate": 2,
    "scroll_construct": 1,
    "poly_ring_enumerate": 2,
}


def counting(calls: Counter, name: str, method):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return method(*args, **kwargs)

    return wrapper


@pytest.mark.parametrize("entry", manifest(), ids=lambda e: e["name"])
def test_each_point_is_checked_once_where_it_enters(entry, tmp_path, monkeypatch):
    """Past the parse, no layer re-validates: the validating `QDivisor`
    constructor never runs, the curve equation is tested once per point the
    job writes (the group law trusts the points it computes), and each prime
    candidate is read into its piece once."""
    calls = Counter()
    monkeypatch.setattr(Piece, "coords", counting(calls, "coords", Piece.coords))
    monkeypatch.setattr(QDivisor, "__init__", counting(calls, "init", QDivisor.__init__))
    monkeypatch.setattr(
        WeierstrassCurve, "contains", counting(calls, "contains", WeierstrassCurve.contains)
    )
    job = SCRIPTS / "jobs" / f"{entry['name']}.json"
    out = tmp_path / "out.json"
    assert main(entry["argv"] + ["--input", str(job), "--output", str(out)]) == 0
    assert out.read_bytes() == (SCRIPTS / "golden" / f"{entry['name']}.json").read_bytes()
    assert calls["init"] == 0
    points = weierstrass_points(json.loads(job.read_text(encoding="utf-8")))
    assert calls["contains"] == points
    assert points == {"two_torsion_verdict": 4, "three_torsion_verdict": 3}.get(entry["name"], 0)
    assert calls["coords"] == COORDS_READS.get(entry["name"], 0)
