#!/usr/bin/env python3
"""Replay the benchmark workloads in process and digest every job's bytes.

Every job of the seeded workloads (from `bench/workloads.generate`; a
manifest job reads its committed file under scripts/jobs/) runs through
`qsection.cli.main` in this process, with stdout and stderr captured.  For
each workload one line is printed: the job count, the count of each exit
code, and a sha256 over (job id, exit code, stdout, stderr) of every job
in order.  Two checkouts that print the same lines gave the same exit codes
and the same bytes on every job.

Usage:
    python scripts/replay_workloads.py                    # seeds 0-5, all workloads
    python scripts/replay_workloads.py --seeds 0,3 --workload small-jobs
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "bench"))

import workloads  # noqa: E402
from qsection.cli import main  # noqa: E402


def parse_seeds(text: str) -> list:
    """'0-5' or '1,4' or a mix of both, as a list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_job(job: dict, path: Path):
    """(exit code, stdout, stderr) of one job."""
    if "manifest" in job:
        path.write_bytes((ROOT / "scripts" / "jobs" / f"{job['manifest']}.json").read_bytes())
    else:
        path.write_text(json.dumps(job["input"], indent=1), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(job["argv"] + ["--input", str(path)])
    return code, out.getvalue(), err.getvalue()


def replay(workload: str, seeds: list, workdir: Path) -> str:
    digest = hashlib.sha256()
    codes = Counter()
    for seed in seeds:
        for job in workloads.generate(workload, seed):
            code, out, err = run_job(job, workdir / "job.json")
            codes[code] += 1
            for part in (f"{seed}:{job['id']}", str(code), out, err):
                data = part.encode("utf-8")
                digest.update(len(data).to_bytes(8, "big") + data)
    counts = ", ".join(f"exit {code}: {n}" for code, n in sorted(codes.items()))
    return f"{workload}: {sum(codes.values())} jobs, {counts}, sha256 {digest.hexdigest()}"


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-5", help="seeds as ranges and lists, e.g. 0-5 or 1,4")
    parser.add_argument(
        "--workload",
        action="append",
        choices=list(workloads.GENERATORS),
        help="replay only this workload (repeatable; default: all)",
    )
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    with tempfile.TemporaryDirectory() as tmp:
        for workload in args.workload or workloads.GENERATORS:
            print(replay(workload, seeds, Path(tmp)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
