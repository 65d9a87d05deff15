#!/usr/bin/env python3
"""The qsection benchmark: seeded CLI job workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --describe

Each pass of a workload runs in a fresh worker process (worker.py), one
after another: a single closed-loop client, one process and one thread at a
time.  A run repeats passes (at least MIN_PASSES) while the next one would
still end within S seconds.  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Job times are reported in ``ref`` units: a job's time divided by the time of
worker.reference, a fixed stdlib snippet timed just before and just after
the job in the same process.  On a shared host the other tenants change the
speed of a core by up to 1.7x over minutes, so raw seconds of the same code
differ by more between two runs than any bound worth setting; the ratio
cancels that drift (see in_ref).  The raw times are printed and kept in
the run record too.  Over ten seeds the middle half of the ratio metrics
spans at most 7% of their median on a 2-core shared x86_64 host, where the
raw seconds of the same runs span up to 23%.

With ``--trace 0`` the metrics are the end-to-end ones:

* setup_s: import qsection, generate the seeded jobs, write the job files
  and make one warm-up call of ``main()``, in seconds (median over at least
  MIN_SETUPS set-ups);
* wall_ref: one pass over the whole job list, the sum of its job times
  (median over the passes);
* job_p50_ref: median time of one ``main()`` call, over every job of every
  pass;
* job_tail_ref: the highest percentile of a pass's job times with at least
  ten jobs beyond it, taken over every job of every pass; see
  ``--describe`` for which percentile that is per workload;
* pass_share: jobs that passed their independent check over jobs attempted
  (1 - fail share; a failed job is a wrong output, an unexpected exit code,
  an uncaught exception or a run past the per-job cap);
* peak_rss_mb: peak RSS of a worker process that ran a pass (median over
  the passes).

With ``--trace 1`` one untraced pass runs first, then traced passes (at
least one) while the next would still end within S seconds.  The metrics
are the per-layer ones of tracing.LAYER_TABLE plus trace.overhead_ratio
(traced over untraced raw wall time); counts come from the first traced
pass, times are medians.  The spans of the first traced pass are written
to bench/out/.

Every run writes its per-job traffic dimensions, times and check results,
with the Python version, nproc and git sha, to
``bench/out/<workload>-<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
MIN_SETUPS = 7
WORKER_TIMEOUT_S = 170

class BenchError(Exception):
    pass


def tail_rank(n_jobs: int) -> tuple[int, float]:
    """0-based rank and percentile of the highest order statistic with ten jobs beyond it."""
    if n_jobs < 11:
        raise BenchError(f"{n_jobs} jobs leave no percentile with ten jobs beyond it")
    return n_jobs - 11, 100.0 * (n_jobs - 10) / n_jobs


def git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            path = ROOT / ".git" / ref[5:]
            if path.exists():
                return path.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def describe() -> dict:
    """The benchmark's declared design: workloads, ranges, tail percentiles, layers."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_workload = {}
    for w in spec["workloads"]:
        n = len(workloads.generate(w["name"], 0))
        _, pct = tail_rank(n)
        per_workload[w["name"]] = {
            "why": w["why"],
            "jobs_per_pass": n,
            "job_tail_percentile": round(pct, 2),
            "ranges": workloads.RANGES[w["name"]],
        }
    return {
        "point_pools": workloads.RANGES["point_pools"],
        "workloads": per_workload,
        "layer_table": tracing.LAYER_TABLE,
        "end_to_end": spec["end_to_end"],
        "per_layer": spec["per_layer"],
        "environment": environment(),
    }


def run_pass(workload: str, seed: int, tag: str, trace: bool, setup_only: bool = False) -> dict:
    """Run one worker process to completion and return its result."""
    OUT.mkdir(exist_ok=True)
    result = OUT / f"{workload}-{seed}-{tag}.json"
    if result.exists():
        result.unlink()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--result", str(result)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("QSECTION_BOUND", None)
    proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"worker for {workload} exited with code {proc.returncode}")
    data = json.loads(result.read_text())
    result.unlink()
    return data


def in_ref(job: dict) -> float:
    """A job's time over the reference time next to it.

    The reference runs in the same process within a millisecond of the job,
    so it sees the same host load; the ratio of the two is steady across
    minutes of drift where either raw time is not.
    """
    return job["ms"] / job["ref_ms"]


def percentile(values: list, q: float) -> float:
    """The q-quantile (0 <= q <= 1) of sorted values, linearly interpolated."""
    x = q * (len(values) - 1)
    i = int(x)
    j = min(i + 1, len(values) - 1)
    return values[i] + (values[j] - values[i]) * (x - i)


def summary(passes: list, key) -> tuple:
    """Pass time, median job time and tail job time of a run.

    The pass time is the median over passes of the summed job times.  The
    median and the tail are taken over every job run in every pass, which
    makes them finer-grained than the order statistics of a single pass;
    the tail is the percentile that has ten jobs of each pass beyond it.
    """
    walls = [sum(key(j) for j in p["jobs"]) for p in passes]
    times = sorted(key(j) for p in passes for j in p["jobs"])
    _, pct = tail_rank(len(passes[0]["jobs"]))
    return statistics.median(walls), statistics.median(times), percentile(times, pct / 100)


def another_pass(done: int, least: int, start: float, seconds: float) -> bool:
    """Run at least `least` passes, then stop before a pass would end past `seconds`."""
    if done < least:
        return True
    elapsed = time.perf_counter() - start
    return elapsed * (done + 1) / done <= seconds


def run_untraced(workload: str, seed: int, seconds: float):
    passes = []
    start = time.perf_counter()
    while another_pass(len(passes), MIN_PASSES, start, seconds):
        passes.append(run_pass(workload, seed, f"pass{len(passes)}", trace=False))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < MIN_SETUPS:
        setups.append(run_pass(workload, seed, f"setup{len(setups)}", False, setup_only=True)["setup_s"])
    wall, p50, tail = summary(passes, in_ref)
    raw_wall, raw_p50, raw_tail = summary(passes, lambda j: j["ms"])
    print(
        f"raw times: wall_s {raw_wall / 1000:.4g}, job_p50_ms {raw_p50:.4g}, "
        f"job_tail_ms {raw_tail:.4g}; reference median "
        f"{statistics.median(j['ref_ms'] for p in passes for j in p['jobs']):.4g} ms"
    )
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref": wall,
        "job_p50_ref": p50,
        "job_tail_ref": tail,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    return passes, metrics


def run_traced(workload: str, seed: int, seconds: float):
    start = time.perf_counter()
    plain = run_pass(workload, seed, "untraced", trace=False)
    traced = []
    while another_pass(len(traced) + 1, 2, start, seconds):
        traced.append(run_pass(workload, seed, f"traced{len(traced)}", trace=True))
        spans = OUT / f"{workload}-{seed}-traced{len(traced) - 1}.spans.json"
        if len(traced) == 1:
            spans.replace(OUT / f"{workload}-{seed}.spans.json")
        else:
            spans.unlink()
    first = traced[0]["layers"]
    metrics = {}
    for name, value in first.items():
        if name.endswith("_s"):
            value = statistics.median(t["layers"][name] for t in traced)
        metrics[name] = value
    traced_wall = statistics.median(t["wall_s"] for t in traced)
    metrics["trace.overhead_ratio"] = traced_wall / plain["wall_s"]
    layer_self = {
        layer: statistics.median(t["layer_self_s"].get(layer, 0.0) for t in traced)
        for layer in traced[0]["layer_self_s"]
    }
    return [plain] + traced, metrics, layer_self


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--describe", action="store_true", help="print the declared design and exit")
    args = ap.parse_args(argv)
    if args.describe:
        print(json.dumps(describe(), indent=2))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        passes, metrics, layer_self = run_traced(args.workload, args.seed, args.seconds)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        print(f"self time per layer, {args.workload}, seed {args.seed} (traced pass):")
        for layer, secs in sorted(layer_self.items(), key=lambda kv: -kv[1]):
            print(f"  {layer:16s} {secs:9.4f} s")
        print(f"  trace.overhead_ratio {metrics['trace.overhead_ratio']:.3f}")
    else:
        passes, metrics = run_untraced(args.workload, args.seed, args.seconds)
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    jobs = [j for p in passes for j in p["jobs"]]
    failed = [j for j in jobs if not j["ok"]]
    if not args.trace:
        metrics["pass_share"] = 1 - len(failed) / len(jobs)
    for j in failed:
        print(f"FAILED {j['id']}: {'; '.join(j['why'])}")
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "job_tail_percentile": round(tail_rank(len(passes[0]["jobs"]))[1], 2),
        "passes": passes,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    for name in units:
        print(f"{name:40s} {metrics[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(jobs),
                "failed": len(failed),
                "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in units},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
