"""One pass of a workload, in a fresh process.

    python3 bench/worker.py --workload NAME --seed N --result FILE [--trace]

Set-up (timed as setup_s): import `qsection`, generate the seeded jobs,
write the job files and make one warm-up call of `main`.  Then a single
client runs the jobs one after another through `qsection.cli.main(argv)` in
this process; only `main` is timed per job, and wall_s is the sum of the job
times.  A job reads its input file and writes its result to stdout, which is
captured in memory: creating an output file costs 0.15 to 0.6 ms on a
shared disk, swinging with the other tenants' writes, and would swamp the
millisecond jobs.  Before the first job and after every job the fixed stdlib snippet
`reference` is timed, so that run.py can divide each job's time by the
host's speed at that moment.  Each job has a time cap enforced with SIGALRM,
which interrupts pure-Python loops; a job over the cap counts as failed.
After the loop every output is checked by checks.py, and the pass writes its
result to FILE as JSON.

With --trace the `qsection` functions are wrapped by tracing.Tracer after
set-up, the layer metrics go into the result and the spans into FILE with
the suffix ``.spans.json``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from fractions import Fraction  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


class JobTimeout(BaseException):
    """Raised by SIGALRM inside a job; a BaseException so no handler in the
    program swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


# One untimed call of main() before the loop, so that the first timed job
# does not pay the process's cold start.  Its generators lie outside every
# range a workload draws from, so it shares no input with a timed job.
WARM_UP = {"argv": ["semigroup"], "input": {"generators": [13, 14]}}


def _set_up(workload: str, seed: int, workdir: Path):
    """Import the program, generate the jobs, write their files and warm up."""
    import qsection.cli as cli

    jobs = workloads.generate(workload, seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    for i, job in enumerate(jobs):
        job["path"] = workdir / f"{i:03d}.json"
        if "manifest" in job:
            data = (ROOT / "scripts" / "jobs" / f"{job['manifest']}.json").read_bytes()
            job["input"] = json.loads(data)
            job["golden"] = (ROOT / "scripts" / "golden" / f"{job['manifest']}.json").read_bytes()
            job["path"].write_bytes(data)
        else:
            job["path"].write_text(json.dumps(job["input"], indent=1), encoding="utf-8")
    warm_in = workdir / "warm-up.json"
    warm_in.write_text(json.dumps(WARM_UP["input"]), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(WARM_UP["argv"] + ["--input", str(warm_in)])
    if code != 0:
        raise SystemExit(f"warm-up job exited with code {code}")
    return cli, jobs


def reference():
    """A fixed piece of pure-stdlib work, about a millisecond on one core.

    It mixes what the program's jobs spend their time on: exact rational
    products, a JSON round trip and building and using an argparse parser.
    On a shared host its time swings with the other tenants' load by as much
    as the jobs' own times do (up to 1.7x over minutes), so a job's time
    divided by the reference times next to it is steady where either time
    alone is not.  It never calls `qsection`, so no change to the program
    changes it.
    """
    p = [Fraction(i + 1, 2 * i + 3) for i in range(10)]
    q = [Fraction(2 * i - 5, i + 4) for i in range(10)]
    prod = [Fraction(0)] * 19
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            prod[i + j] += a * b
    json.loads(json.dumps([str(c) for c in prod]))
    ap = argparse.ArgumentParser(prog="reference")
    sub = ap.add_subparsers(dest="cmd")
    for k in range(4):
        sp = sub.add_parser(f"c{k}")
        sp.add_argument("--input")
        sp.add_argument("--output")
        sp.add_argument("--bound", type=int)
    ap.parse_args(["c1", "--input", "x", "--bound", "3"])


def _time_reference() -> float:
    """Seconds one `reference` call takes, with the collector paused so that
    the program's heap does not slow the reference down."""
    enabled = gc.isenabled()
    gc.disable()
    t = time.perf_counter()
    reference()
    seconds = time.perf_counter() - t
    if enabled:
        gc.enable()
    return seconds


def _run_jobs(cli, jobs, cap: float, tracer):
    """The closed loop: each job starts when the previous one has finished."""
    clock = time.perf_counter
    ref = _time_reference()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        argv = job["argv"] + ["--input", str(job["path"])]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            t = clock()
            try:
                signal.setitimer(signal.ITIMER_REAL, cap)
                job["code"] = cli.main(argv)
            except JobTimeout:
                job["code"] = "timeout"
            except Exception as exc:  # an uncaught program error fails this job only
                job["code"] = f"exception {type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                job["seconds"] = clock() - t
        job["output"] = out.getvalue().encode("utf-8")
        job["ref_before"], ref = ref, _time_reference()
        job["ref_after"] = ref
    return sum(job["seconds"] for job in jobs)


def _check(job) -> list:
    if job["code"] != 0:
        return [f"exit {job['code']}"]
    return checks.check_output(job["check"], job["input"], job["output"], job.get("golden"))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args(argv)

    result_path = Path(args.result)
    workdir = result_path.with_suffix(".work")
    os.environ.pop("QSECTION_BOUND", None)
    cli, jobs = _set_up(args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        shutil.rmtree(workdir)
        result_path.write_text(json.dumps({"setup_s": setup_s}), encoding="utf-8")
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    cap = workloads.RANGES[args.workload]["cap_s"]
    reference()  # its first call is cold, like the program's
    gc.collect()
    t_loop = time.perf_counter()
    wall_s = _run_jobs(cli, jobs, cap, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rows = []
    for job in jobs:
        fails = _check(job)
        rows.append(
            {
                "id": job["id"],
                "ms": job["seconds"] * 1000,
                "ref_ms": (job["ref_before"] + job["ref_after"]) * 500,
                "ok": not fails,
                "why": fails[:3],
                "traffic": job["traffic"],
            }
        )
    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb, "jobs": rows}
    if tracer is not None:
        result["layers"] = tracer.metrics(len(jobs))
        result["layer_self_s"] = tracer.layer_self_times()
        tracer.write_spans(result_path.with_suffix(".spans.json"), t_loop)
    shutil.rmtree(workdir)
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
