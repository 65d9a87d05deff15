"""Self-test of the independent checks: each must reject a corrupted output.

    python3 bench/selftest.py            # or: python -m pytest bench/selftest.py

Real outputs are produced by running `qsection.cli.main` on small jobs; each
test first asserts that the untouched output passes its check, then
corrupts one thing and asserts that the matching check reports a failure.
"""

from __future__ import annotations

import copy
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402

SCROLL = {"divisor": [{"point": "0", "coeff": "5/7"}, {"point": "inf", "coeff": "-4/7"}]}
HALF = {
    "divisor": [
        {"point": "0", "coeff": "1/2"},
        {"point": "inf", "coeff": "1/2"},
        {"point": "1", "coeff": "-1/2"},
    ]
}


def produce(argv: list, job: dict) -> bytes:
    """Run one job through the CLI in process and return its output bytes."""
    from qsection.cli import main

    work = BENCH / "out" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    src, dst = work / "job.json", work / "out.json"
    src.write_text(json.dumps(job), encoding="utf-8")
    os.environ.pop("QSECTION_BOUND", None)
    code = main(argv + ["--input", str(src), "--output", str(dst)])
    assert code == 0, f"{argv} exited with {code}"
    return dst.read_bytes()


def check(kind: dict, job: dict, out: dict) -> list:
    return checks.check_output(kind, job, json.dumps(out).encode(), None)


def test_ring_passes_and_matches_toric_basis():
    out = json.loads(produce(["ring"], SCROLL))
    assert out["generator_degrees"] == [3, 5, 7, 7]
    assert checks.hilbert_basis_degrees(Fraction(5, 7), Fraction(-4, 7), 21) == [
        3, 5, 7, 7
    ]
    assert check({"kind": "ring"}, SCROLL, out) == []
    assert check({"kind": "ring"}, HALF, json.loads(produce(["ring"], HALF))) == []


def test_dropped_generator_degree_is_rejected():
    out = json.loads(produce(["ring"], SCROLL))
    bad = copy.deepcopy(out)
    bad["generator_degrees"].pop(1)
    bad["generators"].pop(1)
    bad["hilbert"]["denominator_exponents"].remove(5)
    for rel in bad["relations"]:
        for term in rel["terms"]:
            term["monomial"].pop(1)
    fails = check({"kind": "ring"}, SCROLL, bad)
    assert any("Hilbert" in f for f in fails), fails
    assert any("toric Hilbert basis" in f for f in fails), fails


def test_perturbed_relation_coefficient_is_rejected():
    out = json.loads(produce(["ring"], HALF))
    bad = copy.deepcopy(out)
    term = bad["relations"][0]["terms"][0]
    term["coeff"] = str(Fraction(term["coeff"]) + 1)
    fails = check({"kind": "ring"}, HALF, bad)
    assert fails and all("does not vanish" in f for f in fails), fails


def test_moved_verdict_point_is_rejected():
    deg42 = json.loads((ROOT / "scripts" / "jobs" / "deg42_enumerate.json").read_text())
    out = json.loads((ROOT / "scripts" / "golden" / "deg42_enumerate.json").read_text())
    assert check({"kind": "enumerate"}, deg42, out) == []
    bad = copy.deepcopy(out)
    unique = next(v for v in bad["verdicts"] if v["kind"] == "unique")
    unique["point"] = "2"
    assert any("not predicted" in f for f in check({"kind": "enumerate"}, deg42, bad))

    cand = {
        "degree": 2,
        "function": {"numer": ["2", "-3", "1"], "denom": ["0", "1"]},
    }
    job = dict(HALF, candidate=cand)
    kind = {"kind": "candidate", "prime": True, "point": "2"}
    out = json.loads(produce(["primes", "check"], job))
    assert check(kind, job, out) == []
    bad = copy.deepcopy(out)
    bad["necessary"]["point"] = "3"
    assert any("necessary point" in f for f in check(kind, job, bad))


def test_wrong_verdict_is_rejected():
    job = dict(HALF, candidate={"degree": 2, "function": {"numer": ["-1", "1"]}})
    kind = {"kind": "candidate", "prime": False, "point": "0"}
    out = json.loads(produce(["primes", "check"], job))
    assert check(kind, job, out) == []
    bad = copy.deepcopy(out)
    bad["oracle"].update(is_prime=True, kind="ok", witness=None)
    assert check(kind, job, bad)


def test_changed_generator_is_rejected():
    job = {"divisor": SCROLL["divisor"], "degree": 7, "point": "1"}
    out = json.loads(produce(["primes", "construct"], job))
    assert check({"kind": "construct"}, job, out) == []
    bad = copy.deepcopy(out)
    bad["function"]["numer"][0] = str(Fraction(bad["function"]["numer"][0]) + 1)
    assert any("function differs" in f for f in check({"kind": "construct"}, job, bad))


def test_changed_golden_byte_is_rejected():
    golden = (ROOT / "scripts" / "golden" / "semigroup_357.json").read_bytes()
    assert checks.check_output({"kind": "golden"}, None, golden, golden) == []
    bad = bytearray(golden)
    bad[len(bad) // 2] ^= 1
    assert checks.check_output({"kind": "golden"}, None, bytes(bad), golden)


def test_semigroup_and_weights_corruptions_are_rejected():
    job = {"generators": [5, 7], "x0_degree": 3}
    kind = {"kind": "semigroup", "semigroup": [5, 7]}
    out = json.loads(produce(["semigroup"], job))
    assert out["frobenius"] == 23 and check(kind, job, out) == []
    assert check(kind, job, dict(out, frobenius=22))
    assert check(kind, job, dict(out, gaps=out["gaps"][:-1]))

    job = {"weights": [4, 5, 6], "relation_degrees": [16]}
    out = json.loads(produce(["ring"], job))
    assert check({"kind": "weights"}, job, out) == []
    assert check({"kind": "weights"}, job, dict(out, tomari="1/15"))


def test_job_over_the_cap_counts_as_failed():
    import signal

    import qsection.cli as cli
    import worker

    job = {
        "id": "capped",
        "argv": ["primes", "enumerate"],
        "path": ROOT / "scripts" / "jobs" / "deg42_enumerate.json",
    }
    old = signal.signal(signal.SIGALRM, worker._on_alarm)
    try:
        worker._run_jobs(cli, [job], 0.01, None)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert job["code"] == "timeout" and job["seconds"] < 1
    assert worker._check(job) == ["exit timeout"]


def test_generated_jobs_pass_their_checks():
    """One seeded job of each kind, run for real, passes its check."""
    for workload in ("small-jobs", "primes-mix"):
        seen = set()
        for job in workloads.generate(workload, 7):
            kind = job["check"]["kind"]
            if kind in seen or "manifest" in job:
                continue
            seen.add(kind)
            out = produce(job["argv"], job["input"])
            assert checks.check_output(job["check"], job["input"], out, None) == [], job["id"]


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"ok   {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
