"""Seeded job generators for the benchmark workloads.

`generate(workload, seed)` returns the job list of one pass.  The same
seed always gives the same jobs; the seed is the only input.  Every range
a generator draws from is declared in `RANGES` and is fixed up front from
traffic dimensions (denominator, support size, degree, point height,
bound), never from measured times.  Jobs are never filtered by time; the
per-job time cap in worker.py counts overruns as failures instead.

A job is a dict:

* ``id``: stable name, unique within the workload;
* ``argv``: CLI arguments before ``--input``/``--output``;
* ``input``: the job JSON, or ``manifest``: the name of a committed example
  whose job file is copied and whose golden file is compared byte for byte;
* ``check``: which independent check of checks.py applies, and with what
  expectation;
* ``traffic``: the job's traffic dimensions, reported next to its time.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

from checks import principal_divisor, rebuild

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "scripts" / "manifest.json"

# Range of |numerator| and of denominator of a point coordinate in each
# pool, both drawn from the band and coprime, so that a pool fixes the
# height of its points and not only an upper limit: a seed then moves a
# job's cost little, while the points themselves are still seeded.
HEIGHTS = {"low": (1, 3), "mid": (15, 30), "high": (150, 300)}

RANGES = {
    "point_pools": {
        name: f"x = a/b with {lo} <= |a|, b <= {hi} and gcd(a, b) = 1"
        for name, (lo, hi) in HEIGHTS.items()
    },
    "ring-ladder": {
        "cells": "one job per cell (N, support size, degree class, bound, height pool), "
        "for each N: (2, m, 3N, high), (3, m, 3N, mid), "
        "(2, m, 4N, mid), (2, m', 3N, low), (3, m', 3N, high for odd N or low for even N), "
        "for N <= 5 (4, m, 3N, low) and for N <= 4 (3, m, 4N, low); "
        "3N is the default bound, the others are passed explicitly; inf is in the support "
        "of alternate cells",
        "N": [2, 3, 4, 5, 6],
        "support_size": [2, 3, 4],
        "deg_numerator": "m is the smallest value >= 1 the cell admits, m' the smallest >= 2 "
        "(with N = 2 the parity must match the support size)",
        "coefficients": "c = a/N with 0 < |a| < N, lcm of the denominators exactly N; each "
        "cell's coefficient multiset is drawn once by a generator seeded with the cell, so "
        "the pass time does not hinge on which rings a seed draws",
        "seeded": "the finite support points within the cell's height pool, and the job "
        "order; inf, when in the support, carries the first coefficient",
        "bound_rule": "every cell's bound exceeds B* = N + max{n : R_n = 0}, so every "
        "generator lies below the bound and no job ends with the truncation warning",
        "ladder": [
            "half-integer 1/2[0] + 1/2[inf] - 1/2[1] at bound 30",
            "1*[inf] at bound 60",
            "deg-1/42 1/2[inf] - 1/3[0] - 1/7[1] at the default bound 126",
        ],
        "cap_s": 10,
    },
    "primes-mix": {
        "patterns": [
            "-1/5 1/5 1/5",
            "-1/3 1/2",
            "-2/7 3/7",
            "-2/5 1/2",
            "-1/4 1/3",
            "-1/2 1/4 1/2",
            "-2/5 1/5 2/5",
            "-1/3 1/6 1/3",
            "-2/7 1/7 2/7",
        ],
        "N": [4, 12],
        "support_size": [2, 3],
        "coefficients": "orbifold-style: |c| <= 1/2, sum 1/N with N the lcm of the "
        "denominators; the pattern list is fixed so that the pass time does not hinge on "
        "which patterns a seed draws, and spans N = 4..12, two and three points, and "
        "degrees with unique primes (s > 1) as well as families",
        "seeded": "finite support points (low pool; inf, carrying the first coefficient, "
        "in the support of every other pattern), the construct point (mid), the prime "
        "check point (high), and the job order; the non-prime check of pattern i is "
        "built from the point carrying its fractional coefficient number i mod k (k of "
        "them), fixed per pattern",
        "jobs_per_divisor": [
            "primes enumerate",
            "primes construct at degree N at a mid-height point",
            "primes check at degree N of the prime built from a high-height point P",
            "primes check at degree N of the non-prime built from a point of the "
            "fractional support",
        ],
        "manifest": ["deg42_enumerate"],
        "cap_s": 10,
    },
    "small-jobs": {
        "semigroup_generators": "30 sets of 2 to 4 generators in [2, 12] with gcd 1; "
        "x0_degree in [1, 12]",
        "semigroup_profiles": "10 profiles of semigroups with 2 or 3 generators in [2, 12], "
        "scale s in {1, 2}, degree in [1, 7] prime to s",
        "weights": "15 rings with 3 weights in [1, 9] and one relation degree in [w_max, 3 w_max]",
        "toric_rings": "10 two-point rings, N alternating 2 and 3, |c| < 2, deg D in (0, 1], "
        "default bound; each slot's coefficients are drawn once by a generator seeded with "
        "the slot, the seed draws the points (low pool, inf in every other slot)",
        "half_integer_checks": "6 primes check jobs on 1/2[p] + 1/2[q] - 1/2[r], "
        "half prime (from a mid-height point) and half non-prime (from support point "
        "i mod 3 of slot i) candidates; the support is drawn from the low pool, inf in "
        "every other slot",
        "manifest": "the 14 committed examples other than deg42_enumerate",
        "cap_s": 10,
    },
}


def _point(rng: random.Random, height: str) -> Fraction:
    lo, hi = HEIGHTS[height]
    while True:
        a, b = rng.randint(lo, hi), rng.randint(lo, hi)
        if math.gcd(a, b) == 1:
            return Fraction(rng.choice((-1, 1)) * a, b)


def _points(rng: random.Random, k: int, height: str, with_inf: bool) -> list:
    """k distinct points from the height pool, the first one inf if `with_inf`.

    Whether inf is in the support changes the cost of a job several-fold,
    so callers fix it per job slot instead of leaving it to the seed.
    """
    pts = ["inf"] if with_inf else []
    while len(pts) < k:
        x = _point(rng, height)
        if x not in pts:
            pts.append(x)
    return pts


def _fresh_point(rng: random.Random, height: str, avoid) -> Fraction:
    while True:
        x = _point(rng, height)
        if x not in avoid:
            return x


def _jpoint(p) -> str:
    return "inf" if p == "inf" else str(p)


def _divisor_json(D: dict) -> list:
    return [{"point": _jpoint(p), "coeff": str(c)} for p, c in D.items()]


def _function_json(A: dict) -> dict:
    numer, denom = rebuild(A)
    return {"numer": [str(c) for c in numer], "denom": [str(c) for c in denom]}


def _bstar(coeffs, N: int) -> int:
    """N + max{n >= 1 : R_n = 0}: no generator lies above it.

    R_{n+N} = R_n * R_N whenever R_n != 0, because N*D is integral and
    multiplication of sections of nonnegative degree on P^1 is onto.
    """
    deg = sum(coeffs)
    top = math.ceil(len(coeffs) / deg)
    zero = [n for n in range(1, top + 1) if sum(math.floor(n * c) for c in coeffs) < 0]
    return N + max(zero, default=0)


def _height_of(D: dict) -> int:
    return max(
        [max(abs(p.numerator), p.denominator) for p in D if p != "inf"], default=0
    )


def _ring_coeffs(rng: random.Random, N: int, k: int, m: int) -> list:
    """k nonzero coefficients a/N, |a| < N, lcm of denominators N, sum m'/N.

    m' is the smallest degree numerator >= m that the cell admits (with
    N = 2 the parity of m' must match k).
    """
    for m_try in range(m, m + k + 1):
        for _ in range(400):
            nums = [rng.randint(-N + 1, N - 1) for _ in range(k - 1)]
            last = m_try - sum(nums)
            if abs(last) >= N or 0 in nums or last == 0:
                continue
            cs = [Fraction(x, N) for x in nums + [last]]
            if math.lcm(*(c.denominator for c in cs)) == N:
                return cs
    raise ValueError(f"no divisor with N={N}, {k} points and deg >= {m}/{N}")


def _ring_cells() -> list:
    """(N, support, degree numerator, bound multiplier, height pool, inf in support)."""
    cells = []
    for N in RANGES["ring-ladder"]["N"]:
        odd = bool(N % 2)
        cells += [
            (N, 2, 1, 3, "high", odd),
            (N, 3, 1, 3, "mid", not odd),
            (N, 2, 1, 4, "mid", not odd),
            (N, 2, 2, 3, "low", odd),
            (N, 3, 2, 3, "high" if odd else "low", not odd),
        ]
        if N <= 5:
            cells.append((N, 4, 1, 3, "low", odd))
        if N <= 4:
            cells.append((N, 3, 1, 4, "low", odd))
    return cells


def _ring_ladder(rng: random.Random) -> list:
    jobs = []
    for N, k, m, mult, height, with_inf in _ring_cells():
        template = random.Random(f"ring-template:{N}:{k}:{m}:{mult}")
        while True:
            cs = _ring_coeffs(template, N, k, m)
            if mult * N > _bstar(cs, N):
                break
        D = dict(zip(_points(rng, k, height, with_inf), cs))
        job = {"divisor": _divisor_json(D)}
        mode = "default" if mult == 3 else "explicit"
        if mode == "explicit":
            job["bound"] = mult * N
        jobs.append(
            {
                "id": f"ring-N{N}-k{k}-m{m}-{mode}",
                "argv": ["ring"],
                "input": job,
                "check": {"kind": "ring"},
                "traffic": {
                    "N": N,
                    "support": k,
                    "deg": str(sum(cs)),
                    "height": _height_of(D),
                    "bound": mult * N,
                },
            }
        )
    ladder = [
        ("ladder-half-integer-30", {"0": "1/2", "inf": "1/2", "1": "-1/2"}, 30),
        ("ladder-inf-60", {"inf": "1"}, 60),
        ("ladder-deg42-default", {"inf": "1/2", "0": "-1/3", "1": "-1/7"}, None),
    ]
    for name, raw, bound in ladder:
        D = {("inf" if p == "inf" else Fraction(p)): Fraction(c) for p, c in raw.items()}
        job = {"divisor": _divisor_json(D)}
        N = math.lcm(*(c.denominator for c in D.values()))
        if bound is not None:
            job["bound"] = bound
        jobs.append(
            {
                "id": name,
                "argv": ["ring"],
                "input": job,
                "check": {"kind": "ring"},
                "traffic": {
                    "N": N,
                    "support": len(D),
                    "deg": str(sum(D.values())),
                    "height": _height_of(D),
                    "bound": bound or 3 * N,
                },
            }
        )
    return jobs


def _primes_mix(rng: random.Random) -> list:
    jobs = []
    for i, pattern in enumerate(RANGES["primes-mix"]["patterns"]):
        coeffs = [Fraction(c) for c in pattern.split()]
        pts = _points(rng, len(coeffs), "low", with_inf=i % 2 == 0)
        D = dict(zip(pts, coeffs))
        N = math.lcm(*(c.denominator for c in coeffs))
        div = _divisor_json(D)
        traffic = {"N": N, "support": len(D), "height": _height_of(D)}
        frac = [p for p, c in D.items() if c.denominator != 1]
        P = _fresh_point(rng, "mid", D)
        P2 = _fresh_point(rng, "high", D)
        # Which point carries the non-prime candidate's pole changes the cost
        # several-fold, so it is fixed per pattern; the seed still places it.
        Q = frac[i % len(frac)]
        tag = f"primes-{i:02d}-N{N}"
        jobs += [
            {
                "id": f"{tag}-enumerate",
                "argv": ["primes", "enumerate"],
                "input": {"divisor": div},
                "check": {"kind": "enumerate"},
                "traffic": dict(traffic),
            },
            {
                "id": f"{tag}-construct",
                "argv": ["primes", "construct"],
                "input": {"divisor": div, "degree": N, "point": str(P)},
                "check": {"kind": "construct"},
                "traffic": dict(traffic, point_height=max(abs(P.numerator), P.denominator)),
            },
        ]
        for label, pt, prime in (("prime", P2, True), ("nonprime", Q, False)):
            cand = {"degree": N, "function": _function_json(principal_divisor(pt, D, N))}
            jobs.append(
                {
                    "id": f"{tag}-check-{label}",
                    "argv": ["primes", "check"],
                    "input": {"divisor": div, "candidate": cand},
                    "check": {"kind": "candidate", "prime": prime, "point": _jpoint(pt)},
                    "traffic": dict(
                        traffic,
                        point_height=0 if pt == "inf" else max(abs(pt.numerator), pt.denominator),
                    ),
                }
            )
    jobs.append(
        {
            "id": "manifest-deg42_enumerate",
            "argv": ["primes", "enumerate"],
            "manifest": "deg42_enumerate",
            "check": {"kind": "enumerate"},
            "traffic": {"N": 42, "support": 3, "height": 1},
        }
    )
    return jobs


def _gcd_one_set(rng: random.Random, k: int, lo: int, hi: int) -> list:
    while True:
        gens = sorted(set(rng.randint(lo, hi) for _ in range(k)))
        if len(gens) == k and math.gcd(*gens) == 1:
            return gens


def _small_jobs(rng: random.Random) -> list:
    from checks import semigroup_facts

    jobs = []
    for i in range(30):
        gens = _gcd_one_set(rng, rng.choice((2, 3, 4)), 2, 12)
        job = {"generators": gens}
        if i % 2 == 0:
            job["x0_degree"] = rng.randint(1, 12)
        jobs.append(
            {
                "id": f"semigroup-gens-{i:02d}",
                "argv": ["semigroup"],
                "input": job,
                "check": {"kind": "semigroup", "semigroup": gens},
                "traffic": {"generators": len(gens), "largest": gens[-1]},
            }
        )
    for i in range(10):
        gens = _gcd_one_set(rng, rng.choice((2, 3)), 2, 12)
        s = rng.choice((1, 2))
        d = rng.choice([x for x in range(1, 8) if math.gcd(x, s) == 1])
        facts = semigroup_facts(gens)
        bound = s * (facts["frobenius"] + max(gens) + 2)
        gaps = set(facts["gaps"])
        dims = [int(n % s == 0 and n // s not in gaps) for n in range(bound + 1)]
        jobs.append(
            {
                "id": f"semigroup-profile-{i:02d}",
                "argv": ["semigroup"],
                "input": {"profile": {"degree": d, "s": s, "bound": bound, "dims": dims}},
                "check": {"kind": "semigroup", "semigroup": facts["minimal"], "scale": s},
                "traffic": {"generators": len(gens), "scale": s, "bound": bound},
            }
        )
    for i in range(15):
        weights = [rng.randint(1, 9) for _ in range(3)]
        r = rng.randint(max(weights), 3 * max(weights))
        jobs.append(
            {
                "id": f"weights-{i:02d}",
                "argv": ["ring"],
                "input": {"weights": weights, "relation_degrees": [r]},
                "check": {"kind": "weights"},
                "traffic": {"weights": sum(weights), "relation_degree": r},
            }
        )
    for i in range(10):
        N = 2 + i % 2
        template = random.Random(f"toric-template:{i}")
        while True:
            a, b = (Fraction(template.randint(-2 * N + 1, 2 * N - 1), N) for _ in range(2))
            if a and b and 0 < a + b <= 1 and math.lcm(a.denominator, b.denominator) == N:
                if 3 * N > _bstar([a, b], N):
                    break
        D = dict(zip(_points(rng, 2, "low", with_inf=i % 2 == 0), (a, b)))
        jobs.append(
            {
                "id": f"toric-{i:02d}-N{N}",
                "argv": ["ring"],
                "input": {"divisor": _divisor_json(D)},
                "check": {"kind": "ring"},
                "traffic": {"N": N, "support": 2, "deg": str(a + b), "height": _height_of(D)},
            }
        )
    for i in range(6):
        pts = _points(rng, 3, "low", with_inf=i % 2 == 0)
        D = dict(zip(pts, (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2))))
        prime = i % 2 == 0
        pt = _fresh_point(rng, "mid", D) if prime else pts[i % len(pts)]
        cand = {"degree": 2, "function": _function_json(principal_divisor(pt, D, 2))}
        jobs.append(
            {
                "id": f"half-integer-check-{i}",
                "argv": ["primes", "check"],
                "input": {"divisor": _divisor_json(D), "candidate": cand},
                "check": {"kind": "candidate", "prime": prime, "point": _jpoint(pt)},
                "traffic": {"N": 2, "support": 3, "height": _height_of(D)},
            }
        )
    with open(MANIFEST, encoding="utf-8") as fh:
        examples = json.load(fh)["examples"]
    for ex in examples:
        if ex["name"] == "deg42_enumerate":
            continue
        jobs.append(
            {
                "id": f"manifest-{ex['name']}",
                "argv": ex["argv"],
                "manifest": ex["name"],
                "check": {"kind": "golden"},
                "traffic": {"manifest": ex["name"]},
            }
        )
    return jobs


GENERATORS = {
    "ring-ladder": _ring_ladder,
    "primes-mix": _primes_mix,
    "small-jobs": _small_jobs,
}


def generate(workload: str, seed: int) -> list:
    """The seeded job list of one pass, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = GENERATORS[workload](rng)
    rng.shuffle(jobs)
    return jobs
