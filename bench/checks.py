"""Independent output checks for the benchmark jobs.

Nothing here imports `qsection`: every expected value is recomputed from the
job input with `fractions.Fraction` and closed formulas, so a check never
reuses the code path it verifies.

* ring: dims from max(sum floor(n*c) + 1, 0); the Hilbert series expanded
  and compared degree by degree with those dims; tomari = deg D; the
  a-invariant as max{n : deg floor(nD) <= -2} (the top degree of
  H^1(P^1, O(floor(nD))) = [H^2_m(R)]_n); each generator checked to be a
  section of floor(d*D) by valuations and evaluated at rational points where
  every relation must vanish; for two-point (toric) divisors the generator
  degrees compared with a brute-force Hilbert basis of the cone semigroup.
* primes: the prime-carrying degrees recomputed from the congruences on N*D,
  every reported generator rebuilt as prod (w - x)^e from (P - N*D)/s, and
  check verdicts compared with how the candidate was built.
* semigroup: Frobenius number and gaps from Sylvester's formulas for two
  generators and by brute force otherwise.
* weights: the series prod(1 - t^r) / prod(1 - t^w) expanded directly.
* golden: byte-for-byte comparison with the stored golden file.

Each check returns a list of failure messages; an empty list means the
output passed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

# Rational evaluation points for generators and relations.  They avoid the
# point pools of the generators in workloads.py (denominators there stay
# below 300 and these have prime denominators above it).
EVAL_POINTS = (Fraction(1009, 307), Fraction(-2003, 311), Fraction(4001, 313))


# --- divisors -------------------------------------------------------------


def divisor_entries(raw) -> dict:
    """{point: Fraction} from a job or output divisor; points are 'inf' or Fractions."""
    return {point_key(e["point"]): Fraction(e["coeff"]) for e in raw}


def point_key(p):
    return "inf" if p == "inf" else Fraction(p)


def common_denominator(D: dict) -> int:
    return math.lcm(*(c.denominator for c in D.values())) if D else 1


def floor_degree(D: dict, n: int) -> int:
    return sum(math.floor(n * c) for c in D.values())


def graded_dim(D: dict, n: int) -> int:
    return max(floor_degree(D, n) + 1, 0)


def a_invariant(D: dict) -> int:
    """max{n : H^1(P^1, O(floor(nD))) != 0} = max{n : deg floor(nD) <= -2}."""
    # each floor loses less than 1 per point, so above len(D)/deg D the
    # degree of floor(nD) exceeds -2
    n = math.ceil(len(D) / sum(D.values()))
    while floor_degree(D, n) > -2:
        n -= 1
    return n


def hilbert_basis_degrees(a: Fraction, b: Fraction, bound: int) -> list[int]:
    """Degrees of the Hilbert basis of {(n, j) : -floor(n*a) <= j <= floor(n*b)}.

    Brute force up to degree `bound`: (n, j) is irreducible unless it splits
    as (n1, j1) + (n - n1, j - j1) with both parts in the cone, n1 >= 1.
    """
    lo = [-math.floor(n * a) for n in range(bound + 1)]
    hi = [math.floor(n * b) for n in range(bound + 1)]
    degrees = []
    for n in range(1, bound + 1):
        for j in range(lo[n], hi[n] + 1):
            reducible = any(
                max(lo[m], j - hi[n - m]) <= min(hi[m], j - lo[n - m])
                for m in range(1, n)
            )
            if not reducible:
                degrees.append(n)
    return degrees


# --- polynomials as coefficient lists, lowest degree first ----------------


def poly_mul(p: list, q: list) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def poly_eval(p: list, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def order_at(p: list, x: Fraction) -> tuple[int, list]:
    """Multiplicity of the root x in p, and p with (w - x)^mult divided out."""
    mult = 0
    while len(p) > 1:
        # synthetic division by (w - x)
        quot = [Fraction(0)] * (len(p) - 1)
        acc = Fraction(0)
        for i in range(len(p) - 1, 0, -1):
            acc = acc * x + p[i]
            quot[i - 1] = acc
        if acc * x + p[0] != 0:
            break
        p, mult = quot, mult + 1
    return mult, p


def rebuild(A: dict) -> tuple[list, list]:
    """Monic numerator and denominator of prod over finite x of (w - x)^A[x]."""
    numer, denom = [Fraction(1)], [Fraction(1)]
    for x, e in sorted(((x, e) for x, e in A.items() if x != "inf"), key=lambda t: t[0]):
        e = int(e)
        for _ in range(abs(e)):
            if e > 0:
                numer = poly_mul(numer, [-x, Fraction(1)])
            else:
                denom = poly_mul(denom, [-x, Fraction(1)])
    return numer, denom


def parse_function(raw) -> tuple[list, list]:
    return [Fraction(c) for c in raw["numer"]], [Fraction(c) for c in raw.get("denom", ["1"])]


def principal_divisor(P, D: dict, scale: int, s: int = 1) -> dict:
    """(P - scale*D) / s as an integral {point: int} dict with zero entries dropped."""
    A = {x: -scale * c for x, c in D.items()}
    A[P] = A.get(P, Fraction(0)) + 1
    out = {}
    for x, c in A.items():
        q = c / s
        if q.denominator != 1:
            raise ValueError(f"(P - {scale}D)/{s} is not integral at {x}")
        if q:
            out[x] = int(q)
    return out


def _function_matches(raw, A: dict) -> bool:
    numer, denom = parse_function(raw)
    return (numer, denom) == rebuild(A)


# --- ring jobs --------------------------------------------------------------


def _section_failure(D: dict, degree: int, numer: list, denom: list) -> str | None:
    """None when numer/denom is a section of floor(degree*D), else the reason."""
    if not numer:
        return "zero generator"
    rest = denom
    for x, c in D.items():
        if x == "inf":
            continue
        on, _ = order_at(numer, x)
        od, rest = order_at(rest, x)
        if on - od < -math.floor(degree * c):
            return f"pole of order {od - on} at {x} exceeds floor({degree}*D)"
    if len(rest) != 1:
        return "denominator vanishes off the support of D"
    inf_order = (len(denom) - 1) - (len(numer) - 1)
    if inf_order < -math.floor(degree * D.get("inf", Fraction(0))):
        return f"pole of order {-inf_order} at inf exceeds floor({degree}*D)"
    return None


def check_ring(job: dict, out: dict) -> list[str]:
    D = divisor_entries(job["divisor"])
    N = common_denominator(D)
    deg = sum(D.values())
    bound = job.get("bound", 3 * N)
    fails = []
    if out.get("bound") != bound:
        return [f"bound {out.get('bound')} != {bound}"]
    dims = [graded_dim(D, n) for n in range(bound + 1)]
    if out["dims"] != dims:
        fails.append("dims differ from max(sum floor(n*c) + 1, 0)")
    if Fraction(out["degree"]) != deg or Fraction(out["tomari"]) != deg:
        fails.append(f"degree/tomari {out['degree']}/{out['tomari']} != deg D = {deg}")
    support = [n for n in range(1, bound + 1) if dims[n]]
    if out["irredundant"] != (bool(support) and math.gcd(*support) == 1):
        fails.append("irredundant flag disagrees with the dims")

    hs = out["hilbert"]
    num, exps = hs["numerator"], hs["denominator_exponents"]
    upto = 2 * bound + len(num) + N
    series = num + [0] * max(0, upto + 1 - len(num))
    for e in exps:
        for k in range(e, upto + 1):
            series[k] += series[k - e]
    if series[: upto + 1] != [graded_dim(D, n) for n in range(upto + 1)]:
        fails.append("Hilbert series expansion differs from the dims")
    if out["a_invariant"] != a_invariant(D):
        fails.append(f"a-invariant {out['a_invariant']} != {a_invariant(D)}")

    gens = out["generators"]
    gdeg = [g["degree"] for g in gens]
    if out["generator_degrees"] != gdeg or sorted(exps) != sorted(gdeg):
        fails.append("generator degrees disagree with generators or Hilbert denominator")
    values = []
    for i, g in enumerate(gens):
        numer, denom = parse_function(g["function"])
        why = _section_failure(D, g["degree"], numer, denom)
        if why:
            fails.append(f"generator {i}: {why}")
            continue
        values.append([poly_eval(numer, x) / poly_eval(denom, x) for x in EVAL_POINTS])
    if len(D) == 2 and len(values) == len(gens):
        (p, a), (q, b) = D.items()
        basis = hilbert_basis_degrees(a, b, bound)
        if sorted(gdeg) != basis:
            fails.append(f"generator degrees {sorted(gdeg)} != toric Hilbert basis {basis}")

    rels = out["relations"]
    if out["relation_degrees"] != [r["degree"] for r in rels]:
        fails.append("relation_degrees disagree with relations")
    if len(values) == len(gens):
        for r_i, rel in enumerate(rels):
            for t in rel["terms"]:
                mono = t["monomial"]
                if len(mono) != len(gens) or sum(e * d for e, d in zip(mono, gdeg)) != rel["degree"]:
                    fails.append(f"relation {r_i}: term {mono} is not of degree {rel['degree']}")
                    break
            else:
                for k in range(len(EVAL_POINTS)):
                    total = Fraction(0)
                    for t in rel["terms"]:
                        term = Fraction(t["coeff"])
                        for e, v in zip(t["monomial"], values):
                            term *= v[k] ** e
                        total += term
                    if total:
                        fails.append(f"relation {r_i} does not vanish at w = {EVAL_POINTS[k]}")
                        break
    return fails


# --- primes jobs ------------------------------------------------------------


def expected_prime_degrees(D: dict) -> dict:
    """{d: (kind, point)} from the congruence conditions on N*D, deg D = 1/N.

    Degree d | N with gcd(d, N/d) = 1 carries primes: with s = N/d, s = 1
    gives a one-parameter family, and s > 1 a unique prime at the point P
    where N*D is 1 mod s, every other coefficient is 0 mod s, and P is
    outside the fractional support of s*D.
    """
    N = common_denominator(D)
    ND = {x: int(N * c) for x, c in D.items()}
    out = {}
    for d in range(1, N + 1):
        s = N // d
        if N % d or math.gcd(d, s) != 1:
            continue
        if s == 1:
            out[d] = ("family", None)
            continue
        for x, e in ND.items():
            if e % s == 1 and all(f % s == 0 for y, f in ND.items() if y != x):
                if (s * D[x]).denominator == 1:
                    out[d] = ("unique", x)
    return out


def _divisor_matches(raw, A: dict) -> bool:
    return {x: c for x, c in divisor_entries(raw).items() if c} == {
        x: Fraction(c) for x, c in A.items()
    }


def check_enumerate(job: dict, out: dict) -> list[str]:
    D = divisor_entries(job["divisor"])
    N = common_denominator(D)
    fails = []
    if out["degree_denominator"] != N or Fraction(out["degree"]) != Fraction(1, N):
        fails.append("degree or degree_denominator is wrong")
    expected = expected_prime_degrees(D)
    summary = {str(d): kind for d, (kind, _) in expected.items()}
    if out["summary"] != summary:
        fails.append(f"summary {out['summary']} != congruence prediction {summary}")
    frac = {x for x, c in D.items() if c.denominator != 1}
    for v in out["verdicts"]:
        d, s = v["degree"], v["s"]
        if d * s != N:
            fails.append(f"degree {d}: s = {s} does not divide N = {N}")
            continue
        if v["kind"] == "unique":
            P = point_key(v["point"])
            if expected.get(d) != ("unique", P):
                fails.append(f"degree {d}: unique prime at {v['point']} not predicted")
                continue
            A = principal_divisor(P, D, N, s)
            if not _function_matches(v["generator"], A):
                fails.append(f"degree {d}: generator differs from prod (w - x)^e of (P - ND)/s")
            if not _divisor_matches(v["generator_divisor"], A):
                fails.append(f"degree {d}: generator divisor differs from (P - ND)/s")
        else:
            if {point_key(p) for p in v["excluded"]} != frac:
                fails.append(f"degree {d}: excluded points differ from the fractional support")
            for sample in v["samples"]:
                P = point_key(sample["point"])
                if P in frac:
                    fails.append(f"degree {d}: sample {sample['point']} is in the fractional support")
                elif not _function_matches(sample["generator"], principal_divisor(P, D, N)):
                    fails.append(f"degree {d}: sample generator at {sample['point']} is wrong")
    return fails


def check_construct(job: dict, out: dict) -> list[str]:
    D = divisor_entries(job["divisor"])
    d = job["degree"]
    P = point_key(job["point"])
    A = principal_divisor(P, D, d)
    fails = []
    if point_key(out["point"]) != P or out["degree"] != d or out["verified"] is not True:
        fails.append("point, degree or verified flag is wrong")
    if not _function_matches(out["function"], A):
        fails.append("function differs from prod (w - x)^e of P - dD")
    if not _divisor_matches(out["function_divisor"], A):
        fails.append("function divisor differs from P - dD")
    return fails


def check_candidate(job: dict, out: dict, expect_prime: bool, point) -> list[str]:
    """A `primes check` verdict against how the candidate was built."""
    D = divisor_entries(job["divisor"])
    d = job["candidate"]["degree"]
    fails = []
    oracle, nec, prof = out["oracle"], out["necessary"], out["profile"]
    if oracle["is_prime"] is not expect_prime:
        fails.append(f"oracle says is_prime={oracle['is_prime']}, built as {'prime' if expect_prime else 'non-prime'}")
    if expect_prime and (oracle["kind"] != "ok" or not nec["passed"]):
        fails.append("a prime candidate must pass the oracle and the necessary screen")
    if not expect_prime and (oracle["kind"] == "ok" or oracle["witness"] is None):
        fails.append("a non-prime candidate needs a refutation witness")
    if nec["point"] is None or point_key(nec["point"]) != point_key(point):
        fails.append(f"necessary point {nec['point']} != built point {point}")
    b = prof["bound"]
    qdims = [graded_dim(D, n) - (graded_dim(D, n - d) if n >= d else 0) for n in range(b + 1)]
    if prof["dims"] != qdims or prof["degree"] != d:
        fails.append("quotient profile dims differ from dim R_n - dim R_{n-d}")
    return fails


# --- semigroups and weights -------------------------------------------------


def semigroup_facts(gens) -> dict:
    """Gaps, Frobenius number and minimal generators by brute force."""
    gens = sorted(set(gens))
    m = gens[0]
    limit = m * gens[-1] + m  # past the Frobenius number of any gcd-one set
    member = [False] * (limit + 1)
    member[0] = True
    for n in range(1, limit + 1):
        member[n] = any(g <= n and member[n - g] for g in gens)
    gaps = [n for n in range(limit + 1) if not member[n]]
    minimal = []
    for g in gens:
        reach = [True] + [False] * g
        for n in range(1, g + 1):
            reach[n] = any(h <= n and h != g and reach[n - h] for h in gens)
        if not reach[g]:
            minimal.append(g)
    return {"gaps": gaps, "frobenius": gaps[-1] if gaps else -1, "minimal": minimal}


def check_semigroup(job: dict, out: dict, semigroup, scale: int = 1) -> list[str]:
    """`semigroup` is the generator list the job was built from."""
    facts = semigroup_facts(semigroup)
    fails = []
    if len(set(semigroup)) == 2:
        a, b = sorted(set(semigroup))
        if out["frobenius"] != a * b - a - b or len(out["gaps"]) != (a - 1) * (b - 1) // 2:
            fails.append("Frobenius number or gap count breaks Sylvester's formulas")
    if out["frobenius"] != facts["frobenius"] or out["gaps"] != facts["gaps"]:
        fails.append("Frobenius number or gaps differ from brute force")
    minimal = facts["minimal"]
    if (
        out["minimal_generators"] != minimal
        or out["multiplicity"] != minimal[0]
        or out["embedding_dimension"] != len(minimal)
        or out["minimal_multiplicity"] != (minimal[0] == len(minimal))
    ):
        fails.append("minimal generators, multiplicity or embedding dimension are wrong")
    x0 = job.get("x0_degree", job.get("profile", {}).get("degree"))
    if x0 is not None:
        if out.get("a_invariant") != scale * facts["frobenius"] - x0:
            fails.append("a-invariant != s*F - x0")
        if scale == 1:
            desc = sorted(set(minimal), reverse=True)
            chain = desc[-1] == len(desc) and len(desc) + x0 > desc[0]
            if out.get("criterion") is not chain:
                fails.append("chain criterion verdict is wrong")
        elif out.get("criterion") is not None:
            fails.append("chain criterion must be null for s > 1")
    return fails


def check_weights(job: dict, out: dict) -> list[str]:
    weights, rels = job["weights"], job.get("relation_degrees", [])
    num = [1]
    for r in rels:
        num = [a - b for a, b in zip(num + [0] * r, [0] * r + num)]
    while num and num[-1] == 0:
        num.pop()
    upto = sum(weights) + 10
    series = num + [0] * max(0, upto + 1 - len(num))
    for w in weights:
        for k in range(w, upto + 1):
            series[k] += series[k - w]
    fails = []
    if out["dims"] != series[: upto + 1]:
        fails.append("dims differ from the expanded complete-intersection series")
    if out["hilbert"] != {"numerator": num, "denominator_exponents": sorted(weights)}:
        fails.append("Hilbert series differs from prod(1 - t^r) / prod(1 - t^w)")
    if out["a_invariant"] != sum(rels) - sum(weights):
        fails.append("a-invariant != sum(r) - sum(w)")
    if Fraction(out["tomari"]) != Fraction(math.prod(rels), math.prod(weights)):
        fails.append("tomari != prod(r) / prod(w)")
    return fails


# --- dispatch -----------------------------------------------------------------


def check_output(check: dict, job: dict | None, out_bytes: bytes, golden: bytes | None) -> list[str]:
    """Run the check named in `check` on one job's raw output."""
    if golden is not None and out_bytes != golden:
        return ["output differs from the golden file"]
    kind = check["kind"]
    if kind == "golden":
        return []
    try:
        out = json.loads(out_bytes)
    except ValueError:
        return ["output is not JSON"]
    try:
        if kind == "ring":
            return check_ring(job, out)
        if kind == "enumerate":
            return check_enumerate(job, out)
        if kind == "construct":
            return check_construct(job, out)
        if kind == "candidate":
            return check_candidate(job, out, check["prime"], check["point"])
        if kind == "semigroup":
            return check_semigroup(job, out, check["semigroup"], check.get("scale", 1))
        if kind == "weights":
            return check_weights(job, out)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]
    raise ValueError(f"unknown check kind {kind!r}")
