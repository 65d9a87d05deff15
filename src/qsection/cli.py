"""JSON-in/JSON-out command-line front end.

Subcommands:

* ``ring``: build the section-ring model of a divisor on the projective
  line and emit any of dims, generators, relations, hilbert, a-invariant,
  tomari.  A job with "weights" (and optional "relation_degrees") instead
  of a divisor skips the model and works from the closed-form series.
* ``primes enumerate|check|construct``: the prime-element machinery.
* ``semigroup``: numerical-semigroup report from a generator list or from
  a profile emitted by ``primes check``.
* ``ec verdict``: prime existence for a divisor on a Weierstrass curve.

Exit codes: 0 success, 1 domain error, 2 success with warnings
(a generator appeared at the truncation bound), 3 malformed input.
All rationals travel as strings "p/q"; output is deterministic
(sorted keys, two-space indent, trailing newline).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings

from .divisors import QDivisor
from .elliptic import ec_prime_exists
from .errors import BoundTooSmallWarning, QSectionError, SchemaError
from .jsonio import (
    parse_curve,
    parse_divisor,
    parse_function,
    parse_point,
    serialize_curve,
    serialize_divisor,
    serialize_function,
    serialize_hilbert,
    serialize_point,
    serialize_rational,
    serialize_scalar,
)
from .p1 import divisor_of
from .prime_elements import (
    PrimeCandidate,
    QuotientProfile,
    _model_for_oracle,
    construct_prime,
    enumerate_primes,
    necessary_check,
    primality_oracle,
)
from .section_ring import (
    HilbertSeries,
    a_invariant,
    build_section_ring,
    find_relations,
    hilbert_series,
    tomari_limit,
)
from .semigroups import (
    NumericalSemigroup,
    rational_singularity_criterion,
    semigroup_from_profile,
)

BOUND_ENV_VAR = "QSECTION_BOUND"
EMIT_SECTIONS = ("dims", "generators", "relations", "hilbert", "a-invariant", "tomari")
WEIGHTS_SECTIONS = ("dims", "hilbert", "a-invariant", "tomari")


def _load_job(path: str):
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except OSError as exc:
        raise SchemaError(f"cannot read input: {exc}") from exc
    try:
        job = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from exc
    if not isinstance(job, dict):
        raise SchemaError("the job must be a JSON object")
    return job


def _resolve_bound(flag_value, job, key: str = "bound"):
    """Flag beats the job file, which beats the environment default."""
    if flag_value is not None:
        if flag_value < 1:
            raise SchemaError(f"--{key.replace('_', '-')} must be a positive integer")
        return flag_value
    if key in job:
        val = job[key]
        if not isinstance(val, int) or isinstance(val, bool) or val < 1:
            raise SchemaError(f"{key} must be a positive integer")
        return val
    env = os.environ.get(BOUND_ENV_VAR)
    if env is not None:
        try:
            val = int(env)
        except ValueError:
            raise SchemaError(f"{BOUND_ENV_VAR}={env!r} is not an integer") from None
        if val < 1:
            raise SchemaError(f"{BOUND_ENV_VAR} must be a positive integer")
        return val
    return None


def _parse_emit(raw: str | None, available, default):
    if raw is None:
        return list(default)
    sections = [tok.strip() for tok in raw.split(",") if tok.strip()]
    if not sections:
        raise SchemaError("--emit needs at least one section")
    for tok in sections:
        if tok not in EMIT_SECTIONS:
            raise SchemaError(
                f"unknown emit section {tok!r}; choose from {', '.join(EMIT_SECTIONS)}"
            )
        if tok not in available:
            raise SchemaError(f"emit section {tok!r} is not available for this job")
    return sections


def _job_int(job, key: str) -> int:
    if key not in job:
        raise SchemaError(f"missing required key {key!r}")
    val = job[key]
    if not isinstance(val, int) or isinstance(val, bool) or val < 1:
        raise SchemaError(f"{key} must be a positive integer")
    return val


def _require_divisor(job, curve) -> QDivisor:
    if "divisor" not in job:
        raise SchemaError("missing required key 'divisor'")
    return parse_divisor(job["divisor"], curve)


def _serialize_relation(rel):
    return {
        "degree": rel.degree,
        "terms": [
            {"monomial": list(expo), "coeff": serialize_scalar(c)}
            for expo, c in rel.terms
        ],
    }


def _hilbert_from_weights(job) -> HilbertSeries:
    weights = job["weights"]
    if (
        not isinstance(weights, list)
        or not weights
        or not all(isinstance(w, int) and not isinstance(w, bool) and w >= 1 for w in weights)
    ):
        raise SchemaError("weights must be a nonempty list of positive integers")
    rel_degrees = job.get("relation_degrees", [])
    if not isinstance(rel_degrees, list) or not all(
        isinstance(d, int) and not isinstance(d, bool) and d >= 1 for d in rel_degrees
    ):
        raise SchemaError("relation_degrees must be a list of positive integers")
    return HilbertSeries.from_weights(weights, rel_degrees)


def cmd_ring(args) -> dict:
    job = _load_job(args.input)
    if "weights" in job:
        emit = _parse_emit(args.emit, WEIGHTS_SECTIONS, WEIGHTS_SECTIONS)
        hs = _hilbert_from_weights(job)
        out = {
            "mode": "weights",
            "weights": sorted(job["weights"]),
            "relation_degrees": sorted(job.get("relation_degrees", [])),
        }
        if "dims" in emit:
            window = sum(hs.denominator_exponents) + 10
            out["dims"] = hs.expand(window)
        if "hilbert" in emit:
            out["hilbert"] = serialize_hilbert(hs)
        if "a-invariant" in emit:
            out["a_invariant"] = a_invariant(hs)
        if "tomari" in emit:
            dim = job.get("dim", 2)
            if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
                raise SchemaError("dim must be a positive integer")
            out["tomari"] = serialize_rational(tomari_limit(hs, dim))
        return out

    emit = _parse_emit(args.emit, EMIT_SECTIONS, EMIT_SECTIONS)
    curve = parse_curve(job.get("curve"))
    D = _require_divisor(job, curve)
    model = build_section_ring(D, _resolve_bound(args.bound, job))
    out = {
        "mode": "divisor",
        "curve": serialize_curve(model.divisor.curve),
        "divisor": serialize_divisor(model.divisor),
        "bound": model.bound,
        "degree": serialize_rational(model.divisor.degree()),
        "irredundant": model.irredundant,
    }
    if "dims" in emit:
        out["dims"] = list(model.dims)
    if "generators" in emit:
        out["generator_degrees"] = [g.degree for g in model.generators]
        out["generators"] = [
            {"degree": g.degree, "function": serialize_function(g.func)}
            for g in model.generators
        ]
    if "relations" in emit:
        rels = find_relations(model)
        out["relation_degrees"] = [r.degree for r in rels]
        out["relations"] = [_serialize_relation(r) for r in rels]
    if "hilbert" in emit or "a-invariant" in emit or "tomari" in emit:
        hs = hilbert_series(model)
        if "hilbert" in emit:
            out["hilbert"] = serialize_hilbert(hs)
        if "a-invariant" in emit:
            out["a_invariant"] = a_invariant(hs)
        if "tomari" in emit:
            out["tomari"] = serialize_rational(tomari_limit(hs, 2))
    return out


def _profile_payload(prof) -> dict:
    return {
        "degree": prof.degree,
        "s": prof.s,
        "bound": prof.bound,
        "dims": list(prof.dims),
        "support": list(prof.support()),
    }


def _necessary_payload(rep) -> dict:
    return {
        "degree": rep.degree,
        "s": rep.s,
        "gcd_ok": rep.gcd_ok,
        "scaled_divisor_ok": rep.scaled_divisor_ok,
        "degree_identity_ok": rep.degree_identity_ok,
        "point_divisor": serialize_divisor(rep.point_divisor),
        "point": None if rep.point is None else serialize_point(rep.point),
        "point_in_fractional_support": rep.point_in_fractional_support,
        "passed": rep.passed,
    }


def _verdict_payload(v) -> dict:
    out = {
        "degree": v.degree,
        "s": v.s,
        "kind": v.kind,
        "oracle_bound": v.oracle_bound,
    }
    if v.kind == "unique":
        out["point"] = serialize_point(v.point)
        out["generator"] = serialize_function(v.generator)
        out["generator_divisor"] = serialize_divisor(v.generator_divisor)
    else:
        out["excluded"] = [serialize_point(p) for p in v.excluded]
        out["samples"] = [
            {"point": serialize_point(p), "generator": serialize_function(g)}
            for p, g in v.samples
        ]
    return out


def cmd_primes(args) -> dict:
    job = _load_job(args.input)
    curve = parse_curve(job.get("curve"))
    D = _require_divisor(job, curve)
    bound = _resolve_bound(args.bound, job)
    oracle_bound = _resolve_bound(args.oracle_bound, job, key="oracle_bound")

    if args.action == "enumerate":
        verdicts = enumerate_primes(D, bound=bound, oracle_bound=oracle_bound)
        return {
            "action": "enumerate",
            "curve": serialize_curve(D.curve),
            "divisor": serialize_divisor(D),
            "degree": serialize_rational(D.degree()),
            "degree_denominator": D.common_denominator(),
            "method": "congruence search (derived), every verdict oracle-confirmed",
            "summary": {str(v.degree): v.kind for v in verdicts},
            "verdicts": [_verdict_payload(v) for v in verdicts],
            "oracle_bound": max((v.oracle_bound for v in verdicts), default=0),
        }

    if args.action == "check":
        raw = job.get("candidate")
        if not isinstance(raw, dict):
            raise SchemaError("missing required key 'candidate'")
        degree = _job_int(raw, "degree")
        if "function" not in raw:
            raise SchemaError("candidate needs a 'function'")
        g = parse_function(raw["function"], getattr(curve, "field", None))
        cand = PrimeCandidate(g, degree)
        model = _model_for_oracle(D, degree, bound, oracle_bound)
        oracle = primality_oracle(model, cand, oracle_bound)
        necessary = necessary_check(model, cand)
        return {
            "action": "check",
            "curve": serialize_curve(D.curve),
            "divisor": serialize_divisor(D),
            "candidate": {"degree": degree, "function": serialize_function(g)},
            "profile": _profile_payload(necessary.profile),
            "necessary": _necessary_payload(necessary),
            "oracle": {
                "is_prime": oracle.is_prime,
                "kind": oracle.kind,
                "witness": None if oracle.witness is None else list(oracle.witness),
                "bound": oracle.bound,
            },
            "oracle_bound": oracle.bound,
        }

    degree = _job_int(job, "degree")
    if "point" not in job:
        raise SchemaError("missing required key 'point'")
    point = parse_point(job["point"], curve)
    cand = construct_prime(D, degree, point, bound=bound, oracle_bound=oracle_bound, verify=False)
    model = _model_for_oracle(D, degree, bound, oracle_bound)
    oracle = primality_oracle(model, cand, oracle_bound)
    if not oracle.is_prime:
        raise QSectionError(
            f"constructed candidate failed the oracle with witness {oracle.witness}"
        )
    return {
        "action": "construct",
        "curve": serialize_curve(D.curve),
        "divisor": serialize_divisor(D),
        "degree": degree,
        "point": serialize_point(D.curve.lift_point(point)),
        "function": serialize_function(cand.g),
        "function_divisor": serialize_divisor(divisor_of(cand.g, D.curve)),
        "verified": True,
        "oracle_bound": oracle.bound,
    }


def cmd_semigroup(args) -> dict:
    job = _load_job(args.input)
    out: dict = {}
    scale = 1
    if "profile" in job:
        raw = job["profile"]
        if not isinstance(raw, dict):
            raise SchemaError("profile must be an object")
        for key in ("degree", "s", "bound", "dims"):
            if key not in raw:
                raise SchemaError(f"profile is missing key {key!r}")
        dims = raw["dims"]
        if not isinstance(dims, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in dims
        ):
            raise SchemaError("profile dims must be nonnegative integers")
        prof = QuotientProfile(
            degree=_job_int(raw, "degree"),
            dims=tuple(dims),
            s=_job_int(raw, "s"),
            bound=_job_int(raw, "bound"),
        )
        if len(dims) < prof.bound + 1:
            raise SchemaError(
                f"profile dims must list degrees 0..bound ({prof.bound + 1} values), "
                f"got {len(dims)}"
            )
        H = semigroup_from_profile(prof)
        x0 = job.get("x0_degree", prof.degree)
        scale = prof.s
        out["profile_degree"] = prof.degree
        out["profile_s"] = prof.s
    elif "generators" in job:
        gens = job["generators"]
        if (
            not isinstance(gens, list)
            or not gens
            or not all(isinstance(g, int) and not isinstance(g, bool) and g >= 1 for g in gens)
        ):
            raise SchemaError("generators must be a nonempty list of positive integers")
        try:
            H = NumericalSemigroup(gens)
        except ValueError as exc:
            raise SchemaError(str(exc)) from exc
        x0 = job.get("x0_degree")
    else:
        raise SchemaError("the job needs either 'generators' or a 'profile'")

    out.update(
        {
            "generators": list(H.generators),
            "minimal_generators": list(H.minimal_generators),
            "multiplicity": H.multiplicity,
            "embedding_dimension": H.embedding_dimension,
            "frobenius": H.frobenius,
            "gaps": list(H.gaps),
            "minimal_multiplicity": H.multiplicity == H.embedding_dimension,
        }
    )
    if x0 is not None:
        if not isinstance(x0, int) or isinstance(x0, bool) or x0 < 1:
            raise SchemaError("x0_degree must be a positive integer")
        out["x0_degree"] = x0
        out["a_invariant"] = scale * H.frobenius - x0
        if scale == 1:
            report = rational_singularity_criterion(x0, H.minimal_generators)
            out["criterion"] = report.chain_holds
            out["criterion_report"] = {
                "x0": report.x0,
                "degrees": list(report.degrees),
                "r": report.r,
                "chain_holds": report.chain_holds,
                "had_duplicates": report.had_duplicates,
                "frobenius": report.frobenius,
                "a_invariant": report.a_invariant,
                "minimal_multiplicity": report.minimal_multiplicity,
            }
        else:
            out["criterion"] = None
            out["criterion_note"] = (
                "the chain criterion applies to an irredundant quotient grading; "
                f"rescale by s={scale} first"
            )
    return out


def cmd_ec(args) -> dict:
    job = _load_job(args.input)
    if "curve" not in job:
        raise SchemaError("missing required key 'curve'")
    curve = parse_curve(job["curve"])
    D = _require_divisor(job, curve)
    degree = _job_int(job, "degree")
    verdict = ec_prime_exists(D, degree)
    return {
        "action": "verdict",
        "curve": serialize_curve(D.curve),
        "divisor": serialize_divisor(D),
        "degree": verdict.degree,
        "exists": verdict.exists,
        "point": None if verdict.point is None else serialize_point(verdict.point),
        "reason": verdict.reason,
        "note": "complete for the degrees permitted by deg D",
    }


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged and returns a new namespace each time."""
    parser = argparse.ArgumentParser(
        prog="qsection",
        description="Exact section-ring computations for rational divisors on curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, oracle: bool = False, emit: bool = False):
        p.add_argument("--input", default="-", help="job JSON file ('-' for stdin)")
        p.add_argument("--output", help="write the result here instead of stdout")
        p.add_argument("--bound", type=int, help="truncation bound override")
        if oracle:
            p.add_argument(
                "--oracle-bound",
                dest="oracle_bound",
                type=int,
                help="degree window for the brute-force primality check",
            )
        if emit:
            p.add_argument(
                "--emit",
                help="comma-separated sections: " + ",".join(EMIT_SECTIONS),
            )

    ring = sub.add_parser("ring", help="build a section-ring model")
    common(ring, emit=True)
    ring.set_defaults(handler=cmd_ring)

    primes = sub.add_parser("primes", help="homogeneous principal primes")
    primes.add_argument("action", choices=["enumerate", "check", "construct"])
    common(primes, oracle=True)
    primes.set_defaults(handler=cmd_primes)

    sg = sub.add_parser("semigroup", help="numerical-semigroup report")
    sg.add_argument("--input", default="-", help="job JSON file ('-' for stdin)")
    sg.add_argument("--output", help="write the result here instead of stdout")
    sg.set_defaults(handler=cmd_semigroup)

    ec = sub.add_parser("ec", help="elliptic-curve verdicts")
    ec.add_argument("action", choices=["verdict"])
    ec.add_argument("--input", default="-", help="job JSON file ('-' for stdin)")
    ec.add_argument("--output", help="write the result here instead of stdout")
    ec.set_defaults(handler=cmd_ec)
    return parser


def _emit_payload(payload: dict, output: str | None):
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", BoundTooSmallWarning)
            payload = args.handler(args)
            notes = [
                str(w.message)
                for w in caught
                if issubclass(w.category, BoundTooSmallWarning)
            ]
        if notes:
            payload["warnings"] = sorted(set(notes))
        _emit_payload(payload, args.output)
        return 2 if notes else 0
    except SchemaError as exc:
        _emit_error(exc, "schema")
        return 3
    except QSectionError as exc:
        _emit_error(exc, "domain")
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        _emit_error(exc, "domain")
        return 1


def _emit_error(exc: Exception, kind: str):
    payload = {
        "error": {
            "kind": kind,
            "type": exc.__class__.__name__,
            "message": str(exc),
        }
    }
    sys.stderr.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
