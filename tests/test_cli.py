"""End-to-end tests of the JSON command-line front end.

Each test drives main() in process and inspects the exit code plus the
parsed stdout/stderr payloads.  Golden-file runs of the same jobs live in
scripts/; here the focus is the contract: exit codes, bound resolution,
emit filtering, error shapes, and byte-level determinism.
"""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qsection.cli import BOUND_ENV_VAR, main

SRC = str(Path(__file__).resolve().parents[1] / "src")

HALF_INTEGER_JOB = {
    "curve": {"type": "p1"},
    "divisor": [
        {"point": "0", "coeff": "1/2"},
        {"point": "inf", "coeff": "1/2"},
        {"point": "1", "coeff": "-1/2"},
    ],
}

SCROLL_JOB = {
    "divisor": [
        {"point": "0", "coeff": "5/7"},
        {"point": "inf", "coeff": "-4/7"},
    ]
}


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    monkeypatch.delenv(BOUND_ENV_VAR, raising=False)


def write_job(tmp_path, job, name="job.json"):
    path = tmp_path / name
    path.write_text(json.dumps(job), encoding="utf-8")
    return str(path)


def subprocess_env():
    """The environment with the source tree first on PYTHONPATH, so that a
    child `python -m qsection` imports this checkout."""
    paths = filter(None, [SRC, os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out else None
    err = json.loads(captured.err) if captured.err else None
    return code, out, err


class TestRingDivisorMode:
    def test_full_payload(self, tmp_path, capsys):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, out, err = run_cli(["ring", "--input", path], capsys)
        assert code == 0 and err is None
        assert out["mode"] == "divisor"
        assert out["curve"] == {"type": "p1"}
        assert out["divisor"] == [
            {"coeff": "1/2", "point": "0"},
            {"coeff": "-1/2", "point": "1"},
            {"coeff": "1/2", "point": "inf"},
        ]
        assert out["degree"] == "1/2"
        assert out["irredundant"] is True
        assert out["dims"][:7] == [1, 0, 2, 1, 3, 2, 4]
        assert out["generator_degrees"] == [2, 2, 3]
        assert out["relation_degrees"] == [6]
        assert out["hilbert"] == {
            "numerator": [1, 0, 0, 0, 0, 0, -1],
            "denominator_exponents": [2, 2, 3],
        }
        assert out["a_invariant"] == -1
        assert out["tomari"] == "1/2"

    def test_emit_filters_sections(self, tmp_path, capsys):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, out, _ = run_cli(
            ["ring", "--input", path, "--emit", "tomari,dims"], capsys
        )
        assert code == 0
        assert "tomari" in out and "dims" in out
        for absent in ("generators", "relations", "hilbert", "a_invariant"):
            assert absent not in out

    def test_emit_unknown_section(self, tmp_path, capsys):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, out, err = run_cli(
            ["ring", "--input", path, "--emit", "widgets"], capsys
        )
        assert code == 3
        assert err["error"]["type"] == "SchemaError"

    def test_small_bound_warns_with_exit_2(self, tmp_path, capsys):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, out, _ = run_cli(
            ["ring", "--input", path, "--bound", "3", "--emit", "dims,generators"],
            capsys,
        )
        assert code == 2
        assert out["bound"] == 3
        assert out["warnings"] and "bound" in out["warnings"][0]

    def test_bound_priority_flag_job_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(BOUND_ENV_VAR, "9")
        env_path = write_job(tmp_path, HALF_INTEGER_JOB, "env.json")
        code, out, _ = run_cli(["ring", "--input", env_path, "--emit", "dims"], capsys)
        assert code == 0 and out["bound"] == 9

        job = dict(HALF_INTEGER_JOB, bound=7)
        job_path = write_job(tmp_path, job, "withbound.json")
        code, out, _ = run_cli(["ring", "--input", job_path, "--emit", "dims"], capsys)
        assert code == 0 and out["bound"] == 7

        code, out, _ = run_cli(
            ["ring", "--input", job_path, "--emit", "dims", "--bound", "11"], capsys
        )
        assert code == 0 and out["bound"] == 11

    def test_bad_env_bound(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(BOUND_ENV_VAR, "soon")
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, _, err = run_cli(["ring", "--input", path], capsys)
        assert code == 3 and err["error"]["kind"] == "schema"

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_bound_flag_is_schema_error(self, tmp_path, capsys, value):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, out, err = run_cli(["ring", "--input", path, "--bound", value], capsys)
        assert code == 3 and out is None
        assert err["error"]["type"] == "SchemaError"
        assert "--bound" in err["error"]["message"]

    def test_empty_divisor_is_domain_error(self, tmp_path, capsys):
        path = write_job(tmp_path, {"curve": {"type": "p1"}, "divisor": []})
        code, _, err = run_cli(["ring", "--input", path], capsys)
        assert code == 1
        assert err["error"]["kind"] == "domain"
        assert err["error"]["type"] == "NotAmpleError"

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope", encoding="utf-8")
        code, _, err = run_cli(["ring", "--input", str(path)], capsys)
        assert code == 3 and err["error"]["type"] == "SchemaError"

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["ring", "--input", str(tmp_path / "absent.json")], capsys
        )
        assert code == 3

    def test_stdin_default(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(HALF_INTEGER_JOB)))
        code, out, _ = run_cli(["ring", "--emit", "dims"], capsys)
        assert code == 0 and out["dims"][:3] == [1, 0, 2]

    def test_output_file_deterministic(self, tmp_path, capsys):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(["ring", "--input", path, "--output", str(first)]) == 0
        assert main(["ring", "--input", path, "--output", str(second)]) == 0
        capsys.readouterr()
        blob = first.read_bytes()
        assert blob == second.read_bytes()
        assert blob.endswith(b"\n")
        assert json.loads(blob)["tomari"] == "1/2"


class TestRingWeightsMode:
    def test_weights_payload(self, tmp_path, capsys):
        job = {"weights": [4, 5, 6], "relation_degrees": [16]}
        path = write_job(tmp_path, job)
        code, out, _ = run_cli(["ring", "--input", path], capsys)
        assert code == 0
        assert out["mode"] == "weights"
        assert out["tomari"] == "2/15"
        assert out["a_invariant"] == 1
        assert out["hilbert"]["denominator_exponents"] == [4, 5, 6]
        numerator = out["hilbert"]["numerator"]
        assert numerator[0] == 1 and numerator[16] == -1
        assert len(out["dims"]) == 4 + 5 + 6 + 10 + 1
        assert out["dims"][:7] == [1, 0, 0, 0, 1, 1, 1]

    def test_weights_dim_mismatch(self, tmp_path, capsys):
        job = {"weights": [1, 1], "relation_degrees": [2], "dim": 2}
        path = write_job(tmp_path, job)
        code, _, err = run_cli(["ring", "--input", path], capsys)
        assert code == 1
        assert err["error"]["type"] == "PoleOrderMismatchError"

    def test_weights_reject_generator_emit(self, tmp_path, capsys):
        path = write_job(tmp_path, {"weights": [2, 3]})
        code, _, err = run_cli(
            ["ring", "--input", path, "--emit", "generators"], capsys
        )
        assert code == 3


class TestPrimes:
    def test_enumerate_family(self, tmp_path, capsys):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, out, _ = run_cli(["primes", "enumerate", "--input", path], capsys)
        assert code == 0
        assert out["summary"] == {"2": "family"}
        assert out["degree_denominator"] == 2
        assert out["method"] == (
            "congruence search (derived), every verdict oracle-confirmed"
        )
        assert out["oracle_bound"] == 8
        (verdict,) = out["verdicts"]
        assert verdict["kind"] == "family" and verdict["s"] == 1
        assert verdict["excluded"] == ["0", "1", "inf"]
        assert [s["point"] for s in verdict["samples"]] == ["2", "3"]

    def test_check_confirms_prime(self, tmp_path, capsys):
        job = dict(
            HALF_INTEGER_JOB,
            candidate={
                "degree": 2,
                "function": {"numer": ["2", "-3", "1"], "denom": ["0", "1"]},
            },
        )
        path = write_job(tmp_path, job)
        code, out, _ = run_cli(["primes", "check", "--input", path], capsys)
        assert code == 0
        assert out["oracle"] == {
            "is_prime": True,
            "kind": "ok",
            "witness": None,
            "bound": 8,
        }
        assert out["necessary"]["passed"] is True
        assert out["necessary"]["point"] == "2"
        assert out["necessary"]["point_in_fractional_support"] is False
        assert out["profile"]["s"] == 1
        assert out["profile"]["dims"][:4] == [1, 0, 1, 1]

    def test_check_refutes_generator(self, tmp_path, capsys):
        job = dict(
            HALF_INTEGER_JOB,
            candidate={"degree": 2, "function": {"numer": ["-1", "1"]}},
        )
        path = write_job(tmp_path, job)
        code, out, _ = run_cli(["primes", "check", "--input", path], capsys)
        assert code == 0
        assert out["oracle"]["is_prime"] is False
        assert out["oracle"]["kind"] == "product"
        assert out["oracle"]["witness"] == [3, 3]
        # the arithmetic screen passes; the forced point sits in the
        # fractional support, which is what the oracle then detects
        assert out["necessary"]["passed"] is True
        assert out["necessary"]["point"] == "0"
        assert out["necessary"]["point_in_fractional_support"] is True

    def test_check_zero_candidate_is_rejected(self, tmp_path, capsys):
        job = dict(
            HALF_INTEGER_JOB,
            candidate={"degree": 2, "function": {"numer": [], "denom": ["1"]}},
        )
        path = write_job(tmp_path, job)
        code, out, err = run_cli(["primes", "check", "--input", path], capsys)
        assert code == 1 and out is None
        assert err["error"]["kind"] == "domain"
        assert err["error"]["type"] == "ZeroCandidateError"
        assert "zero function" in err["error"]["message"]

    @pytest.mark.parametrize(
        "flag, value",
        [("--bound", "0"), ("--bound", "-3"), ("--oracle-bound", "0"), ("--oracle-bound", "-2")],
    )
    def test_nonpositive_bound_flags_are_schema_errors(self, tmp_path, capsys, flag, value):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, out, err = run_cli(["primes", "enumerate", "--input", path, flag, value], capsys)
        assert code == 3 and out is None
        assert err["error"]["type"] == "SchemaError"
        assert flag in err["error"]["message"]

    def test_check_missing_candidate(self, tmp_path, capsys):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, _, err = run_cli(["primes", "check", "--input", path], capsys)
        assert code == 3

    def test_construct(self, tmp_path, capsys):
        job = dict(SCROLL_JOB, degree=7, point="1")
        path = write_job(tmp_path, job)
        code, out, _ = run_cli(["primes", "construct", "--input", path], capsys)
        assert code == 0
        assert out["verified"] is True
        assert out["degree"] == 7 and out["point"] == "1"
        assert out["function"] == {
            "numer": ["-1", "1"],
            "denom": ["0", "0", "0", "0", "0", "1"],
        }
        assert out["function_divisor"] == [
            {"coeff": "-5", "point": "0"},
            {"coeff": "1", "point": "1"},
            {"coeff": "4", "point": "inf"},
        ]

    def test_construct_blocked_point(self, tmp_path, capsys):
        job = dict(HALF_INTEGER_JOB, degree=2, point="0")
        path = write_job(tmp_path, job)
        code, _, err = run_cli(["primes", "construct", "--input", path], capsys)
        assert code == 1
        assert err["error"]["type"] == "HypothesisViolatedError"

    def test_construct_wrong_degree(self, tmp_path, capsys):
        job = dict(HALF_INTEGER_JOB, degree=3, point="2")
        path = write_job(tmp_path, job)
        code, _, err = run_cli(["primes", "construct", "--input", path], capsys)
        assert code == 1
        assert err["error"]["type"] == "NotLinearlyEquivalentError"


class TestSemigroup:
    def test_generators_mode(self, tmp_path, capsys):
        path = write_job(tmp_path, {"generators": [3, 5, 7], "x0_degree": 7})
        code, out, _ = run_cli(["semigroup", "--input", path], capsys)
        assert code == 0
        assert out["frobenius"] == 4
        assert out["gaps"] == [1, 2, 4]
        assert out["multiplicity"] == 3
        assert out["embedding_dimension"] == 3
        assert out["minimal_multiplicity"] is True
        assert out["a_invariant"] == -3
        assert out["criterion"] is True
        assert out["criterion_report"]["degrees"] == [7, 5, 3]

    def test_generators_mode_criterion_fails(self, tmp_path, capsys):
        path = write_job(tmp_path, {"generators": [2, 3], "x0_degree": 1})
        code, out, _ = run_cli(["semigroup", "--input", path], capsys)
        assert code == 0
        assert out["a_invariant"] == 0
        assert out["criterion"] is False

    def test_generators_without_x0(self, tmp_path, capsys):
        path = write_job(tmp_path, {"generators": [3, 5]})
        code, out, _ = run_cli(["semigroup", "--input", path], capsys)
        assert code == 0
        assert out["frobenius"] == 7
        assert "a_invariant" not in out and "criterion" not in out

    def test_profile_mode_rescales(self, tmp_path, capsys):
        dims = [0] * 57
        dims[0] = 1
        for k in (2, 3, 4, 5, 6, 7, 8):
            dims[7 * k] = 1
        job = {"profile": {"degree": 6, "s": 7, "bound": 56, "dims": dims}}
        path = write_job(tmp_path, job)
        code, out, _ = run_cli(["semigroup", "--input", path], capsys)
        assert code == 0
        assert out["generators"] == [2, 3]
        assert out["frobenius"] == 1
        assert out["profile_s"] == 7
        assert out["x0_degree"] == 6
        assert out["a_invariant"] == 7 * 1 - 6
        assert out["criterion"] is None
        assert "rescale" in out["criterion_note"]

    def test_profile_dims_shorter_than_bound(self, tmp_path, capsys):
        job = {"profile": {"degree": 1, "s": 1, "bound": 10, "dims": [1, 0, 1]}}
        path = write_job(tmp_path, job)
        code, out, err = run_cli(["semigroup", "--input", path], capsys)
        assert code == 3 and out is None
        assert err["error"]["type"] == "SchemaError"
        assert "dims" in err["error"]["message"]

    def test_gcd_failure_is_domain_error(self, tmp_path, capsys):
        path = write_job(tmp_path, {"generators": [4, 6]})
        code, _, err = run_cli(["semigroup", "--input", path], capsys)
        assert code == 1
        assert err["error"]["type"] == "GcdNotOneError"

    def test_needs_generators_or_profile(self, tmp_path, capsys):
        path = write_job(tmp_path, {"x0_degree": 3})
        code, _, err = run_cli(["semigroup", "--input", path], capsys)
        assert code == 3


class TestEC:
    THREE_TORSION_JOB = {
        "curve": {
            "type": "weierstrass",
            "a": "0",
            "b": "-1",
            "field": {"min_poly": [1, 0, 1]},
        },
        "divisor": [
            {"point": {"xy": ["0", {"nf": ["0", "1"]}]}, "coeff": "1/2"},
            {"point": {"xy": ["0", {"nf": ["0", "-1"]}]}, "coeff": "1/2"},
            {"point": "O", "coeff": "-1/2"},
        ],
        "degree": 2,
    }

    TWO_TORSION_JOB = {
        "curve": {
            "type": "weierstrass",
            "a": "0",
            "b": "-1",
            "field": {"min_poly": [1, 1, 1]},
        },
        "divisor": [
            {"point": {"xy": ["1", "0"]}, "coeff": "1/2"},
            {"point": {"xy": [{"nf": ["0", "1"]}, "0"]}, "coeff": "1/2"},
            {"point": {"xy": [{"nf": ["-1", "-1"]}, "0"]}, "coeff": "1/2"},
            {"point": "O", "coeff": "-1"},
        ],
        "degree": 2,
    }

    def test_blocked_verdict(self, tmp_path, capsys):
        path = write_job(tmp_path, self.THREE_TORSION_JOB)
        code, out, _ = run_cli(["ec", "verdict", "--input", path], capsys)
        assert code == 0
        assert out["exists"] is False
        assert out["reason"] == "in_frac_support"
        assert out["point"] == "O"
        assert out["note"] == "complete for the degrees permitted by deg D"

    def test_existing_verdict(self, tmp_path, capsys):
        path = write_job(tmp_path, self.TWO_TORSION_JOB)
        code, out, _ = run_cli(["ec", "verdict", "--input", path], capsys)
        assert code == 0
        assert out["exists"] is True
        assert out["point"] == "O" and out["reason"] == "ok"

    def test_missing_degree(self, tmp_path, capsys):
        job = {k: v for k, v in self.THREE_TORSION_JOB.items() if k != "degree"}
        path = write_job(tmp_path, job)
        code, _, err = run_cli(["ec", "verdict", "--input", path], capsys)
        assert code == 3

    def test_singular_curve_rejected_at_parse(self, tmp_path, capsys):
        job = {
            "curve": {"type": "weierstrass", "a": "0", "b": "0"},
            "divisor": [{"point": "O", "coeff": "1"}],
            "degree": 1,
        }
        path = write_job(tmp_path, job)
        code, _, err = run_cli(["ec", "verdict", "--input", path], capsys)
        assert code == 3
        assert "singular" in err["error"]["message"]

    WEIERSTRASS_DIVISOR_JOB = {
        "curve": {"type": "weierstrass", "a": "0", "b": "1"},
        "divisor": [{"point": "O", "coeff": "1/2"}],
    }

    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["ring"], {}),
            (["primes", "enumerate"], {}),
            (
                ["primes", "check"],
                {"candidate": {"degree": 2, "function": {"numer": ["1"], "denom": ["1"]}}},
            ),
            (["primes", "construct"], {"degree": 2, "point": {"xy": ["2", "3"]}}),
        ],
    )
    def test_ring_jobs_reject_weierstrass_divisor(self, tmp_path, capsys, argv, extra):
        # section-ring models live on the projective line only
        path = write_job(tmp_path, {**self.WEIERSTRASS_DIVISOR_JOB, **extra})
        code = main(argv + ["--input", path])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "Traceback" not in captured.err
        err = json.loads(captured.err)["error"]
        assert err["kind"] == "domain" and err["type"] == "ValueError"
        assert "projective line" in err["message"]


class TestParserReuse:
    """main() builds its parser once per process; no call may see another's
    options."""

    def test_bound_flag_does_not_stick(self, tmp_path, capsys):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        job_path = write_job(tmp_path, {**HALF_INTEGER_JOB, "bound": 7}, "bound.json")
        code, out, _ = run_cli(["ring", "--input", path, "--bound", "5", "--emit", "dims"], capsys)
        assert code == 0 and out["bound"] == 5
        code, out, _ = run_cli(["ring", "--input", path, "--emit", "dims"], capsys)
        assert code == 0 and out["bound"] == 6  # the default 3N
        code, out, _ = run_cli(["ring", "--input", job_path, "--emit", "dims"], capsys)
        assert code == 0 and out["bound"] == 7

    def test_primes_after_semigroup(self, tmp_path, capsys):
        sg_path = write_job(tmp_path, {"generators": [3, 5, 7]}, "sg.json")
        code, out, _ = run_cli(["semigroup", "--input", sg_path], capsys)
        assert code == 0 and out["frobenius"] == 4
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, out, _ = run_cli(["primes", "enumerate", "--input", path], capsys)
        assert code == 0 and out["summary"] == {"2": "family"}

    def test_usage_errors_still_exit_two(self, tmp_path, capsys):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        for argv in (["ring", "--input", path, "--bogus"], ["primes", "--input", path]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert capsys.readouterr().err.startswith("usage: qsection")
        code, out, _ = run_cli(["ring", "--input", path, "--emit", "dims"], capsys)
        assert code == 0 and out["bound"] == 6


def test_thin_enumerate_finishes(tmp_path):
    """primes enumerate on 1/1000*[inf], which ran for half a minute while
    the oracle tried every pair of support degrees; the verdicts are those of
    that slower oracle."""
    path = write_job(tmp_path, {"divisor": [{"point": "inf", "coeff": "1/1000"}]})
    proc = subprocess.run(
        [sys.executable, "-m", "qsection", "primes", "enumerate", "--input", path],
        capture_output=True,
        text=True,
        timeout=10,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["summary"] == {"1": "unique", "1000": "family"}
    assert out["oracle_bound"] == 3000
    assert out["verdicts"] == [
        {
            "degree": 1, "s": 1000, "kind": "unique", "oracle_bound": 2001,
            "point": "inf", "generator": {"denom": ["1"], "numer": ["1"]},
            "generator_divisor": [],
        },
        {
            "degree": 1000, "s": 1, "kind": "family", "oracle_bound": 3000,
            "excluded": ["inf"],
            "samples": [
                {"generator": {"denom": ["1"], "numer": ["0", "1"]}, "point": "0"},
                {"generator": {"denom": ["1"], "numer": ["-1", "1"]}, "point": "1"},
            ],
        },
    ]


def test_module_entry_point(tmp_path):
    path = tmp_path / "job.json"
    path.write_text(json.dumps(HALF_INTEGER_JOB), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "qsection", "ring", "--input", str(path), "--emit", "tomari"],
        capture_output=True,
        text=True,
        env=subprocess_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tomari"] == "1/2"
