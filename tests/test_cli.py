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
from fractions import Fraction
from pathlib import Path

import pytest

from qsection.cli import main
from qsection.jsonio import parse_curve, parse_divisor
from qsection.section_ring import SectionRing

SRC = str(Path(__file__).resolve().parents[1] / "src")
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

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

# deg D = 1/2, but R_1 = 0 and generators sit in degrees 2 and 3, so
# small bounds hold none of them or miss the window 2 * 3 + 2 = 8
WINDOW_JOB = {
    "divisor": [
        {"point": "0", "coeff": "-3/2"},
        {"point": "1", "coeff": "-3/2"},
        {"point": "inf", "coeff": "7/2"},
    ],
    "degree": 2,
    "point": "2",
    # w^3 (w - 1)^3 (w - 2), the prime construct returns for this job
    "candidate": {
        "degree": 2,
        "function": {"numer": ["0", "0", "0", "2", "-7", "9", "-5", "1"]},
    },
}


# D = 6/5 [-1] has generators in degrees 1, 1 and 5 and B* = 5; at bound 1
# or 2 the model holds only the two in degree 1, whose window 2 * 1 + 1
# cannot see the two-dimensional quotient in degree 5 of 1/(w + 1)
SIX_FIFTHS_JOB = {
    "divisor": [{"point": "-1", "coeff": "6/5"}],
    "candidate": {"degree": 1, "function": {"numer": ["1"], "denom": ["1", "1"]}},
}


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

    def test_bound_below_b_star_is_raised_to_it(self, tmp_path, capsys):
        """--bound 2 on the half-integer job (B* = 3) builds the model at 3,
        and the output is that of --bound 3, byte for byte."""
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        outputs = []
        for bound in ("2", "3"):
            assert main(["ring", "--input", path, "--bound", bound]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            outputs.append(captured.out)
        assert outputs[0] == outputs[1]
        out = json.loads(outputs[0])
        assert out["bound"] == 3 and "warnings" not in out
        assert out["generator_degrees"] == [2, 2, 3]

    @pytest.mark.parametrize("bound", ["2", "4"])
    def test_bound_below_b_star_keeps_the_series(self, tmp_path, capsys, bound):
        """6/5 [-1] has B* = 5 and a generator in degree 5; below 5 its
        Hilbert fit would fail, and at 5 the default sections all fit."""
        path = write_job(tmp_path, {"divisor": SIX_FIFTHS_JOB["divisor"]})
        code, out, err = run_cli(["ring", "--input", path, "--bound", bound], capsys)
        assert code == 0 and err is None
        assert out["bound"] == 5
        assert out["generator_degrees"] == [1, 1, 5]
        assert out["a_invariant"] == -1 and out["tomari"] == "6/5"

    def test_default_bound_below_b_star_is_raised_to_it(self, tmp_path, capsys):
        """1/7 ([0] + [1] + [2] + [3]) - 3/7 [inf] has 3N = 21 and B* = 27."""
        job = {
            "divisor": [{"point": str(x), "coeff": "1/7"} for x in range(4)]
            + [{"point": "inf", "coeff": "-3/7"}]
        }
        path = write_job(tmp_path, job)
        code, out, err = run_cli(["ring", "--input", path, "--emit", "dims"], capsys)
        assert code == 0 and err is None
        D = parse_divisor(job["divisor"], parse_curve(None))
        assert SectionRing(D).generator_bound == out["bound"] == 27

    def test_generators_at_the_proven_bound_do_not_warn(self, tmp_path, capsys):
        """Bound 3 is B* of the job: a generator sits there, but none lies
        above it, so the answer is complete."""
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, out, _ = run_cli(
            ["ring", "--input", path, "--bound", "3", "--emit", "dims,generators"],
            capsys,
        )
        assert code == 0
        assert out["generator_degrees"] == [2, 2, 3] and "warnings" not in out

    def test_bound_priority_flag_job_env(self, tmp_path, capsys):
        """The flag beats the job's "bound", which beats the default 3N;
        nothing else sets the bound."""
        default_path = write_job(tmp_path, HALF_INTEGER_JOB, "default.json")
        code, out, _ = run_cli(["ring", "--input", default_path, "--emit", "dims"], capsys)
        assert code == 0 and out["bound"] == 6

        job = dict(HALF_INTEGER_JOB, bound=7)
        job_path = write_job(tmp_path, job, "withbound.json")
        code, out, _ = run_cli(["ring", "--input", job_path, "--emit", "dims"], capsys)
        assert code == 0 and out["bound"] == 7

        code, out, _ = run_cli(
            ["ring", "--input", job_path, "--emit", "dims", "--bound", "11"], capsys
        )
        assert code == 0 and out["bound"] == 11

    def test_env_sets_the_truncation_bound_only(self, capsys):
        """The oracle window of the job stays its own (8) when --bound
        raises the truncation bound to 20."""
        path = str(Path(SRC).parent / "scripts" / "jobs" / "half_integer_check_ok.json")
        code, out, _ = run_cli(["primes", "check", "--input", path, "--bound", "20"], capsys)
        assert code == 0
        assert out["oracle_bound"] == out["oracle"]["bound"] == 8
        assert out["profile"]["bound"] == 20

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_nonpositive_bound_flag_is_schema_error(self, tmp_path, capsys, value):
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        code, out, err = run_cli(["ring", "--input", path, "--bound", value], capsys)
        assert code == 3 and out is None
        assert err["error"]["type"] == "SchemaError"
        assert "--bound" in err["error"]["message"]

    def test_bad_bound_outranks_a_non_ample_divisor(self, tmp_path, capsys):
        path = write_job(tmp_path, {"divisor": [{"point": "0", "coeff": "-1"}]})
        code, out, err = run_cli(["ring", "--input", path, "--bound", "0"], capsys)
        assert code == 3 and out is None
        assert err["error"]["type"] == "SchemaError"
        assert err["error"]["message"] == "--bound must be a positive integer"

    def test_empty_divisor_is_domain_error(self, tmp_path, capsys):
        path = write_job(tmp_path, {"curve": {"type": "p1"}, "divisor": []})
        code, _, err = run_cli(["ring", "--input", path], capsys)
        assert code == 1
        assert err["error"]["kind"] == "domain"
        assert err["error"]["type"] == "NotAmpleError"

    def test_rational_outside_the_readme_forms_exits_3(self, tmp_path, capsys):
        for bad in ("1e100000", "1.5", "+1/2", " 1/2"):
            job = {"divisor": [{"point": "0", "coeff": "1/2"}, {"point": "inf", "coeff": bad}]}
            code, out, err = run_cli(["ring", "--input", write_job(tmp_path, job)], capsys)
            assert code == 3 and out is None
            assert err["error"]["type"] == "SchemaError"
            assert err["error"]["message"].startswith("divisor[1].coeff: ")

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

    @pytest.mark.parametrize("target", ["missing/out.json", "."])
    def test_unwritable_output_is_schema_error(self, tmp_path, capsys, target):
        # a missing directory, or a directory in place of a file
        path = write_job(tmp_path, HALF_INTEGER_JOB)
        argv = ["ring", "--input", path, "--output", str(tmp_path / target)]
        code, out, err = run_cli(argv, capsys)
        assert code == 3 and out is None
        assert err["error"]["type"] == "SchemaError"
        assert err["error"]["message"].startswith("cannot write output: ")

    def test_undecodable_file_is_schema_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(HALF_INTEGER_JOB).encode() + b" \xff")
        code, out, err = run_cli(["ring", "--input", str(path)], capsys)
        assert code == 3 and out is None
        assert err["error"]["type"] == "SchemaError"
        assert err["error"]["message"].startswith("cannot read input: ")

    def test_undecodable_stdin_is_schema_error(self, capsys, monkeypatch):
        raw = io.BytesIO(json.dumps(HALF_INTEGER_JOB).encode() + b" \xff")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
        code, out, err = run_cli(["ring", "--input", "-"], capsys)
        assert code == 3 and out is None
        assert err["error"]["type"] == "SchemaError"
        assert err["error"]["message"].startswith("cannot read input: ")


class TestOutputBytes:
    """The exact bytes a job writes, pinned as literals."""

    def test_schema_error_bytes(self, tmp_path, capsys):
        # a quote and a non-ASCII character in the message are escaped
        job = {"divisor": [{"point": "0", "coeff": '1/2"\u00e9'}]}
        assert main(["ring", "--input", write_job(tmp_path, job)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "{\n"
            '  "error": {\n'
            '    "kind": "schema",\n'
            '    "message": "divisor[0].coeff: not a rational string: \'1/2\\"\\u00e9\'",\n'
            '    "type": "SchemaError"\n'
            "  }\n"
            "}\n"
        )

    def test_domain_error_bytes(self, tmp_path, capsys):
        job = {"curve": {"type": "p1"}, "divisor": []}
        assert main(["ring", "--input", write_job(tmp_path, job)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "{\n"
            '  "error": {\n'
            '    "kind": "domain",\n'
            '    "message": "divisor degree 0 is not positive",\n'
            '    "type": "NotAmpleError"\n'
            "  }\n"
            "}\n"
        )

    @pytest.mark.parametrize(
        "argv, job, message",
        [
            (
                ["ec", "verdict"],
                {
                    "curve": {"type": "weierstrass", "a": 0, "b": 1},
                    "divisor": [{"point": {"xy": [1, 1]}, "coeff": 1}],
                    "degree": 1,
                },
                "divisor[0].point: {'xy': [1, 1]} does not lie on the declared curve",
            ),
            (
                ["ring"],
                {"divisor": [{"point": "1/2", "coeff": "1/3"}, {"point": "2/4", "coeff": 1}]},
                "divisor[1].point: duplicate point in divisor",
            ),
            (
                ["ring"],
                {"divisor": [{"point": "O", "coeff": 1}]},
                "divisor[0].point: ECOrigin() is not a point of the projective line",
            ),
            (
                ["ring"],
                {"divisor": [{"point": {"nf": [0, 1]}, "coeff": 1}]},
                "divisor[0].point: number-field scalar given but no field is declared",
            ),
        ],
        ids=["off-curve", "duplicate", "origin-on-line", "undeclared-field"],
    )
    def test_divisor_refusal_bytes(self, tmp_path, capsys, argv, job, message):
        assert main(argv + ["--input", write_job(tmp_path, job)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "{\n"
            '  "error": {\n'
            '    "kind": "schema",\n'
            f'    "message": "{message}",\n'
            '    "type": "SchemaError"\n'
            "  }\n"
            "}\n"
        )

    @pytest.mark.parametrize(
        "argv, job",
        [(["ring"], HALF_INTEGER_JOB), (["primes", "enumerate"], SCROLL_JOB)],
    )
    def test_output_file_has_the_stdout_bytes(self, tmp_path, capsys, argv, job):
        path = write_job(tmp_path, job)
        target = tmp_path / "out.json"
        assert main(argv + ["--input", path]) == 0
        stdout = capsys.readouterr().out
        assert main(argv + ["--input", path, "--output", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == stdout.encode("utf-8")


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


    @pytest.mark.parametrize("action", ["construct", "check", "enumerate"])
    @pytest.mark.parametrize("bound", ["1", "2"])
    def test_small_bound_is_extended_to_the_window(self, tmp_path, capsys, action, bound):
        path = write_job(tmp_path, WINDOW_JOB)
        code, default, _ = run_cli(["primes", action, "--input", path], capsys)
        assert code == 0
        code, out, err = run_cli(["primes", action, "--input", path, "--bound", bound], capsys)
        assert code == 0, err
        assert out == default

    @pytest.mark.parametrize("bound", ["1", "2"])
    def test_small_bound_still_sees_every_generator(self, tmp_path, capsys, bound):
        path = write_job(tmp_path, SIX_FIFTHS_JOB)
        code, default, _ = run_cli(["primes", "check", "--input", path], capsys)
        assert code == 0
        assert default["oracle"] == {
            "is_prime": False, "kind": "dimension", "witness": [5], "bound": 11
        }
        code, out, err = run_cli(["primes", "check", "--input", path, "--bound", bound], capsys)
        assert code == 0, err
        assert out["oracle"] == default["oracle"]

    def test_construct_over_a_number_field(self, tmp_path, capsys):
        """The constructed divisor is reported as built: its point sqrt(2)
        is irrational, so reading it back off the function would fail."""
        job = {
            "curve": {"type": "p1", "field": {"min_poly": [-2, 0, 1]}},
            "divisor": [
                {"point": "0", "coeff": "1/2"},
                {"point": "1", "coeff": "1/2"},
                {"point": "inf", "coeff": "-1/2"},
            ],
            "degree": 2,
            "point": {"nf": ["0", "1"]},
        }
        path = write_job(tmp_path, job)
        code, out, err = run_cli(["primes", "construct", "--input", path], capsys)
        assert code == 0, err
        assert out["verified"] is True
        assert out["function_divisor"] == [
            {"coeff": "-1", "point": "0"},
            {"coeff": "1", "point": {"nf": ["0", "1"]}},
            {"coeff": "-1", "point": "1"},
            {"coeff": "1", "point": "inf"},
        ]


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

    def test_profile_s_must_be_the_support_gcd(self, tmp_path, capsys):
        # the support 2, 4, ..., 12 has gcd 2, so s = 1 names the wrong grading
        profile = {"degree": 1, "bound": 12, "dims": [int(n % 2 == 0) for n in range(13)]}
        path = write_job(tmp_path, {"profile": profile | {"s": 1}, "x0_degree": 1})
        code, out, err = run_cli(["semigroup", "--input", path], capsys)
        assert code == 3 and out is None
        assert err["error"]["type"] == "SchemaError"
        assert "gcd 2" in err["error"]["message"]
        path = write_job(tmp_path, {"profile": profile | {"s": 2}, "x0_degree": 1})
        code, out, _ = run_cli(["semigroup", "--input", path], capsys)
        assert code == 0
        assert out["criterion"] is None and out["a_invariant"] == -3

    def test_profile_with_empty_support_is_domain_error(self, tmp_path, capsys):
        job = {"profile": {"degree": 1, "s": 1, "bound": 3, "dims": [1, 0, 0, 0]}}
        path = write_job(tmp_path, job)
        code, _, err = run_cli(["semigroup", "--input", path], capsys)
        assert code == 1
        assert err["error"]["type"] == "NotSemigroupLikeError"

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


def test_check_with_a_large_constant_factor_finishes(tmp_path):
    """`divisor_of` looked for rational roots among the divisors of the
    constant term, content included, so the half-integer check candidate
    times (2^127 - 1)/3, 2^127 - 1 a prime, never finished; its verdict is
    that of the unscaled candidate."""
    job = json.loads((SCRIPTS / "jobs" / "half_integer_check_ok.json").read_bytes())
    c = Fraction(2**127 - 1, 3)
    job["candidate"]["function"]["numer"] = [str(c * n) for n in (2, -3, 1)]
    path = write_job(tmp_path, job)
    proc = subprocess.run(
        [sys.executable, "-m", "qsection", "primes", "check", "--input", path],
        capture_output=True,
        text=True,
        timeout=10,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    golden = json.loads((SCRIPTS / "golden" / "half_integer_check_ok.json").read_bytes())
    assert out["candidate"]["function"]["numer"] == job["candidate"]["function"]["numer"]
    for key in ("necessary", "oracle", "oracle_bound", "profile"):
        assert out[key] == golden[key]


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


@pytest.mark.parametrize(
    "divisor, bound, degrees",
    [
        # the half-integer ring: 0.6 s at bound 100 and over 280 s at bound
        # 400 while every degree spanned the consequences of its relation
        (HALF_INTEGER_JOB["divisor"], 400, [6]),
        (
            [
                {"point": "0", "coeff": "1/2"},
                {"point": "1", "coeff": "1/3"},
                {"point": "inf", "coeff": "-5/7"},
            ],
            200,
            [13, 16, 18],
        ),
        # generators in degrees 1, 2, 2, 3, 3, 4, 4 and all relations by
        # degree 8; over two minutes at bound 24 without the count
        (
            [
                {"point": "1", "coeff": "-1"},
                {"point": "2", "coeff": "-1/4"},
                {"point": "inf", "coeff": "11/4"},
            ],
            24,
            [4, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 6, 7, 7, 8],
        ),
        # c + 1 generators in degree 1 and all relations in degree 2: 4 to
        # 9 s and 13 to 21 s while the count was a Hilbert numerator updated
        # once per new leading monomial
        ([{"point": "inf", "coeff": "40"}], 3, [2] * 780),
        ([{"point": "inf", "coeff": "60"}], 2, [2] * 1770),
    ],
)
def test_relations_far_past_the_last_one_finish(tmp_path, divisor, bound, degrees):
    """ring --emit relations where the leading-term count must be cheap: at
    a bound far above the last relation, where the count skips every degree
    after it, and on c*[inf] with many generators, where it counts the
    standard monomials of hundreds of leading monomials."""
    path = write_job(tmp_path, {"divisor": divisor})
    proc = subprocess.run(
        [sys.executable, "-m", "qsection", "ring", "--input", path,
         "--bound", str(bound), "--emit", "relations"],
        capture_output=True,
        text=True,
        timeout=10,
        env=subprocess_env(),
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["bound"] == bound
    assert out["relation_degrees"] == degrees


def test_sparse_relation_spans_finish(tmp_path):
    """ring --emit relations at bound 28 on 2[-1] - 7/4[1/2] + 2[7] - 7/6[1]
    (7 generators, 15 relations in degrees <= 10), where the count still
    forms most degrees up to the bound; about 15 s while each span
    eliminated dense lists over 99 % zero.  The relations are those at bound
    16."""
    divisor = [
        {"point": "-1", "coeff": "2"},
        {"point": "1/2", "coeff": "-7/4"},
        {"point": "7", "coeff": "2"},
        {"point": "1", "coeff": "-7/6"},
    ]
    path = write_job(tmp_path, {"divisor": divisor})

    def relations(bound):
        proc = subprocess.run(
            [sys.executable, "-m", "qsection", "ring", "--input", path,
             "--bound", str(bound), "--emit", "relations"],
            capture_output=True,
            text=True,
            timeout=10,
            env=subprocess_env(),
        )
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    high, low = relations(28), relations(16)
    assert high["relations"] == low["relations"]
    assert len(low["relations"]) == 15
    assert max(low["relation_degrees"]) == 10


def test_deep_recursion_is_a_domain_error(tmp_path, capsys):
    """1000*[inf] has 1001 generators in degree 1, and `exponent_vectors`
    recurses once per generator: past the recursion limit the job exits 1
    with a JSON error and writes nothing to stdout."""
    path = write_job(tmp_path, {"divisor": [{"point": "inf", "coeff": "1000"}]})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = run_cli(["ring", "--input", path], capsys)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 1 and out is None
    assert err["error"]["kind"] == "domain"
    assert err["error"]["type"] == "RecursionError"


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
