"""Models of equal divisors share their pieces, generators and product memos.

`section_ring` keeps one record per divisor for the 16 divisors modelled
most recently (see "Shared divisor data" in its module docstring).  A warm
model, one whose divisor has a record already, must report exactly what a
cold build reports: every CLI job gives the same bytes with and without the
records, in either order of the jobs, and a model extended warm equals a
cold build at its bound.
"""

import contextlib
import importlib
import io
import json
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cold_build import cold_build
from qsection import section_ring
from qsection.cli import main
from qsection.divisors import ECAffine, FiniteP1, P1_INFINITY, ProjectiveLine, QDivisor
from qsection.elliptic import WeierstrassCurve
from qsection.errors import NotAmpleError
from qsection.section_ring import SectionRing, find_relations, hilbert_series

ROOT = Path(__file__).resolve().parent.parent
JOBS = ROOT / "scripts" / "jobs"
P1 = ProjectiveLine()
data_of = section_ring._divisor_data


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "bench"))
        yield importlib.import_module("workloads")


def run(argv: list, job: dict, path: Path) -> tuple:
    """(exit code, stdout, stderr) of one job run through `cli.main`."""
    path.write_text(json.dumps(job), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--input", str(path)])
    return code, out.getvalue(), err.getvalue()


def job_input(job: dict) -> dict:
    if "manifest" in job:
        return json.loads((JOBS / f"{job['manifest']}.json").read_text(encoding="utf-8"))
    return job["input"]


@pytest.mark.parametrize("workload", ["primes-mix", "small-jobs"])
def test_warm_jobs_give_the_bytes_of_cold_ones(workloads, workload, tmp_path):
    jobs = [(job["argv"], job_input(job)) for job in workloads.generate(workload, 0)]
    path = tmp_path / "job.json"
    cold = []
    for argv, job in jobs:
        data_of.cache_clear()
        cold.append(run(argv, job, path))
    data_of.cache_clear()
    assert [run(argv, job, path) for argv, job in jobs] == cold
    assert data_of.cache_info().hits  # the workload does repeat its divisors
    data_of.cache_clear()
    assert [run(argv, job, path) for argv, job in reversed(jobs)] == cold[::-1]


def test_a_check_after_an_enumerate_reports_its_own_bounds(tmp_path):
    """The enumerate takes the shared record of D to degree 20; the check
    after it still reports the window 2 * 3 + 2 of its degree-2 candidate as
    its oracle bound and profile bound, as a cold check does."""
    check = json.loads((JOBS / "half_integer_check_ok.json").read_text(encoding="utf-8"))
    enumerate_job = {"divisor": check["divisor"], "oracle_bound": 20}
    path = tmp_path / "job.json"
    cold = run(["primes", "check"], check, path)
    data_of.cache_clear()
    assert run(["primes", "enumerate"], enumerate_job, path)[0] == 0
    D = QDivisor(P1, {FiniteP1(0): F(1, 2), P1_INFINITY: F(1, 2), FiniteP1(1): F(-1, 2)})
    assert len(data_of(D).pieces) == 21
    warm = run(["primes", "check"], check, path)
    assert warm == cold
    payload = json.loads(warm[1])
    assert payload["oracle_bound"] == payload["profile"]["bound"] == 8
    assert len(payload["profile"]["dims"]) == 9


WARM_POINTS = [P1_INFINITY, *(FiniteP1(F(c)) for c in (0, 1, -1, 2))]


@st.composite
def warm_cases(draw):
    """An ample divisor on 1-3 points with B* at most 8, a bound b0 that an
    earlier model of it reaches, and bounds b1 <= b2 up to B* + 4."""
    points = draw(st.lists(st.sampled_from(WARM_POINTS), min_size=1, max_size=3, unique=True))
    coeffs = [F(draw(st.integers(-7, 7).filter(bool)), draw(st.integers(1, 6))) for _ in points]
    assume(sum(coeffs) > 0)
    D = QDivisor(P1, dict(zip(points, coeffs)))
    top = SectionRing(D).generator_bound
    assume(top <= 8)
    b0, b1, b2 = (draw(st.integers(1, top + 4)) for _ in range(3))
    return D, b0, min(b1, b2), max(b1, b2)


@given(warm_cases())
@settings(max_examples=60)
def test_a_warm_extension_equals_a_cold_build(case):
    D, b0, b1, b2 = case
    data_of.cache_clear()
    SectionRing(D).extend(b0)
    warm = SectionRing(D).extend(b1)
    find_relations(warm)
    warm.extend(b2)
    cold = cold_build(D, b2)
    assert warm._data is not cold._data
    assert (warm.bound, warm.dims, warm.generators) == (cold.bound, cold.dims, cold.generators)
    assert find_relations(warm) == find_relations(cold)
    assert hilbert_series(warm) == hilbert_series(cold)


def test_an_interrupted_extend_leaves_a_usable_record(monkeypatch):
    """An exception (a job timeout) while degree 2 records its two
    generators leaves the first of them in the record, with no piece of
    degree 2.  The next extend forms degree 2 again, and the one left enters
    its span as g * R_0: its column becomes a pivot, so only the other
    generator is added, after it, as in a cold build."""
    D = QDivisor(P1, {FiniteP1(0): F(1, 2), P1_INFINITY: F(1, 2), FiniteP1(1): F(-1, 2)})
    cold = cold_build(D, 8)
    data_of.cache_clear()

    def second_generator_times_out(degree, column, piece, make=section_ring.Generator):
        if column:
            raise TimeoutError
        return make(degree, column, piece)

    with monkeypatch.context() as mp:
        mp.setattr(section_ring, "Generator", second_generator_times_out)
        with pytest.raises(TimeoutError):
            SectionRing(D).extend(8)
    assert [g.degree for g in data_of(D).generators] == [2]
    assert len(data_of(D).pieces) == 2
    warm = SectionRing(D).extend(8)
    assert (warm.dims, warm.generators) == (cold.dims, cold.generators)
    assert warm.generator_degrees == [2, 2, 3]


def test_the_least_recently_used_record_is_dropped():
    divisors = [QDivisor(P1, {P1_INFINITY: k}) for k in range(1, 18)]
    records = [SectionRing(D).extend(1)._data for D in divisors]
    info = data_of.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (17, 16, 16)
    assert SectionRing(divisors[-1])._data is records[-1]
    assert SectionRing(divisors[0])._data is not records[0]
    assert data_of.cache_info().currsize <= 16


def test_a_refused_divisor_gets_no_record():
    with pytest.raises(NotAmpleError):
        SectionRing(QDivisor(P1, {P1_INFINITY: F(-1, 2)}))
    curve = WeierstrassCurve(0, 1)
    with pytest.raises(ValueError, match="projective line"):
        SectionRing(QDivisor(curve, {ECAffine(F(2), F(3)): 1}))
    assert data_of.cache_info().misses == 0


def test_a_warm_model_scans_for_no_generator_bound(monkeypatch):
    """B* and the stable range of the Hilbert fit are pure in D, so they are
    scanned once, when the record is made: a warm model reads both, and
    extends to the bound the record already reached, with no
    `_floor_degree` call."""
    D = QDivisor(P1, {FiniteP1(0): F(1, 2), P1_INFINITY: F(1, 2), FiniteP1(1): F(-1, 2)})
    cold = SectionRing(D).extend()
    floor_degree = section_ring._floor_degree
    calls = []
    monkeypatch.setattr(
        section_ring, "_floor_degree", lambda pairs, n: calls.append(n) or floor_degree(pairs, n)
    )
    warm = SectionRing(D)
    assert (warm.generator_bound, warm._data.stable_range) == (3, (2, 6))
    assert warm.extend().dims == cold.dims
    assert calls == []
