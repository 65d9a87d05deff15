"""The benchmark's copy of the proven generator bound agrees with the model's.

ring-ladder in `bench/workloads.py` keeps only cells whose bound exceeds B*,
computed there by `_bstar` from the coefficients alone; the rule holds only
while that copy equals `SectionRing.generator_bound`.  The bench modules
import each other by bare name, so their folder goes on `sys.path`.
"""

import importlib
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qsection.divisors import FiniteP1, P1_INFINITY, ProjectiveLine, QDivisor
from qsection.section_ring import SectionRing

BENCH = Path(__file__).resolve().parent.parent / "bench"
POINTS = (P1_INFINITY, *(FiniteP1(v) for v in range(4)))


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))
        yield importlib.import_module("workloads")


@given(
    st.lists(
        st.builds(F, st.integers(-15, 15).filter(bool), st.integers(1, 12)),
        min_size=1,
        max_size=len(POINTS),
    )
)
@settings(max_examples=300)
def test_bstar_copy_equals_the_generator_bound(workloads, coeffs):
    assume(sum(coeffs) > 0)
    N = math.lcm(*(c.denominator for c in coeffs))
    D = QDivisor(ProjectiveLine(), dict(zip(POINTS, coeffs)))
    assert workloads._bstar(coeffs, N) == SectionRing(D).generator_bound
