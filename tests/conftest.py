import re

import pytest
from hypothesis import HealthCheck, settings

from qsection import section_ring

settings.register_profile(
    "qsection",
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.filter_too_much,
        HealthCheck.data_too_large,
    ],
)
settings.load_profile("qsection")


@pytest.fixture(autouse=True)
def cold_divisor_data():
    """Each test starts with no shared divisor data, so no test reads the
    models another test built (see "Shared divisor data" in `section_ring`)."""
    section_ring._divisor_data.cache_clear()


_CRITERION_LABELS = {
    1: "half-integer three-point model",
    2: "degree-1/42 enumeration",
    3: "tomari limits from weight data",
    4: "scroll model and its quotient semigroup",
    5: "chain criterion rejection",
    6: "elliptic verdicts",
    7: "property suites (>= 200 cases each)",
}


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible PASS/FAIL line per acceptance criterion."""
    buckets: dict[int, list[bool]] = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py" not in nodeid:
                continue
            if status == "passed" and getattr(rep, "when", "call") != "call":
                continue
            match = re.search(r"test_c(\d+)_", nodeid)
            if not match:
                continue
            buckets.setdefault(int(match.group(1)), []).append(status == "passed")
    if not buckets:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(buckets):
        verdict = "PASS" if all(buckets[k]) else "FAIL"
        label = _CRITERION_LABELS.get(k, "")
        terminalreporter.write_line(
            f"criterion {k} ({label}): {verdict} [{len(buckets[k])} checks]"
        )
