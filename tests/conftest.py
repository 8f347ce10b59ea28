import os
from collections import defaultdict

import pytest

# One BLAS thread unless the caller chose a count, as curioseq sets it: BLAS
# reads these once, when numpy loads, so this runs before any test imports it.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

_acceptance: dict[str, list[bool]] = defaultdict(list)


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "criterion(label): acceptance-criterion test, summarized per label")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker:
        _acceptance[marker.args[0]].append(report.passed)


def pytest_terminal_summary(terminalreporter):
    if not _acceptance:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for label in sorted(_acceptance):
        results = _acceptance[label]
        verdict = "PASS" if all(results) else "FAIL"
        terminalreporter.write_line(
            f"{verdict} {label} ({sum(results)}/{len(results)} checks)")
