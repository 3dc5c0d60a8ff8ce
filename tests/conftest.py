import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

_ACCEPTANCE_RESULTS = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or "test_acceptance" not in str(item.fspath):
        return
    label = item.name
    if report.passed:
        status = "PASS"
    elif report.skipped and hasattr(report, "wasxfail"):
        status = f"EXPECTED-FAIL ({report.wasxfail})"
    elif report.failed:
        status = "FAIL"
    else:
        status = report.outcome.upper()
    _ACCEPTANCE_RESULTS[label] = status


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name in sorted(_ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"{name}: {_ACCEPTANCE_RESULTS[name]}")
