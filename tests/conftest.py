import warnings
from itertools import product

import pytest

from wpoly import Quadruple, validate

# When a Hypothesis test fails, its pytest plugin imports libcst to suggest
# a patch, and libcst's import of mypy_extensions warns that TypedDict is
# deprecated.  Under `-W error` that warning stops the run with an
# INTERNALERROR that reports none of the failures, so libcst is imported
# once here with that one warning ignored; without libcst nothing happens.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", r"mypy_extensions\.", DeprecationWarning)
    try:
        import libcst  # noqa: F401
    except ImportError:
        pass

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def record_criterion():
    """Collect one PASS/FAIL line per acceptance criterion; the lines are
    echoed in the terminal summary regardless of capture settings."""

    def _record(number: int, ok: bool, detail: str) -> bool:
        line = f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}"
        _ACCEPTANCE_LINES.append(line)
        print(line)
        return ok

    return _record


@pytest.fixture(scope="session")
def small_good_quadruples():
    """(quadruple, genus) of every good quadruple with weights <= 12 and
    d <= 40, in product order; 2685 of them, swept once per session."""
    found = []
    for w0, w1, w2, d in product(range(1, 13), range(1, 13), range(1, 13), range(1, 41)):
        q = Quadruple(w0, w1, w2, d)
        report = validate(q)
        if report.is_good:
            found.append((q, report.genus))
    return tuple(found)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE_LINES):
            terminalreporter.write_line(line)
