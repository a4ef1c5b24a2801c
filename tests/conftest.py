import sys

import pytest

from motioncode import objective


@pytest.fixture
def forbid_inverse(monkeypatch):
    """A switch that makes np.linalg.inv and np.linalg.solve raise, as the
    objective, fit_posterior and predict look them up.

    Tests compute their references first (the dense oracles do call inv and
    solve), then flip it.
    """
    def forbidden(*_args, **_kwargs):
        raise AssertionError("the model must not form an explicit inverse or LU solve")

    def flip():
        for name in ("inv", "solve"):
            monkeypatch.setattr(objective.np.linalg, name, forbidden)

    return flip


def pytest_terminal_summary(terminalreporter):
    """Replay the acceptance criterion lines after the test listing.

    Output capture swallows prints from passing tests, but the gate's
    one-line-per-criterion report should be visible in every run.
    """
    mod = sys.modules.get("test_acceptance") or sys.modules.get("tests.test_acceptance")
    lines = getattr(mod, "ACCEPTANCE_LINES", ()) if mod else ()
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
