import pytest

from finfree.series import PowerSeries


@pytest.fixture
def series_calls(monkeypatch) -> list:
    """The names, "exp" or "log", of the PowerSeries exp and log calls made
    while the test runs, in order; clear it to count from a later point."""
    calls = []
    for name in ("exp", "log"):
        op = getattr(PowerSeries, name)
        monkeypatch.setattr(PowerSeries, name,
                            lambda self, op=op, name=name: calls.append(name) or op(self))
    return calls
