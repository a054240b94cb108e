import pytest

import memlqg.closedloop


@pytest.fixture
def filter_solves(monkeypatch):
    """Modes of every stationary-filter solve the loop builder makes."""
    modes = []
    solve = memlqg.closedloop.stationary_filter

    def counting(mm, *args, **kwargs):
        modes.append(mm.mode)
        return solve(mm, *args, **kwargs)

    monkeypatch.setattr(memlqg.closedloop, "stationary_filter", counting)
    return modes
