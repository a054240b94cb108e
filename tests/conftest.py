import pytest

import memlqg.closedloop


@pytest.fixture
def filter_solves(monkeypatch):
    """Modes of every filter view the loop builder solves, one entry per
    view, whether alone (stationary_filter) or in a stack (stationary_filters)."""
    modes = []
    solve_one = memlqg.closedloop.stationary_filter
    solve_stack = memlqg.closedloop.stationary_filters

    def counting_one(mm, *args, **kwargs):
        modes.append(mm.mode)
        return solve_one(mm, *args, **kwargs)

    def counting_stack(mms, *args, **kwargs):
        modes.extend(mm.mode for mm in mms)
        return solve_stack(mms, *args, **kwargs)

    monkeypatch.setattr(memlqg.closedloop, "stationary_filter", counting_one)
    monkeypatch.setattr(memlqg.closedloop, "stationary_filters", counting_stack)
    return modes
