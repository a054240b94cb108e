"""End-to-end acceptance gate.

Each check exercises one verifiable claim about the library at its stated
tolerance and prints a single [PASS]/[FAIL] line; the slowest (the Monte
Carlo moment comparison) takes ~1.3 s. Run with -s to see every line as it
completes.
"""

from dataclasses import replace

import numpy as np
import pytest

import memlqg.closedloop
import memlqg.control
from memlqg import acceptance
from memlqg.acceptance import ALL_CHECKS, run_check


@pytest.mark.parametrize(
    "index,name", [(i, n) for i, n, _ in ALL_CHECKS], ids=[n for _, n, _ in ALL_CHECKS]
)
def test_acceptance(index, name):
    result = run_check(index)
    print(result.line())
    assert result.passed, result.detail


def test_regulator_check_fails_when_the_closed_form_drifts(monkeypatch):
    """Check 6 reads the library's regulator: rates 1e-6 off its closed form
    make it fail, because the dense Riccati solve does not move with them."""
    real = memlqg.control.feedback_rates
    monkeypatch.setattr(
        memlqg.control, "feedback_rates", lambda config, params: real(config, params) * (1 + 1e-6)
    )
    result = run_check(6)
    assert not result.passed, result.detail


#: Seeded faults that check 7 must catch, each (closedloop function, scale of
#: each field of what it returns): the loop's Lyapunov solve reads the
#: filter's Ktil and the rates f, and the per-channel closed form neither.
CHECK_7_FAULTS = {
    "filter K and Ktil x (1 + 1e-6)": ("stationary_filter", {"K": 1 + 1e-6, "Ktil": 1 + 1e-6}),
    "filter Ktil alone x 1.05": ("stationary_filter", {"Ktil": 1.05}),
    "gains f and F x (1 + 1e-6)": ("lqg_gains", {"f": 1 + 1e-6, "Fgain": 1 + 1e-6}),
}


@pytest.mark.parametrize("fault", CHECK_7_FAULTS)
def test_closed_form_check_fails_under_each_seeded_fault(monkeypatch, fault):
    """Check 7 compares the dense loop with scalar formulas that read
    neither the filter nor the gains the loop is built from, so a gain or
    rate 1e-6 off fails it."""
    name, scales = CHECK_7_FAULTS[fault]
    real = getattr(memlqg.closedloop, name)

    def faulty(*args):
        out = real(*args)
        return replace(out, **{field: getattr(out, field) * s for field, s in scales.items()})

    monkeypatch.setattr(memlqg.closedloop, name, faulty)
    result = run_check(7)
    assert not result.passed, result.detail


def test_source_blindness_solves_each_filter_independently(filter_solves):
    """Check 12 compares two separately solved filters, not one cached entry."""
    assert run_check(12).passed
    assert filter_solves == ["s2", "s2"]


def test_source_blindness_fails_when_blind_filter_sees_source(monkeypatch):
    """If the blind filter were handed the true noise, check 12 must fail and
    name the filter fields that moved. In the input-mode coordinates the
    source's channels are unmeasured, so the gains stay bit-identical and
    only the conditional covariance Vc, which holds the source's variance,
    moves."""
    monkeypatch.setattr(memlqg.closedloop, "filter_view_noise", lambda noise, source, params: noise)
    result = run_check(12)
    assert not result.passed
    assert result.detail.endswith("differing: sf.Vc")


def test_source_blindness_writes_two_different_amplitudes(monkeypatch):
    """Check 12's two sources differ in the written amplitude as well as in
    their statistics: each loop is built on its own encoding."""
    encodings = []
    real = acceptance.LoopBuilder

    def spy(params, enc):
        encodings.append(enc)
        return real(params, enc)

    monkeypatch.setattr(acceptance, "LoopBuilder", spy)
    assert run_check(12).passed
    assert len(encodings) == 2
    assert not np.array_equal(encodings[0].beta, encodings[1].beta)
