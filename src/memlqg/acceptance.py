"""Self-contained validation suite for the whole artifact.

Each check builds its own fixtures, exercises one end-to-end claim about the
library at a stated tolerance, and reports a single pass/fail line. The
suite doubles as the `memlqg validate` subcommand and as the acceptance
test module; checks are deterministic (seeded) so results are reproducible
bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .closedloop import LoopBuilder, closed_loop_covariance, explicit_formula_report
from .control import LqgConfig, control_input, lqg_gains
from .estimation import SyndromeFilterState, syndrome_filter_step
# Unused here; benchmarks/test_benchmark.py checks that tracing restores
# this binding, so it stays until that test names closedloop's instead.
from .estimation import stationary_filter  # noqa: F401
from .model import (
    MemoryParams,
    SourceSpec,
    input_covariance,
    lambda_matrix,
    noise_model,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    vacuum,
)
from .numerics import solve_care
from .openloop import (
    fidelity,
    fidelity_closed_form,
    occupation_threshold,
    pfd_rate,
    psys,
    psys_closed_form,
    steady_state,
    syndrome_statistics,
    syndrome_variance_ideal,
)
from .simulate import TrajectoryConfig, ensemble_moments

TWO_PI = 2.0 * np.pi


def reference_params(gamma_hz: float = 1.0, n_occ: float = 8.8e3) -> MemoryParams:
    """Default operating point: nu/2pi = 30 kHz, gamma/2pi = 1 Hz, n = 8800."""
    return MemoryParams(nu=TWO_PI * 30e3, gamma=TWO_PI * gamma_hz, n_occ=n_occ)


@dataclass(frozen=True)
class CheckResult:
    index: int
    name: str
    passed: bool
    detail: str
    runtime_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.index:2d} {self.name}: {self.detail} ({self.runtime_s:.2f}s)"


def _coherent_noise(mu: float, params: MemoryParams):
    """Ancillas squeezed by mu, source coherent (vacuum covariance)."""
    lam = lambda_matrix(vacuum(), squeezed_vacuum(mu), squeezed_vacuum(mu))
    return lam, noise_model(lam, params.n_occ)


def check_lossless_transfer() -> tuple[bool, str]:
    """Zero mechanical loss: transfer is perfect with or without feedback."""
    params = MemoryParams(nu=TWO_PI * 30e3, gamma=0.0, n_occ=8.8e3)
    enc = standard_encoding(alpha_in=-230.0)
    builder = LoopBuilder(params, enc)
    worst = 0.0
    for mu in (0.0, -0.4, -2.0):
        lam, noise = _coherent_noise(mu, params)
        v_inf = steady_state(params, enc, noise).cov
        f_unc = fidelity(v_inf, input_covariance(lam))
        f_ctl = builder(noise, "s1", 1e-9).fidelity()
        worst = max(worst, abs(f_unc - 1.0), abs(f_ctl - 1.0))
    return worst <= 1e-9, f"max |F - 1| = {worst:.2e} (tol 1e-9)"


def check_fidelity_closed_form() -> tuple[bool, str]:
    """Determinant-form fidelity equals the triple-product closed form."""
    enc = standard_encoding(alpha_in=-230.0)
    worst = 0.0
    for mu in np.linspace(-3.0, 1.0, 20):
        for n in np.linspace(0.0, 1e4, 20):
            params = reference_params(n_occ=float(n))
            lam, noise = _coherent_noise(float(mu), params)
            v_inf = steady_state(params, enc, noise).cov
            f_det = fidelity(v_inf, input_covariance(lam))
            f_cf = fidelity_closed_form(float(mu), params)
            worst = max(worst, abs(f_det - f_cf))
    return worst <= 1e-10, f"max |F_det - F_closed| = {worst:.2e} on 20x20 grid (tol 1e-10)"


def check_witness_anchors() -> tuple[bool, str]:
    """Distillable-entanglement witness anchors at the classical and ideal points."""
    coherent = SourceSpec(alpha_in=-230.0).mode
    errs = []
    errs.append(abs(pfd_rate(0.0, coherent) - 7.5))
    errs.append(abs(pfd_rate(-20.0, coherent) - (4.5 + 3.0 * np.exp(-20.0))))
    params0 = MemoryParams(nu=TWO_PI * 30e3, gamma=0.0, n_occ=8.8e3)
    errs.append(abs(psys_closed_form(-20.0, params0) - 4.5))
    enc = standard_encoding(alpha_in=-230.0)
    lam, noise = _coherent_noise(-20.0, params0)
    v_inf = steady_state(params0, enc, noise).cov
    errs.append(abs(psys(v_inf) - 4.5))
    worst = max(errs)
    return worst <= 1e-6, f"max anchor error = {worst:.2e} (tol 1e-6)"


def check_syndrome_variance() -> tuple[bool, str]:
    """Residual pairwise-difference variance matches gamma(2n+1)/(nu+gamma)."""
    rng = np.random.default_rng(20260819)
    enc = standard_encoding(alpha_in=-230.0)
    worst = 0.0
    for _ in range(10):
        gamma = TWO_PI * rng.uniform(0.5, 2.0)
        nu = gamma * 10.0 ** rng.uniform(0.0, 2.0)
        params = MemoryParams(nu=nu, gamma=gamma, n_occ=float(rng.uniform(0.0, 10.0)))
        _, noise = _coherent_noise(-20.0, params)
        v_inf = steady_state(params, enc, noise).cov
        ideal = syndrome_variance_ideal(params)
        rel = np.abs(syndrome_statistics(v_inf) - ideal) / ideal
        worst = max(worst, float(rel.max()))
    return worst <= 1e-6, f"max relative error = {worst:.2e} over 10 draws (tol 1e-6)"


def check_entanglement_threshold() -> tuple[bool, str]:
    """Witness crosses its bound exactly at n = 0.1 nu/gamma - 0.1."""
    enc = standard_encoding(alpha_in=-230.0)
    ok = True
    lines = []
    for ratio in (1e3, 3e4):
        gamma = TWO_PI * 1.0
        params_proto = MemoryParams(nu=gamma * ratio, gamma=gamma, n_occ=0.0)
        n_star = occupation_threshold(params_proto)
        for shift, expect_below in ((0.95, True), (1.05, False)):
            params = MemoryParams(nu=gamma * ratio, gamma=gamma, n_occ=n_star * shift)
            p_cf = psys_closed_form(-20.0, params)
            _, noise = _coherent_noise(-20.0, params)
            p_qf = psys(steady_state(params, enc, noise).cov)
            below = p_cf < 6.0 and p_qf < 6.0
            if below != expect_below:
                ok = False
            lines.append(f"ratio {ratio:g} n/n*={shift}: P={p_cf:.4f}")
    return ok, "; ".join(lines)


def check_regulator_closed_form() -> tuple[bool, str]:
    """Dense Riccati solve equals r*diag(f); feedback has the stated pattern."""
    params = reference_params()
    enc = standard_encoding(alpha_in=-230.0)
    c = params.damping
    worst = 0.0
    for mode, weights in (("s1", (9.0, 3.0, 3.0)), ("s2", (3.0, 3.0))):
        btil = enc.syndrome_map(mode)
        m = len(weights)
        for r in (1e-6, 1e-9, 1e-12):
            f = -c + np.sqrt(c * c + np.asarray(weights) / r)
            p_closed = r * np.diag(f)
            p_dense = solve_care(
                -c * np.eye(m), btil, np.diag(weights), r * np.eye(6)
            )
            rel = np.linalg.norm(p_dense - p_closed) / np.linalg.norm(p_closed)
            worst = max(worst, float(rel))
    g = lqg_gains(LqgConfig(r=1e-9, mode="s1"), params, enc)
    u = control_input(g, np.array([0.0, np.sqrt(6.0), 0.0]))
    pattern = g.f2 * np.array([2.0, 0.0, -1.0, 0.0, -1.0, 0.0])
    u_rel = float(np.linalg.norm(u - pattern) / np.linalg.norm(pattern))
    worst = max(worst, u_rel)
    lam = g.f2 / 3.0
    return (
        worst <= 1e-8,
        f"max relative error = {worst:.2e} (tol 1e-8); per-mode rate lambda = f2/3 = {lam:.6g}",
    )


def check_explicit_covariance_formula() -> tuple[bool, str]:
    """Closed-form steady covariance vs the augmented Lyapunov solve."""
    params = reference_params()
    enc = standard_encoding(alpha_in=-230.0)
    _, noise = _coherent_noise(-0.4, params)
    loop = LoopBuilder(params, enc)(noise, "s1", 1e-9)
    report = explicit_formula_report(params, enc, noise, loop.mm, loop.g, loop.sf, tol=1e-6)
    return report.matches, "; ".join(report.lines())


def check_cheap_control_limit() -> tuple[bool, str]:
    """Controlled covariance descends to the conditional one as r -> 0."""
    params = reference_params()
    enc = standard_encoding(alpha_in=-230.0)
    _, noise = _coherent_noise(-0.4, params)
    builder = LoopBuilder(params, enc)
    gaps = []
    for r in (1e-6, 1e-9, 1e-12, 1e-15):
        loop = builder(noise, "s1", r)
        _, vprime = closed_loop_covariance(loop.am)
        gaps.append(float(np.linalg.norm(vprime - loop.sf.Vc)))
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    seq = ", ".join(f"{gp:.3e}" for gp in gaps)
    return monotone, f"|V' - Vc|_F over r=1e-6..1e-15: {seq} (strictly decreasing: {monotone})"


def check_monte_carlo_moments() -> tuple[bool, str]:
    """2000-trajectory ensemble reproduces the moment-equation steady state."""
    params = reference_params()
    enc = standard_encoding(alpha_in=-230.0)
    _, noise = _coherent_noise(-0.4, params)
    loop = LoopBuilder(params, enc)(noise, "s1", 1e-9)
    vz, _ = closed_loop_covariance(loop.am)

    rate = params.nu + params.gamma
    cfg = TrajectoryConfig(
        dt=2e-3 / rate, duration=30.0 / rate, seed=20260819, control_enabled=True, mode="s1"
    )
    source = SourceSpec(alpha_in=-230.0)
    mom = ensemble_moments(
        cfg, params, enc, noise, loop.mm, loop.g, source, n_traj=2000, sf=loop.sf
    )

    cov_rel = float(np.linalg.norm(mom.z_cov - vz) / np.linalg.norm(vz))
    inn_rel = float(
        np.linalg.norm(mom.innovation_cov_rate - loop.mm.innovation_cov)
        / np.linalg.norm(loop.mm.innovation_cov)
    )
    zscores = np.abs(mom.err_mean) / mom.err_sem
    zmax = float(zscores.max())
    ok = cov_rel < 0.05 and inn_rel < 0.05 and zmax < 3.0
    return ok, (
        f"joint-cov rel err {cov_rel:.3%} (tol 5%), innovation-cov rel err "
        f"{inn_rel:.3%} (tol 5%), max |bias z-score| {zmax:.2f} (tol 3)"
    )


def check_fidelity_surface_optimum() -> tuple[bool, str]:
    """Controlled-fidelity surface peaks near mu = -0.4 with a ~0.05 gain."""
    params = reference_params()
    enc = standard_encoding(alpha_in=-230.0)
    mus = np.round(np.linspace(-3.0, 0.5, 36), 10)
    log2rs = (10.0, 20.0, 30.0, 40.0)
    builder = LoopBuilder(params, enc)
    best = (-np.inf, None, None)
    for mu in mus:
        _, noise = _coherent_noise(float(mu), params)
        for lg in log2rs:
            f = builder(noise, "s1", 2.0 ** (-lg)).fidelity()
            if f > best[0]:
                best = (f, float(mu), lg)
    lam0, noise0 = _coherent_noise(0.0, params)
    v0 = steady_state(params, enc, noise0).cov
    baseline = fidelity(v0, input_covariance(lam0))
    f_star, mu_star, lg_star = best
    improvement = f_star - baseline
    ok = (-0.6 <= mu_star <= -0.2) and (0.02 <= improvement <= 0.08)
    return ok, (
        f"max F = {f_star:.4f} at mu = {mu_star:+.2f}, -log2 r = {lg_star:g}; "
        f"improvement over uncontrolled mu=0 baseline ({baseline:.4f}) = {improvement:.4f}"
    )


def check_source_squeezing_effects() -> tuple[bool, str]:
    """Blind filter: source squeezing never helps; informed filter: it can."""
    params = reference_params()
    enc = standard_encoding(alpha_in=-230.0)
    r = 2.0**-40  # strong feedback; the informed-filter effect needs it
    mu1s = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
    i_zero = mu1s.index(0.0)

    builder = LoopBuilder(params, enc)

    def fid(mu: float, mu1: float, mode: str) -> float:
        return builder(standard_noise(squeezed_vacuum(mu1), mu, params), mode, r).fidelity()

    blind_ok = True
    for mu in (0.0, -0.4, -1.0, -2.0):
        fs = [fid(mu, m1, "s2") for m1 in mu1s]
        if int(np.argmax(fs)) != i_zero:
            blind_ok = False
    informed_gain = max(
        fid(-0.4, m1, "s1") - fid(-0.4, 0.0, "s1") for m1 in (0.25, 0.5)
    )
    ok = blind_ok and informed_gain > 0.0
    return ok, (
        f"blind filter max at mu1=0 for all mu: {blind_ok}; informed filter "
        f"best gain from mu1>0 at mu=-0.4: {informed_gain:+.2e}"
    )


def check_source_blindness() -> tuple[bool, str]:
    """Two-channel pipeline is identical across undisclosed sources."""
    params = reference_params()
    enc = standard_encoding(alpha_in=-230.0)
    mu = -0.4

    def pipeline(source: SourceSpec):
        # a fresh builder per source: the two filters are solved independently
        loop = LoopBuilder(params, enc)(standard_noise(source.mode, mu, params), "s2", 1e-9)
        return loop.mm, loop.sf, loop.g

    src_a = SourceSpec(alpha_in=-230.0, covariance_known=False)
    src_b = SourceSpec(alpha_in=55.0, mode=squeezed_vacuum(-1.0), covariance_known=False)
    mm_a, sf_a, g_a = pipeline(src_a)
    mm_b, sf_b, g_b = pipeline(src_b)
    gain_gap = max(
        float(np.abs(sf_a.Ktil - sf_b.Ktil).max()),
        float(np.abs(g_a.Fgain - g_b.Fgain).max()),
    )

    # Drive both syndrome filters with one shared synthetic record.
    rng = np.random.default_rng(99)
    dt = 1e-4 / (params.nu + params.gamma) * 1e1
    state_a = SyndromeFilterState(pi_s=np.zeros(2))
    state_b = SyndromeFilterState(pi_s=np.zeros(2))
    identical = True
    for _ in range(500):
        dy = rng.standard_normal(2) * np.sqrt(dt)
        u = rng.standard_normal(6) * 0.1
        state_a = syndrome_filter_step(state_a, dy, u, dt, mm_a, params, sf_a.Ktil)
        state_b = syndrome_filter_step(state_b, dy, u, dt, mm_b, params, sf_b.Ktil)
        if not np.array_equal(state_a.pi_s, state_b.pi_s):
            identical = False
            break
    ok = gain_gap <= 1e-10 and identical
    return ok, (
        f"max gain difference = {gain_gap:.2e} (tol 1e-10); shared-record "
        f"filter paths bit-identical: {identical}"
    )


ALL_CHECKS = (
    (1, "lossless transfer", check_lossless_transfer),
    (2, "fidelity closed form", check_fidelity_closed_form),
    (3, "witness anchors", check_witness_anchors),
    (4, "syndrome variance", check_syndrome_variance),
    (5, "entanglement threshold", check_entanglement_threshold),
    (6, "regulator closed form", check_regulator_closed_form),
    (7, "explicit covariance formula", check_explicit_covariance_formula),
    (8, "cheap-control limit", check_cheap_control_limit),
    (9, "monte carlo vs moment equations", check_monte_carlo_moments),
    (10, "fidelity surface optimum", check_fidelity_surface_optimum),
    (11, "source squeezing effects", check_source_squeezing_effects),
    (12, "source blindness", check_source_blindness),
)


def run_check(index: int) -> CheckResult:
    for idx, name, fn in ALL_CHECKS:
        if idx == index:
            start = time.perf_counter()
            try:
                passed, detail = fn()
            except Exception as exc:  # a crash is a failure, not an abort
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            return CheckResult(
                index=idx,
                name=name,
                passed=passed,
                detail=detail,
                runtime_s=time.perf_counter() - start,
            )
    raise ValueError(f"no check with index {index}")


def run_all() -> list[CheckResult]:
    return [run_check(idx) for idx, _, _ in ALL_CHECKS]
