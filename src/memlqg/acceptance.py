"""Self-contained validation suite for the whole artifact.

Each check builds its own fixtures, exercises one end-to-end claim about the
library at a stated tolerance, and reports a single pass/fail line. The
suite doubles as the `memlqg validate` subcommand and as the acceptance
test module; checks are deterministic (seeded) so results are reproducible
bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, fields

import numpy as np

from .closedloop import LoopBuilder, controlled_channel_variances
from .control import LqgConfig, lqg_gains
# stationary_filter is unused here; benchmarks/test_benchmark.py checks that
# tracing restores this binding, so it stays until that test names closedloop's.
from .estimation import conditional_channel_variances, stationary_filter  # noqa: F401
from .model import (
    _TRITTER,
    FILTER_MODES,
    MU_FLOOR,
    MemoryParams,
    SourceSpec,
    input_covariance,
    noise_models,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    standard_noises,
    syndrome_set,
    vacuum,
)
from .numerics import solve_care
from .openloop import (
    CLASSICAL_LIMIT_RATE,
    ENTANGLEMENT_BOUND,
    fidelity_closed_form,
    occupation_threshold,
    pfd_rate,
    psys,
    psys_closed_form,
    steady_state,
    syndrome_statistics,
    syndrome_variance_ideal,
    uncontrolled_fidelities,
)
from .simulate import TrajectoryConfig, ensemble_moments

TWO_PI = 2.0 * np.pi
ENC = standard_encoding(alpha_in=-230.0)  # immutable, so the checks share it


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


def check_lossless_transfer() -> tuple[bool, str]:
    """Zero mechanical loss: transfer is perfect with or without feedback."""
    params = reference_params(gamma_hz=0.0)
    noises = standard_noises([vacuum()] * 4, [0.0, -0.4, -2.0, MU_FLOOR], params)
    f_unc = uncontrolled_fidelities(params, noises)
    f_ctl = LoopBuilder(params, ENC).fidelities(noises, "s1", [1e-9])
    worst = float(max(np.abs(f_unc - 1.0).max(), np.abs(f_ctl - 1.0).max()))
    return worst <= 1e-14, f"max |F - 1| = {worst:.2e} (tol 1e-14)"


def check_fidelity_closed_form() -> tuple[bool, str]:
    """The 6x6 determinant of the assembled V' + Lambda equals the per-channel product."""
    worst = 0.0
    mus = np.linspace(-3.0, 1.0, 20)
    ns = np.linspace(0.0, 1e4, 20)
    noises = standard_noises([vacuum()] * len(mus), mus, reference_params())
    Lambdas = np.stack([noise.Lambda for noise in noises])  # the same for every n
    # The open loop reads nu and gamma from params and n_occ from each noise,
    # so five values of n share one stack of covariances; one stack of all
    # 400 points raised the sweep workload's peak RSS by ~0.25 MB (5
    # alternating runs).
    for start in range(0, len(ns), 5):
        grid = [reference_params(n_occ=float(n)) for n in ns[start : start + 5]]
        rows = [noise_models(Lambdas, params.n_occ) for params in grid]
        f_det = uncontrolled_fidelities(grid[0], [noise for row in rows for noise in row])
        f_cf = [fidelity_closed_form(params, Lambdas) for params in grid]
        worst = max(worst, float(np.abs(f_det - np.concatenate(f_cf)).max()))
    return worst <= 1e-10, f"max |F_det - F_closed| = {worst:.2e} on 20x20 grid (tol 1e-10)"


def check_witness_anchors() -> tuple[bool, str]:
    """Distillable-entanglement witness anchors at the classical and ideal points."""
    coherent = vacuum()  # a coherent source has the vacuum's fluctuations
    errs = []
    errs.append(abs(pfd_rate(0.0, coherent) - CLASSICAL_LIMIT_RATE))
    errs.append(abs(pfd_rate(-20.0, coherent) - (4.5 + 3.0 * np.exp(-20.0))))
    params0 = reference_params(gamma_hz=0.0)
    errs.append(abs(psys_closed_form(-20.0, params0) - 4.5))
    noise = standard_noise(vacuum(), -20.0, params0)
    v_inf = steady_state(params0, ENC, noise).cov
    errs.append(abs(psys(v_inf) - 4.5))
    worst = max(errs)
    return worst <= 1e-6, f"max anchor error = {worst:.2e} (tol 1e-6)"


def check_syndrome_variance() -> tuple[bool, str]:
    """Residual pairwise-difference variance matches gamma(2n+1)/(nu+gamma)."""
    rng = np.random.default_rng(20260819)
    worst = 0.0
    for _ in range(10):
        gamma = TWO_PI * rng.uniform(0.5, 2.0)
        nu = gamma * 10.0 ** rng.uniform(0.0, 2.0)
        params = MemoryParams(nu=nu, gamma=gamma, n_occ=float(rng.uniform(0.0, 10.0)))
        noise = standard_noise(vacuum(), -20.0, params)
        v_inf = steady_state(params, ENC, noise).cov
        ideal = syndrome_variance_ideal(params)
        rel = np.abs(syndrome_statistics(v_inf) - ideal) / ideal
        worst = max(worst, float(rel.max()))
    return worst <= 1e-6, f"max relative error = {worst:.2e} over 10 draws (tol 1e-6)"


def check_entanglement_threshold() -> tuple[bool, str]:
    """Witness crosses its bound exactly at n = 0.1 nu/gamma - 0.1."""
    ok = True
    lines = []
    for ratio in (1e3, 3e4):
        gamma = TWO_PI * 1.0
        params_proto = MemoryParams(nu=gamma * ratio, gamma=gamma, n_occ=0.0)
        n_star = occupation_threshold(params_proto)
        for shift, expect_below in ((0.95, True), (1.05, False)):
            params = MemoryParams(nu=gamma * ratio, gamma=gamma, n_occ=n_star * shift)
            p_cf = psys_closed_form(-20.0, params)
            noise = standard_noise(vacuum(), -20.0, params)
            p_qf = psys(steady_state(params, ENC, noise).cov)
            below = p_cf < ENTANGLEMENT_BOUND and p_qf < ENTANGLEMENT_BOUND
            if below != expect_below:
                ok = False
            lines.append(f"ratio {ratio:g} n/n*={shift}: P={p_cf:.4f}")
    return ok, "; ".join(lines)


def _relative_error(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def check_regulator_and_filter_closed_forms() -> tuple[bool, str]:
    """Dense Riccati solve equals the regulator's closed form; feedback has
    the stated pattern. At check 7's point the loop's stationary filter
    equals the per-channel closed form: T^T Vc T = diag(v_c), Ktil = diag(k)
    and K = Btil^T diag(k), k_j = sqrt(2 nu) (v_c,j - lam_j) / (2 lam_j)."""
    params = reference_params()
    c, worst = params.damping, 0.0
    for mode in FILTER_MODES:
        weights = syndrome_set(mode).weights
        for r in (1e-6, 1e-9, 1e-12):
            p_closed = lqg_gains(LqgConfig(r=r, mode=mode), params, ENC).P
            p_dense = solve_care(
                -c * np.eye(len(weights)), ENC.syndrome_map(mode), np.diag(weights), r * np.eye(6)
            )
            worst = max(worst, _relative_error(p_dense, p_closed))
    g = lqg_gains(LqgConfig(r=1e-9, mode="s1"), params, ENC)
    pattern = g.f[-1] * np.array([2.0, 0.0, -1.0, 0.0, -1.0, 0.0])
    worst = max(worst, _relative_error(g.Fgain @ np.array([0.0, np.sqrt(6.0), 0.0]), pattern))
    noise = standard_noise(vacuum(), -0.4, params)
    lam, builder, filter_worst = np.diag(noise.Lambda), LoopBuilder(params, ENC), 0.0
    for mode in FILTER_MODES:
        sf, Btil = builder(noise, mode, 1e-9).sf, ENC.syndrome_map(mode)
        rows = list(syndrome_set(mode).rows)
        vc = conditional_channel_variances(params, noise.Lambda, mode)
        k = np.diag(np.sqrt(2.0 * params.nu) * (vc[rows] - lam[rows]) / (2.0 * lam[rows]))
        Vc_inmode = _TRITTER.T @ sf.Vc @ _TRITTER
        for got, want in ((Vc_inmode, np.diag(vc)), (sf.Ktil, k), (sf.K, Btil.T @ k)):
            filter_worst = max(filter_worst, _relative_error(got, want))
    return worst <= 1e-8 and filter_worst <= 1e-14, (
        f"regulator max relative error = {worst:.2e} (tol 1e-8); per-mode rate lambda = "
        f"f2/3 = {g.f[-1] / 3.0:.6g}; filter Vc, Ktil and K max relative error = "
        f"{filter_worst:.2e} (tol 1e-14)"
    )


def check_per_channel_closed_form() -> tuple[bool, str]:
    """The augmented Lyapunov solve's V' equals T diag(v') T^T, v' the
    per-channel closed form of the six independent x' channels."""
    params = reference_params()
    noise = standard_noise(vacuum(), -0.4, params)
    loop = LoopBuilder(params, ENC)(noise, "s1", 1e-9)
    v = controlled_channel_variances(params, noise.Lambda, "s1", 1e-9)
    err = _relative_error(loop.Vz[:6, :6], input_covariance(np.diag(v)))
    return err <= 1e-14, (
        f"|V' - T diag(v') T^T| / |T diag(v') T^T| = {err:.2e} (tol 1e-14), "
        "v' from the per-channel closed form"
    )


def check_cheap_control_limit() -> tuple[bool, str]:
    """Controlled covariance descends to the conditional one as sqrt(r) -> 0."""
    params = reference_params()
    noise = standard_noise(vacuum(), -0.4, params)
    builder = LoopBuilder(params, ENC)
    gaps = []
    for r in (1e-6, 1e-9, 1e-12, 1e-15):
        loop = builder(noise, "s1", r)
        gaps.append(float(np.linalg.norm(loop.Vz[:6, :6] - loop.sf.Vc)))
    monotone = all(b < a for a, b in zip(gaps, gaps[1:]))
    ratio = gaps[-1] / gaps[-2]  # sqrt(1e-3) under the sqrt(r) law
    seq = ", ".join(f"{gp:.3e}" for gp in gaps)
    return monotone and abs(ratio / np.sqrt(1e-3) - 1.0) <= 0.05, (
        f"|V' - Vc|_F over r=1e-6..1e-15: {seq} (strictly decreasing: {monotone}); "
        f"last ratio {ratio:.4f} vs sqrt(1e-3) = {np.sqrt(1e-3):.4f} (tol 5%)"
    )


def check_monte_carlo_moments() -> tuple[bool, str]:
    """2000-trajectory ensemble reproduces the moment-equation steady state."""
    params = reference_params()
    noise = standard_noise(vacuum(), -0.4, params)
    loop = LoopBuilder(params, ENC)(noise, "s1", 1e-9)
    vz = loop.Vz

    rate = params.nu + params.gamma
    cfg = TrajectoryConfig(
        dt=2e-3 / rate, duration=30.0 / rate, seed=20260819, control_enabled=True, mode="s1"
    )
    source = SourceSpec(alpha_in=-230.0)
    mom = ensemble_moments(
        cfg, params, ENC, noise, loop.mm, loop.g, source, n_traj=2000, sf=loop.sf
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
    mus = np.round(np.linspace(-3.0, 0.5, 36), 10)
    log2rs = (10.0, 20.0, 30.0, 40.0)
    noises = standard_noises([vacuum()] * len(mus), mus, params)
    F = LoopBuilder(params, ENC).fidelities(noises, "s1", [2.0 ** (-lg) for lg in log2rs])
    i, j = np.unravel_index(np.argmax(F), F.shape)  # the first maximum in (mu, r) order
    baseline = uncontrolled_fidelities(params, [standard_noise(vacuum(), 0.0, params)])[0]
    f_star, mu_star, lg_star = F[i, j], float(mus[i]), log2rs[j]
    improvement = f_star - baseline
    ok = (-0.6 <= mu_star <= -0.2) and (0.02 <= improvement <= 0.08)
    return ok, (
        f"max F = {f_star:.4f} at mu = {mu_star:+.2f}, -log2 r = {lg_star:g}; "
        f"improvement over uncontrolled mu=0 baseline ({baseline:.4f}) = {improvement:.4f}"
    )


def check_source_squeezing_effects() -> tuple[bool, str]:
    """Blind filter: source squeezing never helps; informed filter: it can."""
    params = reference_params()
    r = 2.0**-40  # strong feedback; the informed-filter effect needs it
    mu1s = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
    i_zero = mu1s.index(0.0)

    builder = LoopBuilder(params, ENC)

    def fids(mus, mu1s, mode: str) -> np.ndarray:
        """Fidelity table over (mu, mu1), from the builder's grid entry."""
        grid = [(mu, m1) for mu in mus for m1 in mu1s]
        sources = [squeezed_vacuum(m1) for _, m1 in grid]
        noises = standard_noises(sources, [mu for mu, _ in grid], params)
        return builder.fidelities(noises, mode, [r]).reshape(len(mus), len(mu1s))

    blind = fids((0.0, -0.4, -1.0, -2.0), mu1s, "s2")
    blind_ok = all(int(np.argmax(fs)) == i_zero for fs in blind)
    informed = fids((-0.4,), (0.0, 0.25, 0.5), "s1")[0]
    informed_gain = max(informed[1:] - informed[0])
    ok = blind_ok and informed_gain > 0.0
    return ok, (
        f"blind filter max at mu1=0 for all mu: {blind_ok}; informed filter "
        f"best gain from mu1>0 at mu=-0.4: {informed_gain:+.2e}"
    )


def check_source_blindness() -> tuple[bool, str]:
    """Two-channel pipeline is identical across undisclosed sources."""
    params = reference_params()
    mu = -0.4

    def pipeline(alpha_in: float, source_mode):
        # a fresh builder per source: the two filters are solved independently
        builder = LoopBuilder(params, standard_encoding(alpha_in))
        return builder(standard_noise(source_mode, mu, params), "s2", 1e-9)

    loop_a = pipeline(-230.0, vacuum())
    loop_b = pipeline(55.0, squeezed_vacuum(-1.0))
    # Equal inputs give equal paths: the blind filter reads nothing else.
    compared, differ = 0, []
    for part in ("mm", "sf", "g"):
        a, b = getattr(loop_a, part), getattr(loop_b, part)
        for f in fields(a):
            value = getattr(a, f.name)
            if isinstance(value, np.ndarray):
                compared += 1
                if not np.array_equal(value, getattr(b, f.name)):
                    differ.append(f"{part}.{f.name}")
    return not differ, (
        f"{compared} array fields of mm, sf and g compared bit for bit across "
        f"two undisclosed sources; differing: {', '.join(differ) or 'none'}"
    )


ALL_CHECKS = (
    (1, "lossless transfer", check_lossless_transfer),
    (2, "fidelity closed form", check_fidelity_closed_form),
    (3, "witness anchors", check_witness_anchors),
    (4, "syndrome variance", check_syndrome_variance),
    (5, "entanglement threshold", check_entanglement_threshold),
    (6, "regulator and filter closed forms", check_regulator_and_filter_closed_forms),
    (7, "per-channel closed form", check_per_channel_closed_form),
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
