"""Command-line experiment driver.

Subcommands
    steady          JSON report of open-loop steady quantities
    sweep-fidelity  CSV grid of controlled/uncontrolled fidelity over
                    (ancilla squeezing, control strength)
    sweep-squeezed  CSV grid over (ancilla, source) squeezing comparing the
                    informed three-channel filter with the blind two-channel one
    trajectory      Monte Carlo sample paths (control on and/or off, shared
                    noise) written as CSV
    validate        run the acceptance suite; nonzero exit on failure

Parameters resolve in three layers: built-in defaults, then a flat
`key = value` config file (--config), then explicit flags. Frequencies in
the config are laboratory values in Hz (nu_hz, gamma_hz); internally
everything runs in rad/s. Reruns with identical settings produce
byte-identical output files. A command that fails leaves no partial file,
and a NaN or infinite setting is refused as a usage error (exit status 2).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from functools import cache

import numpy as np

from . import __version__
from .acceptance import run_all
from .closedloop import LoopBuilder
from .model import (
    FILTER_MODES,
    MemoryParams,
    squeezed_vacuum,
    standard_encoding,
    standard_noise,
    standard_noises,
    syndrome_set,
    thermal_occupation,
    vacuum,
)
from .numerics import items_renamed
from .openloop import (
    CLASSICAL_LIMIT_RATE,
    ENTANGLEMENT_BOUND,
    channel_variances,
    fidelity_closed_form,
    occupation_threshold,
    pfd_rate,
    psys,
    psys_closed_form,
    single_mode_check,
    steady_state,
    syndrome_statistics,
    syndrome_variance_ideal,
    uncontrolled_fidelities,
)
from .simulate import TrajectoryConfig, simulate_trajectory

TWO_PI = 2.0 * np.pi
CSV_CHUNK_ROWS = 1024  # trajectory rows formatted per write


@dataclass(frozen=True)
class RunSettings:
    """Fully resolved scalar settings shared by all subcommands."""

    nu_hz: float = 30e3
    gamma_hz: float = 1.0
    n_occ: float = 8.8e3
    alpha_in: float = -230.0
    mu: float = -0.4
    mu1: float = 0.0
    r: float | None = None  # per-command default when left unset
    filter_mode: str = "s1"
    seed: int = 20260819
    dt: float | None = None
    duration: float | None = None
    ntraj: int = 1

    @property
    def params(self) -> MemoryParams:
        return MemoryParams(
            nu=TWO_PI * self.nu_hz, gamma=TWO_PI * self.gamma_hz, n_occ=self.n_occ
        )

    def resolved_dt(self) -> float:
        rate = TWO_PI * (self.nu_hz + self.gamma_hz)
        return self.dt if self.dt is not None else 1e-3 / rate

    def resolved_duration(self) -> float:
        rate = TWO_PI * (self.nu_hz + self.gamma_hz)
        return self.duration if self.duration is not None else 30.0 / rate


# Settings every subcommand reads; add_common names a command's further ones.
_MODEL_KEYS = ("nu_hz", "gamma_hz", "n_occ", "alpha_in", "mu", "mu1")
# Flags of the settings that have one; every setting can come from --config.
_FLAGS = {
    "filter_mode": ("--filter", {"choices": tuple(FILTER_MODES)}),
    "seed": ("--seed", {"type": int}),
    "r": ("--r", {"type": float, "help": "control effort weight"}),
    "mu1": ("--mu1", {"type": float, "help": "source squeezing"}),
    "mu": ("--mu", {"type": float, "help": "ancilla squeezing"}),
    "dt": ("--dt", {"type": float, "help": "integrator step (s)"}),
    "duration": ("--duration", {"type": float, "help": "total simulated time (s)"}),
}


def _filter_mode(text: str) -> str:
    syndrome_set(text)  # refuses a mode the table does not list
    return text


def _finite(text: str) -> float:
    """float(text), refusing NaN and the infinities."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


# Parser of each config key: every setting, plus the two that derive n_occ.
_PARSERS = {f.name: _finite for f in fields(RunSettings)} | {
    "seed": int,
    "ntraj": int,
    "filter_mode": _filter_mode,
    "temp_k": _finite,
    "omega_m_hz": _finite,
}


def parse_config_file(path: str, err) -> dict:
    """Flat `key = value` file; '#' starts a comment; unknown keys are fatal."""
    values: dict = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        err(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            err(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            err(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            err(f"{path}:{lineno}: bad value for {key!r}: {exc}")
    return values


def resolve_settings(args: argparse.Namespace, err) -> RunSettings:
    cfg = parse_config_file(args.config, err) if args.config else {}
    # occupation derived from temperature when not given explicitly
    if "n_occ" not in cfg and "temp_k" in cfg:
        if "omega_m_hz" not in cfg:
            err("config key 'temp_k' needs 'omega_m_hz' as well")
        cfg["n_occ"] = thermal_occupation(cfg["temp_k"], TWO_PI * cfg["omega_m_hz"])
        if not math.isfinite(cfg["n_occ"]):
            err("config keys 'temp_k' and 'omega_m_hz' give an infinite n_occ")
    cfg.pop("temp_k", None)
    cfg.pop("omega_m_hz", None)

    settings = replace(RunSettings(), **cfg)
    overrides = {}
    for f in fields(RunSettings):
        flag = getattr(args, f.name, None)
        if isinstance(flag, float) and not math.isfinite(flag):
            err(f"argument {_FLAGS[f.name][0]}: {flag!r} is not a finite number")
        if flag is not None:
            overrides[f.name] = flag
    if overrides:
        settings = replace(settings, **overrides)
    if settings.nu_hz <= 0 or settings.gamma_hz < 0 or settings.n_occ < 0:
        err("physical parameters must satisfy nu_hz > 0, gamma_hz >= 0, n_occ >= 0")
    return settings


def parse_range(text: str, err, name: str) -> np.ndarray:
    """'a:b:n' -> n evenly spaced values; a bare number -> one value."""
    try:
        if ":" in text:
            a, b, n = text.split(":")
            count = int(n)
            if count < 1:
                raise ValueError("count must be >= 1")
            return np.linspace(_finite(a), _finite(b), count)
        return np.array([_finite(text)])
    except ValueError as exc:
        err(f"bad {name} range {text!r} (want 'a:b:n' or a number): {exc}")


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


@contextmanager
def _output(path: str | None):
    """stdout when path is None, else a file that appears whole or not at all:
    the text goes to a temporary file beside `path`, which replaces it on
    success and is removed on any exception, leaving an old file untouched."""
    if path is None:
        yield sys.stdout
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        out = open(tmp, "w", encoding="utf-8", newline="\n")
    except OSError as exc:  # name the output, not its temporary file
        raise OSError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with out:
            yield out
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _text(value) -> str:
    """Header text of a setting: floats as _fmt, strings and ints as written."""
    return str(value) if isinstance(value, (str, int)) else _fmt(value)


def _header_lines(schema: str, settings: RunSettings, keys, **extra) -> list[str]:
    """CSV header: the settings named by `keys`, then `extra`, which may
    override one of them (a sweep writes its grid in place of the value)."""
    items = {k: _text(getattr(settings, k)) for k in keys} | extra
    lines = [f"# schema = {schema}", f"# version = {__version__}"]
    lines += [f"# {k} = {items[k]}" for k in sorted(items)]
    return lines


def cmd_steady(args, err) -> int:
    settings = resolve_settings(args, err)
    params = settings.params
    enc = standard_encoding(settings.alpha_in)
    src_mode = squeezed_vacuum(settings.mu1)
    noise = standard_noise(src_mode, settings.mu, params)
    state = steady_state(params, enc, noise)
    mean_c, var = single_mode_check(params, settings.alpha_in)
    v = channel_variances(params, noise.Lambda).tolist()
    report = {
        "schema": "memlqg.steady/1",
        "version": __version__,
        "settings": {k: getattr(settings, k) for k in args.keys},
        "single_mode": {
            "mean_q": mean_c.real,
            "mean_p": mean_c.imag,
            "variance": var,
        },
        "mode_variances": {"plus": v[0::2], "minus": v[1::2]},
        "witnesses": {
            "pfd_rate": pfd_rate(settings.mu, src_mode),
            "classical_rate": CLASSICAL_LIMIT_RATE,
            "entanglement_bound": ENTANGLEMENT_BOUND,
            "psys_quadratic": psys(state.cov),
            "psys_closed_form_coherent": psys_closed_form(settings.mu, params),
            "occupation_threshold": occupation_threshold(params),
        },
        "syndrome": {
            "pairwise_variances": syndrome_statistics(state.cov).tolist(),
            "ideal": syndrome_variance_ideal(params),
        },
        "fidelity": {
            "determinant_form": uncontrolled_fidelities(params, [noise])[0],
            "closed_form_coherent": fidelity_closed_form(
                params, standard_noise(vacuum(), settings.mu, params).Lambda
            ),
        },
        "steady_mean": state.mean.tolist(),
    }
    with _output(args.out) as out:
        json.dump(report, out, indent=2, sort_keys=True)
        out.write("\n")
    return 0


def cmd_sweep_fidelity(args, err) -> int:
    settings = resolve_settings(args, err)
    params = settings.params
    enc = standard_encoding(settings.alpha_in)
    mu_text = args.mu_range or "-3:0.5:36"
    log2r_text = args.log2r or "10:40:4"
    mus = parse_range(mu_text, err, "--mu")
    log2rs = parse_range(log2r_text, err, "--log2r")
    source_mode = squeezed_vacuum(settings.mu1)

    def where(index) -> str:
        """A grid point (i, j), None for a free coordinate, or a row i alone."""
        i, j = index if isinstance(index, tuple) else (index, None)
        at = [] if i is None else [f"mu = {_fmt(mus[i])}"]
        at += [] if j is None else [f"-log2 r = {_fmt(log2rs[j])}"]
        return "at " + ", ".join(at)

    with items_renamed(where):
        noises = standard_noises([source_mode] * len(mus), mus, params)
        f_unc = uncontrolled_fidelities(params, noises)
        rs = []
        for j, lg in enumerate(log2rs):
            try:
                rs.append(2.0 ** (-float(lg)))
            except OverflowError:
                exc = ValueError("control penalty r overflows")
                exc.index = (None, j)
                raise exc from None
        f_ctl = LoopBuilder(params, enc).fidelities(noises, settings.filter_mode, rs)
    with _output(args.out) as out:
        for line in _header_lines(
            "memlqg.sweep-fidelity/1", settings, args.keys, mu=mu_text, log2r=log2r_text
        ):
            out.write(line + "\n")
        out.write("mu,log2r_neg,fidelity_controlled,fidelity_uncontrolled\n")
        for i, mu in enumerate(mus):
            for j, lg in enumerate(log2rs):
                out.write(
                    f"{_fmt(mu)},{_fmt(lg)},{_fmt(f_ctl[i, j])},{_fmt(f_unc[i])}\n"
                )
    return 0


def cmd_sweep_squeezed(args, err) -> int:
    settings = resolve_settings(args, err)
    # the informed/blind contrast only shows up under strong feedback
    r = settings.r if settings.r is not None else 2.0**-40
    settings = replace(settings, r=r)  # as the header writes it
    mu_text = args.mu_range or "-2:0:5"
    mu1_text = args.mu1_range or "-1:1:9"
    mus = parse_range(mu_text, err, "--mu")
    mu1s = parse_range(mu1_text, err, "--mu1")
    params = settings.params
    builder = LoopBuilder(params, standard_encoding(settings.alpha_in))
    grid = [(mu, mu1) for mu in mus for mu1 in mu1s]
    sources = [squeezed_vacuum(float(mu1)) for _, mu1 in grid]
    noises = standard_noises(sources, [mu for mu, _ in grid], params)
    fs = []
    for mode in FILTER_MODES:

        def where(index: tuple, mode: str = mode) -> str:
            """A grid point (i, 0), or (None, 0) for an error of r alone."""
            if index[0] is None:
                return f"mode {mode}"
            mu, mu1 = grid[index[0]]
            return f"at mu = {_fmt(mu)}, mu1 = {_fmt(mu1)}, mode {mode}"

        with items_renamed(where):
            fs.append(builder.fidelities(noises, mode, [r])[:, 0])
    with _output(args.out) as out:
        for line in _header_lines(
            "memlqg.sweep-squeezed/1", settings, args.keys, mu=mu_text, mu1=mu1_text
        ):
            out.write(line + "\n")
        out.write(",".join(["mu", "mu1"] + [f"fidelity_{m}" for m in FILTER_MODES]) + "\n")
        for i, (mu, mu1) in enumerate(grid):
            out.write(",".join(_fmt(v) for v in (mu, mu1, *(f[i] for f in fs))) + "\n")
    return 0


def _write_trajectory_csv(path: str, traj, header: list[str]) -> None:
    m = traj.pi_s.shape[1]
    cols = (
        ["t"]
        + [f"x{i+1}" for i in range(6)]
        + [f"pis{i+1}" for i in range(m)]
        + [f"u{i+1}" for i in range(6)]
        + [f"errband{i+1}" for i in range(m)]
    )
    with _output(path) as out:
        for line in header:
            out.write(line + "\n")
        out.write(",".join(cols) + "\n")
        table = np.column_stack([traj.times, traj.x, traj.pi_s, traj.u, traj.err_band])
        # A column whose bits all equal row 0's is formatted once, into the
        # row template; bits, not ==, so that -0.0 and NaN stay exact.
        bits = table.view(np.uint64)
        varies = (bits != bits[0]).any(axis=0)
        row = ",".join(
            "%.12g" if v else "%.12g" % x for v, x in zip(varies, table[0].tolist())
        ) + "\n"  # same text as _fmt per value
        # Bounded chunks: formatting the whole table at once would hold every
        # row as Python floats and strings, tens of MB for a default run.
        # One % per row, because a template for a whole chunk costs more
        # peak memory than it saves in time.
        varying = table[:, varies]
        for i in range(0, len(varying), CSV_CHUNK_ROWS):
            out.write("".join(row % tuple(r) for r in varying[i : i + CSV_CHUNK_ROWS].tolist()))


def cmd_trajectory(args, err) -> int:
    settings = resolve_settings(args, err)
    if settings.ntraj < 1:
        err(f"ntraj must be >= 1, got {settings.ntraj}")
    r = settings.r if settings.r is not None else 1e-9
    dt, duration = settings.resolved_dt(), settings.resolved_duration()
    settings = replace(settings, r=r, dt=dt, duration=duration)  # as the header writes them
    params = settings.params
    enc = standard_encoding(settings.alpha_in)
    controls = args.control or ["on", "off"]
    noise_true = standard_noise(squeezed_vacuum(settings.mu1), settings.mu, params)
    loop = LoopBuilder(params, enc)(noise_true, settings.filter_mode, r)
    stem = args.out or "trajectory"
    if stem.endswith(".csv"):
        stem = stem[:-4]
    written = []
    for control in controls:
        cfg = TrajectoryConfig(
            dt=dt, duration=duration, seed=settings.seed, control_enabled=(control == "on")
        )
        header = _header_lines("memlqg.trajectory/1", settings, args.keys, control=control)
        for k in range(settings.ntraj):
            # No name holds a written trajectory, so its record is released
            # before the next one is stepped.
            path = f"{stem}.{control}.{k:03d}.csv"
            _write_trajectory_csv(path, simulate_trajectory(cfg, loop, stream_index=k), header)
            written.append(path)
    print("\n".join(written))
    return 0


def cmd_validate(args, err) -> int:
    del args, err
    results = run_all()
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


@cache  # one parser per process: building it costs more than a parse
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memlqg",
        description="Quantum memory transfer analysis: steady states, "
        "feedback sweeps, Monte Carlo trajectories, validation.",
    )
    parser.add_argument("--version", action="version", version=f"memlqg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *keys, grids=()):
        """--config, --out and the flags of `keys`, the settings that shape
        the command's output; they also head its CSV or JSON. The flag of a
        key in `grids` takes a range a:b:n in place of the value."""
        p.set_defaults(keys=keys)
        p.add_argument("--config", help="flat key=value settings file")
        p.add_argument("--out", help="output path (default: stdout)")
        for key in keys:
            if key not in _FLAGS:
                continue
            flag, kwargs = _FLAGS[key]
            if key in grids:
                kwargs = {"help": kwargs["help"] + " range a:b:n"}
            p.add_argument(flag, dest=f"{key}_range" if key in grids else key, **kwargs)

    p_steady = sub.add_parser("steady", help="open-loop steady-state JSON report")
    add_common(p_steady, *_MODEL_KEYS)
    p_steady.set_defaults(func=cmd_steady)

    p_sf = sub.add_parser("sweep-fidelity", help="fidelity grid CSV over (mu, -log2 r)")
    add_common(p_sf, *_MODEL_KEYS, "filter_mode", grids=("mu",))
    p_sf.add_argument("--log2r", help="-log2(r) range a:b:n (default 10:40:4)")
    p_sf.set_defaults(func=cmd_sweep_fidelity)

    p_ss = sub.add_parser(
        "sweep-squeezed", help="fidelity CSV over (mu, mu1) for informed vs blind filters"
    )
    add_common(p_ss, *_MODEL_KEYS, "r", grids=("mu", "mu1"))
    p_ss.set_defaults(func=cmd_sweep_squeezed)

    p_tr = sub.add_parser("trajectory", help="Monte Carlo sample paths as CSV")
    add_common(p_tr, *_MODEL_KEYS, "filter_mode", "seed", "r", "dt", "duration")
    # --ntraj and --control choose which files are written, not what is in them
    p_tr.add_argument("--ntraj", type=int, help="trajectories per control state")
    p_tr.add_argument(
        "--control",
        action="append",
        choices=("on", "off"),
        help="repeatable; default: both on and off",
    )
    p_tr.set_defaults(func=cmd_trajectory)

    p_val = sub.add_parser("validate", help="run the acceptance suite")
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser.error)
    except BrokenPipeError:
        return 0
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"memlqg: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
