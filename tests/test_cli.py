import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import memlqg
from memlqg import cli, closedloop
from memlqg.cli import build_parser, main, parse_range
from memlqg.simulate import Trajectory


def run(argv):
    return main(argv)


def read_csv(path):
    header = {}
    rows = []
    cols = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, val = line[1:].partition("=")
            header[key.strip()] = val.strip()
        elif cols is None:
            cols = line.split(",")
        else:
            rows.append(dict(zip(cols, line.split(","))))
    return header, cols, rows


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "memlqg" in capsys.readouterr().out


def test_module_run_exits_with_main_status():
    """`python -m memlqg` runs cli.main and exits with its status."""
    src = str(Path(memlqg.__file__).resolve().parent.parent)
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def module_run(*argv):
        cmd = [sys.executable, "-m", "memlqg", *argv]
        return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)

    shown = module_run("--help")
    assert shown.returncode == 0 and "validate" in shown.stdout
    refused = module_run("steady", "--mu", "nan")
    assert refused.returncode == 2 and "error" in refused.stderr


def test_parse_range_forms():
    parser = build_parser()
    vals = parse_range("-1:1:5", parser.error, "--mu")
    assert np.allclose(vals, np.linspace(-1, 1, 5))
    assert np.allclose(parse_range("0.25", parser.error, "--mu"), [0.25])
    with pytest.raises(SystemExit):
        parse_range("a:b:c", parser.error, "--mu")
    with pytest.raises(SystemExit):
        parse_range("0:1:0", parser.error, "--mu")


def test_steady_json_report(capsys):
    assert run(["steady", "--mu=-0.4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "memlqg.steady/1"
    assert report["settings"]["mu"] == -0.4
    fid = report["fidelity"]
    assert fid["determinant_form"] == pytest.approx(fid["closed_form_coherent"], rel=1e-9)
    wit = report["witnesses"]
    assert wit["classical_rate"] == 7.5
    assert wit["entanglement_bound"] == 6.0
    assert wit["psys_quadratic"] == pytest.approx(wit["psys_closed_form_coherent"], rel=1e-9)
    assert len(report["steady_mean"]) == 6


def test_steady_mean_follows_alpha_in(capsys):
    """The one drive is -sqrt(nu) beta of alpha_in, so each q quadrature of
    the three-mode mean is sqrt(2/3) of the single directly-driven mode's."""
    assert run(["steady"]) == 0
    report = json.loads(capsys.readouterr().out)
    mean_q = report["single_mode"]["mean_q"]
    assert report["steady_mean"][0::2] == pytest.approx(
        [np.sqrt(2.0 / 3.0) * mean_q] * 3, rel=1e-12
    )
    assert report["steady_mean"][1::2] == [0.0] * 3
    assert "drive" not in report["settings"]


def test_steady_to_file_and_rerun_identical(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["steady", "--out", str(out1)]) == 0
    assert run(["steady", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_config_file_layering(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mu = -1.0\nn_occ = 10  # small bath\ngamma_hz = 2.0\n")
    assert run(["steady", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["settings"]["mu"] == -1.0
    assert report["settings"]["n_occ"] == 10.0
    # flags beat the file
    assert run(["steady", "--config", str(cfg), "--mu=-0.25"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["settings"]["mu"] == -0.25
    assert report["settings"]["gamma_hz"] == 2.0


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    # There is no drive key: the drive follows from alpha_in.
    cases = (("mu = -1.0\nbogus = 3\n", "bogus"), ("drive = 0,100,0,100,0,100\n", "drive"))
    for text, key in cases:
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            run(["trajectory", "--config", str(cfg), "--filter", "s1"])
        assert exc.value.code == 2
        assert f"unknown config key {key!r}" in capsys.readouterr().err


def test_config_rejects_bad_value(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("seed = 1.5\n")  # seeds are integers
    with pytest.raises(SystemExit) as exc:
        run(["steady", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "bad value for 'seed'" in capsys.readouterr().err


def test_config_temperature_derives_occupation(tmp_path, capsys):
    cfg = tmp_path / "t.cfg"
    cfg.write_text("temp_k = 0.3\nomega_m_hz = 1.1e6\n")
    assert run(["steady", "--config", str(cfg)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["settings"]["n_occ"] == pytest.approx(5682.2, rel=1e-3)
    # temp_k without omega is an error
    cfg.write_text("temp_k = 0.3\n")
    with pytest.raises(SystemExit):
        run(["steady", "--config", str(cfg)])


def test_config_temperature_refuses_infinite_occupation(tmp_path, capsys):
    """A finite temp_k and omega_m_hz whose ratio underflows give n_occ = inf:
    a usage error naming both keys, with no warning and no output file."""
    cfg = tmp_path / "t.cfg"
    cfg.write_text("temp_k = 1e300\nomega_m_hz = 1e-300\n")
    with pytest.raises(SystemExit) as exc:
        run(["steady", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "'temp_k'" in err and "'omega_m_hz'" in err and "n_occ" in err
    assert not list(tmp_path.glob("out*"))


def test_sweep_fidelity_csv(tmp_path):
    out = tmp_path / "grid.csv"
    assert run(
        ["sweep-fidelity", "--mu=-1:0:3", "--log2r", "10:30:2", "--out", str(out)]
    ) == 0
    header, cols, rows = read_csv(out)
    assert header["schema"] == "memlqg.sweep-fidelity/1"
    assert header["mu"] == "-1:0:3"
    assert cols == ["mu", "log2r_neg", "fidelity_controlled", "fidelity_uncontrolled"]
    assert len(rows) == 6
    for row in rows:
        assert float(row["fidelity_controlled"]) >= float(row["fidelity_uncontrolled"]) - 1e-9
    # stronger control never hurts at fixed mu
    by_mu = {}
    for row in rows:
        by_mu.setdefault(row["mu"], []).append(float(row["fidelity_controlled"]))
    for vals in by_mu.values():
        assert vals[1] >= vals[0] - 1e-12


def test_sweep_fidelity_rerun_is_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["sweep-fidelity", "--mu=-0.5:0:2", "--log2r", "12:24:2"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_squeezed_csv(tmp_path):
    out = tmp_path / "sq.csv"
    assert run(["sweep-squeezed", "--mu=-0.4", "--mu1=-0.5:0.5:3", "--out", str(out)]) == 0
    header, cols, rows = read_csv(out)
    assert header["schema"] == "memlqg.sweep-squeezed/1"
    assert cols == ["mu", "mu1", "fidelity_s1", "fidelity_s2"]
    assert len(rows) == 3
    # the informed filter never loses to the blind one
    for row in rows:
        assert float(row["fidelity_s1"]) >= float(row["fidelity_s2"]) - 1e-9
    # default effort weight for this sweep is the strong-feedback setting
    assert float(header["r"]) == pytest.approx(2.0**-40)


def test_sweep_headers_name_only_the_settings_they_read(tmp_path):
    fid, sq = tmp_path / "f.csv", tmp_path / "s.csv"
    assert run(["sweep-fidelity", "--mu=-0.4", "--log2r", "20", "--out", str(fid)]) == 0
    assert run(["sweep-squeezed", "--mu=-0.4", "--mu1=0", "--out", str(sq)]) == 0
    sq_header, fid_header = read_csv(sq)[0], read_csv(fid)[0]
    # sweep-squeezed computes both filters, so no single filter_mode heads it
    assert "filter_mode" not in sq_header
    common = {"schema", "version", "nu_hz", "gamma_hz", "n_occ", "alpha_in", "mu", "mu1"}
    assert set(sq_header) == common | {"r"}
    assert set(fid_header) == common | {"filter_mode", "log2r"}


@pytest.mark.parametrize(
    "argv,solves",
    [
        (["sweep-fidelity", "--mu=-1:0:3", "--log2r", "10:40:4"], {"s1": 3}),
        (["sweep-squeezed", "--mu=-1:0:2", "--mu1=-1:1:3"], {"s1": 6, "s2": 2}),
    ],
)
def test_sweeps_solve_each_filter_once(tmp_path, filter_solves, argv, solves):
    """The filter depends on neither r nor, when blind, the source."""
    assert run(argv + ["--out", str(tmp_path / "grid.csv")]) == 0
    assert Counter(filter_solves) == solves


def _fidelity_point(params, enc, noise, mode, r):
    """Controlled and uncontrolled fidelity of one grid point, each built
    by hand from the per-point public functions."""
    view = memlqg.filter_view_noise(
        noise, memlqg.SourceSpec(0.0, covariance_known=mode == "s1"), params
    )
    mm = memlqg.measurement_model(mode, enc, params, view)
    sf = memlqg.stationary_filter(mm, params, enc, view)
    g = memlqg.lqg_gains(memlqg.LqgConfig(r=r, mode=mode), params, enc)
    _, vprime = memlqg.closed_loop_covariance(
        memlqg.build_augmented(params, enc, noise, mm, g, sf)
    )
    v_in = memlqg.input_covariance(noise.Lambda)
    f_unc = memlqg.fidelity(memlqg.steady_state(params, enc, noise).cov, v_in)
    return memlqg.controlled_fidelity(vprime, v_in), f_unc


def test_default_sweep_rows_equal_the_per_point_api(tmp_path):
    """Every row of both default sweeps, solved as stacks, reads the same
    .12g text as its point built alone through the per-point functions."""
    params = cli.RunSettings().params
    enc = memlqg.standard_encoding(cli.RunSettings().alpha_in)
    fid, sq = tmp_path / "f.csv", tmp_path / "s.csv"
    assert run(["sweep-fidelity", "--out", str(fid)]) == 0
    assert run(["sweep-squeezed", "--out", str(sq)]) == 0
    grid = [(mu, lg) for mu in np.linspace(-3.0, 0.5, 36) for lg in np.linspace(10.0, 40.0, 4)]
    _, _, rows = read_csv(fid)
    assert len(rows) == len(grid)
    for (mu, lg), row in zip(grid, rows):
        noise = memlqg.standard_noise(memlqg.vacuum(), float(mu), params)
        fs = _fidelity_point(params, enc, noise, "s1", 2.0 ** (-float(lg)))
        assert [cli._fmt(v) for v in (mu, lg, *fs)] == list(row.values())
    grid = [(mu, mu1) for mu in np.linspace(-2.0, 0.0, 5) for mu1 in np.linspace(-1.0, 1.0, 9)]
    _, _, rows = read_csv(sq)
    assert len(rows) == len(grid)
    for (mu, mu1), row in zip(grid, rows):
        noise = memlqg.standard_noise(memlqg.squeezed_vacuum(float(mu1)), float(mu), params)
        fs = [_fidelity_point(params, enc, noise, mode, 2.0**-40)[0] for mode in ("s1", "s2")]
        assert [cli._fmt(v) for v in (mu, mu1, *fs)] == list(row.values())


def test_trajectory_files_and_pairing(tmp_path):
    stem = tmp_path / "run"
    assert run(
        [
            "trajectory",
            "--duration",
            "1e-4",
            "--out",
            str(stem),
            "--seed",
            "11",
        ]
    ) == 0
    on = stem.parent / "run.on.000.csv"
    off = stem.parent / "run.off.000.csv"
    assert on.exists() and off.exists()
    h_on, cols, rows_on = read_csv(on)
    _, _, rows_off = read_csv(off)
    assert h_on["control"] == "on"
    assert cols[0] == "t"
    assert "x1" in cols and "pis1" in cols and "u1" in cols and "errband1" in cols
    # paired comparison: both control states consume the same noise stream,
    # so the initial state is shared
    assert rows_on[0]["x1"] == rows_off[0]["x1"]
    assert rows_on[0]["x6"] == rows_off[0]["x6"]
    # control off means zero input throughout
    assert all(r["u1"] == "0" for r in rows_off)


def test_trajectory_single_control_state(tmp_path):
    stem = tmp_path / "only"
    assert run(
        ["trajectory", "--duration", "1e-4", "--control", "on", "--out", str(stem)]
    ) == 0
    assert (stem.parent / "only.on.000.csv").exists()
    assert not (stem.parent / "only.off.000.csv").exists()


@pytest.mark.parametrize("how", ["--ntraj=0", "--ntraj=-2", "config"])
def test_trajectory_refuses_fewer_than_one_path(tmp_path, capsys, how):
    argv = ["trajectory", "--duration", "1e-4", "--out", str(tmp_path / "none")]
    if how == "config":
        cfg = tmp_path / "zero.cfg"
        cfg.write_text("ntraj = 0\n")
        argv += ["--config", str(cfg)]
    else:
        argv.append(how)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "ntraj must be >= 1" in capsys.readouterr().err
    assert list(tmp_path.glob("none*")) == []


@pytest.mark.parametrize(
    "argv,point",
    [
        (["sweep-fidelity", "--mu=-0.4:-60:3", "--log2r", "10"], "mu = -60"),
        (["sweep-squeezed", "--mu=-0.4", "--mu1=0:-60:2"], "mu = -0.4, mu1 = -60, mode s1"),
    ],
    ids=["sweep-fidelity", "sweep-squeezed"],
)
def test_failed_command_leaves_no_file_at_out(tmp_path, capsys, argv, point):
    """Each sweep's grid holds a valid point and one that fails under
    extreme squeezing. The error names the failing point; no partial file
    appears, no temporary file stays behind, and a file already at --out
    keeps its bytes."""
    out = tmp_path / "grid.csv"
    assert run(argv + ["--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"memlqg: error: at {point}: ")
    assert list(tmp_path.iterdir()) == []
    out.write_bytes(b"earlier result\n")
    assert run(argv + ["--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == [out]
    assert out.read_bytes() == b"earlier result\n"


OVERFLOW = "noise covariance overflowed: |mu|, |mu1| or n_occ is too large"


@pytest.mark.parametrize(
    "argv,line",
    [
        (["sweep-fidelity", "--mu=-0.4:-60:3"],
         "at mu = -60: det(V + V_in) = 0 is not positive"),
        (["sweep-squeezed", "--mu1=0:-60:2"],
         "at mu = -2, mu1 = -60, mode s1: CARE solver failed: U11 is singular"),
        (["sweep-fidelity", "--mu=-0.4", "--log2r", "1100"],
         "at -log2 r = 1100: control penalty r must be positive"),
        (["sweep-fidelity", "--mu=-0.4", "--log2r=-1100"],
         "at -log2 r = -1100: control penalty r overflows"),
        (["sweep-fidelity", "--mu1=700", "--mu=-0.4", "--log2r", "30"], f"at mu = -0.4: {OVERFLOW}"),
        (["steady", "--mu1=700"], OVERFLOW),
    ],
    ids=["singular-det", "singular-U11", "bad-r", "r-overflow", "sweep-overflow",
         "steady-overflow"],
)
def test_failure_lines(tmp_path, capsys, argv, line):
    """Each failing command exits with status 1, names only the coordinates
    its error depends on in its last stderr line, and leaves no file."""
    assert run(argv + ["--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == f"memlqg: error: {line}"
    assert list(tmp_path.iterdir()) == []


def test_output_into_missing_directory_is_an_error(tmp_path, capsys):
    """An --out in a directory that does not exist ends as one error line and
    exit status 1, not a traceback, and leaves no file anywhere."""
    stem = tmp_path / "runs" / "demo"
    assert run(["trajectory", "--duration", "1e-4", "--out", str(stem)]) == 1
    err = capsys.readouterr().err
    assert err == f"memlqg: error: cannot write {stem}.on.000.csv: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv,config,name",
    [
        (["steady", "--mu", "nan"], None, "--mu"),
        (["trajectory", "--dt", "inf"], None, "--dt"),
        (["sweep-fidelity", "--mu=inf"], None, "--mu"),
        (["sweep-squeezed", "--mu1=0:nan:3"], None, "--mu1"),
        (["steady"], "n_occ = nan\n", "'n_occ'"),
        (["steady"], "temp_k = -inf\nomega_m_hz = 1e6\n", "'temp_k'"),
    ],
    ids=["flag", "flag-dt", "grid", "grid-bound", "config", "config-temp_k"],
)
def test_non_finite_settings_are_usage_errors(tmp_path, capsys, argv, config, name):
    """NaN and the infinities are refused up front, naming the flag or key,
    with exit status 2 and no output file."""
    if config is not None:
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        argv = argv + ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert name in err and "not a finite number" in err
    assert not list(tmp_path.glob("out*"))


def test_trajectory_rerun_is_byte_identical(tmp_path):
    s1, s2 = tmp_path / "r1", tmp_path / "r2"
    argv = ["trajectory", "--duration", "1e-4", "--control", "on"]
    assert run(argv + ["--out", str(s1)]) == 0
    assert run(argv + ["--out", str(s2)]) == 0
    a = (tmp_path / "r1.on.000.csv").read_text().splitlines()
    b = (tmp_path / "r2.on.000.csv").read_text().splitlines()
    assert a == b


def test_trajectory_csv_body_is_per_value_format(tmp_path, monkeypatch):
    """Both filters, control on and off, over a few hundred rows: s2's gain
    has zero rows, so its u2, u4, u6 are constant."""
    real = cli.simulate_trajectory
    runs = []

    def recording(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "simulate_trajectory", recording)
    for mode in ("s1", "s2"):
        runs.clear()
        stem = tmp_path / f"fmt-{mode}"
        argv = ["trajectory", "--duration", "2e-6", "--filter", mode, "--out", str(stem)]
        assert run(argv) == 0
        for control, traj in zip(("on", "off"), runs):
            lines = (tmp_path / f"fmt-{mode}.{control}.000.csv").read_text().splitlines()
            body = [line for line in lines if not line.startswith("#")][1:]
            expected = [
                ",".join(
                    format(float(v), ".12g")
                    for v in (
                        traj.times[k], *traj.x[k], *traj.pi_s[k], *traj.u[k], *traj.err_band[k]
                    )
                )
                for k in range(len(traj.times))
            ]
            assert body == expected
            assert 200 < len(body) < 1000
        if mode == "s2":
            on = runs[0]
            assert not on.u[:, 1::2].any() and on.u[:, 0::2].any()


def _hand_trajectory(n_rows: int) -> Trajectory:
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n_rows, 6))
    x[:, 0] = np.where(np.arange(n_rows) % 2, -0.0, 0.0)  # zero of both signs
    x[:, 1] = np.nan
    x[:, 2] = 3.25
    x[-1, 2] = -7.5  # constant except in the last row
    x[:, 3] = -0.0
    u = np.zeros((n_rows, 6))
    u[:, 5] = np.inf
    return Trajectory(
        times=np.arange(n_rows) * 1e-6,
        x=x,
        pi_s=rng.standard_normal((n_rows, 2)),
        pi_x=np.zeros((n_rows, 6)),
        u=u,
        innovations=np.zeros((n_rows - 1, 2)),
        err_band=np.full((n_rows, 2), 0.1234567890123),  # needs all 12 digits
    )


@pytest.mark.parametrize(
    "n_rows", [1, cli.CSV_CHUNK_ROWS - 1, cli.CSV_CHUNK_ROWS, cli.CSV_CHUNK_ROWS + 1]
)
def test_trajectory_csv_constant_columns_keep_savetxt_bytes(tmp_path, n_rows):
    traj = _hand_trajectory(n_rows)
    path = tmp_path / "hand.csv"
    header = cli._header_lines("memlqg.trajectory/1", cli.RunSettings(), ("seed",))
    cli._write_trajectory_csv(str(path), traj, header)
    text = path.read_bytes()
    body = text[text.index(b"\nt,") + 1 :].split(b"\n", 1)[1]
    table = np.column_stack([traj.times, traj.x, traj.pi_s, traj.u, traj.err_band])
    expected = io.BytesIO()
    np.savetxt(expected, table, fmt="%.12g", delimiter=",")
    assert body == expected.getvalue()
    if n_rows > 1:
        assert b"-0," in body and b",0," in body and b"nan" in body and b"inf" in body


def test_trajectory_builds_no_augmented_model(tmp_path, monkeypatch):
    builds = []
    real = closedloop.build_augmented

    def counting(*args, **kwargs):
        builds.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(closedloop, "build_augmented", counting)
    assert run(["trajectory", "--duration", "1e-4", "--out", str(tmp_path / "lazy")]) == 0
    assert builds == []
    # a sweep assembles its loops as stacks, with no model per loop
    assert run(["sweep-fidelity", "--mu=-0.4", "--log2r", "20", "--out", str(tmp_path / "g")]) == 0
    assert builds == []
    # a loop's first read of Vz goes through the same patched binding
    params = cli.RunSettings().params
    noise = memlqg.standard_noise(memlqg.vacuum(), -0.4, params)
    closedloop.LoopBuilder(params, memlqg.standard_encoding(-230.0))(noise, "s1", 1e-9).Vz
    assert builds == [1]


@pytest.mark.parametrize(
    "argv",
    [
        ["steady", "--filter", "s2"],
        ["steady", "--seed", "3"],
        ["steady", "--r", "1e-9"],
        ["sweep-fidelity", "--seed", "3"],
        ["sweep-fidelity", "--r", "1e-9"],
        ["sweep-squeezed", "--filter", "s2"],
        ["sweep-squeezed", "--seed", "3"],
    ],
)
def test_subcommands_reject_flags_they_do_not_read(argv, capsys):
    """A flag a command would ignore is a usage error, not a silent no-op."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_unknown_subcommand_errors():
    with pytest.raises(SystemExit) as exc:
        run(["bogus"])
    assert exc.value.code == 2
