import io
import json
from collections import Counter

import numpy as np
import pytest

from memlqg import cli, closedloop
from memlqg.cli import build_parser, main, parse_range
from memlqg.simulate import Trajectory, TrajectoryConfig


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


def test_trajectory_rerun_is_byte_identical(tmp_path):
    s1, s2 = tmp_path / "r1", tmp_path / "r2"
    argv = ["trajectory", "--duration", "1e-4", "--control", "on"]
    assert run(argv + ["--out", str(s1)]) == 0
    assert run(argv + ["--out", str(s2)]) == 0
    a = (tmp_path / "r1.on.000.csv").read_text().splitlines()
    b = (tmp_path / "r2.on.000.csv").read_text().splitlines()
    assert a == b


def test_trajectory_csv_body_is_per_value_format(tmp_path, monkeypatch):
    """Both filters: s2's gain has zero rows, so its u2, u4, u6 are constant."""
    real = cli.simulate_trajectory
    runs = []

    def recording(*args, **kwargs):
        runs.append(real(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(cli, "simulate_trajectory", recording)
    for mode in ("s1", "s2"):
        runs.clear()
        stem = tmp_path / f"fmt-{mode}"
        argv = ["trajectory", "--duration", "1e-4", "--filter", mode, "--out", str(stem)]
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
            assert len(body) > 10
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
        cfg=TrajectoryConfig(dt=1e-6, duration=1e-6 * max(n_rows - 1, 1), seed=1),
        times=np.arange(n_rows) * 1e-6,
        x=x,
        pi_s=rng.standard_normal((n_rows, 2)),
        pi_x=np.zeros((n_rows, 6)),
        u=u,
        innovations=np.zeros((n_rows - 1, 2)),
        err_band=np.full((n_rows, 2), 0.1234567890123),  # needs all 12 digits
        expected_innovation_cov=np.eye(2),
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
    # the sweeps read the model, through the same patched binding
    assert run(["sweep-fidelity", "--mu=-0.4", "--log2r", "20", "--out", str(tmp_path / "g")]) == 0
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
        run(["polish"])
    assert exc.value.code == 2
