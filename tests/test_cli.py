import json
from collections import Counter

import numpy as np
import pytest

from memlqg.cli import build_parser, main, parse_range


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


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("mu = -1.0\nbogus = 3\n")
    with pytest.raises(SystemExit) as exc:
        run(["steady", "--config", str(cfg)])
    assert exc.value.code == 2


def test_config_rejects_bad_value(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("drive = 1,2,3\n")  # needs 6 entries
    with pytest.raises(SystemExit):
        run(["steady", "--config", str(cfg)])


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


def test_trajectory_rerun_is_byte_identical(tmp_path):
    s1, s2 = tmp_path / "r1", tmp_path / "r2"
    argv = ["trajectory", "--duration", "1e-4", "--control", "on"]
    assert run(argv + ["--out", str(s1)]) == 0
    assert run(argv + ["--out", str(s2)]) == 0
    a = (tmp_path / "r1.on.000.csv").read_text().splitlines()
    b = (tmp_path / "r2.on.000.csv").read_text().splitlines()
    assert a == b


def test_unknown_subcommand_errors():
    with pytest.raises(SystemExit) as exc:
        run(["polish"])
    assert exc.value.code == 2
