"""Tests of the benchmark itself: tracing, self times, inputs and checks.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import spans
import worker
from worker import acceptance, simulate

SHORT = 2 * simulate.CHUNK + 7  # steps: two full noise blocks and a partial one


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _write(path, data):
    with open(path, "wb") as fh:
        fh.write(data)


def _tracer():
    return spans.Tracer(worker.LAYERS, binding_modules=(worker.memlqg,))


@pytest.fixture(scope="module")
def ensemble(tmp_path_factory):
    wl = worker.make_workload("ensemble", 3, str(tmp_path_factory.mktemp("ensemble")))
    yield wl
    wl.close()


def _small_moments(wl, seed_index=0):
    cfg = wl.config(seed_index, duration=SHORT * wl.dt)
    return simulate.ensemble_moments(
        cfg, wl.params, wl.enc, wl.noise, wl.mm, wl.g, wl.source, n_traj=5, sf=wl.sf
    )


def test_traced_ensemble_is_bit_identical(ensemble):
    plain = _small_moments(ensemble)
    tracer = _tracer()
    with tracer.active():
        traced = _small_moments(ensemble)
    for field in dataclasses.fields(plain):
        a, b = getattr(plain, field.name), getattr(traced, field.name)
        assert np.array_equal(a, b), field.name
    assert "simulate.ensemble_moments" in {s[0] for s in tracer.spans}


def test_traced_cli_writes_identical_bytes(tmp_path):
    wl = worker.make_workload("paths", 5, str(tmp_path / "paths"))
    argv = wl.argv(str(tmp_path / "run")) + ["--duration", repr(SHORT * wl.dt)]
    outputs = []
    for tracer in (None, _tracer()):
        if tracer is None:
            code, listing = worker._call_cli(argv)
        else:
            with tracer.active():
                code, listing = worker._call_cli(argv)
        assert code == 0
        outputs.append([_read(path) for path in listing.splitlines()])
    assert outputs[0] == outputs[1]
    assert "simulate.simulate_trajectory" in {s[0] for s in tracer.spans}


def test_tracer_reaches_checks_and_restores_bindings():
    before = {name: vars(acceptance)[name] for name in ("ALL_CHECKS", "run_check", "stationary_filter")}
    plain = acceptance.run_check(12)
    tracer = _tracer()
    with tracer.active():
        traced = acceptance.run_check(12)
    assert {name: vars(acceptance)[name] for name in before} == before
    assert (plain.passed, plain.detail) == (traced.passed, traced.detail)
    names = {s[0] for s in tracer.spans}
    assert {"acceptance.run_check", "acceptance.check_source_blindness",
            "estimation.stationary_filter", "numerics.solve_care"} <= names


def test_self_times_nonnegative_and_within_parent():
    tracer = _tracer()
    with tracer.active():
        code, _ = worker._call_cli(["sweep-squeezed", "--mu=-0.4", "--mu1=-0.5:0.5:2"])
    assert code == 0
    traced = tracer.spans
    own = spans.self_times(traced)
    assert len(traced) > 50
    assert min(own) >= 0
    children = [0] * len(traced)
    for name, parent, _, start, end in traced:
        if parent != spans.NO_PARENT:
            children[parent] += end - start
            assert traced[parent][3] <= start <= end <= traced[parent][4], name
    for (_, _, _, start, end), inside in zip(traced, children):
        assert inside <= end - start
    # Self times partition the top-level span exactly.
    roots = [s for s in traced if s[1] == spans.NO_PARENT]
    assert sum(own) == sum(end - start for _, _, _, start, end in roots)
    assert sum(spans.layer_self_ns(traced).values()) == sum(own)


def test_self_times_of_hand_built_spans():
    traced = [
        ("cli.main", spans.NO_PARENT, 0, 0, 100),
        ("estimation.stationary_filter", 0, 0, 10, 60),
        ("numerics.solve_care", 1, 0, 20, 50),
        ("closedloop.build_augmented", 0, 0, 70, 90),
    ]
    assert spans.self_times(traced) == [30, 20, 30, 20]
    assert spans.layer_self_ns(traced) == {"cli": 30, "estimation": 20, "numerics": 30, "closedloop": 20}


def test_seed_changes_ensemble_and_paths_inputs_but_not_sweep(tmp_path):
    def inputs(name, seed):
        wl = worker.make_workload(name, seed, str(tmp_path / name))
        try:
            return [repr(wl.inputs(index)) for index in range(3)]
        finally:
            wl.close()

    for name in ("ensemble", "paths"):
        assert inputs(name, 1) == inputs(name, 1)
        assert inputs(name, 1) != inputs(name, 2)
    assert inputs("sweep", 1) == inputs("sweep", 2)


def test_ensemble_check_passes_real_pass_and_rejects_wrong_moments(ensemble):
    _, outputs = worker.run_pass(ensemble, 0)
    results, accuracy = ensemble.check(0, outputs)
    assert results == [True]
    assert accuracy["simulate.ensemble_cov_rel_err"] < 0.3
    mom = outputs[0]
    for wrong in (
        dataclasses.replace(mom, z_cov=2.0 * mom.z_cov),
        dataclasses.replace(mom, innovation_cov_rate=1.02 * mom.innovation_cov_rate),
        dataclasses.replace(mom, err_mean=mom.err_mean + 6.0 * mom.err_sem),
    ):
        assert ensemble.check(0, [wrong])[0] == [False]


def test_paths_check_rejects_changed_files(tmp_path):
    wl = worker.make_workload("paths", 7, str(tmp_path / "paths"))
    wl.n_steps = SHORT
    argv = wl.argv(wl.stem) + ["--duration", repr(SHORT * wl.dt)]
    outputs = [worker._call_cli(argv)]
    assert wl.check(0, outputs)[0] == [True]
    assert wl.check(1, outputs)[0] == [True]
    path = wl.files()[0]
    data = _read(path)
    _write(path, data[: data.rindex(b"\n", 0, -1) + 1])  # drop the last row
    assert wl.check(2, outputs)[0] == [False]
    _write(path, data)
    assert wl.check(3, outputs)[0] == [True]
    wl.n_steps += 1  # now the file is one row short
    assert wl.check(4, outputs)[0] == [False]


def test_sweep_check_rejects_a_changed_grid_point(tmp_path):
    wl = worker.make_workload("sweep", 1, str(tmp_path / "sweep"))
    _, outputs = worker.run_pass(wl, 0)
    results, runtimes = wl.check(0, outputs)
    assert all(results) and len(results) == 2 + len(worker.SWEEP_CHECKS)
    assert set(runtimes) == {f"acceptance.check{i:02d}.s" for i in worker.SWEEP_CHECKS}
    wl.fidelity_rows[22] = wl.fidelity_rows[22].replace(b",", b";")
    wl.digests.clear()
    assert wl.check(1, outputs)[0][:2] == [False, True]
