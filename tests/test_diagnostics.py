import csv

import numpy as np
import pytest

from sgnode import dg, diagnostics, experiments, mlp
from sgnode.config import RunConfig
from sgnode.ode import Trajectory, integrate, tableau_rk4


def test_compare_identical_trajectories():
    mesh = dg.make_mesh(4, 1, 0.0, 1.0)
    states = np.random.default_rng(0).normal(size=(5, mesh.n_dof))
    tr = Trajectory(t0=0.0, dt=0.1, states=states, meta={})
    rep = diagnostics.compare_fields(tr, tr, mesh)
    assert np.all(rep.l2 == 0.0) and np.all(rep.max_abs == 0.0)


def test_constant_offset_error_is_the_offset():
    # u == 0 vs u == c on [0,1]: broken-L2 error is |c| at every time
    mesh = dg.make_mesh(10, 2, 0.0, 1.0)
    zero = np.zeros((3, mesh.n_dof))
    c = 0.7
    tr0 = Trajectory(t0=0.0, dt=0.1, states=zero, meta={})
    trc = Trajectory(t0=0.0, dt=0.1, states=zero + c, meta={})
    rep = diagnostics.compare_fields(trc, tr0, mesh)
    assert np.allclose(rep.l2, c, atol=1e-14)
    assert np.allclose(rep.max_abs, c, atol=1e-15)


def test_compare_without_mesh_uses_euclidean_norm():
    ref = Trajectory(t0=0.0, dt=0.1, states=np.array([[3.0, 4.0], [0.0, 0.0]]), meta={})
    pred = Trajectory(t0=0.0, dt=0.1, states=np.array([[3.0, 4.0], [1.0, -2.0]]), meta={})
    rep = diagnostics.compare_fields(pred, ref)
    assert np.array_equal(rep.l2, [0.0, np.sqrt(5.0)])
    assert np.array_equal(rep.rel, [0.0, np.sqrt(5.0)])  # a zero reference norm counts as 1
    assert np.array_equal(rep.max_abs, [0.0, 2.0])


def test_compare_symmetry():
    mesh = dg.make_mesh(5, 1, 0.0, 1.0)
    rng = np.random.default_rng(1)
    a = Trajectory(t0=0.0, dt=0.1, states=rng.normal(size=(4, mesh.n_dof)), meta={})
    b = Trajectory(t0=0.0, dt=0.1, states=rng.normal(size=(4, mesh.n_dof)), meta={})
    ra = diagnostics.compare_fields(a, b, mesh)
    rb = diagnostics.compare_fields(b, a, mesh)
    assert np.array_equal(ra.l2, rb.l2)
    assert np.array_equal(ra.max_abs, rb.max_abs)


def test_subsampled_alignment():
    mesh = dg.make_mesh(4, 1, 0.0, 1.0)
    rng = np.random.default_rng(2)
    fine = Trajectory(t0=0.0, dt=0.01, states=rng.normal(size=(21, mesh.n_dof)), meta={})
    coarse = Trajectory(t0=0.0, dt=0.05, states=fine.states[::5].copy(), meta={})
    rep = diagnostics.compare_fields(coarse, fine, mesh)
    assert np.all(rep.l2 == 0.0)
    assert len(rep.times) == 5


def test_incompatible_grids_rejected():
    mesh = dg.make_mesh(4, 1, 0.0, 1.0)
    a = Trajectory(t0=0.0, dt=0.01, states=np.zeros((5, 8)), meta={})
    b = Trajectory(t0=0.0, dt=0.015, states=np.zeros((5, 8)), meta={})
    with pytest.raises(ValueError):
        diagnostics.compare_fields(a, b, mesh)
    c = Trajectory(t0=0.5, dt=0.01, states=np.zeros((5, 8)), meta={})
    with pytest.raises(ValueError):
        diagnostics.compare_fields(a, c, mesh)


def test_sin_spectrum_anchor():
    n = 64
    u = np.sin(2 * np.pi * np.arange(n) / n)
    spec = diagnostics.spectrum_of_samples(u)
    assert spec.k[0] == 1 and len(spec.k) == n // 2 - 1
    assert spec.e[0] == pytest.approx(0.25, abs=1e-10)
    assert np.max(np.abs(spec.e[1:])) < 1e-10


def test_constant_signal_has_no_energy():
    spec = diagnostics.spectrum_of_samples(np.full(32, 2.5))
    assert np.max(spec.e) < 1e-30


def test_parseval_for_zero_mean_nyquist_free_signal():
    # discrete kinetic energy (1/2N) sum u^2 equals the folded spectrum sum
    rng = np.random.default_rng(3)
    n = 128
    x = 2 * np.pi * np.arange(n) / n
    u = np.zeros(n)
    for k in range(1, n // 2):
        u += rng.normal() * np.cos(k * x) + rng.normal() * np.sin(k * x)
    spec = diagnostics.spectrum_of_samples(u)
    ke = np.sum(u * u) / (2 * n)
    assert ke == pytest.approx(np.sum(spec.e), rel=1e-10)


def test_spectrum_requires_power_of_two():
    with pytest.raises(ValueError):
        diagnostics.spectrum_of_samples(np.zeros(48))


def test_energy_spectrum_of_dg_field():
    mesh = dg.make_mesh(16, 4, 0.0, 2 * np.pi)
    f = dg.field_from_function(mesh, np.sin)
    spec = diagnostics.energy_spectrum(f, 64)
    assert spec.e[0] == pytest.approx(0.25, abs=1e-8)
    assert np.max(spec.e[1:]) < 1e-8


def test_burgulence_ic_spectrum_peak_near_k0():
    mesh = dg.make_mesh(64, 8, 0.0, 2 * np.pi)
    f = dg.burgulence_initial_condition(mesh, 10, 32768, seed=42)
    spec = diagnostics.energy_spectrum(f, 512)
    peak = spec.k[np.argmax(spec.e)]
    assert abs(peak - 10) <= 2


def test_log_spectrum_distance_properties():
    k = np.arange(1, 32)
    a = diagnostics.Spectrum(k=k, e=np.exp(-k / 3.0))
    b = diagnostics.Spectrum(k=k, e=np.exp(-k / 3.0) * 2.0)
    d = diagnostics.log_spectrum_distance(a, b, 1, 31)
    assert d == pytest.approx(np.sqrt(31 * np.log(2.0) ** 2), rel=1e-12)
    assert diagnostics.log_spectrum_distance(a, a) == 0.0


def test_export_xt_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    tr = Trajectory(t0=0.0, dt=0.5, states=rng.normal(size=(2, 3)), meta={})
    path = tmp_path / "xt.csv"
    diagnostics.export_xt(tr, path)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 2 * 3
    # t-major ordering and 17-significant-digit round trip
    ts = [float(r["t"]) for r in rows]
    assert ts == sorted(ts)
    for i, row in enumerate(rows):
        t_idx, x_idx = divmod(i, 3)
        assert float(row["u"]) == tr.states[t_idx, x_idx]


def test_export_xt_with_mesh_coordinates(tmp_path):
    mesh = dg.make_mesh(3, 1, 0.0, 1.0)
    tr = Trajectory(t0=0.0, dt=0.1, states=np.zeros((1, mesh.n_dof)), meta={})
    path = tmp_path / "xt.csv"
    diagnostics.export_xt(tr, path, mesh=mesh)
    with open(path) as f:
        rows = list(csv.DictReader(f))
    xs = [float(r["x"]) for r in rows]
    assert xs == list(mesh.node_coords().reshape(-1))


def test_error_report_and_spectrum_csv(tmp_path):
    rep = diagnostics.ErrorReport(
        times=np.array([0.0, 0.1]),
        l2=np.array([0.0, 0.5]),
        rel=np.array([0.0, 0.25]),
        max_abs=np.array([0.0, 1.0]),
    )
    p1 = tmp_path / "err.csv"
    diagnostics.write_error_report(rep, p1)
    assert p1.read_text().splitlines()[0] == "t,l2_error,rel_error,max_abs"
    spec = diagnostics.Spectrum(k=np.array([1, 2]), e=np.array([0.25, 0.125]))
    p2 = tmp_path / "spec.csv"
    diagnostics.write_spectrum(spec, p2)
    lines = p2.read_text().splitlines()
    assert lines[1] == "1,0.25"


def test_write_csv_formats_each_cell_as_the_writers_it_replaced(tmp_path):
    row = (None, 3, np.int64(7), float("inf"), float("nan"), np.float64(0.1), 0.3, "discrete")
    path = tmp_path / "cells.csv"
    diagnostics.write_csv(path, ("a", "b"), [row])
    old = ["", f"{3}", f"{int(np.int64(7))}"] + [
        f"{x:.17g}" for x in (float("inf"), float("nan"), np.float64(0.1), 0.3)
    ] + ["discrete"]
    assert path.read_text() == "a,b\n" + ",".join(old) + "\n"
    assert path.read_text().splitlines()[1] == ",3,7,inf,nan,0.10000000000000001,0.29999999999999999,discrete"


def test_timestep_sweep_zero_nets_match_plain_low_order():
    mesh_l = dg.make_mesh(10, 1, 0.0, 1.0)
    cfg = dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=1e-3, a=1.0)
    rhs = dg.rhs_semidiscrete(cfg, mesh_l)
    u0 = dg.field_from_function(mesh_l, lambda x: np.sin(2 * np.pi * x))
    ref = integrate(tableau_rk4(), rhs, u0.flat, 0.0, 1e-3, 100)
    zero = mlp.zero_params(mesh_l.n_dof, mesh_l.n_dof)
    run_cfg = RunConfig.from_dict({
        "experiment": "cd", "out_dir": "unused",
        "model": {"a": 1.0, "kappa": 1e-3, "n_elem": 10, "order_high": 2,
                  "order_low": 1, "domain": [0.0, 1.0]},
        "prediction": {"tableau": "rk4"},
    })
    rows = experiments.timestep_sweep(run_cfg, zero, zero, ref, [1e-3, 2e-3], [0.05, 0.1])
    by_key = {(m, dt, t): e for m, dt, t, e in rows}
    for dt in (1e-3, 2e-3):
        for t in (0.05, 0.1):
            assert by_key[("continuous", dt, t)] == pytest.approx(
                by_key[("discrete", dt, t)], rel=1e-12
            )
    # the zero-net continuous run at the data timestep reproduces the
    # reference trajectory itself
    assert by_key[("continuous", 1e-3, 0.1)] < 1e-14
