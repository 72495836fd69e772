import numpy as np
import pytest

from sgnode import lorenz96 as l96
from sgnode import mlp
from sgnode.errors import BlowupError
from sgnode.ode import tableau_rk4, integrate


def test_config_defaults_match_reference_setup():
    cfg = l96.L96Config()
    assert (cfg.K, cfg.J, cfg.c, cfg.h) == (36, 10, 10.0, 1.0)
    assert cfg.dim == 36 * 11


def test_config_rejects_small_k():
    with pytest.raises(ValueError):
        l96.L96Config(K=3)


def test_zero_state_tendency_is_pure_forcing():
    cfg = l96.L96Config()
    dz = l96.rhs_coupled(cfg)(0.0, np.zeros(cfg.dim))
    assert np.allclose(dz[: cfg.K], cfg.F)
    assert np.allclose(dz[cfg.K:], 0.0)


def test_hand_expanded_cyclic_term():
    # K=4, X=(1,0,0,0), F=0, h=0: only dX_1/dt = -X_1 = -1 survives
    cfg = l96.L96Config(K=4, J=1, c=1.0, h=0.0, F=0.0)
    z = np.zeros(cfg.dim)
    z[0] = 1.0
    dz = l96.rhs_coupled(cfg)(0.0, z)
    assert np.array_equal(dz[:4], [-1.0, 0.0, 0.0, 0.0])


def test_coupling_off_decouples_slow_from_fast():
    cfg = l96.L96Config(h=0.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=cfg.K)
    y1 = rng.normal(size=cfg.K * cfg.J)
    y2 = rng.normal(size=cfg.K * cfg.J)
    d1 = l96.rhs_coupled(cfg)(0.0, np.concatenate([x, y1]))
    d2 = l96.rhs_coupled(cfg)(0.0, np.concatenate([x, y2]))
    assert np.array_equal(d1[: cfg.K], d2[: cfg.K])


def test_slow_ring_rotation_equivariance():
    cfg = l96.L96Config()
    rng = np.random.default_rng(1)
    z = rng.normal(size=cfg.dim)
    x, y = z[: cfg.K], z[cfg.K:]
    s = 7
    zs = np.concatenate([
        np.roll(x, s),
        np.roll(y.reshape(cfg.K, cfg.J), s, axis=0).reshape(-1),
    ])
    d = l96.rhs_coupled(cfg)(0.0, z)
    ds = l96.rhs_coupled(cfg)(0.0, zs)
    assert np.max(np.abs(np.roll(d[: cfg.K], s) - ds[: cfg.K])) < 1e-12
    dy = d[cfg.K:].reshape(cfg.K, cfg.J)
    assert np.max(np.abs(np.roll(dy, s, axis=0).reshape(-1) - ds[cfg.K:])) < 1e-12


def test_advection_conserves_slow_energy():
    # with damping, forcing, and coupling removed, the cyclic quadratic term
    # does no net work on sum X_k^2
    rng = np.random.default_rng(2)
    x = rng.normal(size=36)
    adv = -np.roll(x, 1) * (np.roll(x, 2) - np.roll(x, -1))
    assert abs(np.sum(x * adv)) < 1e-10


def test_coupling_term_values():
    cfg = l96.L96Config()
    z = np.zeros(cfg.dim)
    assert np.array_equal(l96.coupling_term(cfg, z), np.zeros(cfg.K))
    z[cfg.K:] = 1.0
    assert np.allclose(l96.coupling_term(cfg, z), -cfg.h)
    rng = np.random.default_rng(3)
    z = rng.normal(size=cfg.dim)
    expected = -cfg.h * z[cfg.K:].reshape(cfg.K, cfg.J).mean(axis=1)
    assert np.max(np.abs(l96.coupling_term(cfg, z) - expected)) == 0.0


def test_zero_weight_source_reduces_to_uncoupled_slow_model():
    cfg = l96.L96Config(source_scope="per_component")
    params = mlp.zero_params(1, 1)
    rng = np.random.default_rng(4)
    x = rng.normal(size=cfg.K)
    got = l96.rhs_slow_neural(cfg, params)(0.0, x)
    bare = -np.roll(x, 1) * (np.roll(x, 2) - np.roll(x, -1)) - x + cfg.F
    assert np.array_equal(got, bare)


def test_constant_source_matches_frozen_coupling():
    cfg = l96.L96Config(source_scope="per_component")
    rng = np.random.default_rng(5)
    z = rng.normal(size=cfg.dim)
    coupling = l96.coupling_term(cfg, z)
    # a net that outputs exactly c for any input: zero weights, output bias c;
    # per-component sharing means one scalar bias, so use the mean coupling
    const = float(coupling.mean())
    params = mlp.zero_params(1, 1)
    params.biases[3][0] = const
    got = l96.rhs_slow_neural(cfg, params)(0.0, z[: cfg.K])
    want = l96.rhs_coupled(cfg)(0.0, z)[: cfg.K] - coupling + const
    assert np.max(np.abs(got - want)) < 1e-13


def test_slow_neural_shape():
    cfg = l96.L96Config(source_scope="per_component")
    params = mlp.init_params(1, 1, seed=0)
    out = l96.rhs_slow_neural(cfg, params)(0.0, np.zeros(36))
    assert out.shape == (36,)


def test_global_scope_source_dims():
    cfg = l96.L96Config(source_scope="global")
    assert cfg.source_dims == (36, 36)
    params = mlp.init_params(36, 36, seed=0)
    out = l96.rhs_slow_neural(cfg, params)(0.0, np.zeros(36))
    assert out.shape == (36,)


def test_coupled_neural_agrees_between_1d_and_batched():
    cfg = l96.L96Config(K=8, J=4, source_scope="per_component")
    params = mlp.init_params(1, 1, seed=6)
    fn = l96.rhs_coupled_neural(cfg, params.weights, params.biases)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(3, cfg.dim))
    batched = fn(0.0, z)
    for i in range(3):
        assert np.max(np.abs(fn(0.0, z[i]) - batched[i])) < 1e-14


def test_generate_truth_shapes_and_determinism():
    cfg = l96.L96Config(K=8, J=4)
    a = l96.generate_truth(cfg, n_traj=2, dt=0.005, spinup_t=0.1, t_final=0.05, seed=3)
    b = l96.generate_truth(cfg, n_traj=2, dt=0.005, spinup_t=0.1, t_final=0.05, seed=3)
    assert len(a) == 2
    assert a[0].states.shape == (11, cfg.dim)
    for ta, tb in zip(a, b):
        assert np.array_equal(ta.states, tb.states)
    assert not np.array_equal(a[0].states, a[1].states)


def test_generate_truth_equals_one_rollout_per_trajectory():
    cfg = l96.L96Config(K=8, J=4)
    trajs = l96.generate_truth(cfg, n_traj=3, dt=0.005, spinup_t=0.1, t_final=0.05, seed=3)
    rhs = l96.rhs_coupled(cfg)
    for i, tr in enumerate(trajs):
        z0 = l96.random_initial_state(cfg, np.random.Generator(np.random.PCG64(3 + i)))
        z0 = integrate(tableau_rk4(), rhs, z0, 0.0, 0.005, 20).states[-1]
        alone = integrate(tableau_rk4(), rhs, z0, 0.0, 0.005, 10)
        assert np.array_equal(tr.states, alone.states)
        assert tr.meta["seed"] == str(3 + i)


def test_generate_truth_blowup_names_the_trajectory(monkeypatch):
    plain = l96.random_initial_state
    calls = []

    def third_is_nan(cfg, rng):
        z = plain(cfg, rng)
        calls.append(z)
        if len(calls) == 3:
            z[5] = np.nan
        return z

    monkeypatch.setattr(l96, "random_initial_state", third_is_nan)
    cfg = l96.L96Config(K=8, J=4)
    with pytest.raises(BlowupError) as e:
        l96.generate_truth(cfg, n_traj=4, dt=0.005, spinup_t=0.1, t_final=0.05, seed=3)
    assert (e.value.sample, e.value.step, e.value.stage) == (2, 0, 0)


def test_generate_truth_zero_horizon():
    cfg = l96.L96Config(K=8, J=4)
    (tr,) = l96.generate_truth(cfg, n_traj=1, dt=0.005, spinup_t=0.05, t_final=0.0, seed=0)
    assert tr.states.shape == (1, cfg.dim)


def test_short_horizon_step_halving_shows_fourth_order():
    cfg = l96.L96Config(K=8, J=4)
    (tr,) = l96.generate_truth(cfg, n_traj=1, dt=0.005, spinup_t=0.5, t_final=0.0, seed=5)
    z0 = tr.states[0]
    rhs = l96.rhs_coupled(cfg)
    ends = [
        integrate(tableau_rk4(), rhs, z0, 0.0, dt, round(0.05 / dt)).states[-1]
        for dt in (0.005, 0.0025, 0.00125)
    ]
    d1 = np.linalg.norm(ends[0] - ends[1])
    d2 = np.linalg.norm(ends[1] - ends[2])
    assert 13.0 < d1 / d2 < 20.0  # halving the step cuts the gap ~2^4
