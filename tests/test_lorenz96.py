import numpy as np
import pytest

from sgnode import autodiff as ad
from sgnode import lorenz96 as l96
from sgnode import mlp, training
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
    dz = l96.rhs_coupled(cfg)(np.zeros(cfg.dim))
    assert np.allclose(dz[: cfg.K], cfg.F)
    assert np.allclose(dz[cfg.K:], 0.0)


def test_hand_expanded_cyclic_term():
    # K=4, X=(1,0,0,0), F=0, h=0: only dX_1/dt = -X_1 = -1 survives
    cfg = l96.L96Config(K=4, J=1, c=1.0, h=0.0, F=0.0)
    z = np.zeros(cfg.dim)
    z[0] = 1.0
    dz = l96.rhs_coupled(cfg)(z)
    assert np.array_equal(dz[:4], [-1.0, 0.0, 0.0, 0.0])


def test_coupling_off_decouples_slow_from_fast():
    cfg = l96.L96Config(h=0.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=cfg.K)
    y1 = rng.normal(size=cfg.K * cfg.J)
    y2 = rng.normal(size=cfg.K * cfg.J)
    d1 = l96.rhs_coupled(cfg)(np.concatenate([x, y1]))
    d2 = l96.rhs_coupled(cfg)(np.concatenate([x, y2]))
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
    d = l96.rhs_coupled(cfg)(z)
    ds = l96.rhs_coupled(cfg)(zs)
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
    got = l96.rhs_slow_neural(cfg, params)(x)
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
    got = l96.rhs_slow_neural(cfg, params)(z[: cfg.K])
    want = l96.rhs_coupled(cfg)(z)[: cfg.K] - coupling + const
    assert np.max(np.abs(got - want)) < 1e-13


def test_slow_neural_shape():
    cfg = l96.L96Config(source_scope="per_component")
    params = mlp.init_params(1, 1, seed=0)
    out = l96.rhs_slow_neural(cfg, params)(np.zeros(36))
    assert out.shape == (36,)


def test_global_scope_source_dims():
    cfg = l96.L96Config(source_scope="global")
    assert cfg.source_dims == (36, 36)
    params = mlp.init_params(36, 36, seed=0)
    out = l96.rhs_slow_neural(cfg, params)(np.zeros(36))
    assert out.shape == (36,)


def _chain(cfg, z, source):
    # the roll/repeat/concatenate chain that autodiff.l96 replaced, in its
    # elementwise order
    K, J = cfg.K, cfg.J
    x, y = z[..., :K], z[..., K:]
    dx = -np.roll(x, 1, -1) * (np.roll(x, 2, -1) - np.roll(x, -1, -1)) - x + cfg.F + source
    adv = -J * np.roll(y, -1, -1) * (np.roll(y, -2, -1) - np.roll(y, 1, -1))
    dy = cfg.c * (adv - y + (cfg.h / J) * np.repeat(x, J, axis=-1))
    return np.concatenate([dx, dy], axis=-1)


def _chain_vjp(cfg, z, g):
    # the chain's reverse sweep, one op at a time: the adjoint of each
    # product reaches both factors, and each roll's adjoint rolls back
    K, J = cfg.K, cfg.J
    x, y = z[..., :K], z[..., K:]
    gs, gc = g[..., :K], g[..., K:] * cfg.c
    a, d = -np.roll(x, 1, -1), np.roll(x, 2, -1) - np.roll(x, -1, -1)
    gx = -np.roll(gs * d, -1, -1) + np.roll(gs * a, -2, -1) - np.roll(gs * a, 1, -1) - gs
    b, e = -J * np.roll(y, -1, -1), np.roll(y, -2, -1) - np.roll(y, 1, -1)
    gy = -J * np.roll(gc * e, 1, -1) + np.roll(gc * b, 2, -1) - np.roll(gc * b, -1, -1) - gc
    gx = gx + (cfg.h / J) * gc.reshape(gc.shape[:-1] + (K, J)).sum(axis=-1)
    return np.concatenate([gx, gy], axis=-1), gs


_RINGS = [l96.L96Config(), l96.L96Config(K=4, J=1, c=3.0, h=0.5, F=2.0), l96.L96Config(K=5, J=3, h=2.0)]


@pytest.mark.parametrize("cfg", _RINGS, ids=["desk", "k4j1", "k5j3"])
@pytest.mark.parametrize("lead", [(), (1,), (7,), (2, 3)])
def test_l96_node_is_bit_identical_to_the_chain(cfg, lead):
    rng = np.random.default_rng(len(lead) + cfg.K)
    z = rng.normal(scale=4.0, size=lead + (cfg.dim,))
    source = rng.normal(size=lead + (cfg.K,))
    want = _chain(cfg, z, source)
    aux = (cfg.K, cfg.J, cfg.c, cfg.h, cfg.F)
    assert ad.l96(z, source, aux).tobytes() == want.tobytes()
    tape = ad.Tape()
    assert ad.l96(tape.param(z), tape.param(source), aux).value.tobytes() == want.tobytes()
    # J = 0 is the slow equation alone
    slow = ad.l96(z[..., :cfg.K], source, (cfg.K, 0, cfg.c, cfg.h, cfg.F))
    assert slow.tobytes() == np.ascontiguousarray(want[..., :cfg.K]).tobytes()
    # the truth model is the node with the exact coupling as its source
    truth = _chain(cfg, z, l96.coupling_term(cfg, z))
    assert l96.rhs_coupled(cfg)(z).tobytes() == truth.tobytes()


@pytest.mark.parametrize("cfg", _RINGS, ids=["desk", "k4j1", "k5j3"])
@pytest.mark.parametrize("lead", [(), (5,)])
def test_l96_gradient_matches_the_chain_to_roundoff(cfg, lead):
    rng = np.random.default_rng(11 + len(lead))
    z = rng.normal(scale=4.0, size=lead + (cfg.dim,))
    source = rng.normal(size=lead + (cfg.K,))
    g = rng.normal(size=z.shape)
    aux = (cfg.K, cfg.J, cfg.c, cfg.h, cfg.F)

    def build(p):
        # sum(l96 * g) as one dense row, so the adjoint reaching the node is g
        out = ad.reshape(ad.l96(p[0], p[1], aux), (1, -1))
        return ad.reshape(ad.dense(out, g.reshape(1, -1), np.zeros(1), relu=False), ())

    gz, gsrc = ad.backward(ad.record(build, [z, source])[1])
    want_z, want_src = _chain_vjp(cfg, z, g)
    assert np.max(np.abs(gz - want_z)) <= 1e-14 * np.max(np.abs(want_z))
    assert np.array_equal(gsrc, want_src)


@pytest.mark.parametrize("scope", ["per_component", "global"])
def test_a_training_step_records_one_l96_node_per_rhs_call(scope):
    cfg = l96.L96Config(K=6, J=3, source_scope=scope)
    trajs = l96.generate_truth(cfg, 2, 0.005, 0.0, 0.05, seed=1)
    tcfg = training.TrainConfig(epochs=1, batch_size=4, window=3, dt=0.005, tableau="rk4", split=1.0)
    batch = training.sample_windows(trajs, tcfg, epoch_seed=[0])
    calls = []

    def builder(ws, bs):
        fn = l96.rhs_coupled_neural(cfg, ws, bs)

        def counted(z):
            calls.append(z)
            return fn(z)

        return counted

    params = mlp.init_params(*cfg.source_dims, seed=0)
    _, tape = training.node_loss(params, batch, builder, "rk4")
    ops = [op for op, _, _ in tape.ops]
    # four RK4 stages per step; the first reads the plain window start, but
    # its source is taped, so that call records a node too
    assert len(calls) == 4 * tcfg.window
    assert ops.count("l96") == len(calls)


def test_coupled_neural_agrees_between_1d_and_batched():
    cfg = l96.L96Config(K=8, J=4, source_scope="per_component")
    params = mlp.init_params(1, 1, seed=6)
    fn = l96.rhs_coupled_neural(cfg, params.weights, params.biases)
    rng = np.random.default_rng(7)
    z = rng.normal(size=(3, cfg.dim))
    batched = fn(z)
    for i in range(3):
        assert np.max(np.abs(fn(z[i]) - batched[i])) < 1e-14


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
