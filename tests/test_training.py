import numpy as np
import pytest

from sgnode import autodiff as ad
from sgnode import dg, diagnostics, experiments, mlp, training
from sgnode.config import RunConfig
from sgnode.errors import BlowupError, ConfigError
from sgnode.ode import Trajectory, erk_step, integrate, tableau_rk4


def toy_trajectory(n_states=41, d=3, dt=0.01, seed=0):
    rng = np.random.default_rng(seed)
    mat = -0.4 * np.eye(d) + 0.1 * rng.normal(size=(d, d))
    rhs = lambda t, u: u @ mat.T
    return integrate(tableau_rk4(), rhs, rng.normal(size=d), 0.0, dt, n_states - 1), mat


class TestSampling:
    def test_stride_from_dt_ratio(self):
        traj, _ = toy_trajectory()
        cfg = training.TrainConfig(epochs=1, batch_size=4, window=3, dt=0.05, seed=0)
        batch = training.sample_windows([traj], cfg, epoch_seed=[1])
        # dt=0.05 over data at 0.01: targets every 5th stored state
        assert batch.dt == 0.05
        assert batch.targets.shape == (3, 4, 3)
        # each target chain must exist inside the trajectory
        for b in range(4):
            s = np.flatnonzero((traj.states == batch.x0[b]).all(axis=1))[0]
            for l in range(3):
                assert np.array_equal(batch.targets[l, b], traj.states[s + 5 * (l + 1)])

    def test_non_integer_stride_rejected(self):
        traj, _ = toy_trajectory()
        cfg = training.TrainConfig(epochs=1, batch_size=2, window=2, dt=0.015, seed=0)
        with pytest.raises(ConfigError):
            training.sample_windows([traj], cfg, epoch_seed=[1])

    def test_single_possible_window(self):
        traj, _ = toy_trajectory(n_states=4, dt=0.01)
        cfg = training.TrainConfig(epochs=1, batch_size=3, window=3, dt=0.01, seed=0)
        batch = training.sample_windows([traj], cfg, epoch_seed=[1])
        assert np.all(batch.x0 == traj.states[0])

    def test_window_longer_than_data_rejected(self):
        traj, _ = toy_trajectory(n_states=4, dt=0.01)
        cfg = training.TrainConfig(epochs=1, batch_size=1, window=9, dt=0.01, seed=0)
        with pytest.raises(ConfigError):
            training.sample_windows([traj], cfg, epoch_seed=[1])

    def test_fixed_epoch_seed_reproducible(self):
        traj, _ = toy_trajectory()
        cfg = training.TrainConfig(epochs=1, batch_size=8, window=2, dt=0.02, seed=0)
        b1 = training.sample_windows([traj], cfg, epoch_seed=[7, 8])
        b2 = training.sample_windows([traj], cfg, epoch_seed=[7, 8])
        b3 = training.sample_windows([traj], cfg, epoch_seed=[7, 9])
        assert np.array_equal(b1.x0, b2.x0) and np.array_equal(b1.targets, b2.targets)
        assert not np.array_equal(b1.x0, b3.x0)

    def test_time_split_ranges(self):
        traj, _ = toy_trajectory(n_states=41)
        cfg = training.TrainConfig(epochs=1, split=0.75, split_axis="time")
        train, test = training.split_ranges([traj], cfg)
        assert train == [(0, 0, 30)]
        assert test == [(0, 30, 40)]

    def test_trajectory_split_ranges(self):
        trajs = [toy_trajectory(seed=s)[0] for s in range(4)]
        cfg = training.TrainConfig(epochs=1, split=0.75, split_axis="trajectory")
        train, test = training.split_ranges(trajs, cfg)
        assert [r[0] for r in train] == [0, 1, 2]
        assert [r[0] for r in test] == [3]


class TestNodeLoss:
    def test_perfect_source_gives_zero_loss(self):
        # rollout at the data's own timestep with the generating rhs repeats
        # the stored arithmetic up to batched-vs-single BLAS rounding
        traj, mat = toy_trajectory()
        cfg = training.TrainConfig(epochs=1, batch_size=4, window=3, dt=0.01, seed=1)
        batch = training.sample_windows([traj], cfg, epoch_seed=[3])
        params = mlp.zero_params(3, 3)

        def builder(ws, bs):
            return lambda t, u: u @ mat.T  # ignores the zero net entirely

        loss, tape = training.node_loss(params, batch, builder, "rk4")
        assert loss < 1e-28

    def test_single_step_scalar_hand_value(self):
        # m=1, n=1, u' = 0 rollout: loss = (u0 - target)^2
        traj = Trajectory(t0=0.0, dt=0.1, states=np.array([[2.0], [2.5]]), meta={})
        cfg = training.TrainConfig(epochs=1, batch_size=1, window=1, dt=0.1, seed=0)
        batch = training.sample_windows([traj], cfg, epoch_seed=[0])
        params = mlp.zero_params(1, 1)

        def builder(ws, bs):
            return lambda t, u: u * 0.0

        loss, _ = training.node_loss(params, batch, builder, "rk4")
        assert loss == pytest.approx(0.25, abs=1e-15)

    def test_quadratic_scaling_in_residual(self):
        traj, mat = toy_trajectory()
        cfg = training.TrainConfig(epochs=1, batch_size=4, window=2, dt=0.02, seed=1)
        batch = training.sample_windows([traj], cfg, epoch_seed=[3])
        params = mlp.zero_params(3, 3)
        builder = lambda ws, bs: (lambda t, u: u * 0.0)
        l1, _ = training.node_loss(params, batch, builder, "rk4")
        # doubling every residual: targets' = 2*targets - x-rollout; with zero
        # dynamics the rollout stays at x0, so shift targets accordingly
        batch.targets = batch.x0[None] + 2.0 * (batch.targets - batch.x0[None])
        l2, _ = training.node_loss(params, batch, builder, "rk4")
        assert l2 == pytest.approx(4.0 * l1, rel=1e-12)

    def test_loss_nonnegative_and_matches_numpy_path(self):
        traj, mat = toy_trajectory()
        cfg = training.TrainConfig(epochs=1, batch_size=5, window=3, dt=0.02, seed=2)
        batch = training.sample_windows([traj], cfg, epoch_seed=[5])
        params = mlp.init_params(3, 3, seed=4, hidden=8)

        def builder(ws, bs):
            return lambda t, u: u @ mat.T + mlp.forward(ws, bs, u)

        loss, _ = training.node_loss(params, batch, builder, "rk4")
        loss_np = training.rollout_loss_value(params, batch, builder, "rk4")
        assert loss >= 0.0
        assert loss == pytest.approx(loss_np, rel=1e-13)

    def test_untaped_loss_is_bit_identical_to_taped(self):
        # one loss definition: the numpy path runs the taped builder untaped
        traj, mat = toy_trajectory()
        cfg = training.TrainConfig(epochs=1, batch_size=5, window=3, dt=0.02, seed=2)
        params = mlp.init_params(3, 3, seed=4, hidden=8)

        def builder(ws, bs):
            return training.augmented(lambda t, u: u @ mat.T, ws, bs)

        for k in range(20):
            batch = training.sample_windows([traj], cfg, epoch_seed=[k])
            loss, _ = training.node_loss(params, batch, builder, "rk4")
            assert training.rollout_loss_value(params, batch, builder, "rk4") == loss


class TestOptimizers:
    def test_zero_gradient_is_a_fixed_point(self):
        params = mlp.init_params(2, 2, seed=0, hidden=8)
        before = [p.copy() for p in mlp.param_list(params)]
        cfg = training.TrainConfig(epochs=1, optimizer="adam", lr=0.1)
        opt = training.opt_init(cfg, params)
        plist = mlp.param_list(params)
        training.opt_step(opt, plist, [np.zeros_like(p) for p in plist])
        for a, b in zip(before, plist):
            assert np.array_equal(a, b)

    def test_adam_first_step_formula(self):
        # from zero moments: delta = -lr * g / (|g| + eps)
        params = mlp.zero_params(1, 1)
        plist = mlp.param_list(params)
        cfg = training.TrainConfig(epochs=1, optimizer="adam", lr=0.1)
        opt = training.opt_init(cfg, params)
        grads = [np.zeros_like(p) for p in plist]
        grads[0][0, 0] = 3.0
        training.opt_step(opt, plist, grads)
        expected = -0.1 * 3.0 / (3.0 + 1e-8)
        assert plist[0][0, 0] == pytest.approx(expected, rel=1e-12)

    def test_adam_matches_reference_recursion(self):
        rng = np.random.default_rng(0)
        theta = np.array([[0.5]])
        params = mlp.MlpParams(
            weights=[theta.copy(), np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1))],
            biases=[np.zeros(1)] * 4,
        )
        plist = mlp.param_list(params)
        cfg = training.TrainConfig(epochs=1, optimizer="adam", lr=0.01)
        opt = training.opt_init(cfg, params)
        gs = rng.normal(size=12)
        m = v = 0.0
        ref = theta[0, 0]
        for t, g in enumerate(gs, start=1):
            grads = [np.zeros_like(p) for p in plist]
            grads[0][0, 0] = g
            training.opt_step(opt, plist, grads)
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        assert plist[0][0, 0] == pytest.approx(ref, rel=1e-14)

    def test_adabelief_constant_gradient_enters_eps_regime(self):
        # with constant g the belief variance collapses and the denominator
        # approaches eps, so late steps approach -lr*g/eps scale
        params = mlp.zero_params(1, 1)
        plist = mlp.param_list(params)
        cfg = training.TrainConfig(
            epochs=1, optimizer="adabelief", lr=1e-6, eps=1e-6, beta2=0.9
        )
        opt = training.opt_init(cfg, params)
        g = 2.0
        deltas = []
        for _ in range(400):
            before = plist[0][0, 0]
            grads = [np.zeros_like(p) for p in plist]
            grads[0][0, 0] = g
            training.opt_step(opt, plist, grads)
            deltas.append(plist[0][0, 0] - before)
        v_hat = opt.v[0][0, 0] / (1 - cfg.beta2 ** min(opt.t, 1000))
        assert np.sqrt(v_hat) < 10 * cfg.eps  # belief variance collapsed
        m_hat = opt.m[0][0, 0] / (1 - cfg.beta1 ** min(opt.t, 1000))
        expected = -cfg.lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
        assert deltas[-1] == pytest.approx(expected, rel=1e-9)
        # denominator is eps-dominated: the step approaches -lr*g/eps scale
        assert abs(deltas[-1]) > 0.1 * cfg.lr * abs(g) / cfg.eps

    def test_adabelief_differs_from_adam(self):
        rng = np.random.default_rng(2)
        outs = {}
        for kind in ("adam", "adabelief"):
            params = mlp.init_params(2, 2, seed=1, hidden=8)
            plist = mlp.param_list(params)
            cfg = training.TrainConfig(epochs=1, optimizer=kind, lr=0.01)
            opt = training.opt_init(cfg, params)
            rng2 = np.random.default_rng(3)
            for _ in range(5):
                grads = [rng2.normal(size=p.shape) for p in plist]
                training.opt_step(opt, plist, grads)
            outs[kind] = plist[0].copy()
        assert not np.allclose(outs["adam"], outs["adabelief"])


class TestTrainLoop:
    def _setup(self, epochs, seed=0):
        traj, mat = toy_trajectory(n_states=81, seed=3)
        cfg = training.TrainConfig(
            epochs=epochs, batch_size=8, window=2, dt=0.02, tableau="rk4",
            optimizer="adam", lr=1e-3, seed=seed, split=0.75, split_axis="time",
            test_every=5,
        )

        def builder(ws, bs):
            return lambda t, u: u @ mat.T + mlp.forward(ws, bs, u)

        return [traj], cfg, builder

    def test_zero_epochs_returns_initial_params(self):
        trajs, cfg, builder = self._setup(0)
        res = training.train(trajs, cfg, builder, 3, 3)
        init = mlp.init_params(3, 3, cfg.seed)
        for a, b in zip(mlp.param_list(res.params), mlp.param_list(init)):
            assert np.array_equal(a, b)
        assert res.history == []

    def test_loss_decreases_on_average(self):
        trajs, cfg, builder = self._setup(50)
        res = training.train(trajs, cfg, builder, 3, 3)
        first = np.mean([h[1] for h in res.history[:10]])
        last = np.mean([h[1] for h in res.history[-10:]])
        assert last < first

    def test_training_is_deterministic(self):
        trajs, cfg, builder = self._setup(5)
        r1 = training.train(trajs, cfg, builder, 3, 3)
        r2 = training.train(trajs, cfg, builder, 3, 3)
        for a, b in zip(mlp.param_list(r1.params), mlp.param_list(r2.params)):
            assert np.array_equal(a, b)
        assert r1.history == r2.history

    def test_history_shape_and_test_cadence(self):
        trajs, cfg, builder = self._setup(10)
        res = training.train(trajs, cfg, builder, 3, 3)
        assert len(res.history) == 10
        evaluated = [e for e, _, te in res.history if te is not None]
        assert evaluated == [5, 10]

    def test_blowup_carries_epoch_step_stage_and_sample(self):
        trajs, cfg, builder = self._setup(5)
        poison = np.ones((cfg.batch_size, 3))
        poison[3] = np.nan
        built = []

        def blowing_up_in_epoch_2(ws, bs):
            built.append(None)
            rhs = builder(ws, bs)
            calls = []

            def fn(t, u):
                calls.append(t)
                k = rhs(t, u)
                # RK4: the sixth slope is stage 1 of window step 1
                return k * poison if len(built) == 2 and len(calls) == 6 else k

            return fn

        with pytest.raises(BlowupError) as e:
            training.train(trajs, cfg, blowing_up_in_epoch_2, 3, 3)
        err = e.value
        assert (err.epoch, err.step, err.stage, err.sample) == (2, 1, 1, 3)
        assert err.time == pytest.approx(cfg.dt)
        assert "epoch 2" in str(err) and "sample 3" in str(err)

    def test_loss_history_rows_format(self, tmp_path):
        path = tmp_path / "loss.csv"
        diagnostics.write_csv(
            path, ("epoch", "train_loss", "test_loss"), [(1, 0.5, None), (2, 0.25, 0.3)]
        )
        rows = path.read_text().splitlines()
        assert rows[0] == "epoch,train_loss,test_loss"
        assert rows[1] == "1,0.5,"
        assert rows[2] == "2,0.25,0.29999999999999999"


class TestDiscreteForcing:
    def _cd_setup(self):
        mesh_h = dg.make_mesh(10, 3, 0.0, 1.0)
        mesh_l = dg.make_mesh(10, 1, 0.0, 1.0)
        cfg = dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=1e-3, a=1.0)
        rhs_h = dg.rhs_semidiscrete(cfg, mesh_h)
        rhs_l = dg.rhs_semidiscrete(cfg, mesh_l)
        u0 = dg.field_from_function(mesh_h, lambda x: np.sin(2 * np.pi * x))
        tr = integrate(tableau_rk4(), rhs_h, u0.flat, 0.0, 1e-3, 60)
        filt = Trajectory(
            t0=0.0, dt=1e-3, states=dg.project_states(mesh_h, tr.states, 1), meta={}
        )
        return mesh_l, rhs_l, filt

    def _cd_run_config(self):
        # the low-order half of _cd_setup as a run configuration, RK4 rollouts
        return RunConfig.from_dict({
            "experiment": "cd", "out_dir": "unused",
            "model": {"a": 1.0, "kappa": 1e-3, "n_elem": 10, "order_high": 3,
                      "order_low": 1, "domain": [0.0, 1.0]},
            "prediction": {"tableau": "rk4"},
        })

    def test_exact_low_solver_gives_zero_targets(self):
        # if the "filtered" data is itself generated by the low operator, the
        # one-step gap vanishes and so do all regression targets
        mesh_l, rhs_l, _ = self._cd_setup()
        u0 = dg.field_from_function(mesh_l, lambda x: np.sin(2 * np.pi * x))
        tr = integrate(tableau_rk4(), rhs_l, u0.flat, 0.0, 1e-3, 30)
        X, Y = training.discrete_forcing_dataset([tr], 1e-3, rhs_l, "rk4")
        assert np.max(np.abs(Y)) < 1e-12

    def test_targets_depend_on_coarse_step(self):
        mesh_l, rhs_l, filt = self._cd_setup()
        _, y1 = training.discrete_forcing_dataset([filt], 1e-3, rhs_l, "rk4")
        _, y2 = training.discrete_forcing_dataset([filt], 2e-3, rhs_l, "rk4")
        n = min(len(y1), len(y2))
        assert not np.allclose(y1[:n], y2[:n])

    def test_zero_net_prediction_equals_plain_rollout(self):
        mesh_l, rhs_l, filt = self._cd_setup()
        params = mlp.zero_params(mesh_l.n_dof, mesh_l.n_dof)
        u0 = filt.states[0]
        pred = experiments.predict(self._cd_run_config(), params, u0, 1e-3, 20, "discrete")
        plain = integrate(tableau_rk4(), rhs_l, u0, 0.0, 1e-3, 20)
        assert np.array_equal(pred.states, plain.states)

    def test_constant_source_one_step(self):
        mesh_l, rhs_l, filt = self._cd_setup()
        params = mlp.zero_params(mesh_l.n_dof, mesh_l.n_dof)
        params.biases[3][:] = 0.25
        u0 = filt.states[0]
        pred = experiments.predict(self._cd_run_config(), params, u0, 1e-3, 1, "discrete")
        plain = erk_step(tableau_rk4(), rhs_l, 0.0, u0, 1e-3)
        assert np.max(np.abs(pred.states[1] - (plain + 1e-3 * 0.25))) < 1e-15

    def test_regression_reduces_loss(self):
        mesh_l, rhs_l, filt = self._cd_setup()
        cfg = training.TrainConfig(
            epochs=40, batch_size=16, optimizer="adabelief", lr=1e-3, seed=5
        )
        X, Y = training.discrete_forcing_dataset([filt], 1e-3, rhs_l, "rk4")
        res = training.train_discrete_forcing(X, Y, cfg, mesh_l.n_dof, mesh_l.n_dof)
        assert res.history[-1][1] < res.history[0][1]

    def test_takes_steps_per_epoch_optimizer_steps(self, monkeypatch):
        mesh_l, rhs_l, filt = self._cd_setup()
        X, Y = training.discrete_forcing_dataset([filt], 1e-3, rhs_l, "rk4")
        steps = []
        opt_step = training.opt_step
        monkeypatch.setattr(
            training, "opt_step", lambda *a: (steps.append(None), opt_step(*a))
        )
        cfg = training.TrainConfig(epochs=3, batch_size=8, steps_per_epoch=4, seed=5)
        res = training.train_discrete_forcing(X, Y, cfg, mesh_l.n_dof, mesh_l.n_dof)
        assert len(steps) == 12 and len(res.history) == 3
        # batches are seeded [seed, 303, epoch, step]; SeedSequence pads its
        # entropy with zeros, so step 0 draws the batch of seed [seed, 303, epoch]
        pad = np.random.SeedSequence([5, 303, 1, 0]).generate_state(4)
        assert np.array_equal(pad, np.random.SeedSequence([5, 303, 1]).generate_state(4))


def test_gradient_fidelity_small_rollout():
    # node_loss gradient vs central differences on a tiny DG problem
    mesh = dg.make_mesh(6, 1, 0.0, 1.0)
    cfg = dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=1e-3, a=1.0)
    rhs = dg.rhs_semidiscrete(cfg, mesh)
    u0 = dg.field_from_function(mesh, lambda x: np.sin(2 * np.pi * x))
    tr = integrate(tableau_rk4(), rhs, u0.flat, 0.0, 1e-3, 12)
    tcfg = training.TrainConfig(epochs=1, batch_size=3, window=2, dt=2e-3, seed=0, split=1.0)
    batch = training.sample_windows([tr], tcfg, epoch_seed=[1])
    rng = np.random.default_rng(0)
    batch.targets = batch.targets + rng.normal(size=batch.targets.shape)
    params = mlp.init_params(mesh.n_dof, mesh.n_dof, seed=1, hidden=16)

    def builder(ws, bs):
        return lambda t, u: rhs(t, u) + mlp.forward(ws, bs, u)

    build = training.make_loss_builder(batch, builder, "rk4")
    err = ad.grad_check(build, mlp.param_list(params), h=1e-5, sample=40, seed=2)
    assert err < 1e-4
