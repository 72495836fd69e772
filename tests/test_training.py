import platform
import resource
import tracemalloc
import weakref

import numpy as np
import pytest

from sgnode import autodiff as ad
from sgnode import dg, diagnostics, experiments, lorenz96, mlp, training
from sgnode.config import RunConfig
from sgnode.errors import BlowupError, ConfigError
from sgnode.ode import Trajectory, erk_step, integrate, tableau_rk4


def linear_rhs(mat):
    # u @ mat.T as one dense node with a zero bias, so a tape can record it
    zero = np.zeros(len(mat))
    return lambda u: ad.dense(u, mat, zero, relu=False)


def toy_trajectory(n_states=41, d=3, dt=0.01, seed=0):
    rng = np.random.default_rng(seed)
    mat = -0.4 * np.eye(d) + 0.1 * rng.normal(size=(d, d))
    rhs = lambda u: u @ mat.T
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

    @pytest.mark.parametrize("dt", [0.005, 0.0099999])
    def test_a_training_dt_below_the_data_dt_is_rejected_naming_both(self, dt):
        traj, _ = toy_trajectory()
        cfg = training.TrainConfig(epochs=1, batch_size=2, window=2, dt=dt, seed=0)
        with pytest.raises(ConfigError, match=f"training dt {dt} .* data dt 0.01"):
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
            return linear_rhs(mat)  # ignores the zero net entirely

        loss, tape = training.node_loss(params, batch, builder, "rk4")
        assert loss < 1e-28

    def test_single_step_scalar_hand_value(self):
        # m=1, n=1, u' = 0 rollout: loss = (u0 - target)^2
        traj = Trajectory(t0=0.0, dt=0.1, states=np.array([[2.0], [2.5]]), meta={})
        cfg = training.TrainConfig(epochs=1, batch_size=1, window=1, dt=0.1, seed=0)
        batch = training.sample_windows([traj], cfg, epoch_seed=[0])
        params = mlp.zero_params(1, 1)

        def builder(ws, bs):
            return lambda u: u * 0.0

        loss, _ = training.node_loss(params, batch, builder, "rk4")
        assert loss == pytest.approx(0.25, abs=1e-15)

    def test_quadratic_scaling_in_residual(self):
        traj, mat = toy_trajectory()
        cfg = training.TrainConfig(epochs=1, batch_size=4, window=2, dt=0.02, seed=1)
        batch = training.sample_windows([traj], cfg, epoch_seed=[3])
        params = mlp.zero_params(3, 3)
        builder = lambda ws, bs: (lambda u: u * 0.0)
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
        params = mlp.init_params(3, 3, seed=4)

        def builder(ws, bs):
            return training.augmented(linear_rhs(mat), ws, bs)

        loss, _ = training.node_loss(params, batch, builder, "rk4")
        loss_np = training.rollout_loss_value(params, batch, builder, "rk4")
        assert loss >= 0.0
        assert loss == pytest.approx(loss_np, rel=1e-13)

    def test_untaped_loss_is_bit_identical_to_taped(self):
        # one loss definition: the numpy path runs the taped builder untaped
        traj, mat = toy_trajectory()
        cfg = training.TrainConfig(epochs=1, batch_size=5, window=3, dt=0.02, seed=2)
        params = mlp.init_params(3, 3, seed=4)

        def builder(ws, bs):
            return training.augmented(linear_rhs(mat), ws, bs)

        for k in range(20):
            batch = training.sample_windows([traj], cfg, epoch_seed=[k])
            loss, _ = training.node_loss(params, batch, builder, "rk4")
            assert training.rollout_loss_value(params, batch, builder, "rk4") == loss


    def test_a_window_step_records_one_sqdist_and_lifts_x0_once(self):
        # a Tsit5 windowed CD loss: each window step adds one sqdist node,
        # and the window starts are one leaf however many stages read them
        batch, builder, params = experiments.window_problem("cd")
        plist = mlp.param_list(params)
        _, tape = ad.record(training.make_loss_builder(batch, builder, "tsit5"), plist)
        ops = [op for op, _, _ in tape.ops]
        assert ops.count("sqdist") == batch.window
        assert "square" not in ops and "sumall" not in ops
        leaves = [v for op, v in zip(ops, tape.vals) if op == "leaf"]
        assert sum(v is batch.x0 for v in leaves) == 1
        # the parameters, x0 and the first stage's untaped stencil(x0)
        assert len(leaves) == len(plist) + 2


class TestOptimizers:
    def test_zero_gradient_is_a_fixed_point(self):
        params = mlp.init_params(2, 2, seed=0)
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

    def test_adabelief_constant_gradient_enters_eps_regime(self, monkeypatch):
        # with constant g the belief variance collapses and the denominator
        # approaches eps, so late steps approach -lr*g/eps scale; a larger
        # eps and a faster beta2 reach that regime in 400 steps
        beta1, beta2, eps = training.BETA1, 0.9, 1e-6
        monkeypatch.setattr(training, "BETA2", beta2)
        monkeypatch.setitem(training.EPS, "adabelief", eps)
        params = mlp.zero_params(1, 1)
        plist = mlp.param_list(params)
        cfg = training.TrainConfig(epochs=1, optimizer="adabelief", lr=1e-6)
        opt = training.opt_init(cfg, params)
        g = 2.0
        deltas = []
        for _ in range(400):
            before = plist[0][0, 0]
            grads = [np.zeros_like(p) for p in plist]
            grads[0][0, 0] = g
            training.opt_step(opt, plist, grads)
            deltas.append(plist[0][0, 0] - before)
        v_hat = opt.v[0][0, 0] / (1 - beta2 ** min(opt.t, 1000))
        assert np.sqrt(v_hat) < 10 * eps  # belief variance collapsed
        m_hat = opt.m[0][0, 0] / (1 - beta1 ** min(opt.t, 1000))
        expected = -cfg.lr * m_hat / (np.sqrt(v_hat) + eps)
        assert deltas[-1] == pytest.approx(expected, rel=1e-9)
        # denominator is eps-dominated: the step approaches -lr*g/eps scale
        assert abs(deltas[-1]) > 0.1 * cfg.lr * abs(g) / eps

    def test_adabelief_differs_from_adam(self):
        rng = np.random.default_rng(2)
        outs = {}
        for kind in ("adam", "adabelief"):
            params = mlp.init_params(2, 2, seed=1)
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
            return training.augmented(linear_rhs(mat), ws, bs)

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
        poison = np.zeros((cfg.batch_size, 3))
        poison[3] = np.nan
        built = []

        def blowing_up_in_epoch_2(ws, bs):
            built.append(None)
            rhs = builder(ws, bs)
            calls = []

            def fn(u):
                calls.append(u)
                k = rhs(u)
                # the first build is chunk_count's probe, the third epoch 2's;
                # RK4: the sixth slope is stage 1 of window step 1
                return k + poison if len(built) == 3 and len(calls) == 6 else k

            return fn

        with pytest.raises(BlowupError) as e:
            training.train(trajs, cfg, blowing_up_in_epoch_2, 3, 3)
        err = e.value
        assert (err.epoch, err.step, err.stage, err.sample) == (2, 1, 1, 3)
        # window step n starts at t0 + n * dt, with t0 = 0
        assert err.time == pytest.approx(cfg.dt)
        assert str(err) == ("training rollout blew up at epoch 2: non-finite or blown-up "
                            "value at stage 1 of step 1 (t=0.02), sample 3")

    def test_a_state_past_the_limit_is_a_blowup_under_bounded_slopes(self):
        # every slope, 0.9e12, passes the stage check; the state two steps of
        # dt = 1 on does not pass the check each stepped state gets
        traj, _ = toy_trajectory(dt=1.0)
        cfg = training.TrainConfig(epochs=1, batch_size=4, window=2, dt=1.0, tableau="rk4")

        def constant_slope(ws, bs):
            return lambda u: np.full(np.shape(u), 0.9e12)

        with pytest.raises(BlowupError) as e:
            training.train([traj], cfg, constant_slope, 3, 3)
        err = e.value
        assert (err.epoch, err.step, err.stage, err.sample) == (1, 1, None, 0)
        assert "state blew up after step 1" in str(err)

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
        tr = integrate(tableau_rk4(), rhs_h, u0, 0.0, 1e-3, 60)
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
        tr = integrate(tableau_rk4(), rhs_l, u0, 0.0, 1e-3, 30)
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
        plain = erk_step(tableau_rk4(), rhs_l, u0, 1e-3)
        assert np.max(np.abs(pred.states[1] - (plain + 1e-3 * 0.25))) < 1e-15

    def test_regression_reduces_loss(self):
        mesh_l, rhs_l, filt = self._cd_setup()
        cfg = training.TrainConfig(
            epochs=40, batch_size=16, optimizer="adabelief", lr=1e-3, seed=5
        )
        X, Y = training.discrete_forcing_dataset([filt], 1e-3, rhs_l, "rk4")
        res = training.train_discrete_forcing(X, Y, cfg, mesh_l.n_dof, mesh_l.n_dof)
        assert res.history[-1][1] < res.history[0][1]
        # an epoch's batch is seeded [seed, 303, epoch]; SeedSequence pads its
        # entropy with zeros, so it draws what [seed, 303, epoch, 0] draws
        pad = np.random.SeedSequence([5, 303, 1, 0]).generate_state(4)
        assert np.array_equal(pad, np.random.SeedSequence([5, 303, 1]).generate_state(4))


class TestOneTapeAlive:
    """A training step's tape, or each of its chunk tapes, is freed once its
    gradients are out."""

    def _run(self, monkeypatch, trainer):
        # live tapes seen as each step starts recording, as the held-out loss
        # runs and at the end of each epoch
        tapes, seen = [], {"record": [], "held_out": [], "epoch": []}
        live = lambda: sum(r() is not None for r in tapes)
        record, held_out = ad.record, training.rollout_loss_value

        def recording(build, params):
            seen["record"].append(live())
            loss, tape = record(build, params)
            tapes.append(weakref.ref(tape))
            return loss, tape

        def holding_out(*args):
            seen["held_out"].append(live())
            return held_out(*args)

        monkeypatch.setattr(ad, "record", recording)
        monkeypatch.setattr(training, "rollout_loss_value", holding_out)
        on_epoch = lambda *row: seen["epoch"].append(live())
        if trainer == "train":
            trajs, cfg, builder = TestTrainLoop()._setup(3)
            cfg.test_every = 1
            training.train(trajs, cfg, builder, 3, 3, on_epoch=on_epoch)
        elif trainer == "chunks":
            trajs, cfg, builder, dims = self._small_l96()
            cfg.epochs, cfg.batch_size = 2, 100  # 3600 rows: four chunks a step
            training.train(trajs, cfg, builder, *dims, on_epoch=on_epoch)
        else:
            rng = np.random.default_rng(0)
            cfg = training.TrainConfig(epochs=3, batch_size=8, seed=5)
            training.train_discrete_forcing(
                rng.normal(size=(20, 3)), rng.normal(size=(20, 3)), cfg, 3, 3,
                on_epoch=on_epoch,
            )
        return len(tapes), seen

    @pytest.mark.parametrize("trainer", ["train", "discrete"])
    def test_no_finished_tape_outlives_its_step(self, monkeypatch, trainer):
        n_tapes, seen = self._run(monkeypatch, trainer)
        assert n_tapes == 3
        assert seen["record"] == [0] * 3
        assert seen["held_out"] == ([0] * 3 if trainer == "train" else [])
        assert seen["epoch"] == [0] * 3

    def test_a_chunked_step_holds_at_most_two_tapes(self, monkeypatch):
        n_tapes, seen = self._run(monkeypatch, "chunks")
        assert n_tapes == 8
        # a chunk starts recording with at most the other thread's tape alive
        assert max(seen["record"]) <= 1
        # the held-out loss runs in the step's four chunks, with no tape alive
        assert seen["held_out"] == [0] * 8
        assert seen["epoch"] == [0] * 2

    def _small_l96(self):
        # K = 36, J = 10, batch 20, window 5, RK4: one tape holds ~60 MB
        lcfg = lorenz96.L96Config(K=36, J=10, F=6.0, source_scope="per_component")
        trajs = lorenz96.generate_truth(lcfg, 2, 0.005, 0.1, 0.1, seed=0)
        cfg = training.TrainConfig(
            epochs=4, batch_size=20, window=5, dt=0.005, tableau="rk4", seed=0,
            split=0.5, split_axis="trajectory", test_every=1,
        )
        builder = lambda ws, bs: lorenz96.rhs_coupled_neural(lcfg, ws, bs)
        return trajs, cfg, builder, lcfg.source_dims

    # batch 20: one chunk, whose tape is the step's; batch 100: four chunks
    # of 25 windows, one tape on each of two threads
    @pytest.mark.parametrize("batch_size,chunk,bound", [(20, 20, 1.3), (100, 25, 2.6)])
    def test_training_peaks_at_one_tape_per_thread(self, batch_size, chunk, bound):
        trajs, cfg, builder, dims = self._small_l96()
        params = mlp.init_params(*dims, seed=0)
        cfg.batch_size = chunk
        batch = training.sample_windows(trajs[:1], cfg, epoch_seed=[0, 1])
        cfg.batch_size = batch_size
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tape = training.node_loss(params, batch, builder, "rk4")[1]
            one_tape = tracemalloc.get_traced_memory()[1] - base
            del tape
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            training.train(trajs, cfg, builder, *dims)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= bound * one_tape, (peak / 2**20, one_tape / 2**20)

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc malloc only")
    def test_later_steps_reuse_the_freed_tape_pages(self):
        trajs, cfg, builder, dims = self._small_l96()
        params = mlp.init_params(*dims, seed=0)
        batch = training.sample_windows(trajs[:1], cfg, epoch_seed=[0, 1])
        tape = training.node_loss(params, batch, builder, "rk4")[1]
        one_tape = sum(v.nbytes for v in tape.vals)
        del tape
        training.train(trajs, cfg, builder, *dims)  # the heap grows to hold a tape
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        training.train(trajs, cfg, builder, *dims)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        faulted = faults * resource.getpagesize()
        # four steps that faulted their tapes in afresh would fault ~4 tapes
        assert faulted < 0.1 * one_tape, (faulted / 2**20, one_tape / 2**20)


def test_gradient_fidelity_small_rollout(monkeypatch):
    # node_loss gradient vs central differences on a tiny DG problem
    mesh = dg.make_mesh(6, 1, 0.0, 1.0)
    cfg = dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=1e-3, a=1.0)
    rhs = dg.rhs_semidiscrete(cfg, mesh)
    u0 = dg.field_from_function(mesh, lambda x: np.sin(2 * np.pi * x))
    tr = integrate(tableau_rk4(), rhs, u0, 0.0, 1e-3, 12)
    tcfg = training.TrainConfig(epochs=1, batch_size=3, window=2, dt=2e-3, seed=0, split=1.0)
    batch = training.sample_windows([tr], tcfg, epoch_seed=[1])
    rng = np.random.default_rng(0)
    batch.targets = batch.targets + rng.normal(size=batch.targets.shape)
    monkeypatch.setattr(mlp, "HIDDEN_WIDTH", 16)
    params = mlp.init_params(mesh.n_dof, mesh.n_dof, seed=1)

    def builder(ws, bs):
        return lambda u: rhs(u) + mlp.forward(ws, bs, u)

    build = training.make_loss_builder(batch, builder, "rk4")
    err = ad.grad_check(build, mlp.param_list(params), h=1e-5, sample=40, seed=2)
    assert err < 1e-4
