"""Window sampling, rollout losses, Adam/AdaBelief, and the training loops.

Training minimizes the mean squared distance between an unrolled ERK
rollout of the source-augmented system and consecutive reference states:

    loss = (1/(n*m)) sum_i sum_l || u_hat(t_s + l*dt) - u_ref(t_s + l*dt) ||^2

All n windows of a batch advance together as one (n, d) block, so tapes
stay short regardless of batch size and gradient accumulation order is
fixed by the array layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import mlp
from .errors import BlowupError, ConfigError
# integrate is not called here, but perfbench/spans.py patches training.integrate
from .ode import erk_step, get_tableau, integrate  # noqa: F401


@dataclass
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 100        # windows per optimizer step
    steps_per_epoch: int = 1     # optimizer steps per epoch
    window: int = 5              # rollout length m
    dt: float = 1e-3             # training timestep
    tableau: str = "tsit5"
    optimizer: str = "adam"      # adam | adabelief
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float | None = None     # default: 1e-8 adam, 1e-16 adabelief
    seed: int = 0
    split: float = 0.75          # train fraction (time range for PDEs, trajectories for L96)
    split_axis: str = "time"     # time | trajectory
    test_every: int = 10
    checkpoint_every: int = 0    # 0: final checkpoint only

    def __post_init__(self):
        if min(self.window, self.batch_size, self.steps_per_epoch) < 1:
            raise ConfigError("window, batch_size and steps_per_epoch must be >= 1")
        if min(self.epochs, self.seed, self.test_every, self.checkpoint_every) < 0:
            raise ConfigError("epochs, seed, test_every and checkpoint_every must be >= 0")
        get_tableau(self.tableau)
        if self.optimizer not in ("adam", "adabelief"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.split_axis not in ("time", "trajectory"):
            raise ConfigError(f"unknown split_axis {self.split_axis!r}")
        if not 0.0 < self.split <= 1.0:
            raise ConfigError("split fraction must be in (0, 1]")
        if self.eps is None:
            self.eps = 1e-8 if self.optimizer == "adam" else 1e-16


@dataclass
class WindowBatch:
    """n rollout windows: initial states plus m target states each."""

    x0: np.ndarray       # (n, d)
    targets: np.ndarray  # (m, n, d)
    dt: float

    @property
    def size(self):
        return self.x0.shape[0]

    @property
    def window(self):
        return self.targets.shape[0]


def _stride(train_dt, data_dt):
    ratio = train_dt / data_dt
    stride = int(round(ratio))
    if stride < 1 or abs(ratio - stride) > 1e-9 * max(1.0, ratio):
        raise ConfigError(
            f"training dt {train_dt} is not an integer multiple of data dt {data_dt}"
        )
    return stride


def split_ranges(trajs, cfg):
    """(train, test) index ranges per trajectory under the configured split.

    Time split: ranges are (traj index, lo state index, hi state index) with
    windows constrained inside [lo, hi].  Trajectory split: whole
    trajectories go to either side.
    """
    n_traj = len(trajs)
    if cfg.split_axis == "trajectory":
        n_train = max(1, int(round(cfg.split * n_traj)))
        train = [(i, 0, len(trajs[i]) - 1) for i in range(n_train)]
        test = [(i, 0, len(trajs[i]) - 1) for i in range(n_train, n_traj)]
    else:
        train, test = [], []
        for i, tr in enumerate(trajs):
            cut = int(round(cfg.split * (len(tr) - 1)))
            train.append((i, 0, cut))
            if cut < len(tr) - 1:
                test.append((i, cut, len(tr) - 1))
    return train, [r for r in test if r]


def sample_windows(trajs, cfg, epoch_seed, ranges=None, batch_size=None):
    """Uniformly random m-step windows, reproducible from epoch_seed."""
    stride = _stride(cfg.dt, trajs[0].dt)
    m = cfg.window
    n = batch_size or cfg.batch_size
    if ranges is None:
        ranges = [(i, 0, len(trajs[i]) - 1) for i in range(len(trajs))]
    usable = [(ti, lo, hi) for ti, lo, hi in ranges if hi - lo >= m * stride]
    if not usable:
        raise ConfigError(
            f"no trajectory range can hold a window of {m} steps at stride {stride}"
        )
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(epoch_seed)))
    d = trajs[0].dim
    x0 = np.empty((n, d))
    targets = np.empty((m, n, d))
    picks = rng.integers(0, len(usable), size=n)
    for b, pick in enumerate(picks):
        ti, lo, hi = usable[pick]
        s = int(rng.integers(lo, hi - m * stride + 1))
        states = trajs[ti].states
        x0[b] = states[s]
        for l in range(1, m + 1):
            targets[l - 1, b] = states[s + l * stride]
    return WindowBatch(x0=x0, targets=targets, dt=cfg.dt)


def augmented(rhs, weights, biases):
    """The source-augmented right-hand side f(t, u) + NN(u).

    Works on numpy arrays and on tape handles alike.
    """
    def fn(t, u):
        return rhs(t, u) + mlp.forward(weights, biases, u)

    return fn


def make_loss_builder(batch, rhs_builder, tableau):
    """Tape builder for the windowed rollout MSE.

    `rhs_builder(weights, biases)` must yield the augmented right-hand side
    f(t, u) for (n, d)-shaped states built from the given parameter handles.
    Called with tape None and plain parameter arrays, the builder evaluates
    the same loss in numpy.
    """
    tab = get_tableau(tableau)

    def build(tape, pvars):
        ws, bs = pvars[0::2], pvars[1::2]
        rhs = rhs_builder(ws, bs)
        u = batch.x0 if tape is None else tape.const(batch.x0)
        loss = None
        t = 0.0
        for l in range(batch.window):
            try:
                u = erk_step(tab, rhs, t, u, batch.dt)
            except BlowupError as e:
                e.step = l
                raise
            t += batch.dt
            r = u - batch.targets[l]
            sq = ad.sum_all(ad.square(r))
            loss = sq if loss is None else loss + sq
        return loss * (1.0 / (batch.size * batch.window))

    return build


def node_loss(params, batch, rhs_builder, tableau):
    """Record the windowed rollout MSE on a tape; returns (loss, tape)."""
    return ad.record(
        make_loss_builder(batch, rhs_builder, tableau), mlp.param_list(params)
    )


def rollout_loss_value(params, batch, rhs_builder, tableau):
    """Same loss evaluated in plain numpy (no tape); used for test metrics."""
    build = make_loss_builder(batch, rhs_builder, tableau)
    return float(build(None, mlp.param_list(params)))


@dataclass
class OptimState:
    kind: str
    lr: float
    beta1: float
    beta2: float
    eps: float
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0


def opt_init(cfg, params):
    plist = mlp.param_list(params)
    return OptimState(
        kind=cfg.optimizer,
        lr=cfg.lr,
        beta1=cfg.beta1,
        beta2=cfg.beta2,
        eps=cfg.eps,
        m=[np.zeros_like(p) for p in plist],
        v=[np.zeros_like(p) for p in plist],
    )


def opt_step(opt, plist, grads):
    """One Adam/AdaBelief update, in place on the parameter arrays."""
    opt.t += 1
    bc1 = 1.0 - opt.beta1 ** opt.t
    bc2 = 1.0 - opt.beta2 ** opt.t
    for p, g, m, v in zip(plist, grads, opt.m, opt.v):
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        if opt.kind == "adam":
            v *= opt.beta2
            v += (1.0 - opt.beta2) * (g * g)
        else:
            d = g - m
            v *= opt.beta2
            v += (1.0 - opt.beta2) * (d * d)
        p -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + opt.eps)


@dataclass
class TrainResult:
    params: mlp.MlpParams
    history: list  # (epoch, train_loss, test_loss-or-None)
    checkpoints: list = field(default_factory=list)  # (epoch, MlpParams)


def _fit(cfg, d_in, d_out, init, on_epoch, step_loss, test_loss=None):
    """The epoch loop of both trainers.

    Each epoch takes cfg.steps_per_epoch optimizer steps, each on
    `step_loss(params, epoch, step)` -> (loss, tape).  It then records the
    history row (the last step's loss and `test_loss(params, epoch)`, or
    None), the periodic checkpoint every cfg.checkpoint_every epochs, and
    the callback.
    """
    params = init.copy() if init is not None else mlp.init_params(d_in, d_out, cfg.seed)
    opt = opt_init(cfg, params)
    plist = mlp.param_list(params)
    result = TrainResult(params=params, history=[])
    for epoch in range(1, cfg.epochs + 1):
        for step in range(cfg.steps_per_epoch):
            try:
                train_loss, tape = step_loss(params, epoch, step)
            except BlowupError as e:
                raise BlowupError(
                    f"training rollout blew up at epoch {epoch}: {e}",
                    stage=e.stage, step=e.step, time=e.time, sample=e.sample,
                    epoch=epoch,
                ) from e
            opt_step(opt, plist, ad.backward(tape))
        held_out = test_loss(params, epoch) if test_loss else None
        result.history.append((epoch, train_loss, held_out))
        if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            result.checkpoints.append((epoch, params.copy()))
        if on_epoch:
            on_epoch(epoch, train_loss, held_out)
    return result


def train(trajs, cfg, rhs_builder, d_in, d_out, init=None, on_epoch=None):
    """Full loop: sample, record, backward, update; held-out loss every
    cfg.test_every epochs on freshly sampled windows from the test range."""
    train_rng, test_rng = split_ranges(trajs, cfg)
    stride = _stride(cfg.dt, trajs[0].dt)
    # drop held-out ranges too short to hold one window
    test_rng = [r for r in test_rng if r[2] - r[1] >= cfg.window * stride]

    def step_loss(params, epoch, step):
        batch = sample_windows(
            trajs, cfg, epoch_seed=[cfg.seed, 101, epoch, step], ranges=train_rng
        )
        return node_loss(params, batch, rhs_builder, cfg.tableau)

    def test_loss(params, epoch):
        if test_rng and cfg.test_every and (epoch % cfg.test_every == 0 or epoch == cfg.epochs):
            tb = sample_windows(
                trajs, cfg, epoch_seed=[cfg.seed, 202, epoch], ranges=test_rng
            )
            return rollout_loss_value(params, tb, rhs_builder, cfg.tableau)
        return None

    return _fit(cfg, d_in, d_out, init, on_epoch, step_loss, test_loss)


def discrete_forcing_dataset(filtered_trajs, dt_coarse, rhs_low, tableau, ranges=None):
    """Supervised pairs for the post-step correction baseline.

    Inputs are filtered states u_n; targets are
    (u_{n+1}^filtered - ERKstep(u_n)) / dt_coarse, i.e. the forcing a single
    forward-Euler correction would need at this specific timestep size.
    """
    tab = get_tableau(tableau)
    stride = _stride(dt_coarse, filtered_trajs[0].dt)
    xs, ys = [], []
    for ti, tr in enumerate(filtered_trajs):
        lo, hi = 0, len(tr) - 1
        if ranges is not None:
            lo, hi = ranges[ti][1], ranges[ti][2]
        idx = np.arange(lo, hi - stride + 1, stride)
        if idx.size == 0:
            continue
        x = tr.states[idx]
        x_next = tr.states[idx + stride]
        stepped = erk_step(tab, rhs_low, 0.0, x, dt_coarse)
        xs.append(x)
        ys.append((x_next - stepped) / dt_coarse)
    if not xs:
        raise ConfigError("no usable states for discrete forcing targets")
    return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)


def train_discrete_forcing(inputs, targets, cfg, d_in, d_out, init=None, on_epoch=None):
    """Plain MLP regression input -> forcing with the configured optimizer."""
    n_total = inputs.shape[0]

    def step_loss(params, epoch, step):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([cfg.seed, 303, epoch, step]))
        )
        pick = rng.integers(0, n_total, size=min(cfg.batch_size, n_total))
        xb, yb = inputs[pick], targets[pick]

        def build(tape, pvars):
            ws, bs = pvars[0::2], pvars[1::2]
            r = mlp.forward(ws, bs, tape.const(xb)) - tape.const(yb)
            return ad.sum_all(ad.square(r)) * (1.0 / xb.shape[0])

        return ad.record(build, mlp.param_list(params))

    return _fit(cfg, d_in, d_out, init, on_epoch, step_loss)


def discrete_correction(params, dt):
    """Post-step hook adding the Euler correction dt * NN(u_n) to each step."""
    def correct(t, u_prev, u_stepped):
        return u_stepped + dt * mlp.forward_params(params, u_prev)

    return correct
