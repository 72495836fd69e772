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
from .ode import erk_step, get_tableau, integrate


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
        if self.epochs < 0 or self.window < 1 or self.batch_size < 1:
            raise ConfigError("epochs >= 0, window >= 1, batch_size >= 1 required")
        if self.optimizer not in ("adam", "adabelief"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.split_axis not in ("time", "trajectory"):
            raise ConfigError(f"unknown split_axis {self.split_axis!r}")
        if not 0.0 < self.split <= 1.0:
            raise ConfigError("split fraction must be in (0, 1]")
        if self.eps is None:
            self.eps = 1e-8 if self.optimizer == "adam" else 1e-16

    def to_dict(self):
        return dict(self.__dict__)


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


def train(trajs, cfg, rhs_builder, d_in, d_out, init=None, on_epoch=None):
    """Full loop: sample, record, backward, update; held-out loss every
    cfg.test_every epochs on freshly sampled windows from the test range."""
    params = init.copy() if init is not None else mlp.init_params(d_in, d_out, cfg.seed)
    opt = opt_init(cfg, params)
    plist = mlp.param_list(params)
    train_rng, test_rng = split_ranges(trajs, cfg)
    stride = _stride(cfg.dt, trajs[0].dt)
    # drop held-out ranges too short to hold one window
    test_rng = [r for r in test_rng if r[2] - r[1] >= cfg.window * stride]
    history = []
    checkpoints = []
    for epoch in range(1, cfg.epochs + 1):
        train_loss = None
        for step in range(cfg.steps_per_epoch):
            batch = sample_windows(
                trajs, cfg, epoch_seed=[cfg.seed, 101, epoch, step], ranges=train_rng
            )
            try:
                train_loss, tape = node_loss(params, batch, rhs_builder, cfg.tableau)
            except BlowupError as e:
                raise BlowupError(
                    f"training rollout blew up at epoch {epoch}: {e}",
                    stage=e.stage,
                    step=e.step,
                ) from e
            grads = ad.backward(tape).grads
            opt_step(opt, plist, grads)
        test_loss = None
        if test_rng and cfg.test_every and (epoch % cfg.test_every == 0 or epoch == cfg.epochs):
            tb = sample_windows(
                trajs, cfg, epoch_seed=[cfg.seed, 202, epoch], ranges=test_rng
            )
            test_loss = rollout_loss_value(params, tb, rhs_builder, cfg.tableau)
        history.append((epoch, train_loss, test_loss))
        if cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            checkpoints.append((epoch, params.copy()))
        if on_epoch:
            on_epoch(epoch, train_loss, test_loss)
    return TrainResult(params=params, history=history, checkpoints=checkpoints)


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
    params = init.copy() if init is not None else mlp.init_params(d_in, d_out, cfg.seed)
    opt = opt_init(cfg, params)
    plist = mlp.param_list(params)
    n_total = inputs.shape[0]
    history = []
    for epoch in range(1, cfg.epochs + 1):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([cfg.seed, 303, epoch]))
        )
        pick = rng.integers(0, n_total, size=min(cfg.batch_size, n_total))
        xb, yb = inputs[pick], targets[pick]

        def build(tape, pvars):
            ws, bs = pvars[0::2], pvars[1::2]
            r = mlp.forward(ws, bs, tape.const(xb)) - tape.const(yb)
            return ad.sum_all(ad.square(r)) * (1.0 / xb.shape[0])

        loss, tape = ad.record(build, plist)
        grads = ad.backward(tape).grads
        opt_step(opt, plist, grads)
        history.append((epoch, loss, None))
        if on_epoch:
            on_epoch(epoch, loss, None)
    return TrainResult(params=params, history=history)


def predict_augmented(params, rhs_plain, tableau, u0, dt, n_steps, t0=0.0, meta=None):
    """Rollout of the source-augmented continuous system."""
    fn = augmented(rhs_plain, params.weights, params.biases)
    return integrate(get_tableau(tableau), fn, u0, t0, dt, n_steps, meta=meta)


def discrete_correction(params, dt):
    """Post-step hook adding the Euler correction dt * NN(u_n) to each step."""
    def correct(t, u_prev, u_stepped):
        return u_stepped + dt * mlp.forward_params(params, u_prev)

    return correct


def predict_discrete(params, rhs_low, tableau, u0, dt, n_steps, t0=0.0, meta=None):
    """ERK step of the plain low-order operator, then the Euler post-correction.

    The corrected state is carried forward into the next step.
    """
    return integrate(
        get_tableau(tableau), rhs_low, u0, t0, dt, n_steps, meta=meta,
        post_step=discrete_correction(params, dt),
    )


def loss_history_rows(history):
    """CSV rows (epoch, train, test) with 17-significant-digit floats."""
    rows = ["epoch,train_loss,test_loss"]
    for epoch, tr, te in history:
        t1 = "" if tr is None else format(tr, ".17g")
        t2 = "" if te is None else format(te, ".17g")
        rows.append(f"{epoch},{t1},{t2}")
    return rows
