"""Window sampling, rollout losses, Adam/AdaBelief, and the training loops.

Training minimizes the mean squared distance between an unrolled ERK
rollout of the source-augmented system and consecutive reference states:

    loss = (1/(n*m)) sum_i sum_l || u_hat(t_s + l*dt) - u_ref(t_s + l*dt) ||^2

A step cuts its batch into chunks of windows fixed by the config alone,
each one (n, d) block on a short tape, and sums them in chunk order, so the
bytes do not depend on the CPU count (``step_grads``); the held-out loss
takes the same chunks, untaped (``held_out_loss``).  Each window step
adds one ``sqdist`` node.  Right-hand sides are autonomous, f(u); a blowup
leaves the epoch loop with its epoch stamped on the error.
"""

from __future__ import annotations

import ctypes
import functools
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import diagnostics, mlp
from .errors import BlowupError, ConfigError
# integrate is not called here, but perfbench/spans.py patches training.integrate
from .ode import erk_step, get_tableau, integrate, steps  # noqa: F401


@dataclass
class TrainConfig:
    epochs: int = 1000
    batch_size: int = 100        # windows per optimizer step, one step per epoch
    window: int = 5              # rollout length m
    dt: float = 1e-3             # training timestep
    tableau: str = "tsit5"
    optimizer: str = "adam"      # adam | adabelief
    lr: float = 1e-3
    seed: int = 0
    split: float = 0.75          # train fraction (time range for PDEs, trajectories for L96)
    split_axis: str = "time"     # time | trajectory
    test_every: int = 10
    checkpoint_every: int = 0    # 0: final checkpoint only

    def __post_init__(self):
        if min(self.window, self.batch_size) < 1:
            raise ConfigError("window and batch_size must be >= 1")
        if min(self.epochs, self.seed, self.test_every, self.checkpoint_every) < 0:
            raise ConfigError("epochs, seed, test_every and checkpoint_every must be >= 0")
        for key in ("dt", "lr"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be > 0, got {getattr(self, key)}")
        get_tableau(self.tableau)
        if self.optimizer not in ("adam", "adabelief"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.split_axis not in ("time", "trajectory"):
            raise ConfigError(f"unknown split_axis {self.split_axis!r}")
        if not 0.0 < self.split <= 1.0:
            raise ConfigError("split fraction must be in (0, 1]")


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
    """Data steps per training step, aligned by `diagnostics.strides`."""
    try:
        one, stride = diagnostics.strides(train_dt, data_dt)
        if one == 1:
            return stride
    except ConfigError:
        pass
    raise ConfigError(f"training dt {train_dt} is not an integer multiple of data dt {data_dt}")


def _whole(trajs):
    """Every trajectory as one (traj index, 0, last state index) range."""
    return [(i, 0, len(tr) - 1) for i, tr in enumerate(trajs)]


def split_ranges(trajs, cfg):
    """(train, test) index ranges per trajectory under the configured split.

    Time split: ranges are (traj index, lo state index, hi state index) with
    windows constrained inside [lo, hi].  Trajectory split: whole
    trajectories go to either side.
    """
    if cfg.split_axis == "trajectory":
        n_train = max(1, int(round(cfg.split * len(trajs))))
        whole = _whole(trajs)
        return whole[:n_train], whole[n_train:]
    train, test = [], []
    for i, tr in enumerate(trajs):
        cut = int(round(cfg.split * (len(tr) - 1)))
        train.append((i, 0, cut))
        if cut < len(tr) - 1:
            test.append((i, cut, len(tr) - 1))
    return train, test


def sample_windows(trajs, cfg, epoch_seed, ranges=None):
    """Uniformly random m-step windows, reproducible from epoch_seed; each
    window's m + 1 states come from one `rows` call on its trajectory."""
    stride = _stride(cfg.dt, trajs[0].dt)
    m = cfg.window
    n = cfg.batch_size
    if ranges is None:
        ranges = _whole(trajs)
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
        window = trajs[ti].rows(range(s, s + m * stride + 1, stride))
        x0[b] = window[0]
        targets[:, b] = window[1:]
    return WindowBatch(x0=x0, targets=targets, dt=cfg.dt)


def augmented(rhs, weights, biases):
    """The source-augmented right-hand side f(u) + NN(u).

    Works on numpy arrays and on tape handles alike.
    """
    def fn(u):
        return rhs(u) + mlp.forward(weights, biases, u)

    return fn


def make_loss_builder(batch, rhs_builder, tableau):
    """Loss builder `build(params)` for the windowed rollout MSE.

    `rhs_builder(weights, biases)` must yield the augmented right-hand side
    f(u) for (n, d)-shaped states built from the given parameters.  On
    tape Vars the builder records the loss (see ``ad.record``); on plain
    parameter arrays it evaluates the same loss in numpy.
    """
    tab = get_tableau(tableau)

    def build(pvars):
        ws, bs = pvars[0::2], pvars[1::2]
        rollout = steps(tab, rhs_builder(ws, bs), batch.x0, 0.0, batch.dt, batch.window)
        loss = ad.sqdist(next(rollout), batch.targets[0])
        for u, target in zip(rollout, batch.targets[1:]):
            loss = loss + ad.sqdist(u, target)
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
    return float(build(mlp.param_list(params)))


# the moment decay rates of both optimizers, and each one's denominator offset
BETA1, BETA2 = 0.9, 0.999
EPS = {"adam": 1e-8, "adabelief": 1e-16}


@dataclass
class OptimState:
    kind: str
    lr: float
    m: list = field(default_factory=list)
    v: list = field(default_factory=list)
    t: int = 0


def opt_init(cfg, params):
    plist = mlp.param_list(params)
    return OptimState(
        kind=cfg.optimizer,
        lr=cfg.lr,
        m=[np.zeros_like(p) for p in plist],
        v=[np.zeros_like(p) for p in plist],
    )


def opt_step(opt, plist, grads):
    """One Adam/AdaBelief update, in place on the parameter arrays: v tracks
    g^2 for Adam and (g - m)^2 for AdaBelief."""
    opt.t += 1
    bc1 = 1.0 - BETA1 ** opt.t
    bc2 = 1.0 - BETA2 ** opt.t
    eps = EPS[opt.kind]
    for p, g, m, v in zip(plist, grads, opt.m, opt.v):
        m *= BETA1
        m += (1.0 - BETA1) * g
        d = g if opt.kind == "adam" else g - m
        v *= BETA2
        v += (1.0 - BETA2) * (d * d)
        p -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


@dataclass
class TrainResult:
    params: mlp.MlpParams
    history: list  # (epoch, train_loss, test_loss-or-None)


# A step takes ceil(rows / CHUNK_ROWS) chunks for the rows the source net
# takes for its batch: 3600 on the L96 desk run (4 chunks), 100 for CD,
# Burgers and the global L96 net (1).  4 chunks of 100-row products made a CD
# step 1.7x slower on two threads (2-core x86-64, OpenBLAS on one thread).
CHUNK_ROWS = 1000


def _two_cpus():
    """Whether this process may run on two CPUs or more: on one, a step
    starts no thread."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) > 1


def chunk_count(batch, rhs_builder, params):
    """The chunks of a step on `batch`, no more than its windows, from the rows
    of the ``dense`` inputs of one taped right-hand side call on its first window."""
    tape = ad.Tape()
    pvars = [tape.param(p) for p in mlp.param_list(params)]
    rhs_builder(pvars[0::2], pvars[1::2])(batch.x0[:1])
    rows = max([len(tape.vals[args[0]]) for op, args, _ in tape.ops if op == "dense"] or [1])
    return min(batch.size, -(-batch.size * rows // CHUNK_ROWS))


def _chunk_tasks(chunk_fn, params, batch, rhs_builder, tableau, chunks):
    """One task per chunk lo:hi of `chunks` near-equal chunks of the windows
    of `batch`: `chunk_fn(params, batch, lo, hi, rhs_builder, tableau)`."""
    cuts = [batch.size * j // chunks for j in range(chunks + 1)]
    return [functools.partial(chunk_fn, params, batch, lo, hi, rhs_builder, tableau)
            for lo, hi in zip(cuts, cuts[1:])]


def _run_chunks(tasks):
    """The results of `tasks`, in task order.  With two tasks or more on two
    CPUs, a thread started for this call runs the odd tasks while the caller
    runs the even ones, and it is joined before the call returns or raises:
    an error cancels the odd tasks not yet started and waits for the one
    that is running.  Results are taken in task order, so an error comes
    from the lowest-numbered failing task, as on one thread."""
    if len(tasks) < 2 or not _two_cpus():
        return [task() for task in tasks]
    # imported here: with logging it costs ~8 ms and ~0.6 MB at start-up
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(1, thread_name_prefix="sgnode-chunks")
    try:
        odd = [pool.submit(task) for task in tasks[1::2]]
        return [odd[j // 2].result() if j % 2 else task() for j, task in enumerate(tasks)]
    finally:
        pool.shutdown(cancel_futures=True)


def _in_chunk(loss_fn, params, batch, lo, hi, rhs_builder, tableau):
    """`loss_fn` on windows lo:hi of `batch`, and their share of its windows;
    a blowup's sample is its row in `batch`."""
    part = WindowBatch(batch.x0[lo:hi], batch.targets[:, lo:hi], batch.dt)
    try:
        out = loss_fn(params, part, rhs_builder, tableau)
    except BlowupError as e:
        if e.sample is not None:
            e.sample += lo
        raise
    return out, (hi - lo) / batch.size


def _chunk_grads(params, batch, lo, hi, rhs_builder, tableau):
    """node_loss and backward on windows lo:hi of `batch`, both scaled by
    their share of its windows."""
    (loss, tape), share = _in_chunk(node_loss, params, batch, lo, hi, rhs_builder, tableau)
    return loss * share, [g * share for g in ad.backward(tape)]


def _chunk_loss_value(params, batch, lo, hi, rhs_builder, tableau):
    """rollout_loss_value on windows lo:hi of `batch`, scaled by their share."""
    loss, share = _in_chunk(rollout_loss_value, params, batch, lo, hi, rhs_builder, tableau)
    return loss * share


def step_grads(params, batch, rhs_builder, tableau, chunks=1):
    """(loss, gradients) of the windowed rollout MSE of `batch`: the sum in
    chunk order over `chunks` near-equal chunks of its windows, each on a
    tape of its own, freed after its ``backward``.  One chunk gives exactly
    ``node_loss`` and ``backward``.  The chunks run on ``_run_chunks``: on
    two CPUs the odd ones on a thread that lives for this call, and an
    error comes from the lowest-numbered failing chunk."""
    results = _run_chunks(_chunk_tasks(_chunk_grads, params, batch, rhs_builder, tableau, chunks))
    loss, grads = results[0]
    for part_loss, part_grads in results[1:]:
        loss += part_loss
        grads = [g + h for g, h in zip(grads, part_grads)]
    return loss, grads


def held_out_loss(params, batch, rhs_builder, tableau, chunks=1):
    """The windowed rollout MSE of `batch` in plain numpy, in the chunks that
    ``step_grads`` takes and run as it runs them: the sum in chunk order of
    each chunk's ``rollout_loss_value``, scaled by its share of the windows.
    One chunk gives exactly ``rollout_loss_value`` on the whole batch."""
    parts = _run_chunks(
        _chunk_tasks(_chunk_loss_value, params, batch, rhs_builder, tableau, chunks))
    loss = parts[0]
    for part in parts[1:]:
        loss += part
    return loss


def _keep_freed_heap():
    """Have glibc malloc keep freed memory in one heap for reuse.

    Each training step frees its chunk tapes (two of about 59 MB at once on
    the L96 desk run) and the next step allocates as much again.  By
    default glibc serves arrays over a few MB from fresh mappings and
    returns the freed top of the heap to the OS, so every step faulted its
    tapes' pages back in: 10 L96 desk epochs took 540,000-566,000 minor
    faults and 407-465 ms a step, against 57,000 and 360-401 ms with these
    settings (2-core x86-64, glibc 2.36).  Arrays up to 32 MiB then come
    from the heap, never trimmed, and one arena keeps the tapes of each
    step's chunk thread there too: in a second arena they raised perfbench
    train-l96's peak RSS from ~305 to 361 MB.  Values are unchanged.  Off glibc, a no-op.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)   # M_MMAP_THRESHOLD, its largest allowed value
    mallopt(-1, 2**31 - 1)  # M_TRIM_THRESHOLD
    mallopt(-8, 1)          # M_ARENA_MAX


def _fit(cfg, d_in, d_out, init, on_epoch, step, test_loss=None, on_checkpoint=None):
    """The epoch loop of both trainers.

    Each epoch takes one optimizer step on `step(params, epoch)` ->
    (loss, gradients), then records the history row (the step's loss and
    `test_loss(params, epoch)`, or None), hands a copy of the parameters
    to `on_checkpoint(epoch, params)` every cfg.checkpoint_every epochs, and
    calls the callback.  A blowup in the step or the held-out loss leaves
    with its epoch stamped.  A step frees each chunk tape once its
    gradients are out, so at most two are alive, one per thread (about 59
    MB each on the L96 desk run), and none during the held-out loss, which
    records no tape.
    """
    _keep_freed_heap()
    params = init.copy() if init is not None else mlp.init_params(d_in, d_out, cfg.seed)
    opt = opt_init(cfg, params)
    plist = mlp.param_list(params)
    result = TrainResult(params=params, history=[])
    for epoch in range(1, cfg.epochs + 1):
        try:
            train_loss, grads = step(params, epoch)
            opt_step(opt, plist, grads)
            held_out = test_loss(params, epoch) if test_loss else None
        except BlowupError as e:
            e.epoch = epoch
            raise
        result.history.append((epoch, train_loss, held_out))
        if on_checkpoint and cfg.checkpoint_every and epoch % cfg.checkpoint_every == 0:
            on_checkpoint(epoch, params.copy())
        if on_epoch:
            on_epoch(epoch, train_loss, held_out)
    return result


def train(trajs, cfg, rhs_builder, d_in, d_out, init=None, on_epoch=None, on_checkpoint=None):
    """Full loop: sample, record, backward, update; held-out loss every
    cfg.test_every epochs, and at the last, on freshly sampled windows from
    the test range, in the chunks the step takes (``held_out_loss``).  A
    held-out blowup is labelled ``held-out windows``, and its sample is the
    row of the held-out batch."""
    train_rng, test_rng = split_ranges(trajs, cfg)
    stride = _stride(cfg.dt, trajs[0].dt)
    # drop held-out ranges too short to hold one window
    test_rng = [r for r in test_rng if r[2] - r[1] >= cfg.window * stride]
    chunks = None

    def step(params, epoch):
        nonlocal chunks
        batch = sample_windows(
            trajs, cfg, epoch_seed=[cfg.seed, 101, epoch], ranges=train_rng
        )
        if chunks is None:
            chunks = chunk_count(batch, rhs_builder, params)
        return step_grads(params, batch, rhs_builder, cfg.tableau, chunks)

    def test_loss(params, epoch):
        if test_rng and cfg.test_every and (epoch % cfg.test_every == 0 or epoch == cfg.epochs):
            tb = sample_windows(
                trajs, cfg, epoch_seed=[cfg.seed, 202, epoch], ranges=test_rng
            )
            try:
                return held_out_loss(params, tb, rhs_builder, cfg.tableau, chunks)
            except BlowupError as e:
                e.run = "held-out windows"
                raise
        return None

    return _fit(cfg, d_in, d_out, init, on_epoch, step, test_loss, on_checkpoint)


def discrete_forcing_dataset(filtered_trajs, dt_coarse, rhs_low, tableau, ranges=None):
    """Supervised pairs for the post-step correction baseline.

    Inputs are filtered states u_n; targets are
    (u_{n+1}^filtered - ERKstep(u_n)) / dt_coarse, i.e. the forcing a single
    forward-Euler correction would need at this specific timestep size.
    `ranges` are the (traj index, lo, hi) state ranges to draw from, as
    split_ranges gives them; None takes every trajectory whole.
    """
    tab = get_tableau(tableau)
    stride = _stride(dt_coarse, filtered_trajs[0].dt)
    xs, ys = [], []
    for ti, lo, hi in _whole(filtered_trajs) if ranges is None else ranges:
        idx = range(lo, hi + 1, stride)
        if len(idx) < 2:
            continue
        states = filtered_trajs[ti].rows(idx)
        x, x_next = states[:-1], states[1:]
        stepped = erk_step(tab, rhs_low, x, dt_coarse)
        xs.append(x)
        ys.append((x_next - stepped) / dt_coarse)
    if not xs:
        raise ConfigError("no usable states for discrete forcing targets")
    return np.concatenate(xs, axis=0), np.concatenate(ys, axis=0)


def train_discrete_forcing(inputs, targets, cfg, d_in, d_out, init=None, on_epoch=None,
                           on_checkpoint=None):
    """Plain MLP regression input -> forcing with the configured optimizer."""
    n_total = inputs.shape[0]

    def step(params, epoch):
        rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([cfg.seed, 303, epoch]))
        )
        pick = rng.integers(0, n_total, size=min(cfg.batch_size, n_total))
        xb, yb = inputs[pick], targets[pick]

        def build(pvars):
            ws, bs = pvars[0::2], pvars[1::2]
            return ad.sqdist(mlp.forward(ws, bs, xb), yb) * (1.0 / xb.shape[0])

        loss, tape = ad.record(build, mlp.param_list(params))
        return loss, ad.backward(tape)

    return _fit(cfg, d_in, d_out, init, on_epoch, step, on_checkpoint=on_checkpoint)


def discrete_correction(params, dt):
    """Post-step hook adding the Euler correction dt * NN(u_n) to each step."""
    def correct(u_prev, u_stepped):
        return u_stepped + dt * mlp.forward(params.weights, params.biases, u_prev)

    return correct
