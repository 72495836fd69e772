"""Wiring between run configurations and the core modules.

Each experiment knows how to build its meshes/right-hand sides, generate and
filter reference data, build the source-augmented right-hand side that
training differentiates through, train the discrete post-correction
baseline, and roll out every prediction variant.  The timestep sweep, the
finite-difference gradient check and the variant timings behind ``sgnode
sweep``, ``sgnode gradcheck`` and ``sgnode time`` live here too.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import time
from collections.abc import Sequence
from pathlib import Path

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from . import autodiff as ad
from . import diagnostics, dg, lorenz96, mlp, training
from .config import Manifest, ManifestEntry, check_variant, load_manifest, pde_config, pde_meshes
from .errors import BlowupError, ConfigError, FormatError
from .ode import StoredTrajectory, Trajectory, TrajectoryWriter, integrate, get_tableau, march
from .ode import save_trajectory  # noqa: F401 -- perfbench's spans wrap experiments.save_trajectory


def l96_config(model):
    return lorenz96.L96Config(**model)


def source_dims(cfg):
    if cfg.experiment == "l96":
        return l96_config(cfg.model).source_dims
    _, low = pde_meshes(cfg.model)
    return low.n_dof, low.n_dof


def load_net(cfg, path):
    """The source net saved at `path`, checked against the experiment's dims."""
    params = mlp.load_params(path)
    mlp.require_dims(params, *source_dims(cfg))
    return params


def sha256_file(f):
    """The sha256 hex digest of open binary file f, read from its start in
    1 MiB blocks."""
    h = hashlib.sha256()
    f.seek(0)
    for chunk in iter(lambda: f.read(1 << 20), b""):
        h.update(chunk)
    return h.hexdigest()


def _pde_problem(cfg):
    """The high-order right-hand side of a PDE experiment, its (n_traj, d)
    initial states and each trajectory's stored metadata."""
    pcfg = pde_config(cfg.experiment, cfg.model)
    mesh_h, _ = pde_meshes(cfg.model)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    u0s, metas = [], []
    for i in range(cfg.data.n_traj):
        if cfg.experiment == "cd":
            phase = float(rng.uniform(0.0, 1.0))
            u0 = dg.cd_initial_condition(mesh_h, phase)
            meta = {"model": "cd", "phi": repr(phase), "a": repr(pcfg.a)}
        else:
            u0 = dg.burgulence_initial_condition(
                mesh_h, cfg.model["k0"], cfg.model["n_synth"], seed=cfg.seed + i
            )
            meta = {"model": "burgers", "k0": str(cfg.model["k0"])}
        meta.update(p=str(mesh_h.order), n_elem=str(mesh_h.n_elem), kappa=repr(pcfg.kappa))
        u0s.append(u0)
        metas.append(meta)
    return _pde_rhs(cfg, mesh_h), np.stack(u0s), metas


def check_open_files(cfg, n_files):
    """ConfigError unless `n_files` dataset files, all open at once, fit under
    the soft open-file limit beside the descriptors open now and one more
    file opened beside them.  No limit, or no `resource` module, means no
    check."""
    if resource is None:
        return
    limit = resource.getrlimit(resource.RLIMIT_NOFILE)[0]
    n_open = len(os.listdir("/dev/fd")) - 1  # less the one the listing opened
    need = n_files + n_open + 1
    if limit != resource.RLIM_INFINITY and need > limit:
        raise ConfigError(
            f"data.n_traj {cfg.data.n_traj} needs {n_files} files open at once, which with the "
            f"{n_open} open now is over the open-file limit of {limit}; raise the limit "
            f"(ulimit -n {need}) or lower data.n_traj"
        )


def _stream(out, rhs, u0, dt, n_steps, files):
    """March u0 with RK4 in `ode.march`'s time chunks and write every file
    as the chunks arrive.

    `files` lists (name, kind, index, meta, d, project): the file holds the
    states of trajectory `index` (columns index * d0 onwards of the block,
    d0 = u0.shape[1]), each chunk mapped by `project` to rows of d entries
    (None: stored as they are).  Returns the files' manifest entries, with
    the sha256 of the bytes written.
    """
    d0 = u0.shape[1]
    with contextlib.ExitStack() as stack:
        writers = [
            stack.enter_context(TrajectoryWriter(out / name, d, n_steps + 1, 0.0, dt, meta))
            for name, _, _, meta, d, _ in files
        ]
        for rows in march(get_tableau("rk4"), rhs, u0, dt, n_steps):
            for w, (_, _, i, _, _, project) in zip(writers, files):
                own = rows[:, i * d0:(i + 1) * d0]
                w.write(own if project is None else project(own))
        return [ManifestEntry(name, kind, i, w.close())
                for w, (name, kind, i, *_) in zip(writers, files)]


def generate(cfg):
    """Write reference (and filtered) trajectories plus a manifest: the one
    data generator of every experiment, read back by `load_dataset`.

    Every trajectory advances in one (n_traj, d) RK4 block, so a blowup's
    sample is the trajectory index, and the files are written as
    `ode.march` yields its time chunks, so memory does not grow with
    t_final.
    """
    data = cfg.data
    n_steps = int(round(data.t_final / data.dt))
    # each trajectory's files: (kind, added metadata, states per row, row map or None)
    if cfg.experiment == "l96":
        lcfg = l96_config(cfg.model)
        kinds = [("truth", {}, lcfg.dim, None)]
    else:
        mesh_h, mesh_l = pde_meshes(cfg.model)

        def project(states):
            return dg.project_states(mesh_h, states, mesh_l.order)

        filtered = {"p": str(mesh_l.order), "filtered": "true"}
        kinds = [("truth", {}, mesh_h.n_dof, None)] if data.store_high else []
        kinds.append(("filtered", filtered, mesh_l.n_dof, project))
    check_open_files(cfg, data.n_traj * len(kinds))
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # a run that fails part way must leave no manifest naming its files
    (out / "manifest.json").unlink(missing_ok=True)
    if cfg.experiment == "l96":
        rhs, u0, metas = lorenz96.truth_start(lcfg, data.n_traj, data.dt, data.spinup, cfg.seed)
    else:
        rhs, u0, metas = _pde_problem(cfg)
    files = [(f"{kind}_{i:04d}.sgnt", kind, i, {**meta, **extra}, d, proj)
             for i, meta in enumerate(metas) for kind, extra, d, proj in kinds]
    entries = _stream(out, rhs, u0, data.dt, n_steps, files)

    manifest = Manifest(cfg.experiment, cfg.seed, data.__dict__, cfg.model, entries)
    text = json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True)
    (out / "manifest.json").write_text(text)
    return manifest


class Dataset(Sequence):
    """The trajectories of one kind in a run directory, in index order.

    Its length comes from the manifest.  Trajectory i is opened the first
    time it is used, as a `StoredTrajectory`: its layout is checked, and the
    open file is hashed in blocks against the manifest's sha256.  Then only
    its header, metadata and open file are kept, and training reads the
    rows it draws from that file.  A file that does not check is a
    FormatError at that use; so is a read that later comes up short.  The
    files close when the Dataset and the items taken from it are dropped.
    """

    def __init__(self, out_dir, entries):
        self._dir = Path(out_dir)
        self._entries = entries
        self._opened = [None] * len(entries)

    def __len__(self):
        return len(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        if self._opened[i] is None:
            e = self._entries[i]
            item = StoredTrajectory(self._dir / e.name)
            digest = sha256_file(item.file)
            if digest != e.sha256:
                item.close()
                raise FormatError(f"{item.path}: sha256 is {digest}, expected {e.sha256}")
            self._opened[i] = item
        return self._opened[i]


def load_dataset(cfg, kind=None):
    """The trajectories recorded in the manifest, in index order, opened on
    first use (see Dataset)."""
    manifest = load_manifest(cfg)
    want = kind or ("truth" if cfg.experiment == "l96" else "filtered")
    files = sorted((e for e in manifest.files if e.kind == want), key=lambda e: e.index)
    if not files:
        raise ConfigError(f"manifest has no {want!r} trajectories")
    return Dataset(cfg.out_dir, files)


def _pde_rhs(cfg, mesh):
    """The DG right-hand side of a PDE experiment's equation on `mesh`."""
    return dg.rhs_semidiscrete(pde_config(cfg.experiment, cfg.model), mesh)


def rhs_builder_for(cfg):
    """Tape-compatible builder of the source-augmented right-hand side: the
    model training differentiates, and the one `predict` rolls out."""
    if cfg.experiment == "l96":
        lcfg = l96_config(cfg.model)
        return lambda ws, bs: lorenz96.rhs_coupled_neural(lcfg, ws, bs)
    rhs_l = _pde_rhs(cfg, pde_meshes(cfg.model)[1])
    return lambda ws, bs: training.augmented(rhs_l, ws, bs)


def train_discrete(cfg, trajs, init=None, on_epoch=None, on_checkpoint=None):
    tcfg = cfg.training_discrete
    rhs_l = _pde_rhs(cfg, pde_meshes(cfg.model)[1])
    train_rng, _ = training.split_ranges(trajs, tcfg)
    inputs, targets = training.discrete_forcing_dataset(
        trajs, tcfg.dt, rhs_l, tcfg.tableau, ranges=train_rng
    )
    return training.train_discrete_forcing(
        inputs, targets, tcfg, *source_dims(cfg), init=init, on_epoch=on_epoch,
        on_checkpoint=on_checkpoint,
    )


def predict(cfg, params, u0, dt, n_steps, variant, t0=0.0):
    """Roll out one prediction variant from a flat initial state; `augmented`
    (and L96's `low`, with a zero source) is the model `rhs_builder_for` builds."""
    check_variant(cfg.experiment, variant, "variant")
    meta = {"variant": variant}
    post_step = None
    if variant == "augmented" or (cfg.experiment == "l96" and variant == "low"):
        net = params if variant == "augmented" else mlp.zero_params(*source_dims(cfg))
        rhs = rhs_builder_for(cfg)(net.weights, net.biases)
    elif variant == "slow":
        rhs = lorenz96.rhs_slow_neural(l96_config(cfg.model), params)
    elif cfg.experiment == "l96":  # high
        rhs = lorenz96.rhs_coupled(l96_config(cfg.model))
    else:
        mesh_h, mesh_l = pde_meshes(cfg.model)
        mesh = mesh_h if variant == "high" else mesh_l
        if variant in ("low2", "low3"):
            mesh = dg.make_mesh(mesh_l.n_elem, 2 if variant == "low2" else 3, *mesh_l.domain)
            u0 = dg.interp_states(mesh_l, u0[None], mesh.order)[0]
        rhs = _pde_rhs(cfg, mesh)
        if variant == "discrete":
            post_step = training.discrete_correction(params, dt)
    tab = get_tableau(cfg.prediction.tableau)
    traj = integrate(tab, rhs, u0, t0, dt, n_steps, meta=meta, post_step=post_step)
    if variant in ("low2", "low3"):
        projected = dg.project_states(mesh, traj.states, mesh_l.order)
        return Trajectory(t0=t0, dt=dt, states=projected, meta=meta)
    return traj


def prediction_dt(cfg, variant):
    """The step a prediction variant takes by default: the data's for the
    full Lorenz 96 state, whose fast variables need it; for a PDE variant
    prediction.dt, or its timing.dts entry where that is smaller."""
    if cfg.experiment == "l96":
        return cfg.data.dt if variant != "slow" else cfg.prediction.dt
    return min(cfg.prediction.dt, cfg.timing.dts.get(variant, cfg.prediction.dt))


def variant_initial_state(cfg, variant, ref_filtered, ref_truth=None):
    """Initial flat state for a prediction variant (filtered state for
    low-order variants, unfiltered truth for the high-order one): the first
    row of its trajectory, read alone into an array of its own."""
    ref = ref_filtered
    # the l96 dataset is the truth itself
    if variant == "high" and cfg.experiment != "l96":
        if ref_truth is None:
            raise ConfigError("high-order prediction needs a stored truth trajectory")
        ref = ref_truth
    u0 = ref.rows([0])[0]
    if cfg.experiment == "l96" and variant == "slow":
        u0 = u0[: l96_config(cfg.model).K]
    return u0


def timestep_sweep(cfg, params_cont, params_disc, ref, dts, eval_times):
    """Relative errors of the continuous and discrete corrections per dt,
    rolled out from the first state of `ref`, a Trajectory in memory.

    Returns rows (method, dt, time, rel_err); a blown-up run records
    float('inf') instead of aborting the sweep.  Every eval time must be a
    time each dt's run shares with the reference, as `sgnode sweep` checks.
    """
    _, mesh_l = pde_meshes(cfg.model)
    horizon = max(eval_times)
    methods = (
        ("continuous", "augmented", params_cont),
        ("discrete", "discrete", params_disc),
    )
    rows = []
    for dt in dts:
        n_steps = int(round(horizon / dt))
        for method, variant, params in methods:
            try:
                traj = predict(cfg, params, ref.states[0], dt, n_steps, variant, t0=ref.t0)
            except BlowupError:
                rows.extend((method, dt, t_eval, float("inf")) for t_eval in eval_times)
                continue
            rep = diagnostics.compare_fields(traj, ref, mesh_l)
            for t_eval in eval_times:
                j = int(np.argmin(np.abs(rep.times - t_eval)))
                rows.append((method, dt, t_eval, float(rep.rel[j])))
    return rows


def run_timings(cfg, ref, truth, params):
    """Wall and thread CPU times in ms per prediction variant at its stable
    dt, stepping at prediction.tableau: rows (variant, dt, first wall,
    median warm wall, first CPU, median warm CPU).  CPU time is the calling
    thread's, which load from other processes barely moves.

    The variants run in interleaved rounds: round 0 is every variant's first
    run, and each later round repeats every variant once, so drift in the
    machine's load reaches all variants alike.
    """
    tcfg = cfg.timing
    runs = []
    for variant in tcfg.VARIANTS:
        if variant in tcfg.dts:
            dt = tcfg.dts[variant]
            u0 = variant_initial_state(cfg, variant, ref, truth)
            runs.append((variant, dt, u0, int(round(tcfg.t_final / dt)), [], []))
    for _ in range(tcfg.repeats + 1):
        for variant, dt, u0, n_steps, walls, cpus in runs:
            wall, cpu = time.perf_counter(), time.thread_time()
            try:
                predict(cfg, params, u0, dt, n_steps, variant)
            except BlowupError as e:
                e.run = f"variant {variant} at dt={dt:g}"
                raise
            cpus.append((time.thread_time() - cpu) * 1e3)
            walls.append((time.perf_counter() - wall) * 1e3)
    return [(v, dt, walls[0], float(np.median(walls[1:])), cpus[0], float(np.median(cpus[1:])))
            for v, dt, _, _, walls, cpus in runs]


def window_problem(experiment, seed=0):
    """A small windowed training problem of one experiment: a batch of
    windows, the augmented right-hand-side builder and initial net."""
    if experiment == "l96":
        lcfg = lorenz96.L96Config(K=8, J=4)
        trajs = lorenz96.generate_truth(lcfg, 1, 0.005, 1.0, 0.25, seed=seed)
        params = mlp.init_params(*lcfg.source_dims, seed=seed)
        builder = lambda ws, bs: lorenz96.rhs_coupled_neural(lcfg, ws, bs)
        dt = 0.005
    else:
        if experiment == "cd":
            mesh = dg.make_mesh(10, 1, 0.0, 1.0)
            pcfg = dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=1e-4, a=1.0)
            u0 = dg.cd_initial_condition(mesh, 0.25)
            dt = 1e-3
        else:
            mesh = dg.make_mesh(8, 1, 0.0, 2 * np.pi)
            pcfg = dg.PdeConfig(dg.VISCOUS_BURGERS, kappa=0.005)
            u0 = dg.field_from_function(mesh, lambda x: np.sin(x) + 0.1 * np.cos(2 * x))
            dt = 5e-3
        rhs = dg.rhs_semidiscrete(pcfg, mesh)
        trajs = [integrate(get_tableau("rk4"), rhs, u0, 0.0, dt, 8)]
        params = mlp.init_params(mesh.n_dof, mesh.n_dof, seed=seed)
        builder = lambda ws, bs: training.augmented(rhs, ws, bs)

    tcfg = training.TrainConfig(
        epochs=1, batch_size=4, window=2, dt=dt, tableau="rk4", seed=seed, split=1.0
    )
    return training.sample_windows(trajs, tcfg, epoch_seed=[seed, 7]), builder, params


def run_gradcheck(experiment, seed=0, sample=64):
    """``ad.grad_check`` of a small windowed loss for one experiment at
    h = 1e-6, with no floor, on long-double parameters, which resolve what
    float64 differences cannot; a ConfigError where np.longdouble is
    binary64, as the check would then resolve nothing."""
    if np.finfo(np.longdouble).eps == np.finfo(np.float64).eps:
        raise ConfigError(
            "np.longdouble is binary64 on this platform, so the gradient check's "
            "long-double differences cannot resolve the tape gradient"
        )
    batch, builder, params = window_problem(experiment, seed)
    # O(1) target perturbations keep residuals (hence gradients) well away from
    # the finite-difference noise floor; the loss function is unchanged.
    rng = np.random.Generator(np.random.PCG64(seed))
    batch.targets = batch.targets + rng.normal(size=batch.targets.shape)
    build = training.make_loss_builder(batch, builder, "rk4")
    plist = [p.astype(np.longdouble) for p in mlp.param_list(params)]
    return ad.grad_check(build, plist, h=1e-6, sample=sample, seed=seed)
