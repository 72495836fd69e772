"""Wiring between run configurations and the core modules.

Each experiment knows how to build its meshes/right-hand sides, generate and
filter reference data, build the source-augmented right-hand side that
training differentiates through, train the discrete post-correction
baseline, and roll out every prediction variant.  The timestep sweep, the
finite-difference gradient check and the variant timings behind ``sgnode
sweep``, ``sgnode gradcheck`` and ``sgnode time`` live here too.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import diagnostics, dg, lorenz96, mlp, training
from .errors import BlowupError, ConfigError
from .ode import Trajectory, integrate, get_tableau, load_trajectory, save_trajectory


def l96_config(model):
    return lorenz96.L96Config(**model)


def pde_config(experiment, model):
    kind = dg.VISCOUS_BURGERS if experiment == "burgers" else dg.CONVECTION_DIFFUSION
    return dg.PdeConfig(kind=kind, kappa=model["kappa"], a=model.get("a", 0.0))


def pde_meshes(model):
    dom = tuple(model["domain"])
    high = dg.make_mesh(model["n_elem"], model["order_high"], *dom)
    low = dg.make_mesh(model["n_elem"], model["order_low"], *dom)
    return high, low


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


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def pde_truth(cfg):
    """Reference trajectories of a PDE experiment on the high-order mesh.

    All initial conditions advance together as one (n_traj, d) RK4 rollout,
    so a blowup's sample is the trajectory index.  Each trajectory's states
    are a column slice of the shared block, not a copy.
    """
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
        u0s.append(u0.flat)
        metas.append(meta)
    n_steps = int(round(cfg.data.t_final / cfg.data.dt))
    block = integrate(
        get_tableau("rk4"), dg.rhs_semidiscrete(pcfg, mesh_h), np.stack(u0s),
        0.0, cfg.data.dt, n_steps,
    ).states
    d = mesh_h.n_dof
    return [
        Trajectory(t0=0.0, dt=cfg.data.dt, states=block[:, i * d:(i + 1) * d], meta=meta)
        for i, meta in enumerate(metas)
    ]


def generate(cfg):
    """Write reference (and filtered) trajectories plus a manifest."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []

    def emit(traj, name, kind, index):
        path = out / name
        save_trajectory(traj, path)
        entries.append(
            {"name": name, "kind": kind, "index": index, "sha256": sha256_file(path)}
        )

    if cfg.experiment == "l96":
        lcfg = l96_config(cfg.model)
        trajs = lorenz96.generate_truth(
            lcfg, cfg.data.n_traj, cfg.data.dt, cfg.data.spinup, cfg.data.t_final,
            seed=cfg.seed,
        )
        for i, tr in enumerate(trajs):
            emit(tr, f"truth_{i:04d}.sgnt", "truth", i)
    else:
        mesh_h, mesh_l = pde_meshes(cfg.model)
        for i, traj in enumerate(pde_truth(cfg)):
            filtered = Trajectory(
                t0=traj.t0, dt=traj.dt,
                states=dg.project_states(mesh_h, traj.states, mesh_l.order),
                meta={**traj.meta, "p": str(mesh_l.order), "filtered": "true"},
            )
            if cfg.data.store_high:
                emit(traj, f"truth_{i:04d}.sgnt", "truth", i)
            emit(filtered, f"filtered_{i:04d}.sgnt", "filtered", i)

    manifest = {
        "experiment": cfg.experiment,
        "seed": cfg.seed,
        "data": cfg.data.__dict__,
        "model": cfg.model,
        "files": entries,
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest


def load_dataset(cfg, kind=None):
    """Trajectories recorded in the manifest, in index order."""
    out = Path(cfg.out_dir)
    mpath = out / "manifest.json"
    if not mpath.exists():
        raise ConfigError(f"no manifest at {mpath}; run generate first")
    manifest = json.loads(mpath.read_text())
    want = kind or ("truth" if cfg.experiment == "l96" else "filtered")
    files = sorted(
        (e for e in manifest["files"] if e["kind"] == want), key=lambda e: e["index"]
    )
    if not files:
        raise ConfigError(f"manifest has no {want!r} trajectories")
    return [load_trajectory(out / e["name"]) for e in files]


def rhs_builder_for(cfg):
    """Tape-compatible builder of the source-augmented right-hand side."""
    if cfg.experiment == "l96":
        lcfg = l96_config(cfg.model)
        return lambda ws, bs: lorenz96.rhs_coupled_neural(lcfg, ws, bs)
    pcfg = pde_config(cfg.experiment, cfg.model)
    _, mesh_l = pde_meshes(cfg.model)
    rhs_l = dg.rhs_semidiscrete(pcfg, mesh_l)
    return lambda ws, bs: training.augmented(rhs_l, ws, bs)


def train_discrete(cfg, trajs, init=None, on_epoch=None):
    if cfg.experiment == "l96":
        raise ConfigError("the discrete post-correction baseline is PDE-only")
    tcfg = cfg.training_discrete
    pcfg = pde_config(cfg.experiment, cfg.model)
    _, mesh_l = pde_meshes(cfg.model)
    rhs_l = dg.rhs_semidiscrete(pcfg, mesh_l)
    train_rng, _ = training.split_ranges(trajs, tcfg)
    inputs, targets = training.discrete_forcing_dataset(
        trajs, tcfg.dt, rhs_l, tcfg.tableau, ranges=train_rng
    )
    d = mesh_l.n_dof
    return training.train_discrete_forcing(
        inputs, targets, tcfg, d, d, init=init, on_epoch=on_epoch
    )


def predict(cfg, params, u0, dt, n_steps, variant, t0=0.0):
    """Roll out one prediction variant from a flat initial state."""
    meta = {"variant": variant}
    post_step = None
    if cfg.experiment == "l96":
        lcfg = l96_config(cfg.model)
        if variant == "slow":
            rhs = lorenz96.rhs_slow_neural(lcfg, params)
        elif variant == "high":
            rhs = lorenz96.rhs_coupled(lcfg)
        elif variant in ("low", "augmented"):
            # the uncoupled baseline is the coupled model with a zero source
            net = mlp.zero_params(*lcfg.source_dims) if variant == "low" else params
            rhs = lorenz96.rhs_coupled_neural(lcfg, net.weights, net.biases)
        else:
            raise ConfigError(f"variant {variant!r} is undefined for l96")
    else:
        pcfg = pde_config(cfg.experiment, cfg.model)
        mesh_h, mesh_l = pde_meshes(cfg.model)
        mesh = mesh_h if variant == "high" else mesh_l
        if variant in ("low2", "low3"):
            mesh = dg.make_mesh(mesh_l.n_elem, 2 if variant == "low2" else 3, *mesh_l.domain)
            u0 = dg.interp_to_order(dg.field_from_flat(mesh_l, u0), mesh.order).flat
        elif variant not in ("high", "low", "augmented", "discrete"):
            raise ConfigError(f"unknown prediction variant {variant!r}")
        rhs = dg.rhs_semidiscrete(pcfg, mesh)
        if variant == "augmented":
            rhs = training.augmented(rhs, params.weights, params.biases)
        elif variant == "discrete":
            post_step = training.discrete_correction(params, dt)
    tab = get_tableau(cfg.prediction.tableau)
    traj = integrate(tab, rhs, u0, t0, dt, n_steps, meta=meta, post_step=post_step)
    if variant in ("low2", "low3"):
        projected = dg.project_states(mesh, traj.states, mesh_l.order)
        return Trajectory(t0=t0, dt=dt, states=projected, meta=meta)
    return traj


def variant_initial_state(cfg, variant, ref_filtered, ref_truth=None):
    """Initial flat state for a prediction variant (filtered state for
    low-order variants, unfiltered truth for the high-order one)."""
    if variant == "high":
        if cfg.experiment == "l96":
            return ref_filtered.states[0]  # the l96 dataset is the truth itself
        if ref_truth is None:
            raise ConfigError("high-order prediction needs a stored truth trajectory")
        return ref_truth.states[0]
    if cfg.experiment == "l96" and variant == "slow":
        lcfg = l96_config(cfg.model)
        return ref_filtered.states[0][: lcfg.K]
    return ref_filtered.states[0]


def timestep_sweep(cfg, params_cont, params_disc, ref, dts, eval_times):
    """Relative errors of the continuous and discrete corrections per dt,
    rolled out from the reference's first state.

    Returns rows (method, dt, time, rel_err); a blown-up run records
    float('inf') instead of aborting the sweep, and an eval time off the
    run's grid float('nan').
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
                if abs(rep.times[j] - t_eval) > 1e-9 + 1e-6 * dt:
                    rows.append((method, dt, t_eval, float("nan")))
                else:
                    rows.append((method, dt, t_eval, float(rep.rel[j])))
    return rows


def run_timings(cfg, ref, truth, params, variants=None):
    """Median-of-repeats wall times per prediction variant at its stable dt."""
    tcfg = cfg.timing
    cfg = dataclasses.replace(
        cfg, prediction=dataclasses.replace(cfg.prediction, tableau=tcfg.tableau)
    )
    rows = []
    for variant in variants or tcfg.VARIANTS:
        if variant not in tcfg.dts:
            continue
        dt = tcfg.dts[variant]
        u0 = variant_initial_state(cfg, variant, ref, truth)
        n_steps = int(round(tcfg.t_final / dt))
        times = []
        for _ in range(tcfg.repeats + 1):
            t0 = time.perf_counter()
            try:
                predict(cfg, params, u0, dt, n_steps, variant)
            except BlowupError as e:
                raise BlowupError(
                    f"variant {variant} at dt={dt:g}: {e}", stage=e.stage, step=e.step,
                    time=e.time, sample=e.sample, epoch=e.epoch,
                ) from e
            times.append((time.perf_counter() - t0) * 1e3)
        rows.append((variant, dt, times[0], float(np.median(times[1:]))))
    return rows


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
        trajs = [integrate(get_tableau("rk4"), rhs, u0.flat, 0.0, dt, 8)]
        params = mlp.init_params(mesh.n_dof, mesh.n_dof, seed=seed)
        builder = lambda ws, bs: training.augmented(rhs, ws, bs)

    tcfg = training.TrainConfig(
        epochs=1, batch_size=4, window=2, dt=dt, tableau="rk4", seed=seed, split=1.0
    )
    return training.sample_windows(trajs, tcfg, epoch_seed=[seed, 7]), builder, params


def run_gradcheck(experiment, seed=0, sample=64, h=1e-5, floor=True):
    """Finite-difference check of a small windowed loss for one experiment.

    `floor=False` drops the atol floor below: the comparison is then purely
    relative and shows the finite-difference noise the floor absorbs.
    """
    batch, builder, params = window_problem(experiment, seed)
    # O(1) target perturbations keep residuals (hence gradients) well away from
    # the finite-difference noise floor; the loss function is unchanged.
    rng = np.random.Generator(np.random.PCG64(seed))
    batch.targets = batch.targets + rng.normal(size=batch.targets.shape)
    build = training.make_loss_builder(batch, builder, "rk4")
    plist = mlp.param_list(params)
    atol = 0.0
    if floor:
        # slots with gradients below the central-difference resolution
        # (~ulp(loss)/h) are held to absolute agreement at that floor
        atol = 64.0 * np.finfo(float).eps * max(1.0, abs(build(None, plist))) / h
    return ad.grad_check(build, plist, h=h, sample=sample, seed=seed, atol=atol)
