"""Wiring between run configurations and the core modules.

Each experiment knows how to build its meshes/right-hand sides, generate and
filter reference data, build the source-augmented right-hand side that
training differentiates through, train the discrete post-correction
baseline, and roll out every prediction variant.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from . import dg, lorenz96, mlp, training
from .errors import ConfigError
from .ode import Trajectory, integrate, get_tableau, load_trajectory, save_trajectory


def l96_config(model):
    return lorenz96.L96Config(
        K=model["K"], J=model["J"], c=model["c"], h=model["h"], F=model["F"],
        source_scope=model["source_scope"],
    )


def pde_config(experiment, model):
    kind = dg.VISCOUS_BURGERS if experiment == "burgers" else dg.CONVECTION_DIFFUSION
    return dg.PdeConfig(kind=kind, kappa=model["kappa"], a=model["a"])


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


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


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
        pcfg = pde_config(cfg.experiment, cfg.model)
        mesh_h, mesh_l = pde_meshes(cfg.model)
        rhs_h = dg.rhs_semidiscrete(pcfg, mesh_h)
        rng = np.random.Generator(np.random.PCG64(cfg.seed))
        n_steps = int(round(cfg.data.t_final / cfg.data.dt))
        for i in range(cfg.data.n_traj):
            if cfg.experiment == "cd":
                phase = float(rng.uniform(0.0, 1.0))
                u0 = dg.cd_initial_condition(mesh_h, phase)
                meta = {"model": "cd", "phi": repr(phase)}
            else:
                u0 = dg.burgulence_initial_condition(
                    mesh_h, cfg.model["k0"], cfg.model["n_synth"], seed=cfg.seed + i
                )
                meta = {"model": "burgers", "k0": str(cfg.model["k0"])}
            meta.update(
                p=str(mesh_h.order), n_elem=str(mesh_h.n_elem),
                a=repr(pcfg.a), kappa=repr(pcfg.kappa),
            )
            traj = integrate(
                get_tableau("rk4"), rhs_h, u0.flat, 0.0, cfg.data.dt, n_steps, meta=meta
            )
            filtered = Trajectory(
                t0=0.0, dt=cfg.data.dt,
                states=dg.project_states(mesh_h, traj.states, mesh_l.order),
                meta={**meta, "p": str(mesh_l.order), "filtered": "true"},
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
        trajs, tcfg.dt, rhs_l, "rk4", ranges=train_rng
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
