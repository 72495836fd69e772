"""Command-line entry point: generate | train | predict | evaluate | sweep | time | gradcheck.

Every command reads one JSON run configuration (see config.py) and writes
its artifacts under the configured output directory.  Exit codes: 0 on
success, 2 for configuration errors, 3 for numerical blowups, 4 for I/O
problems.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time as _time
from pathlib import Path

import numpy as np

from . import diagnostics, dg, experiments, mlp, training
from .config import load_config
from .errors import BlowupError, ConfigError, FormatError
from .ode import get_tableau, integrate, load_trajectory, save_trajectory


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.training.seed = args.seed
        cfg.training_discrete.seed = args.seed
    if args.out is not None:
        cfg.out_dir = Path(args.out)
    return cfg


def cmd_generate(args):
    cfg = _load(args)
    manifest = experiments.generate(cfg)
    print(f"wrote {len(manifest['files'])} trajectories to {cfg.out_dir}")
    return 0


def cmd_train(args):
    cfg = _load(args)
    trajs = experiments.load_dataset(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tag = "discrete" if args.discrete else "continuous"

    d_in, d_out = experiments.source_dims(cfg)
    init = None
    if args.resume:
        init = mlp.load_params(args.resume)
        mlp.require_dims(init, d_in, d_out)

    def on_epoch(epoch, train_loss, test_loss):
        if args.verbose and (epoch % 50 == 0 or epoch == 1):
            msg = f"epoch {epoch}: train {train_loss:.6e}"
            if test_loss is not None:
                msg += f" test {test_loss:.6e}"
            print(msg, flush=True)

    if args.discrete:
        result = experiments.train_discrete(cfg, trajs, init=init, on_epoch=on_epoch)
    else:
        result = training.train(
            trajs, cfg.training, experiments.rhs_builder_for(cfg), d_in, d_out,
            init=init, on_epoch=on_epoch,
        )
    ckpt = out / f"checkpoint_{tag}.sgnp"
    mlp.save_params(result.params, ckpt)
    sidecar = {"experiment": cfg.experiment, "training": cfg.training.to_dict(),
               "variant": tag, "epochs_completed": len(result.history)}
    (out / f"checkpoint_{tag}.json").write_text(json.dumps(sidecar, indent=2))
    for epoch, params in result.checkpoints:
        mlp.save_params(params, out / f"checkpoint_{tag}_{epoch:06d}.sgnp")
    loss_path = out / f"loss_{tag}.csv"
    loss_path.write_text("\n".join(training.loss_history_rows(result.history)) + "\n")
    print(f"wrote {ckpt} and {loss_path}")
    return 0


def cmd_predict(args):
    cfg = _load(args)
    variant = args.variant or cfg.prediction.variant
    dt = args.dt_override or cfg.prediction.dt
    trajs = experiments.load_dataset(cfg)
    ref = trajs[args.traj_index]
    truth = None
    if variant == "high" and cfg.experiment != "l96":
        truth = experiments.load_dataset(cfg, kind="truth")[args.traj_index]
    params = None
    if variant in ("augmented", "discrete", "slow"):
        if not args.checkpoint:
            raise ConfigError(f"variant {variant!r} needs --checkpoint")
        params = mlp.load_params(args.checkpoint)
        if cfg.experiment != "l96":
            d = experiments.source_dims(cfg)[0]
            mlp.require_dims(params, d, d)
    u0 = experiments.variant_initial_state(cfg, variant, ref, truth)
    n_steps = int(round(cfg.prediction.t_final / dt))
    traj = experiments.predict(cfg, params, u0, dt, n_steps, variant)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / (args.name or f"pred_{variant}.sgnt")
    save_trajectory(traj, path)
    print(f"wrote {path} ({len(traj)} states at dt={dt})")
    return 0


def cmd_evaluate(args):
    cfg = _load(args)
    pred = load_trajectory(args.pred)
    ref = load_trajectory(args.ref)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mesh_l = None
    if cfg.experiment == "l96":
        if ref.dim > pred.dim:  # the slow-only prediction against the full truth
            k = experiments.l96_config(cfg.model).K
            ref = dataclasses.replace(ref, states=ref.states[:, :k])
    else:
        _, mesh_l = experiments.pde_meshes(cfg.model)
    rep = diagnostics.compare_fields(pred, ref, mesh_l)
    err_path = out / "errors.csv"
    diagnostics.write_error_report(rep, err_path)
    print(f"wrote {err_path}; max L2 {rep.max_l2:.6g}, max rel {rep.max_rel:.6g}")
    if args.xt:
        for label, traj in (("pred", pred), ("ref", ref)):
            xt_path = out / f"xt_{label}.csv"
            diagnostics.export_xt(traj, xt_path, mesh=mesh_l)
            print(f"wrote {xt_path}")
    if cfg.experiment == "burgers":
        n = 64 if experiments.pde_meshes(cfg.model)[1].order == 1 else 512
        for label, traj in (("pred", pred), ("ref", ref)):
            f = dg.field_from_flat(mesh_l, traj.states[-1])
            spath = out / f"spectrum_{label}.csv"
            diagnostics.write_spectrum(diagnostics.energy_spectrum(f, n), spath)
            print(f"wrote {spath}")
    return 0


def cmd_sweep(args):
    cfg = _load(args)
    if cfg.experiment == "l96":
        raise ConfigError("the timestep sweep is defined for the PDE experiments")
    trajs = experiments.load_dataset(cfg)
    ref = trajs[args.traj_index]
    pcfg = experiments.pde_config(cfg.experiment, cfg.model)
    _, mesh_l = experiments.pde_meshes(cfg.model)
    params_c = mlp.load_params(args.checkpoint)
    params_d = mlp.load_params(args.checkpoint_discrete)
    dts = [float(x) for x in args.dts.split(",")]
    times = [float(x) for x in args.times.split(",")]
    rows = diagnostics.timestep_sweep(
        pcfg, mesh_l, params_c, params_d, ref, dts, times,
        tableau=cfg.prediction.tableau,
    )
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "sweep.csv"
    diagnostics.write_sweep(rows, path)
    print(f"wrote {path}")
    return 0


def cmd_time(args):
    cfg = _load(args)
    if cfg.experiment == "l96":
        raise ConfigError("timing variants are defined for the PDE experiments")
    trajs = experiments.load_dataset(cfg)
    ref = trajs[args.traj_index]
    truth = experiments.load_dataset(cfg, kind="truth")[args.traj_index]
    if args.checkpoint:
        params = mlp.load_params(args.checkpoint)
    else:
        # cost of the augmented solver is weight-independent; a zero net has
        # the identical instruction stream and is stable wherever the plain
        # low-order solver is
        d = experiments.source_dims(cfg)[0]
        params = mlp.zero_params(d, d)
        print("no --checkpoint given; timing the source net with zero weights")
    rows = run_timings(cfg, ref, truth, params)
    out = Path(args.out or cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "timings.csv"
    with open(path, "w") as f:
        f.write("variant,dt,first_ms,warm_median_ms\n")
        for v, dt, first, warm in rows:
            f.write(f"{v},{dt:.17g},{first:.17g},{warm:.17g}\n")
    print(f"wrote {path}")
    for v, dt, first, warm in rows:
        print(f"  {v:10s} dt={dt:<8g} first {first:8.2f} ms   warm median {warm:8.2f} ms")
    return 0


def run_timings(cfg, ref, truth, params, variants=None):
    """Median-of-repeats wall times per prediction variant at its stable dt."""
    tcfg = cfg.timing
    cfg = dataclasses.replace(
        cfg, prediction=dataclasses.replace(cfg.prediction, tableau=tcfg.tableau)
    )
    rows = []
    for variant in variants or ("high", "low", "augmented", "low2", "low3"):
        if variant not in tcfg.dts:
            continue
        dt = tcfg.dts[variant]
        u0 = experiments.variant_initial_state(cfg, variant, ref, truth)
        n_steps = int(round(tcfg.t_final / dt))
        times = []
        for _ in range(tcfg.repeats + 1):
            t0 = _time.perf_counter()
            experiments.predict(cfg, params, u0, dt, n_steps, variant)
            times.append((_time.perf_counter() - t0) * 1e3)
        rows.append((variant, dt, times[0], float(np.median(times[1:]))))
    return rows


def cmd_gradcheck(args):
    cfg = _load(args)
    err = run_gradcheck(cfg.experiment, seed=cfg.seed, sample=args.sample)
    print(f"{cfg.experiment}: max relative gradient error {err:.3e}")
    if err >= args.tolerance:
        print(f"exceeds tolerance {args.tolerance}", file=sys.stderr)
        return 3
    return 0


def run_gradcheck(experiment, seed=0, sample=64, h=1e-5):
    """Finite-difference check of a small windowed loss for one experiment."""
    from . import lorenz96

    rng = np.random.Generator(np.random.PCG64(seed))
    if experiment == "l96":
        lcfg = lorenz96.L96Config(K=8, J=4)
        trajs = lorenz96.generate_truth(lcfg, 1, 0.005, 1.0, 0.25, seed=seed)
        params = mlp.init_params(*lcfg.source_dims, seed=seed)
        builder = lambda ws, bs: lorenz96.rhs_coupled_neural(lcfg, ws, bs)
        dt = 0.005
        trajs_use = trajs
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
        tr = integrate(get_tableau("rk4"), rhs, u0.flat, 0.0, dt, 8)
        trajs_use = [tr]
        params = mlp.init_params(mesh.n_dof, mesh.n_dof, seed=seed)
        builder = lambda ws, bs: training.augmented(rhs, ws, bs)

    tcfg = training.TrainConfig(
        epochs=1, batch_size=4, window=2, dt=dt, tableau="rk4", seed=seed, split=1.0
    )
    batch = training.sample_windows(trajs_use, tcfg, epoch_seed=[seed, 7])
    # O(1) target perturbations keep residuals (hence gradients) well away from
    # the finite-difference noise floor; the loss function is unchanged.
    batch.targets = batch.targets + rng.normal(size=batch.targets.shape)
    build = training.make_loss_builder(batch, builder, "rk4")

    from . import autodiff as ad

    loss, tape = ad.record(build, mlp.param_list(params))
    # slots with gradients below the central-difference resolution
    # (~ulp(loss)/h) are held to absolute agreement at that floor
    atol = 64.0 * np.finfo(float).eps * max(1.0, abs(loss)) / h
    return ad.grad_check(
        build, mlp.param_list(params), h=h, sample=sample, seed=seed, atol=atol
    )


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sgnode",
        description="Learn continuous subgrid source terms through differentiable ERK solvers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed and both training seeds")
        p.add_argument("--out", default=None, help="override output directory")

    p = sub.add_parser("generate", help="write reference/filtered trajectories")
    common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="train the continuous source (or --discrete baseline)")
    common(p)
    p.add_argument("--discrete", action="store_true")
    p.add_argument("--resume", default=None,
                   help="checkpoint to continue from (also with --discrete)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("predict", help="roll out a prediction variant")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--dt-override", type=float, default=None)
    p.add_argument("--traj-index", type=int, default=0)
    p.add_argument("--name", default=None, help="output file name")
    p.set_defaults(fn=cmd_predict)

    p = sub.add_parser("evaluate", help="error report (and spectra for burgers)")
    common(p)
    p.add_argument("--pred", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--xt", action="store_true", help="also export space-time CSVs")
    p.set_defaults(fn=cmd_evaluate)

    p = sub.add_parser("sweep", help="timestep sensitivity of both corrections")
    common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--checkpoint-discrete", required=True)
    p.add_argument("--dts", default="1e-4,2e-4,5e-4,1e-3,2e-3")
    p.add_argument("--times", default="0.5,1.0")
    p.add_argument("--traj-index", type=int, default=0)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("time", help="wall-clock comparison of prediction variants")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--traj-index", type=int, default=0)
    p.set_defaults(fn=cmd_time)

    p = sub.add_parser("gradcheck", help="finite-difference check of the training gradient")
    common(p)
    p.add_argument("--sample", type=int, default=64, help="entries checked per tensor")
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(fn=cmd_gradcheck)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except BlowupError as e:
        print(f"numerical blowup: {e}", file=sys.stderr)
        return 3
    except (FormatError, OSError) as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
