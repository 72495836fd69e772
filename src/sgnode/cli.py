"""Command-line entry point: generate | train | predict | evaluate | sweep | time | gradcheck.

Every command reads one JSON run configuration (see config.py) and writes
its artifacts under the configured output directory.  Exit codes: 0 on
success, 2 for configuration errors, 3 for numerical blowups, 4 for I/O
problems, 5 when memory runs out.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from pathlib import Path

from . import diagnostics, dg, experiments, mlp, training
from .config import check_variant, load_config
from .errors import BlowupError, ConfigError, FormatError
from .ode import load_trajectory, save_trajectory


def _load(args):
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
        for tcfg in filter(None, (cfg.training, cfg.training_discrete)):
            tcfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = Path(args.out)
    return cfg


def _positive(kind):
    """argparse type: a finite `kind` above zero."""
    def parse(text):
        try:
            value = kind(text)
            if math.isfinite(value) and value > 0:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive {kind.__name__}")

    return parse


def _seed(text):
    """argparse type: a seed, an integer >= 0 as the config's seeds are."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"{text!r} is not a non-negative integer")


def _positive_floats(text):
    """argparse type: a comma-separated list of positive floats."""
    return [_positive(float)(x) for x in text.split(",")]


def _pick(trajs, index):
    """trajs[index] for a --traj-index, which must lie in 0..n-1."""
    if not 0 <= index < len(trajs):
        raise ConfigError(
            f"--traj-index {index} is out of range: the dataset has {len(trajs)} "
            f"trajectories, 0..{len(trajs) - 1}"
        )
    return trajs[index]


def cmd_generate(args):
    cfg = _load(args)
    manifest = experiments.generate(cfg)
    print(f"wrote {len(manifest.files)} trajectories to {cfg.out_dir}")
    return 0


def cmd_train(args):
    cfg = _load(args)
    if args.discrete and cfg.experiment == "l96":
        raise ConfigError("the discrete post-correction baseline is PDE-only")
    trajs = experiments.load_dataset(cfg)
    experiments.check_open_files(cfg, len(trajs))  # training holds every file open
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    tag = "discrete" if args.discrete else "continuous"

    d_in, d_out = experiments.source_dims(cfg)
    init = experiments.load_net(cfg, args.resume) if args.resume else None

    def on_epoch(epoch, train_loss, test_loss):
        if args.verbose and (epoch % 50 == 0 or epoch == 1):
            msg = f"epoch {epoch}: train {train_loss:.6e}"
            if test_loss is not None:
                msg += f" test {test_loss:.6e}"
            print(msg, flush=True)

    def on_checkpoint(epoch, params):
        mlp.save_params(params, out / f"checkpoint_{tag}_{epoch:06d}.sgnp")

    if args.discrete:
        result = experiments.train_discrete(
            cfg, trajs, init=init, on_epoch=on_epoch, on_checkpoint=on_checkpoint
        )
    else:
        result = training.train(
            trajs, cfg.training, experiments.rhs_builder_for(cfg), d_in, d_out,
            init=init, on_epoch=on_epoch, on_checkpoint=on_checkpoint,
        )
    ckpt = out / f"checkpoint_{tag}.sgnp"
    mlp.save_params(result.params, ckpt)
    tcfg = cfg.training_discrete if args.discrete else cfg.training
    sidecar = {"experiment": cfg.experiment, "training": dataclasses.asdict(tcfg),
               "variant": tag, "epochs_completed": len(result.history)}
    (out / f"checkpoint_{tag}.json").write_text(json.dumps(sidecar, indent=2))
    loss_path = out / f"loss_{tag}.csv"
    diagnostics.write_csv(loss_path, ("epoch", "train_loss", "test_loss"), result.history)
    print(f"wrote {ckpt} and {loss_path}")
    return 0


def cmd_predict(args):
    cfg = _load(args)
    variant = args.variant or cfg.prediction.variant
    check_variant(cfg.experiment, variant, "--variant")
    dt = args.dt_override
    if dt is None:
        dt = experiments.prediction_dt(cfg, variant)
    ref = _pick(experiments.load_dataset(cfg), args.traj_index)
    truth = None
    if variant == "high" and cfg.experiment != "l96":
        truth = _pick(experiments.load_dataset(cfg, kind="truth"), args.traj_index)
    params = None
    if variant in ("augmented", "discrete", "slow"):
        if not args.checkpoint:
            raise ConfigError(f"variant {variant!r} needs --checkpoint")
        params = experiments.load_net(cfg, args.checkpoint)
    u0 = experiments.variant_initial_state(cfg, variant, ref, truth)
    n_steps = int(round(cfg.prediction.t_final / dt))
    traj = experiments.predict(cfg, params, u0, dt, n_steps, variant)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / (args.name or f"pred_{variant}.sgnt")
    save_trajectory(traj, path)
    print(f"wrote {path} ({len(traj)} states at dt={dt})")
    return 0


def cmd_evaluate(args):
    cfg = _load(args)
    pred = load_trajectory(args.pred)
    ref = load_trajectory(args.ref)
    mesh_h = mesh_l = None
    if cfg.experiment == "l96":
        lcfg = experiments.l96_config(cfg.model)
        dims = (lcfg.K, lcfg.K * (lcfg.J + 1))  # the slow variables, or all
    else:
        mesh_h, mesh_l = experiments.pde_meshes(cfg.model)
        dims = (mesh_l.n_dof, mesh_h.n_dof)
    for flag, traj in (("--pred", pred), ("--ref", ref)):
        if traj.dim not in dims:
            raise ConfigError(
                f"{flag} has state dimension {traj.dim}; a {cfg.experiment} run's "
                f"states have {' or '.join(map(str, dims))}"
            )
    if mesh_h is not None:
        # high-order states are compared as generate filters them
        pred, ref = (
            dataclasses.replace(tr, states=dg.project_states(mesh_h, tr.states, mesh_l.order))
            if tr.dim == mesh_h.n_dof else tr
            for tr in (pred, ref)
        )
    if ref.dim > pred.dim:  # the slow-only prediction against the full truth
        ref = dataclasses.replace(ref, states=ref.states[:, :pred.dim])
    if ref.dim != pred.dim:
        raise ConfigError(f"--pred has state dimension {pred.dim} but --ref has {ref.dim}")
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
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
        n = 64 if mesh_l.order == 1 else 512
        for label, traj in (("pred", pred), ("ref", ref)):
            spec = diagnostics.energy_spectrum(mesh_l, traj.states[-1], n)
            spath = out / f"spectrum_{label}.csv"
            diagnostics.write_spectrum(spec, spath)
            print(f"wrote {spath}")
    return 0


def cmd_sweep(args):
    cfg = _load(args)
    if cfg.experiment == "l96":
        raise ConfigError("the timestep sweep is defined for the PDE experiments")
    ref = _pick(experiments.load_dataset(cfg), args.traj_index).load()
    params_c = experiments.load_net(cfg, args.checkpoint)
    params_d = experiments.load_net(cfg, args.checkpoint_discrete)
    for dt in args.dts:
        try:
            _, sr = diagnostics.strides(dt, ref.dt)
        except ConfigError as e:
            raise ConfigError(f"--dts entry {dt:g} does not align with the data: {e}") from e
        shared = ref.times[::sr]  # the times a run at dt shares with the reference
        for t in args.times:
            if abs(shared - t).min() > 1e-9 + 1e-6 * dt:
                raise ConfigError(f"--times entry {t:g} is not a time that a run at --dts entry "
                                  f"{dt:g} shares with the data: those are {shared[0]:g} to "
                                  f"{shared[-1]:g} every {sr * ref.dt:g}")
    rows = experiments.timestep_sweep(cfg, params_c, params_d, ref, args.dts, args.times)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "sweep.csv"
    diagnostics.write_csv(path, ("method", "dt", "t", "rel_error"), rows)
    print(f"wrote {path}")
    return 0


def cmd_time(args):
    cfg = _load(args)
    if cfg.experiment == "l96":
        raise ConfigError("timing variants are defined for the PDE experiments")
    ref = _pick(experiments.load_dataset(cfg), args.traj_index)
    truth = None
    if "high" in cfg.timing.dts:
        truth = _pick(experiments.load_dataset(cfg, kind="truth"), args.traj_index)
    if args.checkpoint:
        params = experiments.load_net(cfg, args.checkpoint)
    else:
        # cost of the augmented solver is weight-independent; a zero net has
        # the identical instruction stream and is stable wherever the plain
        # low-order solver is
        params = mlp.zero_params(*experiments.source_dims(cfg))
        print("no --checkpoint given; timing the source net with zero weights")
    rows = experiments.run_timings(cfg, ref, truth, params)
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    path = cfg.out_dir / "timings.csv"
    diagnostics.write_csv(path, ("variant", "dt", "first_ms", "warm_median_ms", "first_cpu_ms",
                                 "warm_median_cpu_ms"), rows)
    print(f"wrote {path}")
    for v, dt, first, warm, first_cpu, warm_cpu in rows:
        print(f"  {v:10s} dt={dt:<8g} first {first:8.2f} ms   warm median {warm:8.2f} ms"
              f"   cpu: first {first_cpu:8.2f} ms   warm median {warm_cpu:8.2f} ms")
    return 0


def cmd_gradcheck(args):
    cfg = _load(args)
    err = experiments.run_gradcheck(cfg.experiment, seed=cfg.seed, sample=args.sample)
    print(f"{cfg.experiment}: max relative gradient error {err:.3e}")
    if err >= args.tolerance:
        print(f"exceeds tolerance {args.tolerance}", file=sys.stderr)
        return 3
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sgnode",
        description="Learn continuous subgrid source terms through differentiable ERK solvers",
        epilog="exit codes: 0 success, 2 configuration error, 3 numerical blowup, "
        "4 I/O error, 5 out of memory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the config seed and both training seeds")
        p.add_argument("--out", default=None, help="run directory instead of the config's out_dir: "
                       "outputs are written there, and manifest.json and the dataset read from it")

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
    p.add_argument("--dt-override", type=_positive(float), default=None,
                   help="step size (default: prediction.dt, or a PDE variant's smaller "
                   "timing.dts entry; data.dt for a full l96 state)")
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
    p.add_argument("--dts", type=_positive_floats, default="1e-4,2e-4,5e-4,1e-3,2e-3",
                   help="comma-separated timesteps")
    p.add_argument("--times", type=_positive_floats, default="0.5,1.0",
                   help="comma-separated evaluation times")
    p.add_argument("--traj-index", type=int, default=0)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("time", help="wall-clock comparison of prediction variants")
    common(p)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--traj-index", type=int, default=0)
    p.set_defaults(fn=cmd_time)

    p = sub.add_parser(
        "gradcheck", help="finite-difference check of the training gradient",
        description="Check the training gradient against finite differences on the fixed "
        "small problem of the config's experiment (experiments.window_problem), not on the "
        "config's model or data, in long double at h = 1e-6 with no floor; print the "
        "worst relative error, which --tolerance gates.",
    )
    common(p)
    p.add_argument("--sample", type=_positive(int), default=64, help="entries checked per tensor")
    p.add_argument("--tolerance", type=_positive(float), default=1e-2,
                   help="the error must be below this")
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
    except MemoryError as e:
        print(f"out of memory: sgnode {args.command} stopped: {str(e) or type(e).__name__}",
              file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
