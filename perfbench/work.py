"""One benchmark process: generate data, set up, or set up and run a workload.

``run.py`` starts each role in a fresh interpreter with the BLAS thread
count pinned, and reads the JSON this process writes to ``--out``.  The
package is driven only through public entry points: ``experiments.generate``,
``load_dataset``, ``rhs_builder_for`` and ``predict``, and ``training.train``
with its ``on_epoch`` callback.

Roles:
  generate  write the workload's training data, timing experiments.generate
  setup     imports, configs, data, right-hand side and one untimed warm-up
            unit, then exit; set-up time is measured from process spawn
  main      the same set-up, then the timed work, the correctness checks and,
            with --trace 1, a second traced pass of the same work
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# --seconds sets the amount of work, not a deadline, so both sides of a
# comparison do identical work: rates calibrated on a 2-core x86-64 box
# with one BLAS thread make one run take about --seconds there.
WORKLOADS = {
    "train-cd": {"kind": "train", "config": "cd-desk", "epochs_per_s": 7.0},
    # 10 of the config's 30 trajectories: an epoch samples 100 windows either
    # way, and generating all 30 would take 20 s of every run
    "train-l96": {"kind": "train", "config": "l96-desk", "epochs_per_s": 1.2,
                  "data": {"n_traj": 10}},
    "solve": {"kind": "solve", "configs": ("cd-desk", "burgers-desk"), "l96": "l96-desk",
              "passes_per_s": 0.25, "own_seed": ("burgers-desk",)},
}
MIN_EPOCHS = 3
PDE_VARIANTS = ("high", "low", "augmented", "discrete", "low2", "low3")

# Burgers keeps its config's seed: the p=1 rollouts at its timing dts blow up
# for about one initial condition in five (seeds 1, 13, 17 and 20 of 0-20).

# Small data for the self-test; the timed code paths are the same.
TINY = {
    "cd-desk": {"data": {"n_traj": 2, "t_final": 0.02}, "timing_t_final": 0.05},
    "burgers-desk": {"data": {"t_final": 0.05}, "timing_t_final": 0.05},
    "l96-desk": {"data": {"n_traj": 4, "spinup": 0.1, "t_final": 0.5},
                 "training": {"batch_size": 10}},
}


def import_sgnode():
    """The package modules, imported from the checkout's src/."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    names = ("autodiff", "config", "dg", "experiments", "lorenz96", "mlp", "ode", "training")
    mods = {n: importlib.import_module(f"sgnode.{n}") for n in names}
    mods["ad"] = mods.pop("autodiff")
    return types.SimpleNamespace(**mods)


def load_cfg(sg, name, seed, workdir, tiny=False, data=None):
    """Config `name` with `seed` as its data and training seed (None: its own)
    and `data` overriding entries of its data section."""
    cfg = sg.config.load_config(ROOT / "configs" / f"{name}.json", base_dir=workdir)
    if seed is not None:
        cfg.seed = seed
        cfg.training.seed = seed
    for k, v in (data or {}).items():
        setattr(cfg.data, k, v)
    if tiny:
        over = TINY[name]
        for k, v in over.get("data", {}).items():
            setattr(cfg.data, k, v)
        if "training" in over:
            cfg.training = dataclasses.replace(cfg.training, **over["training"])
        if "timing_t_final" in over:
            cfg.timing.t_final = over["timing_t_final"]
    return cfg


def provenance():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
    }


def git_sha():
    """HEAD of the checkout; None outside a git repository or without git."""
    # the ceiling keeps git from reporting a repository that encloses the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def history_hash(history):
    """Stable digest of a loss history, bit-exact in every float."""
    text = ";".join(f"{e},{tr!r},{te!r}" for e, tr, te in history)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def finite(x):
    return x is None or math.isfinite(x)


def tail_percentile(n):
    """Highest whole percentile with at least ten samples beyond it; None
    when that is below the median (fewer than 20 samples), as it is no tail."""
    return math.floor(100 * (n - 10) / n) if n >= 20 else None


# ---------------------------------------------------------------- training

def train_setup(sg, spec, seed, workdir, tiny):
    cfg = load_cfg(sg, spec["config"], seed, workdir, tiny, spec.get("data"))
    trajs = sg.experiments.load_dataset(cfg)
    d_in, d_out = sg.experiments.source_dims(cfg)
    builder = sg.experiments.rhs_builder_for(cfg)
    warm = sg.training.train(
        trajs, dataclasses.replace(cfg.training, epochs=1), builder, d_in, d_out
    )
    state = {"cfg": cfg, "trajs": trajs, "dims": (d_in, d_out), "builder": builder}
    return state, warm.history


def timed_train(sg, state, n_epochs):
    """Train n_epochs; per-epoch wall times from on_epoch timestamps."""
    tcfg = dataclasses.replace(state["cfg"].training, epochs=n_epochs)
    stamps, history = [], []

    def on_epoch(epoch, train_loss, test_loss):
        stamps.append(time.perf_counter())
        history.append((epoch, train_loss, test_loss))

    error = result = None
    start = time.perf_counter()
    try:
        result = sg.training.train(
            state["trajs"], tcfg, state["builder"], *state["dims"], on_epoch=on_epoch
        )
    except Exception as e:  # a unit that raises is counted as failed, not fatal
        error = f"{type(e).__name__}: {e}"
    edges = [start] + stamps
    epoch_s = [b - a for a, b in zip(edges, edges[1:])]
    return {"tcfg": tcfg, "result": result, "history": history, "epoch_s": epoch_s,
            "wall_s": edges[-1] - start, "error": error}


def tape_vs_untaped(sg, state, run, seed):
    """Taped node_loss and untaped rollout_loss_value on one batch and the
    trained parameters; they must agree to reassociation roundoff."""
    tcfg, trajs, builder = run["tcfg"], state["trajs"], state["builder"]
    train_rng, _ = sg.training.split_ranges(trajs, tcfg)
    batch = sg.training.sample_windows(trajs, tcfg, epoch_seed=[seed, 909], ranges=train_rng)
    params = run["result"].params
    taped, tape = sg.training.node_loss(params, batch, builder, tcfg.tableau)
    untaped = sg.training.rollout_loss_value(params, batch, builder, tcfg.tableau)
    ok = math.isfinite(taped) and abs(taped - untaped) <= 1e-12 * abs(untaped)
    return ok, {"taped": taped, "untaped": untaped}, tape


def run_train(sg, spec, seed, seconds, trace, workdir, tiny, spawn):
    state, warm = train_setup(sg, spec, seed, workdir, tiny)
    setup_s = time.monotonic() - spawn
    n_epochs = max(MIN_EPOCHS, round(seconds * spec["epochs_per_s"]))
    run = timed_train(sg, state, n_epochs)
    checks = {"warmup_hash": history_hash(warm)}
    failures = []

    bad = [e for e, tr, te in run["history"] if not (finite(tr) and finite(te))]
    failures += [f"epoch {e}: non-finite loss" for e in bad]
    n_missing = n_epochs - len(run["history"])
    if run["error"]:
        failures.append(f"training raised after {len(run['history'])} epochs: {run['error']}")
        failures += [f"epoch {len(run['history']) + 1 + i}: not run" for i in range(n_missing - 1)]
    attempted = n_epochs + 1
    tape_counts = {}
    if run["result"] is None:
        failures.append("tape check: no trained parameters")
    else:
        ok, values, tape = tape_vs_untaped(sg, state, run, seed)
        tape_counts = spans.tape_stats(tape)
        del tape  # ~780 MB on L96; not kept through the traced pass
        checks["tape_vs_untaped"] = values
        if not ok:
            failures.append(f"tape check: taped {values['taped']!r} != untaped {values['untaped']!r}")

    batch = state["cfg"].training.batch_size
    epoch_ms = [s * 1e3 for s in run["epoch_s"]]
    p_tail = tail_percentile(len(epoch_ms))
    tail = float(np.percentile(epoch_ms, p_tail)) if p_tail else None
    out = {
        "setup_s": setup_s,
        "work_s": run["wall_s"],
        "detail": {
            "windows_per_s": batch * len(epoch_ms) / run["wall_s"] if epoch_ms else None,
            "epochs": len(epoch_ms),
            "batch": batch,
            "epoch_ms_p50": statistics.median(epoch_ms) if epoch_ms else None,
            "epoch_ms_tail": tail,
            "epoch_tail_percentile": p_tail,
            "epoch_tail_beyond": sum(t > tail for t in epoch_ms) if tail else 0,
            "history_hash": history_hash(run["history"]),
        },
        "checks": checks,
    }

    if trace:
        tracer = spans.Tracer()
        undo = spans.instrument(tracer, sg)
        try:
            sg.experiments.load_dataset(state["cfg"])
            traced_state = dict(state, builder=sg.experiments.rhs_builder_for(state["cfg"]))
            traced = tracer.wrap("work", timed_train)(sg, traced_state, n_epochs)
        finally:
            undo()
        attempted += 1
        if history_hash(traced["history"]) != out["detail"]["history_hash"]:
            failures.append("traced repeat: loss history differs from the untraced run")
        layers = spans.layer_metrics(tracer, "work")
        layers.update(tape_counts)
        layers["trace.overhead_pct"] = 100.0 * (traced["wall_s"] - run["wall_s"]) / run["wall_s"]
        out["per_layer"] = layers
        out["spans"] = tracer.table()
    out["attempted"] = attempted
    out["failures"] = failures
    return out


# ---------------------------------------------------------------- solve

def solve_setup(sg, spec, seed, workdir, tiny):
    cfgs = [
        load_cfg(sg, name, None if name in spec["own_seed"] else seed, workdir, tiny)
        for name in spec["configs"]
    ]
    l96 = load_cfg(sg, spec["l96"], seed, workdir, tiny)
    lcfg = sg.experiments.l96_config(l96.model)
    # a spun-up two-scale state as the L96 initial condition
    z0 = sg.lorenz96.generate_truth(
        lcfg, 1, l96.data.dt, l96.data.spinup, 0.0, seed=seed
    )[0].states[0]
    cd = cfgs[0]
    _, mesh_l = sg.experiments.pde_meshes(cd.model)
    d = mesh_l.n_dof
    warm = sg.experiments.predict(
        cd, sg.mlp.zero_params(d, d), sg.dg.cd_initial_condition(mesh_l, 0.25).flat,
        cd.timing.dts["low"], 10, "low",
    )
    return {"cfgs": cfgs, "l96": l96, "z0": z0, "K": lcfg.K}, [(0, float(warm.states[-1].sum()), None)]


def rollout_plan(sg, state):
    """(label, cfg, params, u0, dt, n_steps, variant) for one pass.

    The augmented, discrete and slow variants use a zero source net: their
    cost does not depend on the weights, and a zero net is stable wherever
    the plain low-order solver is.  The discrete variant has no timing dt of
    its own and runs at the augmented one.
    """
    plan = []
    for cfg in state["cfgs"]:
        ref = sg.experiments.load_dataset(cfg)[0]
        truth = sg.experiments.load_dataset(cfg, kind="truth")[0]
        d = sg.experiments.source_dims(cfg)[0]
        zero = sg.mlp.zero_params(d, d)
        for v in PDE_VARIANTS:
            dt = cfg.timing.dts.get(v, cfg.timing.dts["augmented"])
            u0 = sg.experiments.variant_initial_state(cfg, v, ref, truth)
            n = int(round(cfg.timing.t_final / dt))
            plan.append((f"{cfg.experiment}.{v}", cfg, zero, u0, dt, n, v))
    l96, z0, K = state["l96"], state["z0"], state["K"]
    pred = l96.prediction
    plan.append(("l96.slow", l96, sg.mlp.zero_params(1, 1), z0[:K], pred.dt,
                 int(round(pred.t_final / pred.dt)), "slow"))
    plan.append(("l96.high", l96, None, z0, l96.data.dt,
                 int(round(pred.t_final / l96.data.dt)), "high"))
    return plan


def manifest_failures(sg, cfg):
    """Reload every generated file, write it back out, and compare the bytes'
    sha256 with the manifest's.  Returns (files checked, failure messages)."""
    out = Path(cfg.out_dir)
    manifest = json.loads((out / "manifest.json").read_text())
    failures = []
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        for entry in manifest["files"]:
            copy = Path(tmp) / entry["name"]
            try:
                sg.ode.save_trajectory(sg.ode.load_trajectory(out / entry["name"]), copy)
                digest = hashlib.sha256(copy.read_bytes()).hexdigest()
            except Exception as e:  # a file that fails to reload is a failed check
                failures.append(f"{entry['name']}: {type(e).__name__}: {e}")
                continue
            if digest != entry["sha256"]:
                failures.append(f"{entry['name']}: sha256 differs after reload")
    return len(manifest["files"]), failures


def solve_work(sg, state, n_passes):
    """Generate the PDE data, then n_passes over every rollout."""
    failures, attempted = [], 0
    start = time.perf_counter()
    for cfg in state["cfgs"]:
        attempted += 1
        try:
            sg.experiments.generate(cfg)
        except Exception as e:  # counted as a failed unit
            failures.append(f"generate {cfg.experiment}: {type(e).__name__}: {e}")
    generate_s = time.perf_counter() - start
    if failures:
        return {"generate_s": generate_s, "passes": [], "failures": failures,
                "attempted": attempted, "wall_s": generate_s}
    plan = rollout_plan(sg, state)
    passes = []
    for _ in range(n_passes):
        times = {}
        for label, cfg, params, u0, dt, n, variant in plan:
            attempted += 1
            t = time.perf_counter()
            try:
                traj = sg.experiments.predict(cfg, params, u0, dt, n, variant)
            except Exception as e:  # BlowupError and anything else: failed unit
                failures.append(f"{label}: {type(e).__name__}: {e}")
                continue
            times[label] = time.perf_counter() - t
            if not np.all(np.isfinite(traj.states)):
                failures.append(f"{label}: non-finite states")
        passes.append(times)
    return {"generate_s": generate_s, "passes": passes, "failures": failures,
            "attempted": attempted, "wall_s": time.perf_counter() - start}


def pass_sums(passes):
    high = [sum(t for k, t in p.items() if k.endswith(".high")) for p in passes]
    low = [sum(t for k, t in p.items() if not k.endswith(".high")) for p in passes]
    return high, low


def run_solve(sg, spec, seed, seconds, trace, workdir, tiny, spawn):
    state, warm = solve_setup(sg, spec, seed, workdir, tiny)
    setup_s = time.monotonic() - spawn
    n_passes = max(1, round(seconds * spec["passes_per_s"]))
    work = solve_work(sg, state, n_passes)
    failures, attempted = list(work["failures"]), work["attempted"]
    for cfg in state["cfgs"]:
        n, bad = manifest_failures(sg, cfg)
        attempted += n
        failures += bad
    high, low = pass_sums(work["passes"])
    out = {
        "setup_s": setup_s,
        "work_s": work["wall_s"],
        "detail": {
            "generate_s": work["generate_s"],
            "predict_high_s": statistics.median(high) if high else None,
            "predict_low_s": statistics.median(low) if low else None,
            "passes": len(work["passes"]),
            "rollouts_per_pass": len(work["passes"][0]) if work["passes"] else 0,
        },
        "checks": {"warmup_hash": history_hash(warm)},
    }
    if trace:
        tracer = spans.Tracer()
        undo = spans.instrument(tracer, sg)
        try:
            traced = tracer.wrap("work", solve_work)(sg, state, n_passes)
        finally:
            undo()
        attempted += traced["attempted"]
        failures += traced["failures"]
        layers = spans.layer_metrics(tracer, "work")
        layers["trace.overhead_pct"] = 100.0 * (traced["wall_s"] - work["wall_s"]) / work["wall_s"]
        out["per_layer"] = layers
        out["spans"] = tracer.table()
    out["attempted"] = attempted
    out["failures"] = failures
    return out


# ---------------------------------------------------------------- roles

def role_generate(sg, spec, seed, workdir, tiny):
    sg.experiments.generate(load_cfg(sg, spec["config"], seed, workdir, tiny, spec.get("data")))
    return {}


def role_setup(sg, spec, seed, workdir, tiny, spawn):
    setup = train_setup if spec["kind"] == "train" else solve_setup
    _, warm = setup(sg, spec, seed, workdir, tiny)
    return {"setup_s": time.monotonic() - spawn, "checks": {"warmup_hash": history_hash(warm)}}


def role_main(sg, spec, seed, seconds, trace, workdir, tiny, spawn):
    run = run_train if spec["kind"] == "train" else run_solve
    out = run(sg, spec, seed, seconds, trace, workdir, tiny, spawn)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["provenance"] = provenance()
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--role", choices=("generate", "setup", "main"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spawn", type=float, required=True,
                   help="time.monotonic() of the parent just before it started this process")
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--out", required=True)
    a = p.parse_args(argv)
    sg = import_sgnode()
    spec = WORKLOADS[a.workload]
    if a.role == "generate":
        res = role_generate(sg, spec, a.seed, a.workdir, a.tiny)
    elif a.role == "setup":
        res = role_setup(sg, spec, a.seed, a.workdir, a.tiny, a.spawn)
    else:
        res = role_main(sg, spec, a.seed, a.seconds, a.trace, a.workdir, a.tiny, a.spawn)
    Path(a.out).write_text(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
