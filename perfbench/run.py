"""sgnode benchmark: train-cd, train-l96 and solve.

    python3 perfbench/run.py --workload train-cd --seed 1 --seconds 12 --trace 0

Runs one workload from the root of a checkout and prints one line per
metric, then, as the last line, a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they are the
per-layer ones, from a traced second pass of the same work.
``--workload all`` runs the three workloads in turn.

Every process of the workload is a fresh interpreter with BLAS pinned to
one thread.  On the 2-core reference box, 2 OpenBLAS threads made the
first L96 ``slow`` rollout take 1.05 s against 0.023 s, and CD losses after
20 epochs differ in their last bit between the two thread counts.

The processes of one run:

  1. train-*: a ``generate`` process writes the training data (untimed);
  2. SETUP_SAMPLES - 1 ``setup`` processes set up and stop;
  3. the ``main`` process sets up, then runs the timed work and the checks.

set-up time is the median over the main and setup processes.  Their
warm-up losses must be bit-identical: one unit of the failure count.
Scratch data lives under perfbench/_work/ and is removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from work import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
PINNED = {k: "1" for k in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child(role, args, workdir, deadline):
    out = workdir / f"{role}-{time.monotonic_ns()}.json"
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0", **PINNED)
    cmd = [
        sys.executable, str(HERE / "work.py"), "--role", role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir), "--out", str(out),
    ] + (["--tiny"] if args.tiny else [])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"out of time before the {role} process")
    # stdout of the children goes to stderr: the last stdout line is ours
    spawn = time.monotonic()
    proc = subprocess.run(cmd + ["--spawn", repr(spawn)], cwd=ROOT, env=env,
                          stdout=sys.stderr, timeout=remaining)
    if proc.returncode != 0:
        raise BenchError(f"{role} process exited with {proc.returncode}")
    return json.loads(out.read_text())


def run_workload(args):
    """Run every process of one workload; returns the combined record."""
    if not (ROOT / "src" / "sgnode").is_dir() or not (ROOT / "configs").is_dir():
        raise BenchError(f"no sgnode sources under {ROOT}")
    deadline = time.monotonic() + DEADLINE_S
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.workload != "solve":
            child("generate", args, workdir, deadline)
        setups = [child("setup", args, workdir, deadline) for _ in range(SETUP_SAMPLES - 1)]
        main = child("main", args, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (HERE / "_work").rmdir()
        except OSError:
            pass  # another run still uses it

    failures = list(main["failures"])
    hashes = {s["checks"]["warmup_hash"] for s in setups + [main]}
    if len(hashes) != 1:
        failures.append(f"warm-up losses differ between processes: {sorted(hashes)}")
    setup_samples = [s["setup_s"] for s in setups + [main]]
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "work_s": main["work_s"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": main["attempted"] + 1,
        "failed": len(failures),
        "failures": failures,
        "end_to_end": e2e,
        "setup_samples": setup_samples,
        "detail": main["detail"],
        "checks": dict(main["checks"], warmup_hashes=sorted(hashes)),
        "per_layer": main.get("per_layer"),
        "spans": main.get("spans"),
        "provenance": main["provenance"],
    }


def report_lines(rec):
    """Human-readable lines: every metric with its unit and sample count."""
    e2e, d, p = rec["end_to_end"], rec["detail"], rec["provenance"]
    w = rec["workload"]
    lines = [
        f"# {w} seed={rec['seed']} seconds={rec['seconds']} trace={rec['trace']}",
        f"# python {p['python']}, numpy {p['numpy']}, {p['blas']}, "
        f"BLAS threads {p['blas_threads']}, nproc {p['nproc']}, git {p['git_sha']}",
        f"setup_s {e2e['setup_s']:.4f} s (median of {len(rec['setup_samples'])} processes)",
    ]
    if w == "solve":
        n = d["passes"]
        lines += [
            f"work_s {e2e['work_s']:.4f} s (generate, then {n} passes of {d['rollouts_per_pass']} rollouts)",
            f"generate_s {d['generate_s']:.4f} s (cd-desk + burgers-desk, 1 sample)",
            f"predict_high_s {d['predict_high_s']:.4f} s (median over {n} passes)",
            f"predict_low_s {d['predict_low_s']:.4f} s (median over {n} passes)",
        ]
    else:
        n = d["epochs"]
        tail = (f"n/a (n={n}: fewer than 20 epochs)" if d["epoch_ms_tail"] is None else
                f"{d['epoch_ms_tail']:.2f} ms (p{d['epoch_tail_percentile']}, n={n}, "
                f"{d['epoch_tail_beyond']} beyond)")
        lines += [
            f"work_s {e2e['work_s']:.4f} s ({n} timed epochs)",
            f"windows_per_s {d['windows_per_s']:.2f} windows/s ({d['batch']} x {n} epochs)",
            f"epoch_ms_p50 {d['epoch_ms_p50']:.2f} ms (n={n})",
            f"epoch_ms_tail {tail}",
            f"loss history sha256/16 {d['history_hash']}",
        ]
    lines += [
        f"peak_rss_mb {e2e['peak_rss_mb']:.1f} MB (main process)",
        f"fail_ratio {rec['failed']}/{rec['attempted']} = "
        f"{rec['failed'] / rec['attempted']:.4f} failed/attempted",
    ]
    lines += [f"FAILED: {f}" for f in rec["failures"][:20]]
    if rec["per_layer"]:
        lines += [f"{k} {v:.6g} {PER_LAYER[k][0]}" for k, v in sorted(rec["per_layer"].items())
                  if k in PER_LAYER]
    return lines


def result_line(rec):
    if rec["trace"]:
        layers = rec["per_layer"]
        metrics = {k: {"value": layers.get(k, 0), "unit": unit}
                   for k, (unit, _, _) in PER_LAYER.items()}
    else:
        metrics = {k: {"value": rec["end_to_end"][k], "unit": unit}
                   for k, (unit, _, _) in END_TO_END.items()}
    return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
            "failed": rec["failed"], "metrics": metrics}


def main(argv=None):
    p = argparse.ArgumentParser(description="sgnode benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="amount of work: about this many seconds of timed work on the reference box")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--tiny", action="store_true", help="small data, for the self-test")
    p.add_argument("--save", help="also write the full record as JSON to this file")
    args = p.parse_args(argv)
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = {}
    try:
        for name in names:
            rec = run_workload(argparse.Namespace(**dict(vars(args), workload=name)))
            print("\n".join(report_lines(rec)), flush=True)
            records[name] = rec
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    if args.save:
        Path(args.save).write_text(json.dumps(records, indent=1, sort_keys=True))
    if args.workload == "all":
        print(json.dumps({name: result_line(rec) for name, rec in records.items()}))
    else:
        print(json.dumps(result_line(records[args.workload])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
