"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/stats.py --seeds 1-10 [--trace-seed 1] [--out perfbench/baseline.json]

For every workload of BENCHMARK.json and every seed, runs run.py untraced
at BENCHMARK.json's run_seconds and reports, per metric, the median, the
quartiles and their distance as a share of the median: the spread that
must stay under a third of each end-to-end bound, setup_s included.  With
--trace-seed, one traced run per workload adds the per-layer figures.
--out writes the summary as JSON (the committed baseline is made this way).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from metrics import END_TO_END

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
RUN_SECONDS = SPEC["run_seconds"]
DETAIL = ("windows_per_s", "epoch_ms_p50", "epoch_ms_tail", "generate_s", "predict_high_s",
          "predict_low_s")


def one_run(workload, seed, trace):
    with tempfile.TemporaryDirectory() as tmp:
        save = Path(tmp) / "rec.json"
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace),
               "--save", str(save)]
        proc = subprocess.run(cmd, cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
        return json.loads(save.read_text())[workload]


def summary(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "n": len(values), "values": values}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace-seed", type=int)
    p.add_argument("--out")
    a = p.parse_args(argv)
    out = {}
    for w in (w["name"] for w in SPEC["workloads"]):
        recs = [one_run(w, s, 0) for s in parse_seeds(a.seeds)]
        e2e = {m: summary([r["end_to_end"][m] for r in recs]) for m in END_TO_END}
        detail = {m: summary([r["detail"].get(m) for r in recs]) for m in DETAIL}
        out[w] = {
            "seeds": a.seeds,
            "seconds": RUN_SECONDS,
            "end_to_end": e2e,
            "detail": {k: v for k, v in detail.items() if v},
            "failed": sum(r["failed"] for r in recs),
            "attempted": sum(r["attempted"] for r in recs),
            "provenance": recs[0]["provenance"],
        }
        for m, s in e2e.items():
            bound = END_TO_END[m][2]
            flag = "ok" if s["spread"] < bound / 3 else "WIDE"
            print(f"{w:10s} {m:12s} median {s['median']:10.4f} q1 {s['q1']:10.4f} "
                  f"q3 {s['q3']:10.4f} spread {s['spread']:.4f} (bound {bound}) {flag}")
        for m, s in out[w]["detail"].items():
            print(f"{w:10s} {m:14s} median {s['median']:10.4f} spread {s['spread']:.4f}")
        print(f"{w:10s} fail_ratio {out[w]['failed']}/{out[w]['attempted']}", flush=True)
        if a.trace_seed is not None:
            rec = one_run(w, a.trace_seed, 1)
            out[w]["per_layer"] = {"seed": a.trace_seed, "values": rec["per_layer"],
                                   "spans": rec["spans"]}
    if a.out:
        Path(a.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
