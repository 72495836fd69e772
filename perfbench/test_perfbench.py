"""Self-test of the benchmark, at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload through run.py with --tiny, untraced and traced, and
checks the output format, the trace accounting and the failure counting.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import work  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(tmp, workload, trace):
    save = tmp / f"{workload}-{trace}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny", "--save", str(save)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    return last, json.loads(save.read_text())[workload], proc.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return {(w, t): bench(tmp, w, t) for w in work.WORKLOADS for t in (0, 1)}


def test_benchmark_json_agrees_with_metrics_module():
    assert [w["name"] for w in SPEC["workloads"]] == list(work.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        k: v[:2] for k, v in PER_LAYER.items()
    }
    assert max(END_TO_END.values(), key=lambda v: v[2]) == END_TO_END["setup_s"]


@pytest.mark.parametrize("workload", list(work.WORKLOADS))
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_is_emitted_with_its_unit(runs, workload, trace):
    last, _, stdout = runs[workload, trace]
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = last["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0
    if not trace:  # the user-level figures are printed by name, with counts
        names = ("windows_per_s", "epoch_ms_p50", "epoch_ms_tail") if workload != "solve" \
            else ("generate_s", "predict_high_s", "predict_low_s")
        for name in names + ("setup_s", "work_s", "peak_rss_mb", "fail_ratio"):
            assert any(line.startswith(name + " ") for line in stdout.splitlines()), name


@pytest.mark.parametrize("workload", list(work.WORKLOADS))
def test_self_times_account_for_the_traced_work(runs, workload):
    _, rec, _ = runs[workload, 1]
    table = rec["spans"]
    # self times partition the time of the outermost spans: nothing is lost
    # or counted twice, so the work span's own self time is the remainder
    roots = sum(s["root_ms"] for s in table.values())
    assert sum(s["self_ms"] for s in table.values()) == pytest.approx(roots, rel=1e-9)
    assert table["work"]["root_ms"] == table["work"]["total_ms"]
    layers = rec["per_layer"]
    assert layers["trace.unaccounted_ms"] == pytest.approx(table["work"]["self_ms"])
    assert 0.0 <= layers["trace.unaccounted_pct"] < 10.0
    assert "trace.overhead_pct" in layers


def test_traced_and_untraced_runs_repeat_the_loss_history(runs):
    for w in ("train-cd", "train-l96"):
        plain, traced = runs[w, 0][1], runs[w, 1][1]
        assert plain["detail"]["history_hash"] == traced["detail"]["history_hash"]
        assert len(plain["checks"]["warmup_hashes"]) == 1


def test_tape_counts_repeat_exactly(tmp_path):
    sg = work.import_sgnode()
    spec = work.WORKLOADS["train-cd"]
    work.role_generate(sg, spec, 5, tmp_path, tiny=True)
    state, _ = work.train_setup(sg, spec, 5, tmp_path, tiny=True)
    cfg = state["cfg"]
    params = sg.mlp.init_params(*state["dims"], seed=5)
    stats = []
    for seed in (1, 2):
        batch = sg.training.sample_windows(state["trajs"], cfg.training, epoch_seed=[seed])
        _, tape = sg.training.node_loss(params, batch, state["builder"], cfg.training.tableau)
        stats.append(spans.tape_stats(tape))
    assert stats[0] == stats[1]
    assert sum(v for k, v in stats[0].items() if k.startswith("autodiff.tape.nodes.")) \
        == stats[0]["autodiff.tape.nodes"]


def test_a_failed_check_raises_fail_ratio(tmp_path, monkeypatch):
    sg = work.import_sgnode()
    spec = work.WORKLOADS["train-cd"]
    work.role_generate(sg, spec, 3, tmp_path, tiny=True)
    clean = work.run_train(sg, spec, 3, 0.5, 0, tmp_path, True, spawn=0.0)
    assert clean["failures"] == []

    untaped = sg.training.rollout_loss_value
    monkeypatch.setattr(sg.training, "rollout_loss_value",
                        lambda *a: untaped(*a) * (1.0 + 1e-9))
    broken = work.run_train(sg, spec, 3, 0.5, 0, tmp_path, True, spawn=0.0)
    assert len(broken["failures"]) == 1 and "tape check" in broken["failures"][0]
    rec = {"trace": 0, "failed": len(broken["failures"]), "attempted": broken["attempted"],
           "end_to_end": {k: 1.0 for k in END_TO_END}}
    line = run.result_line(rec)
    assert line["correct"] is False and line["failed"] / line["attempted"] > 0


def test_a_non_finite_rollout_is_a_failed_unit(tmp_path, monkeypatch):
    sg = work.import_sgnode()
    predict = sg.experiments.predict

    def poisoned(cfg, params, u0, dt, n_steps, variant, t0=0.0):
        traj = predict(cfg, params, u0, dt, n_steps, variant, t0)
        if variant == "low2":
            traj.states[-1, 0] = np.nan
        return traj

    monkeypatch.setattr(sg.experiments, "predict", poisoned)
    out = work.run_solve(sg, work.WORKLOADS["solve"], 3, 1.0, 0, tmp_path, True, spawn=0.0)
    assert sorted(out["failures"]) == ["burgers.low2: non-finite states", "cd.low2: non-finite states"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train-cd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
