import json

import numpy as np
import pytest

from sgnode import experiments, mlp
from sgnode.cli import main, run_timings
from sgnode.config import load_config
from sgnode.errors import ConfigError
from sgnode.ode import load_trajectory


def smoke_config(tmp_path, experiment="cd", **overrides):
    cfg = {
        "experiment": experiment,
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
        "model": {"a": 1.0, "kappa": 1e-3, "n_elem": 8, "order_high": 3, "order_low": 1},
        "data": {"n_traj": 2, "dt": 1e-3, "t_final": 0.02},
        "training": {
            "epochs": 2, "batch_size": 4, "window": 2, "dt": 2e-3,
            "tableau": "rk4", "optimizer": "adam", "lr": 1e-3,
            "seed": 1, "split": 0.75, "split_axis": "time", "test_every": 1,
        },
        "prediction": {"dt": 2e-3, "t_final": 0.02, "tableau": "rk4", "variant": "augmented"},
        "timing": {"repeats": 2, "t_final": 0.02, "tableau": "rk4",
                   "dts": {"high": 1e-3, "low": 2e-3, "augmented": 2e-3,
                           "low2": 2e-3, "low3": 1e-3}},
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"experiment": "cd", "out_dir": "x", "bogus": 1}))
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert "bogus" in str(e.value)


def test_config_rejects_unknown_nested_key(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({
        "experiment": "cd", "out_dir": "x",
        "training": {"learning_rate": 1e-3},
    }))
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert "learning_rate" in str(e.value)


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["generate", "--config", str(path)]) == 2


def test_missing_manifest_is_config_error(tmp_path):
    path = smoke_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 2


def test_generate_train_predict_evaluate_cycle(tmp_path):
    path = smoke_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    out = tmp_path / "run"
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["files"]) == 4  # 2 truth + 2 filtered
    assert main(["train", "--config", str(path)]) == 0
    assert (out / "checkpoint_continuous.sgnp").exists()
    loss_rows = (out / "loss_continuous.csv").read_text().splitlines()
    assert len(loss_rows) == 3  # header + 2 epochs
    assert main([
        "predict", "--config", str(path),
        "--checkpoint", str(out / "checkpoint_continuous.sgnp"),
    ]) == 0
    assert main([
        "evaluate", "--config", str(path),
        "--pred", str(out / "pred_augmented.sgnt"),
        "--ref", str(out / "filtered_0000.sgnt"),
        "--xt",
    ]) == 0
    assert (out / "errors.csv").exists()
    assert (out / "xt_pred.csv").exists() and (out / "xt_ref.csv").exists()


def test_generate_is_deterministic(tmp_path):
    p1 = smoke_config(tmp_path, out_dir=str(tmp_path / "a"))
    main(["generate", "--config", str(p1)])
    p2 = smoke_config(tmp_path, out_dir=str(tmp_path / "b"))
    main(["generate", "--config", str(p2)])
    m1 = json.loads((tmp_path / "a" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "manifest.json").read_text())
    assert [f["sha256"] for f in m1["files"]] == [f["sha256"] for f in m2["files"]]


def test_zero_net_prediction_matches_plain_low_variant(tmp_path):
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    cfg = load_config(path)
    zero = mlp.zero_params(16, 16)
    mlp.save_params(zero, out / "zero.sgnp")
    main(["predict", "--config", str(path), "--checkpoint", str(out / "zero.sgnp"),
          "--variant", "augmented", "--name", "aug.sgnt"])
    main(["predict", "--config", str(path), "--variant", "low", "--name", "low.sgnt"])
    a = load_trajectory(out / "aug.sgnt")
    b = load_trajectory(out / "low.sgnt")
    assert np.max(np.abs(a.states - b.states)) == 0.0


def test_projected_higher_order_variants(tmp_path):
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    for variant in ("low2", "low3", "high"):
        assert main(["predict", "--config", str(path), "--variant", variant,
                     "--name", f"{variant}.sgnt"]) == 0
    # projected runs come back on the low-order layout
    low2 = load_trajectory(out / "low2.sgnt")
    assert low2.dim == 16
    high = load_trajectory(out / "high.sgnt")
    assert high.dim == 8 * 4


def test_checkpoint_shape_mismatch_is_io_error(tmp_path):
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    wrong = mlp.init_params(10, 10, seed=0, hidden=8)
    mlp.save_params(wrong, out / "wrong.sgnp")
    rc = main(["predict", "--config", str(path), "--checkpoint", str(out / "wrong.sgnp")])
    assert rc == 4
    for extra in ([], ["--discrete"]):
        rc = main(["train", "--config", str(path), "--resume", str(out / "wrong.sgnp")] + extra)
        assert rc == 4


def test_discrete_training_and_sweep(tmp_path):
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    assert main(["train", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path), "--discrete"]) == 0
    assert (out / "checkpoint_discrete.sgnp").exists()
    rc = main([
        "sweep", "--config", str(path),
        "--checkpoint", str(out / "checkpoint_continuous.sgnp"),
        "--checkpoint-discrete", str(out / "checkpoint_discrete.sgnp"),
        "--dts", "1e-3,2e-3", "--times", "0.01,0.02",
    ])
    assert rc == 0
    sweep = (out / "sweep.csv").read_text().splitlines()
    assert sweep[0] == "method,dt,t,rel_error"
    assert len(sweep) == 1 + 2 * 2 * 2


def test_run_timings_leaves_the_config_unchanged(tmp_path):
    timing = {"repeats": 1, "t_final": 0.01, "tableau": "tsit5", "dts": {"low": 2e-3}}
    path = smoke_config(tmp_path, timing=timing)
    main(["generate", "--config", str(path)])
    cfg = load_config(path)
    ref = experiments.load_dataset(cfg)[0]
    truth = experiments.load_dataset(cfg, kind="truth")[0]
    rows = run_timings(cfg, ref, truth, mlp.zero_params(16, 16))
    assert [r[0] for r in rows] == ["low"]
    assert cfg.prediction.tableau == "rk4"


def test_timing_command(tmp_path):
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    main(["train", "--config", str(path)])
    rc = main(["time", "--config", str(path),
               "--checkpoint", str(out / "checkpoint_continuous.sgnp")])
    assert rc == 0
    rows = (out / "timings.csv").read_text().splitlines()
    assert rows[0] == "variant,dt,first_ms,warm_median_ms"
    assert len(rows) == 6
    # without a checkpoint the source net is timed with zero weights
    assert main(["time", "--config", str(path)]) == 0


def test_gradcheck_command(tmp_path):
    path = smoke_config(tmp_path)
    assert main(["gradcheck", "--config", str(path), "--sample", "16"]) == 0


def test_l96_smoke_cycle(tmp_path):
    cfg = {
        "experiment": "l96",
        "seed": 2,
        "out_dir": str(tmp_path / "run"),
        "model": {"K": 8, "J": 4, "F": 6.0, "source_scope": "per_component"},
        "data": {"n_traj": 2, "dt": 0.005, "t_final": 0.25, "spinup": 0.5},
        "training": {
            "epochs": 2, "batch_size": 4, "window": 2, "dt": 0.005,
            "tableau": "rk4", "optimizer": "adam", "lr": 1e-3,
            "seed": 1, "split": 0.5, "split_axis": "trajectory", "test_every": 1,
        },
        "prediction": {"dt": 0.05, "t_final": 0.25, "tableau": "rk4", "variant": "slow"},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path)]) == 0
    out = tmp_path / "run"
    assert main([
        "predict", "--config", str(path),
        "--checkpoint", str(out / "checkpoint_continuous.sgnp"),
    ]) == 0
    pred = load_trajectory(out / "pred_slow.sgnt")
    assert pred.dim == 8
    assert main([
        "evaluate", "--config", str(path),
        "--pred", str(out / "pred_slow.sgnt"),
        "--ref", str(out / "truth_0000.sgnt"),
    ]) == 0


def test_resume_continues_from_checkpoint(tmp_path):
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    main(["train", "--config", str(path)])
    first = mlp.load_params(out / "checkpoint_continuous.sgnp")
    assert main(["train", "--config", str(path), "--resume",
                 str(out / "checkpoint_continuous.sgnp")]) == 0
    second = mlp.load_params(out / "checkpoint_continuous.sgnp")
    assert not np.array_equal(first.weights[0], second.weights[0])


def test_discrete_resume_continues_from_checkpoint(tmp_path):
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path)])
    ckpt = tmp_path / "run" / "checkpoint_discrete.sgnp"
    assert main(["train", "--config", str(path), "--discrete"]) == 0
    first = mlp.load_params(ckpt)
    assert main(["train", "--config", str(path), "--discrete", "--resume", str(ckpt)]) == 0
    resumed = mlp.load_params(ckpt)
    assert main(["train", "--config", str(path), "--discrete"]) == 0
    fresh = mlp.load_params(ckpt)
    assert np.array_equal(first.weights[0], fresh.weights[0])
    assert not np.array_equal(resumed.weights[0], fresh.weights[0])


def test_seed_override_reaches_both_training_seeds(tmp_path):
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    for extra in ([], ["--discrete"]):
        assert main(["train", "--config", str(path), "--seed", "7"] + extra) == 0
    # a fresh net records the seed it was initialised from
    assert mlp.load_params(out / "checkpoint_continuous.sgnp").seed == 7
    assert mlp.load_params(out / "checkpoint_discrete.sgnp").seed == 7


def test_seed_override_changes_dataset(tmp_path):
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path), "--seed", "5"])
    m1 = json.loads((tmp_path / "run" / "manifest.json").read_text())
    main(["generate", "--config", str(path), "--seed", "6"])
    m2 = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert [f["sha256"] for f in m1["files"]] != [f["sha256"] for f in m2["files"]]


def test_store_high_false_keeps_filtered_only(tmp_path):
    path = smoke_config(
        tmp_path,
        data={"n_traj": 1, "dt": 1e-3, "t_final": 0.01, "store_high": False},
    )
    main(["generate", "--config", str(path)])
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    kinds = {f["kind"] for f in manifest["files"]}
    assert kinds == {"filtered"}
    # training still works off the filtered set
    assert main(["train", "--config", str(path)]) == 0


def test_shipped_configs_parse():
    from pathlib import Path

    for name in Path("configs").glob("*.json"):
        cfg = load_config(name)
        assert cfg.experiment in ("l96", "cd", "burgers")
