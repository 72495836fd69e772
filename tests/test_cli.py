import dataclasses
import json

import numpy as np
import pytest

from sgnode import dg, experiments, mlp, training
from sgnode.cli import main
from sgnode.experiments import run_timings
from sgnode.config import load_config
from sgnode.errors import BlowupError, ConfigError
from sgnode.ode import integrate, load_trajectory, tableau_rk4


def smoke_config(tmp_path, experiment="cd", **overrides):
    model = {"kappa": 1e-3, "n_elem": 8, "order_high": 3, "order_low": 1}
    if experiment == "cd":
        model["a"] = 1.0  # Burgers has no convection velocity to set
    cfg = {
        "experiment": experiment,
        "seed": 5,
        "out_dir": str(tmp_path / "run"),
        "model": model,
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


L96_MODEL = {"K": 8, "J": 4, "F": 6.0, "source_scope": "per_component"}


@pytest.mark.parametrize("experiment,section,key,value", [
    ("cd", "model", "kappa", 0.0),
    ("burgers", "model", "kappa", -1e-3),
    ("l96", "model", "K", 3),
    ("l96", "model", "c", 0),
    ("cd", "model", "n_elem", 1),
    ("cd", "model", "domain", [1.0, 0.0]),
    ("cd", "data", "t_final", -0.1),
    ("burgers", "model", "n_synth", 3),
    ("cd", "data", "n_traj", True),
    ("cd", "training", "lr", "1e-3"),
    ("cd", "training", "tableau", "euler"),
    ("cd", "prediction", "tableau", "euler"),
    ("cd", "timing", "tableau", "euler"),
    ("cd", "timing", "dts", {"slow": 1e-3}),
])
def test_invalid_value_is_config_error_naming_its_section(
    tmp_path, capsys, experiment, section, key, value
):
    path = smoke_config(tmp_path, experiment)
    cfg = json.loads(path.read_text())
    if experiment == "l96":
        cfg["model"] = dict(L96_MODEL)
    cfg[section][key] = value
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert str(e.value).startswith(section)
    assert main(["generate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {section}")


@pytest.mark.parametrize("experiment,section,key,value", [
    ("burgers", "model", "a", 1.0),
    ("cd", "model", "k0", 10),
    ("cd", "model", "n_synth", 32768),
    ("cd", "data", "spinup", 0.0),
    ("burgers", "data", "spinup", 3.0),
])
def test_a_key_the_experiment_never_reads_is_config_error(
    tmp_path, capsys, experiment, section, key, value
):
    path = smoke_config(tmp_path, experiment)
    cfg = json.loads(path.read_text())
    cfg[section][key] = value
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError) as e:
        load_config(path)
    assert str(e.value).startswith(f"{section}: unknown keys ['{key}']")
    assert main(["generate", "--config", str(path)]) == 2
    assert f"['{key}']" in capsys.readouterr().err


def test_l96_desk_config_values_and_types():
    cfg = load_config("configs/l96-desk.json")
    model = {"K": 36, "J": 10, "c": 10.0, "h": 1.0, "F": 6.0, "source_scope": "per_component"}
    assert cfg.model == model
    assert [type(v) for v in cfg.model.values()] == [type(v) for v in model.values()]
    data = {"n_traj": 30, "dt": 0.005, "t_final": 4.0, "spinup": 3.0, "store_high": True}
    assert cfg.data.__dict__ == data
    assert [type(v) for v in cfg.data.__dict__.values()] == [type(v) for v in data.values()]


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
    mlp.save_params(mlp.zero_params(16, 16), out / "right.sgnp")
    # the second net differs from the 16-dof layout in d_out alone
    for d_in, d_out in ((10, 10), (16, 1)):
        wrong = str(out / f"wrong_{d_in}_{d_out}.sgnp")
        mlp.save_params(mlp.init_params(d_in, d_out, seed=0, hidden=8), wrong)
        right = str(out / "right.sgnp")
        for argv in (
            ["predict", "--checkpoint", wrong],
            ["train", "--resume", wrong],
            ["train", "--resume", wrong, "--discrete"],
            ["sweep", "--checkpoint", wrong, "--checkpoint-discrete", right],
            ["sweep", "--checkpoint", right, "--checkpoint-discrete", wrong],
            ["time", "--checkpoint", wrong],
        ):
            assert main(argv[:1] + ["--config", str(path)] + argv[1:]) == 4, argv
    l96 = smoke_config(tmp_path, "l96", model=L96_MODEL, out_dir=str(tmp_path / "l96"),
                       data={"n_traj": 1, "dt": 0.005, "t_final": 0.05})
    assert main(["generate", "--config", str(l96)]) == 0
    for variant in ("augmented", "slow"):
        assert main(["predict", "--config", str(l96), "--variant", variant,
                     "--checkpoint", str(out / "wrong_10_10.sgnp")]) == 4


def test_checkpoint_sidecar_records_its_own_training_section(tmp_path):
    cfg = json.loads(smoke_config(tmp_path).read_text())
    cfg["training_discrete"] = dict(cfg["training"], seed=9)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    for extra, tag, seed in (([], "continuous", 1), (["--discrete"], "discrete", 9)):
        assert main(["train", "--config", str(path)] + extra) == 0
        sidecar = json.loads((out / f"checkpoint_{tag}.json").read_text())
        assert sidecar["training"]["seed"] == seed


def test_discrete_targets_use_the_configured_tableau(tmp_path, monkeypatch):
    cfg = load_config(smoke_config(tmp_path))
    cfg.training_discrete = dataclasses.replace(cfg.training_discrete, tableau="tsit5", epochs=1)
    experiments.generate(cfg)
    seen, plain = [], training.discrete_forcing_dataset

    def recording(trajs, dt, rhs, tableau, **kw):
        seen.append(tableau)
        return plain(trajs, dt, rhs, tableau, **kw)

    monkeypatch.setattr(training, "discrete_forcing_dataset", recording)
    experiments.train_discrete(cfg, experiments.load_dataset(cfg))
    assert seen == ["tsit5"]


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


def test_discrete_training_writes_its_periodic_checkpoints(tmp_path):
    train = {"epochs": 4, "batch_size": 4, "window": 2, "dt": 2e-3, "tableau": "rk4",
             "seed": 1, "checkpoint_every": 2}
    path = smoke_config(tmp_path, training_discrete=train)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    assert main(["train", "--config", str(path), "--discrete"]) == 0
    ckpts = sorted(p.name for p in out.glob("checkpoint_discrete_*.sgnp"))
    assert ckpts == ["checkpoint_discrete_000002.sgnp", "checkpoint_discrete_000004.sgnp"]
    mid = mlp.load_params(out / ckpts[0])
    short = smoke_config(tmp_path, training_discrete={**train, "epochs": 2})
    assert main(["train", "--config", str(short), "--discrete"]) == 0
    final = mlp.load_params(out / "checkpoint_discrete.sgnp")
    for a, b in zip(mlp.param_list(mid), mlp.param_list(final), strict=True):
        assert np.array_equal(a, b)


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


def test_timing_blowup_names_its_variant_and_dt(tmp_path, capsys):
    timing = {"repeats": 1, "t_final": 5.0, "tableau": "rk4", "dts": {"low": 0.5}}
    path = smoke_config(tmp_path, timing=timing)
    main(["generate", "--config", str(path)])
    capsys.readouterr()
    assert main(["time", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical blowup: variant low at dt=0.5: ")
    cfg = load_config(path)
    ref = experiments.load_dataset(cfg)[0]
    truth = experiments.load_dataset(cfg, kind="truth")[0]
    with pytest.raises(BlowupError) as e:
        run_timings(cfg, ref, truth, mlp.zero_params(16, 16))
    assert (e.value.step, e.value.stage) == (2, 2)
    assert isinstance(e.value.__cause__, BlowupError)


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


@pytest.mark.parametrize("experiment,n_traj", [("cd", 3), ("burgers", 2)])
def test_generate_writes_the_bytes_of_one_rollout_per_trajectory(tmp_path, experiment, n_traj):
    model = {"kappa": 5e-3, "n_elem": 8, "order_high": 3, "order_low": 1}
    if experiment == "burgers":
        model.update(k0=2, n_synth=64)
    else:
        model.update(a=1.0)
    cfg = load_config(smoke_config(
        tmp_path, experiment, model=model,
        data={"n_traj": n_traj, "dt": 1e-3, "t_final": 0.02, "store_high": True},
    ))
    experiments.generate(cfg)
    mesh_h, mesh_l = experiments.pde_meshes(cfg.model)
    rhs = dg.rhs_semidiscrete(experiments.pde_config(experiment, cfg.model), mesh_h)
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    for i in range(n_traj):
        if experiment == "cd":
            phase = float(rng.uniform(0.0, 1.0))
            u0 = dg.cd_initial_condition(mesh_h, phase)
        else:
            u0 = dg.burgulence_initial_condition(mesh_h, 2, 64, seed=cfg.seed + i)
        alone = integrate(tableau_rk4(), rhs, u0.flat, 0.0, 1e-3, 20).states
        truth = load_trajectory(cfg.out_dir / f"truth_{i:04d}.sgnt")
        filtered = load_trajectory(cfg.out_dir / f"filtered_{i:04d}.sgnt")
        assert truth.states.tobytes() == alone.tobytes()
        assert filtered.states.tobytes() == dg.project_states(mesh_h, alone, 1).tobytes()
        if experiment == "cd":
            assert truth.meta["phi"] == filtered.meta["phi"] == repr(phase)


def test_generate_blowup_names_the_trajectory(tmp_path, monkeypatch):
    plain = dg.cd_initial_condition
    calls = []

    def second_is_nan(mesh, phase):
        calls.append(phase)
        u0 = plain(mesh, phase)
        if len(calls) == 2:
            u0.coeffs[3, 1] = np.nan
        return u0

    monkeypatch.setattr(dg, "cd_initial_condition", second_is_nan)
    cfg = load_config(smoke_config(tmp_path, data={"n_traj": 3, "dt": 1e-3, "t_final": 0.01}))
    with pytest.raises(BlowupError) as e:
        experiments.generate(cfg)
    assert (e.value.sample, e.value.step, e.value.stage) == (1, 0, 0)


def test_shipped_configs_parse():
    from pathlib import Path

    for name in Path("configs").glob("*.json"):
        cfg = load_config(name)
        assert cfg.experiment in ("l96", "cd", "burgers")
