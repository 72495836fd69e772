import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgnode import dg, experiments, lorenz96, mlp, ode, training
from sgnode.cli import main
from sgnode.experiments import run_timings
from sgnode.config import VARIANTS, RunConfig, TimingConfig, load_config, load_manifest
from sgnode.errors import BlowupError, ConfigError, FormatError
from sgnode.ode import Rhs, Trajectory, integrate, load_trajectory, save_trajectory, tableau_rk4


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
        "timing": {"repeats": 2, "t_final": 0.02,
                   "dts": {"high": 1e-3, "low": 2e-3, "augmented": 2e-3,
                           "low2": 2e-3, "low3": 1e-3}},
    }
    if experiment == "l96":
        del cfg["timing"]  # `time` is PDE-only
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


# one optimizer step per epoch, fixed Adam/AdaBelief constants, and `time`
# stepping at prediction.tableau: these keys are gone
@pytest.mark.parametrize("section,key,value", [
    *((section, key, value) for section in ("training", "training_discrete")
      for key, value in (("steps_per_epoch", 1), ("beta1", 0.9), ("beta2", 0.999),
                         ("eps", 1e-8))),
    ("timing", "tableau", "rk4"),
])
def test_a_removed_key_is_config_error(tmp_path, capsys, section, key, value):
    path = smoke_config(tmp_path)
    cfg = json.loads(path.read_text())
    kept = {k: v for k, v in cfg["training"].items() if k not in ("window", "test_every")}
    cfg[section] = {**cfg.get(section, kept), key: value}
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match=rf"^{section}: unknown keys \['{key}'\]"):
        load_config(path)
    assert main(["generate", "--config", str(path)]) == 2
    assert f"config error: {section}: unknown keys ['{key}']" in capsys.readouterr().err


_TRAIN_DEFAULTS = dataclasses.asdict(training.TrainConfig())


# values no code reads: l96 has no `time` command, no discrete baseline and
# only a truth dataset; the discrete baseline's regression takes no windows
@pytest.mark.parametrize("experiment,section,key,value", [
    ("l96", "data", "store_high", False),
    *(("l96", "timing", k, v) for k, v in dataclasses.asdict(TimingConfig()).items()),
    *(("l96", "training_discrete", k, v) for k, v in _TRAIN_DEFAULTS.items()),
    *((experiment, "training_discrete", k, _TRAIN_DEFAULTS[k])
      for experiment in ("cd", "burgers") for k in ("window", "test_every")),
])
def test_a_value_no_code_reads_exits_2_naming_its_key_before_any_file_is_read(
    tmp_path, capsys, experiment, section, key, value
):
    path = smoke_config(tmp_path, experiment, **({"model": L96_MODEL} if experiment == "l96" else {}))
    cfg = json.loads(path.read_text())
    cfg.setdefault(section, {})[key] = value
    path.write_text(json.dumps(cfg))
    if experiment == "l96" and section != "data":
        message = f"config: unknown keys ['{section}']"
    else:
        message = f"{section}: unknown keys ['{key}']"
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)
    for argv in (["generate"], ["train"], ["train", "--discrete"]):
        assert main(argv + ["--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}; allowed")
    assert not (tmp_path / "run").exists()


def test_train_discrete_on_l96_exits_2_before_any_file_is_read(tmp_path, capsys):
    path = smoke_config(tmp_path, "l96", model=L96_MODEL)
    assert main(["train", "--config", str(path), "--discrete"]) == 2
    assert capsys.readouterr().err == (
        "config error: the discrete post-correction baseline is PDE-only\n")
    assert not (tmp_path / "run").exists()


def _numeric_keys(node, path=()):
    """The paths of the numbers in a parsed JSON config, list items by index."""
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _numeric_keys(v, path + (k,))
    elif isinstance(node, list):
        for i, v in enumerate(node):
            yield from _numeric_keys(v, path + (i,))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


@pytest.mark.parametrize("name", sorted(p.name for p in Path("configs").glob("*.json")))
def test_every_numeric_key_loads_or_is_config_error_naming_it(name):
    raw = json.loads((Path("configs") / name).read_text())
    for path in _numeric_keys(raw):
        key = [k for k in path if isinstance(k, str)]
        section = key[0] if len(key) > 1 else "config"  # top-level keys are config.*
        for value in (float("nan"), float("inf"), float("-inf"), 0, -1):
            cfg = json.loads(json.dumps(raw))
            node = cfg
            for k in path[:-1]:
                node = node[k]
            node[path[-1]] = value
            try:
                RunConfig.from_dict(cfg)
            except ConfigError as e:
                assert str(e).startswith(section) and key[-1] in str(e), (path, value, str(e))
            else:
                assert isinstance(value, int), (path, value)  # NaN and Infinity never load


def _tiny(raw):
    """A copy of shipped config `raw` whose every command takes milliseconds:
    2 trajectories of 16 training steps, so a 2-step window fits both sides
    of a time split, 1 epoch, and 4-step predictions and timings."""
    cfg = json.loads(json.dumps(raw))
    train = cfg["training"]
    train.update(epochs=1, batch_size=2, window=2, test_every=1)
    cfg["data"].update(n_traj=2, t_final=16 * train["dt"])
    cfg["prediction"]["t_final"] = 4 * cfg["prediction"]["dt"]
    if cfg["experiment"] == "l96":
        cfg["data"]["spinup"] = 0.05
    else:
        cfg["model"]["n_elem"] = 4
        cfg["training_discrete"].update(epochs=1, batch_size=2)
        cfg["timing"].update(repeats=1, t_final=4 * max(cfg["timing"]["dts"].values()))
    return cfg


@pytest.mark.parametrize("name", sorted(p.name for p in Path("configs").glob("*.json")))
def test_every_numeric_value_that_loads_runs_every_command_to_an_exit_code(tmp_path, capsys, name):
    # each number of a shipped config at 0 and at -1, where that loads, on a
    # tiny copy of the config; Lorenz 96 has no discrete baseline and no
    # `time`, so it predicts the slow and the full state instead
    raw = _tiny(json.loads((Path("configs") / name).read_text()))
    ckpt = ["--checkpoint", str(tmp_path / "run" / "checkpoint_continuous.sgnp")]
    if raw["experiment"] == "l96":
        commands = [["generate"], ["train"], ["predict", "--variant", "slow"] + ckpt,
                    ["predict", "--variant", "high"]]
    else:
        commands = [["generate"], ["train"], ["train", "--discrete"], ["predict"] + ckpt,
                    ["time"] + ckpt]
    path = tmp_path / "cfg.json"
    ran = 0
    for key in _numeric_keys(raw):
        for value in (0, -1):
            cfg = json.loads(json.dumps(raw))
            node = cfg
            for k in key[:-1]:
                node = node[k]
            node[key[-1]] = value
            cfg["out_dir"] = str(tmp_path / "run")
            try:
                RunConfig.from_dict(cfg)
            except ConfigError:
                continue
            shutil.rmtree(tmp_path / "run", ignore_errors=True)
            path.write_text(json.dumps(cfg))
            codes = []
            for command in commands:
                codes.append(main(command + ["--config", str(path)]))
                err = capsys.readouterr().err
                assert codes[-1] in (0, 2, 3, 4, 5), (key, value, command, err)
                assert "Traceback" not in err, (key, value, command)
            # a window fits the tiny data, so training runs unless no data is left
            assert codes[1] == 0 or key == ("data", "t_final"), (key, value, codes)
            ran += 1
    assert ran > 0


# each of these once ran into a traceback (exit 1) or a blowup (exit 3)
@pytest.mark.parametrize("command,section,key,value", [
    ("generate", "data", "dt", float("nan")),
    ("generate", "data", "t_final", float("inf")),
    ("generate", "data", "t_final", 10**400),  # an int past the float range
    ("generate", "model", "kappa", float("nan")),
    ("train", "training", "dt", float("nan")),
    ("train", "training", "lr", -1),
    (["predict", "--variant", "low"], "prediction", "dt", float("nan")),
    ("time", "timing", "t_final", float("nan")),
])
def test_a_bad_config_number_exits_2_naming_its_key(tmp_path, capsys, command, section, key, value):
    path = smoke_config(tmp_path)
    command = [command] if isinstance(command, str) else command
    if command[0] != "generate":  # with a dataset, so nothing else exits 2
        assert main(["generate", "--config", str(path)]) == 0
    cfg = json.loads(path.read_text())
    cfg[section][key] = value
    path.write_text(json.dumps(cfg))  # as NaN, Infinity or -1 in the JSON
    capsys.readouterr()
    assert main(command + ["--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and "Traceback" not in err
    if command[0] == "generate":
        assert not (tmp_path / "run").exists()


def test_l96_desk_config_values_and_types():
    cfg = load_config("configs/l96-desk.json")
    model = {"K": 36, "J": 10, "c": 10.0, "h": 1.0, "F": 6.0, "source_scope": "per_component"}
    assert cfg.model == model
    assert [type(v) for v in cfg.model.values()] == [type(v) for v in model.values()]
    data = {"n_traj": 30, "dt": 0.005, "t_final": 4.0, "spinup": 3.0, "store_high": True}
    assert cfg.data.__dict__ == data
    assert [type(v) for v in cfg.data.__dict__.values()] == [type(v) for v in data.values()]


@pytest.mark.parametrize("config,variants", [
    ("configs/cd-desk.json", ["high", "low", "augmented", "discrete", "low2", "low3"]),
    ("configs/l96-desk.json", ["high", "low", "augmented", "slow"]),
])
def test_the_initial_state_shares_no_memory_with_its_trajectory(config, variants):
    # a row view would keep the whole trajectory alive through a rollout
    cfg = load_config(config)
    filtered = Trajectory(t0=0.0, dt=0.1, states=np.arange(120.0).reshape(3, 40), meta={})
    truth = Trajectory(t0=0.0, dt=0.1, states=-np.arange(120.0).reshape(3, 40), meta={})
    for variant in variants:
        u0 = experiments.variant_initial_state(cfg, variant, filtered, truth)
        ref = truth if variant == "high" and cfg.experiment != "l96" else filtered
        assert np.array_equal(u0, ref.states[0][: 36 if variant == "slow" else None]), variant
        assert not np.shares_memory(u0, filtered.states) and not np.shares_memory(u0, truth.states)


_ADDRESS_SPACE = 1 << 30


def _limit_address_space():
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (_ADDRESS_SPACE, _ADDRESS_SPACE))


def test_running_out_of_memory_exits_5_with_one_line(tmp_path):
    path = smoke_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    cfg = json.loads(path.read_text())
    cfg["training"]["batch_size"] = 10**9  # a 128 GB batch
    path.write_text(json.dumps(cfg))
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1")
    # the address space of this child alone is capped
    proc = subprocess.run([sys.executable, "-m", "sgnode.cli", "train", "--config", str(path)],
                          env=env, capture_output=True, text=True, timeout=120,
                          preexec_fn=_limit_address_space)
    assert proc.returncode == 5, proc.stderr
    (line,) = proc.stderr.splitlines()
    assert line.startswith("out of memory: sgnode train stopped: ") and "Traceback" not in line


_OPEN_FILES = 64


def _limit_open_files():
    import resource
    hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]
    resource.setrlimit(resource.RLIMIT_NOFILE, (_OPEN_FILES, hard))


@pytest.mark.parametrize("experiment,train,n_files,predict", [
    ("l96", ["train"], 80, "high"),
    # a truth and a filtered file per trajectory while generate writes them
    ("cd", ["train", "--discrete"], 160, "low"),
])
def test_a_dataset_whose_files_cannot_all_be_open_exits_2_before_it_starts(
        tmp_path, experiment, train, n_files, predict):
    # generate and train hold every file of the dataset open; predict opens one
    if experiment == "l96":
        path = smoke_config(tmp_path, "l96", model=L96_MODEL,
                            data={"n_traj": 80, "dt": 0.005, "t_final": 0.05, "spinup": 0.0})
    else:
        path = smoke_config(tmp_path, data={"n_traj": 80, "dt": 1e-3, "t_final": 0.006},
                            training_discrete={"epochs": 1, "batch_size": 4, "dt": 2e-3})
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).parents[1]))

    def run(*args, limit=True):
        return subprocess.run([sys.executable, "-m", "sgnode.cli", *args, "--config", str(path)],
                              env=env, capture_output=True, text=True, timeout=120,
                              preexec_fn=_limit_open_files if limit else None)

    def one_line_naming_n_traj(proc, n):
        assert proc.returncode == 2, proc.stderr
        (line,) = proc.stderr.splitlines()
        assert line.startswith(f"config error: data.n_traj 80 needs {n} files open at once")
        assert f"open-file limit of {_OPEN_FILES}" in line and "ulimit -n" in line

    one_line_naming_n_traj(run("generate"), n_files)
    assert list(tmp_path.rglob("*.sgnt")) == []
    assert run("generate", limit=False).returncode == 0
    one_line_naming_n_traj(run(*train), 80)
    assert list((tmp_path / "run").glob("checkpoint*")) == []
    proc = run("predict", "--variant", predict, "--traj-index", "79")
    assert proc.returncode == 0, proc.stderr


def test_an_unlimited_or_unknown_open_file_limit_is_not_checked(tmp_path, monkeypatch):
    import resource
    cfg = load_config(smoke_config(tmp_path))
    with pytest.raises(ConfigError, match="data.n_traj 2 needs 1000000000 files"):
        experiments.check_open_files(cfg, 10**9)
    unlimited = (resource.RLIM_INFINITY, resource.RLIM_INFINITY)
    monkeypatch.setattr(resource, "getrlimit", lambda which: unlimited)
    experiments.check_open_files(cfg, 10**9)
    monkeypatch.setattr(experiments, "resource", None)
    experiments.check_open_files(cfg, 10**9)


def test_train_writes_the_same_bytes_whatever_the_blas_thread_count_asked(tmp_path):
    # sgnode pins BLAS to one thread on import, before numpy loads it
    cfg = json.loads(Path("configs/cd-desk.json").read_text())
    cfg["training"]["epochs"] = 3
    path = tmp_path / "cd.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path), "--out", str(tmp_path / "data")]) == 0
    outputs = []
    for threads in ("1", None, "2"):
        out = tmp_path / f"run-{threads}"
        shutil.copytree(tmp_path / "data", out)
        env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).parents[1]))
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.pop(var, None)
            if threads is not None:
                env[var] = threads
        subprocess.run([sys.executable, "-m", "sgnode.cli", "train", "--config", str(path),
                        "--out", str(out)], env=env, check=True, capture_output=True, timeout=300)
        outputs.append([(out / name).read_bytes()
                        for name in ("checkpoint_continuous.sgnp", "loss_continuous.csv")])
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_the_help_lists_every_exit_code(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    out = " ".join(capsys.readouterr().out.split())
    assert ("exit codes: 0 success, 2 configuration error, 3 numerical blowup, "
            "4 I/O error, 5 out of memory") in out


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["generate", "--config", str(path)]) == 2


def test_a_config_that_is_not_utf8_is_config_error_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes('{"experiment": "cd", "out_dir": "caf\u00e9"}'.encode("latin-1"))
    with pytest.raises(ConfigError, match="not UTF-8 JSON"):
        load_config(path)
    assert main(["generate", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {path}: not UTF-8 JSON")


def test_missing_manifest_is_config_error(tmp_path):
    path = smoke_config(tmp_path)
    assert main(["train", "--config", str(path)]) == 2


def _without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("corrupt", [
    lambda text, m: text[: len(text) // 2],
    lambda text, m: json.dumps(m["files"]),
    lambda text, m: json.dumps(_without(m, "files")),
    lambda text, m: json.dumps(dict(m, files=m["files"][0])),
    lambda text, m: json.dumps(dict(m, files=[_without(m["files"][0], "sha256")])),
    lambda text, m: json.dumps(dict(m, files=[dict(m["files"][0], index="0")])),
    lambda text, m: json.dumps(dict(m, files=[dict(m["files"][0], kind="raw")])),
    lambda text, m: json.dumps(dict(m, files=[dict(m["files"][0], name="../cfg.json")])),
    lambda text, m: json.dumps(dict(m, files=[dict(m["files"][0], name="a\0b")])),
    lambda text, m: json.dumps(dict(m, files=[dict(m["files"][0], extra=1)])),
    lambda text, m: json.dumps(dict(m, model=[])),
], ids=["truncated", "array", "no-files", "files-not-a-list", "entry-without-sha256",
        "string-index", "unknown-kind", "name-outside-the-run", "nul-in-name", "unknown-entry-key",
        "model-not-an-object"])
def test_a_malformed_manifest_is_a_format_error(tmp_path, capsys, corrupt):
    path = smoke_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    mpath = tmp_path / "run" / "manifest.json"
    text = mpath.read_text()
    mpath.write_text(corrupt(text, json.loads(text)))
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 4
    assert capsys.readouterr().err.startswith(f"i/o error: {mpath}: ")


def _filtered(m, edit):
    """Manifest m with its list of filtered entries replaced by edit(list)."""
    return dict(m, files=[e for e in m["files"] if e["kind"] != "filtered"]
                + edit([e for e in m["files"] if e["kind"] == "filtered"]))


# once, a duplicated entry loaded as two trajectories, both trajectory 0,
# and `predict --traj-index 1` rolled out trajectory 0
@pytest.mark.parametrize("edit,message", [
    (lambda fs: fs[:2] + [dict(fs[2], index=0)],
     "the filtered files have indices [0, 0, 1], not 0..data.n_traj - 1 once each "
     "(data.n_traj is 3)"),
    (lambda fs: fs[:2], "the filtered files have indices [0, 1], not"),
    (lambda fs: fs[:2] + [dict(fs[2], index=3)], "the filtered files have indices [0, 1, 3], not"),
    (lambda fs: fs[:2] + [dict(fs[2], name=fs[0]["name"])],
     "file 'filtered_0000.sgnt' is listed twice"),
    (lambda fs: fs[:2] + [fs[0]], "file 'filtered_0000.sgnt' is listed twice"),
], ids=["duplicated-index", "missing-index", "index-at-n_traj", "repeated-name",
        "duplicated-entry"])
def test_a_manifest_whose_files_do_not_match_its_dataset_is_a_format_error(
    tmp_path, capsys, edit, message
):
    path = smoke_config(tmp_path, data={"n_traj": 3, "dt": 1e-3, "t_final": 0.02})
    assert main(["generate", "--config", str(path)]) == 0
    mpath = tmp_path / "run" / "manifest.json"
    mpath.write_text(json.dumps(_filtered(json.loads(mpath.read_text()), edit)))
    capsys.readouterr()
    assert main(["predict", "--config", str(path), "--variant", "low", "--traj-index", "1"]) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {mpath}: ") and message in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "run" / "pred_low.sgnt").exists()


def test_a_tampered_manifest_exits_4_through_the_entry_point(tmp_path):
    path = smoke_config(tmp_path, data={"n_traj": 3, "dt": 1e-3, "t_final": 0.02})
    assert main(["generate", "--config", str(path)]) == 0
    mpath = tmp_path / "run" / "manifest.json"
    mpath.write_text(json.dumps(_filtered(json.loads(mpath.read_text()), lambda fs: fs + fs[:1])))
    proc = subprocess.run([sys.executable, "-m", "sgnode.cli", "predict", "--config", str(path),
                           "--variant", "low"], capture_output=True, text=True)
    assert proc.returncode == 4
    assert proc.stderr.startswith(f"i/o error: {mpath}: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("experiment,data,kinds", [
    ("cd", {"store_high": True}, ["truth", "filtered"]),
    ("cd", {"store_high": False}, ["filtered"]),
    ("l96", {"spinup": 0.01}, ["truth"]),
])
def test_the_manifests_generate_writes_load(tmp_path, experiment, data, kinds):
    data = {"n_traj": 3, "dt": 1e-3, "t_final": 0.01, **data}
    model = {"model": L96_MODEL} if experiment == "l96" else {}
    cfg = load_config(smoke_config(tmp_path, experiment, data=data, **model))
    manifest = experiments.generate(cfg)
    assert load_manifest(cfg) == manifest
    for kind in kinds:
        assert [tr.path.name for tr in experiments.load_dataset(cfg, kind)] == [
            f"{kind}_{i:04d}.sgnt" for i in range(3)]


@pytest.mark.parametrize("experiment,section,key,value,message", [
    ("burgers", None, None, None, "experiment is 'cd' there and 'burgers' in the config"),
    ("cd", "model", "n_elem", 10, "model.n_elem is 8 there and 10 in the config"),
    ("cd", "model", "kappa", 2e-3, "model.kappa is 0.001 there and 0.002 in the config"),
    ("cd", "data", "t_final", 0.03, "data.t_final is 0.02 there and 0.03 in the config"),
])
def test_a_manifest_of_another_run_is_config_error_naming_the_key(
    tmp_path, capsys, experiment, section, key, value, message
):
    assert main(["generate", "--config", str(smoke_config(tmp_path))]) == 0
    path = smoke_config(tmp_path, experiment)  # the same run directory
    if section:
        cfg = json.loads(path.read_text())
        cfg[section][key] = value
        path.write_text(json.dumps(cfg))
    capsys.readouterr()
    for command in (["train"], ["predict", "--variant", "low"]):
        assert main(command + ["--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "manifest.json" in err and message in err


def test_out_is_the_run_directory_the_manifest_is_read_from(tmp_path, capsys):
    path = smoke_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    elsewhere = tmp_path / "elsewhere"
    assert main(["predict", "--config", str(path), "--variant", "low", "--out", str(elsewhere)]) == 2
    assert str(elsewhere / "manifest.json") in capsys.readouterr().err
    with pytest.raises(SystemExit):
        main(["predict", "--help"])
    assert "manifest.json" in capsys.readouterr().out


@pytest.mark.parametrize("command,extra", [
    ("predict", ["--variant", "low"]),
    ("sweep", ["--checkpoint", "c.sgnp", "--checkpoint-discrete", "d.sgnp"]),
    ("time", []),
])
@pytest.mark.parametrize("index", [2, 99, -1])
def test_traj_index_out_of_range_is_config_error(tmp_path, capsys, command, extra, index):
    path = smoke_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    capsys.readouterr()
    argv = [command, "--config", str(path), "--traj-index", str(index), *extra]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"--traj-index {index} is out of range" in err and "0..1" in err


@pytest.mark.parametrize("pred_dim,ref_dim", [(36, 16), (16, 36), (16, 24)])
def test_evaluate_rejects_states_of_another_dimension(tmp_path, capsys, pred_dim, ref_dim):
    # an L96 trajectory (K = 36) under a CD config whose low mesh has 16 dofs
    path = smoke_config(tmp_path)
    files = {}
    for name, d in (("pred", pred_dim), ("ref", ref_dim)):
        files[name] = tmp_path / f"{name}.sgnt"
        save_trajectory(Trajectory(0.0, 0.1, np.zeros((3, d))), files[name])
    argv = ["evaluate", "--config", str(path), "--pred", str(files["pred"]), "--ref", str(files["ref"])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "state dimension" in err


def test_evaluate_scores_a_high_order_prediction_on_the_low_mesh(tmp_path):
    path = smoke_config(tmp_path, "burgers")
    out = tmp_path / "run"
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["predict", "--config", str(path), "--variant", "high"]) == 0
    high = load_trajectory(out / "pred_high.sgnt")
    mesh_h, mesh_l = experiments.pde_meshes(load_config(path).model)
    assert high.dim == mesh_h.n_dof
    projected = dataclasses.replace(high, states=dg.project_states(mesh_h, high.states, 1))
    save_trajectory(projected, tmp_path / "projected.sgnt")
    reports = {}
    preds = {"high": out / "pred_high.sgnt", "projected": tmp_path / "projected.sgnt"}
    for name, pred in preds.items():
        argv = ["evaluate", "--config", str(path), "--pred", str(pred),
                "--ref", str(out / "filtered_0000.sgnt"), "--out", str(tmp_path / name)]
        assert main(argv) == 0
        reports[name] = [(tmp_path / name / f).read_bytes()
                         for f in ("errors.csv", "spectrum_pred.csv", "spectrum_ref.csv")]
    assert reports["high"] == reports["projected"]


@pytest.mark.parametrize("pred_dim,ref_dim", [(32, 31), (33, 32), (48, 16), (32, 64)])
def test_evaluate_takes_only_the_low_and_high_mesh_dimensions(tmp_path, capsys, pred_dim, ref_dim):
    # the smoke CD config's low mesh has 16 dofs and its high mesh 32
    path = smoke_config(tmp_path)
    files = {}
    for name, d in (("pred", pred_dim), ("ref", ref_dim)):
        files[name] = tmp_path / f"{name}.sgnt"
        save_trajectory(Trajectory(0.0, 0.1, np.ones((3, d))), files[name])
    argv = ["evaluate", "--config", str(path),
            "--pred", str(files["pred"]), "--ref", str(files["ref"])]
    assert main(argv) == 2
    assert "state dimension" in capsys.readouterr().err
    # a high-order state against a low-order one is scored
    save_trajectory(Trajectory(0.0, 0.1, np.ones((3, 16))), files["ref"])
    for pred in (32, 16):
        save_trajectory(Trajectory(0.0, 0.1, np.ones((3, pred))), files["pred"])
        assert main(argv) == 0


@pytest.mark.parametrize("t0,dt,named", [
    (0.0, 0.015, "pred dt 0.015 vs ref dt 0.01"),
    (0.5, 0.01, "pred t0 0.5 vs ref t0 0.0"),
])
def test_evaluate_of_grids_that_do_not_align_is_config_error(tmp_path, capsys, t0, dt, named):
    path = smoke_config(tmp_path)
    pred, ref = tmp_path / "pred.sgnt", tmp_path / "ref.sgnt"
    save_trajectory(Trajectory(t0, dt, np.ones((5, 16))), pred)
    save_trajectory(Trajectory(0.0, 0.01, np.ones((5, 16))), ref)
    assert main(["evaluate", "--config", str(path), "--pred", str(pred), "--ref", str(ref)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


def test_evaluate_rejects_a_full_prediction_against_slow_truth(tmp_path, capsys):
    # K = 8 slow and K(J+1) = 40 variables are both l96 states, but the
    # full prediction cannot be compared with a slow-only reference
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "l96", "seed": 2, "out_dir": str(tmp_path / "run"),
        "model": {"K": 8, "J": 4, "F": 6.0},
        "data": {"n_traj": 1, "dt": 0.005, "t_final": 0.25, "spinup": 0.5},
    }))
    pred, ref = tmp_path / "pred.sgnt", tmp_path / "ref.sgnt"
    save_trajectory(Trajectory(0.0, 0.1, np.zeros((3, 40))), pred)
    save_trajectory(Trajectory(0.0, 0.1, np.zeros((3, 8))), ref)
    assert main(["evaluate", "--config", str(path), "--pred", str(pred), "--ref", str(ref)]) == 2
    assert "--pred has state dimension 40 but --ref has 8" in capsys.readouterr().err


def test_generate_train_predict_evaluate_cycle(tmp_path, capsys):
    path = smoke_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    out = tmp_path / "run"
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["files"]) == 4  # 2 truth + 2 filtered
    capsys.readouterr()
    assert main(["train", "--config", str(path), "--verbose"]) == 0
    assert (out / "checkpoint_continuous.sgnp").exists()
    loss_rows = (out / "loss_continuous.csv").read_text().splitlines()
    assert len(loss_rows) == 3  # header + 2 epochs
    # --verbose prints epoch 1, with its held-out loss, as the CSV holds it
    epoch, train_loss, test_loss = loss_rows[1].split(",")
    printed = capsys.readouterr().out.splitlines()[0]
    assert printed == f"epoch {epoch}: train {float(train_loss):.6e} test {float(test_loss):.6e}"
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


@pytest.mark.parametrize("config", ["configs/l96-desk.json", "configs/cd-desk.json"])
def test_the_augmented_prediction_rolls_out_the_model_training_differentiates(config):
    cfg = load_config(config)
    dims = experiments.source_dims(cfg)
    if cfg.experiment == "l96":
        lcfg = experiments.l96_config(cfg.model)
        u0 = lorenz96.truth_start(lcfg, 1, cfg.data.dt, 0.5, cfg.seed)[1][0]
    else:
        u0 = dg.cd_initial_condition(experiments.pde_meshes(cfg.model)[1], 0.25)
    tab = ode.get_tableau(cfg.prediction.tableau)
    net = mlp.init_params(*dims, seed=5)
    cases = [("augmented", net)]
    if cfg.experiment == "l96":  # the uncoupled baseline: the same model with a zero source
        cases.append(("low", mlp.zero_params(*dims)))
    for variant, source in cases:
        dt = experiments.prediction_dt(cfg, variant)
        got = experiments.predict(cfg, net, u0, dt, 20, variant)
        rhs = experiments.rhs_builder_for(cfg)(source.weights, source.biases)
        want = integrate(tab, rhs, u0, 0.0, dt, 20)
        assert got.states.tobytes() == want.states.tobytes(), variant


@pytest.mark.parametrize("experiment,variant", [("cd", "augmented"), ("l96", "slow")])
def test_a_net_variant_without_a_checkpoint_exits_2_and_writes_nothing(
        tmp_path, capsys, experiment, variant):
    path = smoke_config(tmp_path, experiment, **({"model": L96_MODEL} if experiment == "l96" else {}))
    assert main(["generate", "--config", str(path)]) == 0
    before = sorted(p.name for p in (tmp_path / "run").iterdir())
    capsys.readouterr()
    assert main(["predict", "--config", str(path), "--variant", variant]) == 2
    assert f"variant {variant!r} needs --checkpoint" in capsys.readouterr().err
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == before


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
        mlp.save_params(mlp.init_params(d_in, d_out, seed=0), wrong)
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
    cfg["training_discrete"] = {k: v for k, v in cfg["training"].items()
                                if k not in ("window", "test_every")} | {"seed": 9}
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


def test_discrete_training_with_a_trajectory_split(tmp_path):
    # the training ranges list only the first two of four trajectories
    train = {"epochs": 1, "batch_size": 4, "dt": 2e-3, "tableau": "rk4",
             "split": 0.5, "split_axis": "trajectory"}
    path = smoke_config(tmp_path, data={"n_traj": 4, "dt": 1e-3, "t_final": 0.02},
                        training_discrete=train)
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["train", "--config", str(path), "--discrete"]) == 0
    cfg = load_config(path)
    trajs = experiments.load_dataset(cfg)
    rhs = dg.rhs_semidiscrete(experiments.pde_config("cd", cfg.model), experiments.pde_meshes(cfg.model)[1])
    train_rng, _ = training.split_ranges(trajs, cfg.training_discrete)
    split = training.discrete_forcing_dataset(trajs, 2e-3, rhs, "rk4", ranges=train_rng)
    whole = training.discrete_forcing_dataset(trajs[:2], 2e-3, rhs, "rk4")
    for a, b in zip(split, whole, strict=True):
        assert np.array_equal(a, b)


def test_discrete_training_and_sweep(tmp_path, capsys):
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
    # a step that is neither a multiple nor a divisor of the data's 1e-3
    capsys.readouterr()
    rc = main([
        "sweep", "--config", str(path),
        "--checkpoint", str(out / "checkpoint_continuous.sgnp"),
        "--checkpoint-discrete", str(out / "checkpoint_discrete.sgnp"),
        "--dts", "1e-3,1.5e-3", "--times", "0.01,0.02",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --dts entry 0.0015 ") and "ref dt 0.001" in err


@pytest.mark.parametrize("times", ["0.0105,0.01", "0.01,0.03"], ids=["off-grid", "past-the-end"])
def test_a_sweep_time_the_runs_do_not_share_with_the_data_exits_2(tmp_path, capsys, times):
    # the data has dt 1e-3 up to t = 0.02
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    for name in ("c.sgnp", "d.sgnp"):
        mlp.save_params(mlp.zero_params(16, 16), out / name)
    capsys.readouterr()
    assert main(["sweep", "--config", str(path), "--checkpoint", str(out / "c.sgnp"),
                 "--checkpoint-discrete", str(out / "d.sgnp"),
                 "--dts", "1e-3", "--times", times]) == 2
    err = capsys.readouterr().err
    bad = times.split(",")[0 if times.startswith("0.0105") else 1]
    assert err.startswith(f"config error: --times entry {bad} ") and "--dts entry 0.001" in err
    assert not (out / "sweep.csv").exists()


_CD_VARIANTS = "high, low, augmented, discrete, low2, low3"


@pytest.mark.parametrize("checkpoint", [False, True])
def test_a_variant_the_experiment_lacks_exits_2_listing_its_variants(tmp_path, capsys, checkpoint):
    path = smoke_config(tmp_path)
    argv = ["predict", "--config", str(path), "--variant", "slow"]
    if checkpoint:
        net = tmp_path / "net.sgnp"
        mlp.save_params(mlp.zero_params(16, 16), net)
        argv += ["--checkpoint", str(net)]
    # no dataset was generated: the variant is checked before any file is read
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (f"config error: --variant: 'slow' is not a cd prediction variant; "
                   f"choose from {_CD_VARIANTS}\n")


def test_a_config_variant_the_experiment_lacks_exits_2_at_load(tmp_path, capsys):
    prediction = {"dt": 0.05, "t_final": 0.25, "tableau": "rk4", "variant": "low2"}
    path = smoke_config(tmp_path, "l96", model=L96_MODEL, prediction=prediction)
    assert main(["predict", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "config error: prediction.variant: 'low2' is not a l96 prediction variant; "
        "choose from high, low, augmented, slow\n")
    with pytest.raises(ConfigError, match="'low2' is not a l96"):
        load_config(path)


def test_discrete_training_writes_its_periodic_checkpoints(tmp_path):
    train = {"epochs": 4, "batch_size": 4, "dt": 2e-3, "tableau": "rk4",
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


def test_a_blowup_after_a_periodic_checkpoint_leaves_it_on_disk(tmp_path, capsys, monkeypatch):
    train = {"epochs": 3, "batch_size": 4, "window": 2, "dt": 2e-3, "tableau": "rk4",
             "seed": 1, "split": 0.75, "test_every": 1, "checkpoint_every": 1}
    path = smoke_config(tmp_path, training=train)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    sample = training.sample_windows

    def poisoned(trajs, cfg, epoch_seed, ranges=None):
        batch = sample(trajs, cfg, epoch_seed, ranges)
        if epoch_seed[1:] == [101, 2]:  # epoch 2's training batch
            batch.x0[1] = np.nan
        return batch

    monkeypatch.setattr(training, "sample_windows", poisoned)
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 3
    assert "blew up at epoch 2" in capsys.readouterr().err
    assert [p.name for p in out.glob("checkpoint*")] == ["checkpoint_continuous_000001.sgnp"]
    monkeypatch.undo()
    first = out / "checkpoint_continuous_000001.sgnp"
    assert main(["train", "--config", str(path), "--resume", str(first)]) == 0
    assert (out / "checkpoint_continuous_000003.sgnp").exists()


def test_run_timings_steps_at_the_prediction_tableau(tmp_path, monkeypatch):
    timing = {"repeats": 1, "t_final": 0.01, "dts": {"low": 2e-3, "augmented": 2e-3}}
    path = smoke_config(tmp_path, timing=timing)
    main(["generate", "--config", str(path)])
    cfg = load_config(path)
    ref = experiments.load_dataset(cfg)[0]
    truth = experiments.load_dataset(cfg, kind="truth")[0]
    stepped = []
    integrate = experiments.integrate
    monkeypatch.setattr(experiments, "integrate",
                        lambda tab, *a, **k: (stepped.append(tab.name), integrate(tab, *a, **k))[1])
    for tableau in ("rk4", "tsit5"):
        stepped.clear()
        cfg.prediction.tableau = tableau
        rows = run_timings(cfg, ref, truth, mlp.zero_params(16, 16))
        assert [r[0] for r in rows] == ["low", "augmented"]
        assert stepped == [tableau] * 4


def test_timing_command(tmp_path):
    path = smoke_config(tmp_path)
    main(["generate", "--config", str(path)])
    out = tmp_path / "run"
    main(["train", "--config", str(path)])
    rc = main(["time", "--config", str(path),
               "--checkpoint", str(out / "checkpoint_continuous.sgnp")])
    assert rc == 0
    rows = (out / "timings.csv").read_text().splitlines()
    assert rows[0] == "variant,dt,first_ms,warm_median_ms,first_cpu_ms,warm_median_cpu_ms"
    assert len(rows) == 6
    # without a checkpoint the source net is timed with zero weights
    assert main(["time", "--config", str(path)]) == 0


def test_timing_without_high_reads_no_truth(tmp_path):
    # with data.store_high false only filtered files exist, which is enough
    # when the high-order variant is not timed
    timing = {"repeats": 1, "t_final": 0.01,
              "dts": {"low": 2e-3, "augmented": 2e-3}}
    path = smoke_config(tmp_path, timing=timing,
                        data={"n_traj": 1, "dt": 1e-3, "t_final": 0.02, "store_high": False})
    assert main(["generate", "--config", str(path)]) == 0
    assert main(["time", "--config", str(path)]) == 0
    rows = (tmp_path / "run" / "timings.csv").read_text().splitlines()
    assert [r.split(",")[0] for r in rows[1:]] == ["low", "augmented"]


def test_timing_blowup_names_its_variant_and_dt(tmp_path, capsys):
    timing = {"repeats": 1, "t_final": 5.0, "dts": {"low": 0.5}}
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
    assert e.value.run == "variant low at dt=0.5"


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
    reason="np.longdouble is binary64 on this platform",
)
def test_gradcheck_command(tmp_path, capsys):
    path = smoke_config(tmp_path)
    assert main(["gradcheck", "--config", str(path), "--sample", "16"]) == 0
    out = capsys.readouterr().out
    (err,) = re.findall(r"^cd: max relative gradient error (\S+)$", out, re.M)
    assert 0.0 < float(err) < 1e-4
    # a tolerance below the error fails the check
    assert main(["gradcheck", "--config", str(path), "--sample", "16",
                 "--tolerance", str(float(err) / 2)]) == 3


def test_gradcheck_on_a_binary64_long_double_exits_2(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiments.np, "longdouble", np.float64)
    assert main(["gradcheck", "--config", str(smoke_config(tmp_path))]) == 2
    assert capsys.readouterr().err == (
        "config error: np.longdouble is binary64 on this platform, so the gradient "
        "check's long-double differences cannot resolve the tape gradient\n")


@pytest.mark.parametrize("command,extra,flag", [
    ("sweep", ["--dts", "0"], "--dts"),
    ("sweep", ["--dts", "abc"], "--dts"),
    ("sweep", ["--dts=-1e-3"], "--dts"),
    ("sweep", ["--dts", "1e-3,,2e-3"], "--dts"),
    ("sweep", ["--times=-1"], "--times"),
    ("sweep", ["--times", "inf"], "--times"),
    ("predict", ["--dt-override=-1e-3"], "--dt-override"),
    ("predict", ["--dt-override", "0"], "--dt-override"),
    ("predict", ["--dt-override", "nan"], "--dt-override"),
    ("gradcheck", ["--sample", "-1"], "--sample"),
    ("gradcheck", ["--sample", "1.5"], "--sample"),
    ("gradcheck", ["--tolerance", "0"], "--tolerance"),
    ("gradcheck", ["--seed=1.5"], "--seed"),
    ("generate", ["--seed", "x"], "--seed"),
    *((command, ["--seed", "-1"], "--seed") for command in (
        "generate", "train", "predict", "evaluate", "sweep", "time", "gradcheck")),
])
def test_a_bad_numeric_flag_exits_2_naming_it(tmp_path, capsys, command, extra, flag):
    path = smoke_config(tmp_path)
    required = {"sweep": ["--checkpoint", "c.sgnp", "--checkpoint-discrete", "d.sgnp"],
                "evaluate": ["--pred", "p.sgnt", "--ref", "r.sgnt"]}
    with pytest.raises(SystemExit) as e:
        main([command, "--config", str(path), *required.get(command, []), *extra])
    assert e.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument {flag}: " in err and "Traceback" not in err


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


def test_every_l96_variant_runs_at_its_default_dt(tmp_path):
    # the full state steps at data.dt, as its fast variables need; the
    # slow-only state at prediction.dt, at which the full state blows up
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "l96", "seed": 2, "out_dir": str(tmp_path / "run"),
        "model": {"K": 8, "J": 4, "F": 6.0, "source_scope": "per_component"},
        "data": {"n_traj": 1, "dt": 0.005, "t_final": 0.25, "spinup": 0.5},
        "prediction": {"dt": 0.05, "t_final": 0.25, "tableau": "rk4", "variant": "slow"},
    }))
    assert main(["generate", "--config", str(path)]) == 0
    out = tmp_path / "run"
    mlp.save_params(mlp.init_params(1, 1, seed=1), out / "net.sgnp")
    for variant, dt in (("high", 0.005), ("low", 0.005), ("augmented", 0.005), ("slow", 0.05)):
        assert main(["predict", "--config", str(path), "--variant", variant,
                     "--checkpoint", str(out / "net.sgnp")]) == 0, variant
        pred = load_trajectory(out / f"pred_{variant}.sgnt")
        assert (pred.dt, len(pred)) == (dt, int(round(0.25 / dt)) + 1), variant


def test_every_burgers_desk_variant_runs_at_its_default_dt(tmp_path, capsys):
    # at prediction.dt (0.025) high, low2 and low3 blow up within three
    # steps; each steps at its smaller timing.dts entry instead
    cfg = json.loads(Path("configs/burgers-desk.json").read_text())
    cfg["out_dir"] = str(tmp_path / "run")
    cfg["data"]["t_final"] = 0.005
    cfg["prediction"]["t_final"] = 0.1
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["generate", "--config", str(path)]) == 0
    out = tmp_path / "run"
    mlp.save_params(mlp.zero_params(*experiments.source_dims(load_config(path))), out / "net.sgnp")
    dts = {"high": 1e-3, "low2": 0.018, "low3": 0.0125}
    for variant in VARIANTS["burgers"]:
        rc = main(["predict", "--config", str(path), "--variant", variant,
                   "--checkpoint", str(out / "net.sgnp")])
        assert rc == 0, (variant, capsys.readouterr().err)
        dt = dts.get(variant, 0.025)
        pred = load_trajectory(out / f"pred_{variant}.sgnt")
        assert (pred.dt, len(pred)) == (dt, int(round(0.1 / dt)) + 1), variant


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


def test_store_high_false_keeps_filtered_only(tmp_path, capsys):
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
    # the high-order rollout has no initial state
    capsys.readouterr()
    assert main(["predict", "--config", str(path), "--variant", "high"]) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line == "config error: manifest has no 'truth' trajectories"
    assert not (tmp_path / "run" / "pred_high.sgnt").exists()


@pytest.mark.parametrize("experiment,n_traj", [("cd", 3), ("burgers", 2)])
def test_generate_writes_the_bytes_of_one_rollout_per_trajectory(
    tmp_path, monkeypatch, experiment, n_traj
):
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
        alone = integrate(tableau_rk4(), rhs, u0, 0.0, 1e-3, 20).states
        truth = load_trajectory(cfg.out_dir / f"truth_{i:04d}.sgnt")
        filtered = load_trajectory(cfg.out_dir / f"filtered_{i:04d}.sgnt")
        assert truth.states.tobytes() == alone.tobytes()
        assert filtered.states.tobytes() == dg.project_states(mesh_h, alone, 1).tobytes()
        if experiment == "cd":
            assert truth.meta["phi"] == filtered.meta["phi"] == repr(phase)
    manifest = (cfg.out_dir / "manifest.json").read_bytes()
    for entry in json.loads(manifest)["files"]:
        with open(cfg.out_dir / entry["name"], "rb") as f:
            assert experiments.sha256_file(f) == entry["sha256"]
    # a budget of 1 byte writes every step as its own chunk, with the same bytes
    monkeypatch.setattr(ode, "CHUNK_BYTES", 1)
    cfg.out_dir = tmp_path / "one_step_chunks"
    experiments.generate(cfg)
    assert (cfg.out_dir / "manifest.json").read_bytes() == manifest


def test_l96_generate_writes_the_bytes_of_generate_truth(tmp_path, monkeypatch):
    monkeypatch.setattr(ode, "CHUNK_BYTES", 1)  # spin-up and record in 1-step chunks
    path = smoke_config(tmp_path, "l96", model=L96_MODEL,
                        data={"n_traj": 3, "dt": 0.005, "t_final": 0.05, "spinup": 0.1})
    cfg = load_config(path)
    experiments.generate(cfg)
    lcfg = experiments.l96_config(cfg.model)
    for i, tr in enumerate(lorenz96.generate_truth(lcfg, 3, 0.005, 0.1, 0.05, seed=cfg.seed)):
        written = load_trajectory(cfg.out_dir / f"truth_{i:04d}.sgnt")
        assert written.states.tobytes() == tr.states.tobytes()
        assert written.meta == tr.meta


@pytest.mark.parametrize("spinup", [0.1, 0.0], ids=["in-the-spin-up", "in-the-record"])
def test_an_l96_generate_blowup_names_the_trajectory(tmp_path, monkeypatch, spinup):
    plain = lorenz96.random_initial_state
    calls = []

    def third_is_nan(cfg, rng):
        z = plain(cfg, rng)
        calls.append(z)
        if len(calls) == 3:
            z[5] = np.nan
        return z

    path = smoke_config(tmp_path, "l96", model=L96_MODEL,
                        data={"n_traj": 4, "dt": 0.005, "t_final": 0.05, "spinup": spinup})
    cfg = load_config(path)
    experiments.generate(cfg)  # a manifest the failed run must take away
    monkeypatch.setattr(lorenz96, "random_initial_state", third_is_nan)
    with pytest.raises(BlowupError) as e:
        experiments.generate(cfg)
    assert (e.value.sample, e.value.step, e.value.stage) == (2, 0, 0)
    assert not (cfg.out_dir / "manifest.json").exists()


def test_a_blowup_in_a_later_chunk_names_its_global_step(tmp_path, monkeypatch):
    # trajectory 1 grows ~7x per step and blows up well past the first chunk
    plain = dg.rhs_semidiscrete

    def growing(pcfg, mesh):
        rhs = plain(pcfg, mesh)
        return Rhs(lambda u: rhs(u) + 2e3 * u * (np.arange(len(u)) == 1)[:, None], rhs.dim)

    monkeypatch.setattr(dg, "rhs_semidiscrete", growing)
    cfg = load_config(smoke_config(tmp_path, data={"n_traj": 3, "dt": 1e-3, "t_final": 0.05}))
    errors = []
    for chunk_bytes in (1, ode.CHUNK_BYTES):  # one step per chunk, then one chunk
        monkeypatch.setattr(ode, "CHUNK_BYTES", chunk_bytes)
        with pytest.raises(BlowupError) as e:
            experiments.generate(cfg)
        errors.append(e.value)
    chunked, whole = errors
    assert chunked.step > 1 and chunked.sample == 1
    assert (chunked.step, chunked.stage, chunked.time, chunked.sample, str(chunked)) == (
        whole.step, whole.stage, whole.time, whole.sample, str(whole))
    assert not (cfg.out_dir / "manifest.json").exists()


_PEAK_RSS = """
import resource, sys
from sgnode import experiments
from sgnode.config import load_config
cfg = load_config(sys.argv[1])
cfg.data.t_final = float(sys.argv[2])
experiments.generate(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_generate_peak_rss_is_flat_in_t_final(tmp_path):
    # cd-desk's mesh: 10 trajectories of 300 states hold 12 MB of history per
    # 0.05 of t_final, which a generate holding the whole block would add
    path = smoke_config(
        tmp_path, model={"a": 1.0, "kappa": 1e-4, "n_elem": 50, "order_high": 5, "order_low": 1},
        data={"n_traj": 10, "dt": 1e-4, "t_final": 0.05},
    )
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).parents[1]))
    peaks = []
    for t_final in (0.05, 0.2):
        proc = subprocess.run([sys.executable, "-c", _PEAK_RSS, str(path), str(t_final)],
                              env=env, capture_output=True, text=True, check=True)
        peaks.append(int(proc.stdout) / 1024)  # ru_maxrss is in KiB on Linux
    assert abs(peaks[1] - peaks[0]) < 4.0, peaks


def test_a_dataset_reads_each_trajectory_on_first_use(tmp_path, capsys):
    path = smoke_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    cfg = load_config(path)
    broken = cfg.out_dir / "filtered_0001.sgnt"
    broken.write_bytes(broken.read_bytes()[:100])
    trajs = experiments.load_dataset(cfg)
    assert len(trajs) == 2
    assert trajs[0].dim == 16 and trajs[-2] is trajs[0]
    # an item keeps its header, metadata and open file, not a state array
    assert not hasattr(trajs[0], "states")
    assert not any(isinstance(v, np.ndarray) for v in vars(trajs[0]).values())
    whole = load_trajectory(cfg.out_dir / "filtered_0000.sgnt")
    assert trajs[0].rows([3, 0, 1, 2]).tobytes() == whole.states[[3, 0, 1, 2]].tobytes()
    assert trajs[0].load().states.tobytes() == whole.states.tobytes()
    with pytest.raises(FormatError, match="filtered_0001.sgnt: truncated"):
        trajs[1]
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 4
    assert "filtered_0001.sgnt" in capsys.readouterr().err


def test_a_file_truncated_after_its_check_fails_at_the_short_read(tmp_path, monkeypatch, capsys):
    path = smoke_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    cfg = load_config(path)
    item = experiments.load_dataset(cfg)[1]
    item.rows([0, 20])
    os.truncate(item.path, 100)  # inside the first state
    with pytest.raises(FormatError, match="filtered_0001.sgnt: truncated while reading states 0..0"):
        item.rows([0, 20])
    del item

    # train checks every file, and each is truncated right after its check
    assert main(["generate", "--config", str(path)]) == 0
    checked = []

    def check_then_truncate(f):
        digest = sha256_file(f)
        os.truncate(f.name, 100)
        checked.append(Path(f.name).name)
        return digest

    sha256_file = experiments.sha256_file
    monkeypatch.setattr(experiments, "sha256_file", check_then_truncate)
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 4
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("i/o error: ") and ": truncated while reading states " in line
    assert sorted(checked) == ["filtered_0000.sgnt", "filtered_0001.sgnt"]
    assert any(name in line for name in checked)


def test_training_on_a_dataset_equals_training_in_memory(tmp_path):
    path = smoke_config(tmp_path, data={"n_traj": 3, "dt": 1e-3, "t_final": 0.04},
                        training_discrete={"epochs": 3, "batch_size": 8, "dt": 2e-3,
                                           "tableau": "rk4", "split": 0.75})
    assert main(["generate", "--config", str(path)]) == 0
    cfg = load_config(path)
    cfg.training = dataclasses.replace(cfg.training, epochs=3)
    stored = experiments.load_dataset(cfg)
    loaded = [tr.load() for tr in stored]
    builder = experiments.rhs_builder_for(cfg)
    runs = [training.train(trajs, cfg.training, builder, 16, 16) for trajs in (stored, loaded)]
    runs += [experiments.train_discrete(cfg, trajs) for trajs in (stored, loaded)]
    for a, b in (runs[:2], runs[2:]):
        assert repr(a.history) == repr(b.history)
        for p, q in zip(mlp.param_list(a.params), mlp.param_list(b.params), strict=True):
            assert p.tobytes() == q.tobytes()


_TRAIN_PEAK_RSS = """
import resource, sys
from sgnode import experiments, training
from sgnode.config import load_config
cfg = load_config(sys.argv[1])
cfg.out_dir = sys.argv[2]
trajs = experiments.load_dataset(cfg)
training.train(trajs, cfg.training, experiments.rhs_builder_for(cfg),
               *experiments.source_dims(cfg))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_training_peak_rss_is_flat_in_n_traj(tmp_path):
    # 1601 filtered states of 100 entries are 1.3 MB a trajectory; a dataset
    # that kept each trajectory it touched peaked 39 MB higher on 48 than on 6
    train = {"epochs": 4, "batch_size": 100, "window": 2, "dt": 1e-4, "tableau": "rk4",
             "optimizer": "adam", "lr": 1e-3, "seed": 1, "split": 1.0, "split_axis": "time",
             "test_every": 0}
    model = {"a": 1.0, "kappa": 1e-4, "n_elem": 50, "order_high": 2, "order_low": 1}
    env = dict(os.environ, PYTHONPATH=str(Path(experiments.__file__).parents[1]))
    peaks = []
    for n_traj in (6, 48):
        path = smoke_config(tmp_path, model=model, training=train,
                            data={"n_traj": n_traj, "dt": 1e-4, "t_final": 0.16,
                                  "store_high": False})
        out = tmp_path / f"run_{n_traj}"
        assert main(["generate", "--config", str(path), "--out", str(out)]) == 0
        proc = subprocess.run([sys.executable, "-c", _TRAIN_PEAK_RSS, str(path), str(out)],
                              env=env, capture_output=True, text=True, check=True)
        peaks.append(int(proc.stdout) / 1024)  # ru_maxrss is in KiB on Linux
    assert abs(peaks[1] - peaks[0]) < 4.0, peaks


def test_a_swapped_dataset_file_exits_4_naming_it(tmp_path, capsys):
    path = smoke_config(tmp_path)
    assert main(["generate", "--config", str(path)]) == 0
    out = tmp_path / "run"
    (out / "filtered_0000.sgnt").write_bytes((out / "filtered_0001.sgnt").read_bytes())
    capsys.readouterr()
    assert main(["train", "--config", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("i/o error: ") and "filtered_0000.sgnt: sha256 is " in err


def test_generate_blowup_names_the_trajectory(tmp_path, monkeypatch):
    plain = dg.cd_initial_condition
    calls = []

    def second_is_nan(mesh, phase):
        calls.append(phase)
        u0 = plain(mesh, phase)
        if len(calls) == 2:
            u0[3 * (mesh.order + 1) + 1] = np.nan  # element 3, node 1
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
