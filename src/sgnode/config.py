"""JSON run configurations and dataset manifests with strict schema validation.

Every knob of the three experiments lives in one JSON document per run.
Each section is parsed straight into the dataclass that uses it: the
allowed keys are its fields, each value is checked against its field's
type, and range and choice constraints are the class's own.  Unknown keys
and bad values are rejected with their full path, so typos fail loudly
instead of silently falling back to defaults; so are keys the experiment
never reads.  The ``manifest.json`` that ``generate`` writes is parsed by
the same rules and checked against the config that reads it.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

from . import dg, lorenz96
from .errors import ConfigError, FormatError
from .ode import get_tableau
from .training import TrainConfig

EXPERIMENTS = ("l96", "cd", "burgers")
# the prediction variants each experiment defines
VARIANTS = {"l96": ("high", "low", "augmented", "slow")}
VARIANTS["cd"] = VARIANTS["burgers"] = ("high", "low", "augmented", "discrete", "low2", "low3")

# model defaults of the PDE experiments; their keys are the allowed keys, so
# a key the experiment never reads (Burgers' `a`, CD's `k0`) is rejected
_PDE_MODEL = {
    "cd": {"a": 1.0, "kappa": 1e-4, "n_elem": 50, "order_high": 5, "order_low": 1,
           "domain": [0.0, 1.0]},
    "burgers": {"kappa": 0.005, "n_elem": 64, "order_high": 8, "order_low": 1,
                "domain": [0.0, 2.0 * math.pi], "k0": 10, "n_synth": 32768},
}
# the data keys each experiment never reads, and the training keys that the
# discrete baseline's regression never reads (it has no windows or test loss)
_UNREAD_DATA = {"l96": ("store_high",), "cd": ("spinup",), "burgers": ("spinup",)}
_DISCRETE_UNREAD = ("window", "test_every")


def pde_config(experiment, model):
    kind = dg.VISCOUS_BURGERS if experiment == "burgers" else dg.CONVECTION_DIFFUSION
    return dg.PdeConfig(kind=kind, kappa=model["kappa"], a=model.get("a", 0.0))


def pde_meshes(model):
    dom = tuple(model["domain"])
    high = dg.make_mesh(model["n_elem"], model["order_high"], *dom)
    low = dg.make_mesh(model["n_elem"], model["order_low"], *dom)
    return high, low


def _check_keys(d, allowed, path):
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}; allowed {sorted(allowed)}")


def _value(x, hint, path):
    """x checked against the field type `hint`: no bool where a number is
    expected, ints widen to float, a float must be finite (JSON's NaN and
    Infinity are rejected), and containers are checked per item."""
    if dataclasses.is_dataclass(hint):
        return _section(hint, x, path)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is dict:
        return {k: _value(v, args[1], f"{path}.{k}") for k, v in _value(x, dict, path).items()}
    if origin is list:
        return [_value(v, args[0], path) for v in _value(x, list, path)]
    if isinstance(x, bool) != (hint is bool):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {x!r}")
    if hint is float and isinstance(x, int):
        x = float(x) if abs(x) <= sys.float_info.max else math.inf
    if not isinstance(x, hint):
        raise ConfigError(f"{path}: expected {hint.__name__}, got {x!r}")
    if hint is float and not math.isfinite(x):
        raise ConfigError(f"{path}: expected a finite number, got {x!r}")
    return x


def _section(cls, d, path, unused=()):
    """Dataclass `cls` built from the JSON object d found at `path`; the
    fields named in `unused` are rejected like unknown keys."""
    hints = typing.get_type_hints(cls)
    fields = [f for f in dataclasses.fields(cls) if f.name not in unused]
    _check_keys(_value(d, dict, path), [f.name for f in fields], path)
    missing = [f.name for f in fields if f.name not in d
               and f.default is f.default_factory is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{path}: missing keys {missing}")
    kwargs = {k: _value(v, hints[k], f"{path}.{k}") for k, v in d.items()}
    try:
        return cls(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{path}: {e}") from e


def _choice(value, choices, what):
    if value not in choices:
        raise ValueError(f"unknown {what} {value!r}; choose from {sorted(choices)}")


def check_variant(experiment, variant, what):
    """Raise ConfigError unless `variant` (given as `what`) is one of the experiment's."""
    if variant not in VARIANTS[experiment]:
        raise ConfigError(f"{what}: {variant!r} is not a {experiment} prediction variant; "
                          f"choose from {', '.join(VARIANTS[experiment])}")


@dataclass
class DataConfig:
    n_traj: int = 1
    dt: float = 1e-4
    t_final: float = 1.0
    spinup: float = 0.0      # L96 only
    store_high: bool = True  # PDE only: also write the high-order truth

    def __post_init__(self):
        if self.n_traj < 1 or self.dt <= 0:
            raise ValueError(f"n_traj >= 1 and dt > 0 required, got {self.n_traj}, {self.dt}")
        if self.t_final < 0 or self.spinup < 0:
            raise ValueError(f"t_final and spinup must be >= 0, got {self.t_final}, {self.spinup}")


@dataclass
class PredictConfig:
    dt: float = 1e-3
    t_final: float = 1.0
    tableau: str = "rk4"
    variant: str = "augmented"  # one of VARIANTS[experiment], checked by RunConfig

    def __post_init__(self):
        if self.dt <= 0 or self.t_final <= 0:
            raise ValueError(f"dt and t_final must be positive, got {self.dt}, {self.t_final}")
        get_tableau(self.tableau)


@dataclass
class TimingConfig:
    """The `time` command's rollouts, which step at prediction.tableau."""

    repeats: int = 10
    t_final: float = 1.0
    dts: dict[str, float] = field(default_factory=dict)  # variant -> stable dt; caps predict dt

    VARIANTS = ("high", "low", "augmented", "low2", "low3")

    def __post_init__(self):
        if self.repeats < 1 or self.t_final <= 0:
            raise ValueError(
                f"repeats >= 1 and t_final > 0 required, got {self.repeats}, {self.t_final}"
            )
        for variant, dt in self.dts.items():
            _choice(variant, self.VARIANTS, "dts variant")
            if dt <= 0:
                raise ValueError(f"dts.{variant} must be positive, got {dt}")


@dataclass
class RunConfig:
    experiment: str
    seed: int
    out_dir: Path
    model: dict
    data: DataConfig
    training: TrainConfig
    training_discrete: TrainConfig | None  # PDE baseline; falls back to `training`
    prediction: PredictConfig
    timing: TimingConfig | None  # PDE only

    @classmethod
    def from_dict(cls, d, base_dir=None):
        for key in ("experiment", "out_dir"):
            if key not in d:
                raise ConfigError(f"config: missing required key {key!r}")
        experiment = _value(d["experiment"], str, "config.experiment")
        if experiment not in EXPERIMENTS:
            raise ConfigError(f"config.experiment: expected one of {sorted(EXPERIMENTS)}, "
                              f"got {experiment!r}")
        l96 = experiment == "l96"  # which has no discrete baseline and no `time`
        _check_keys(d, [f.name for f in dataclasses.fields(cls)
                        if not (l96 and f.name in ("training_discrete", "timing"))], "config")
        seed = _value(d.get("seed", 0), int, "config.seed")
        if seed < 0:
            raise ConfigError(f"config.seed: must be >= 0, got {seed}")
        out_raw = _value(d["out_dir"], str, "config.out_dir")
        base = Path(base_dir or os.environ.get("SGN_DATA_DIR", "."))
        training = d.get("training", {})
        cfg = cls(
            experiment=experiment,
            seed=seed,
            out_dir=Path(out_raw) if os.path.isabs(out_raw) else base / out_raw,
            model=_model(experiment, d.get("model", {})),
            data=_section(DataConfig, d.get("data", {}), "data", unused=_UNREAD_DATA[experiment]),
            training=_section(TrainConfig, training, "training"),
            training_discrete=None if l96 else _section(TrainConfig, d.get(
                "training_discrete", {k: training[k] for k in training if k not in _DISCRETE_UNREAD}
            ), "training_discrete", unused=_DISCRETE_UNREAD),
            prediction=_section(PredictConfig, d.get("prediction", {}), "prediction"),
            timing=None if l96 else _section(TimingConfig, d.get("timing", {}), "timing"),
        )
        check_variant(experiment, cfg.prediction.variant, "prediction.variant")
        return cfg


def _model(experiment, d):
    """The model section as a plain dict, checked by the classes that consume it."""
    if experiment == "l96":
        return dataclasses.asdict(_section(lorenz96.L96Config, d, "model"))
    defaults = _PDE_MODEL[experiment]
    _check_keys(_value(d, dict, "model"), defaults, "model")
    model = {
        k: _value(d.get(k, v), list[float] if isinstance(v, list) else type(v), f"model.{k}")
        for k, v in defaults.items()
    }
    if len(model["domain"]) != 2:
        raise ConfigError("model.domain: expected [x_left, x_right]")
    try:
        if not 1 <= model["order_low"] < model["order_high"]:
            raise ValueError("order_low must be >= 1 and below order_high")
        pde_config(experiment, model)
        pde_meshes(model)
        if experiment == "burgers":
            dg.check_synthesis(model["k0"], model["n_synth"])
    except ValueError as e:
        raise ConfigError(f"model: {e}") from e
    return model


def load_config(path, base_dir=None):
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {p}")
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as e:  # not UTF-8, or not JSON
        raise ConfigError(f"{p}: not UTF-8 JSON ({e})") from e
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")
    return RunConfig.from_dict(raw, base_dir=base_dir)


@dataclass
class ManifestEntry:
    name: str    # a file in the run directory
    kind: str
    index: int
    sha256: str

    def __post_init__(self):
        if self.name in ("", "..") or "\0" in self.name or Path(self.name).name != self.name:
            raise ValueError(f"name must be a file in the run directory, got {self.name!r}")
        _choice(self.kind, ("truth", "filtered"), "kind")


@dataclass
class Manifest:
    """The manifest.json of a run directory, as ``generate`` writes it."""

    experiment: str
    seed: int
    data: dict
    model: dict
    files: list[ManifestEntry]

    def __post_init__(self):
        """Each file is listed once, and the files of each kind present are
        trajectories 0..data.n_traj - 1, one each."""
        names = [e.name for e in self.files]
        if len(set(names)) < len(names):
            raise ValueError(f"file {max(names, key=names.count)!r} is listed twice")
        n = self.data.get("n_traj")
        for kind in sorted({e.kind for e in self.files}):
            got = sorted(e.index for e in self.files if e.kind == kind)
            if not isinstance(n, int) or len(got) != n or got != list(range(n)):
                raise ValueError(f"the {kind} files have indices {got}, not 0..data.n_traj - 1 "
                                 f"once each (data.n_traj is {n!r})")


def _run_keys(experiment, model, data):
    """What a dataset depends on, keyed by dotted name."""
    return {"experiment": experiment, **{f"model.{k}": v for k, v in model.items()},
            **{f"data.{k}": v for k, v in data.items()}}


def load_manifest(cfg):
    """The manifest in cfg's run directory, parsed through the schema above.

    A manifest that does not parse is a FormatError; one written for
    another experiment, model or data section than cfg's a ConfigError
    naming the keys that differ.
    """
    path = Path(cfg.out_dir) / "manifest.json"
    if not path.exists():
        raise ConfigError(f"no manifest at {path}; run generate first")
    try:
        manifest = _section(Manifest, json.loads(path.read_bytes()), "manifest")
    except ValueError as e:  # bad JSON or UTF-8, or a ConfigError from the schema
        raise FormatError(f"{path}: {e}") from e
    ours = _run_keys(cfg.experiment, cfg.model, dataclasses.asdict(cfg.data))
    theirs = _run_keys(manifest.experiment, manifest.model, manifest.data)
    differ = [k for k in {**ours, **theirs}
              if k not in ours or k not in theirs or ours[k] != theirs[k]]
    if differ:
        k = differ[0]
        also = f"; {', '.join(differ[1:])} differ too" if differ[1:] else ""
        raise ConfigError(f"{path} was generated for another run: {k} is "
                          f"{theirs.get(k)!r} there and {ours.get(k)!r} in the config{also}")
    return manifest
