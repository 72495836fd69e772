"""Corrupted artifacts: every load of a mutated or truncated `.sgnt` or
`.sgnp` file gives a FormatError or a valid object, never another error,
and so does every load of a dataset through a mutated `manifest.json`."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgnode import experiments, mlp
from sgnode.cli import main
from sgnode.config import load_config
from sgnode.errors import ConfigError, FormatError
from sgnode.ode import StoredTrajectory, Trajectory, load_trajectory, save_trajectory

# derandomized, so each run replays the same inputs; no example database on disk
FUZZ = settings(max_examples=300, deadline=None, derandomize=True, database=None)

# header-shaped values random bytes rarely hit: small and extreme counts,
# and non-finite floats
SPECIAL = [struct.pack("<I", k) for k in (0, 1, 2, 3, 0xFFFFFFFF)] + [
    struct.pack("<d", x) for x in (np.nan, np.inf)
]


def corruptions(good):
    """Truncations of `good`, and copies with up to four short runs of bytes
    overwritten, random or from SPECIAL (a run reaching past the end appends)."""
    n = len(good)

    def overwrite(edits):
        blob = bytearray(good)
        for at, new in edits:
            blob[at:at + len(new)] = new
        return bytes(blob)

    run = st.one_of(st.binary(min_size=1, max_size=8), st.sampled_from(SPECIAL))
    edit = st.tuples(st.integers(0, n - 1), run)
    return st.one_of(
        st.integers(0, n - 1).map(lambda k: good[:k]),
        st.lists(edit, min_size=1, max_size=4).map(overwrite),
    )


def loads_or_raises_format_error(path, blob, load):
    path.write_bytes(blob)
    try:
        return load(path)
    except FormatError:
        return None


def test_corrupt_trajectory_files_load_or_raise_format_error(tmp_path):
    path = tmp_path / "t.sgnt"
    states = np.arange(6.0).reshape(3, 2) / 7.0
    save_trajectory(Trajectory(t0=0.5, dt=0.25, states=states, meta={"model": "cd"}), path)

    @FUZZ
    @given(corruptions(path.read_bytes()))
    def check(blob):
        tr = loads_or_raises_format_error(path, blob, load_trajectory)
        if tr is not None:
            assert isinstance(tr.meta, dict)
            assert tr.states.dtype == np.float64 and tr.states.ndim == 2
            assert tr.dim >= 1

    check()


def test_a_stored_trajectory_accepts_and_reads_what_load_trajectory_does(tmp_path):
    path = tmp_path / "t.sgnt"
    states = np.arange(6.0).reshape(3, 2) / 7.0
    save_trajectory(Trajectory(t0=0.5, dt=0.25, states=states, meta={"model": "cd"}), path)

    @FUZZ
    @given(corruptions(path.read_bytes()))
    def check(blob):
        whole = loads_or_raises_format_error(path, blob, load_trajectory)
        stored = loads_or_raises_format_error(path, blob, lambda p: StoredTrajectory(p).load())
        assert (whole is None) == (stored is None)
        if whole is not None:
            assert (stored.t0, stored.dt, stored.meta) == (whole.t0, whole.dt, whole.meta)
            assert stored.states.tobytes() == whole.states.tobytes()

    check()


def test_corrupt_network_files_load_or_raise_format_error(tmp_path, monkeypatch):
    path = tmp_path / "n.sgnp"
    monkeypatch.setattr(mlp, "HIDDEN_WIDTH", 3)
    mlp.save_params(mlp.init_params(2, 1, seed=3), path)

    @FUZZ
    @given(corruptions(path.read_bytes()))
    def check(blob):
        params = loads_or_raises_format_error(path, blob, mlp.load_params)
        if params is not None:
            params.check()

    check()


DELETE = object()
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from(["..", "", "a/b", "\0", "truth", "filtered"]),
    lambda inner: st.lists(inner, max_size=2)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


def _paths(x, at=()):
    yield at
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for k, v in items:
        yield from _paths(v, at + (k,))


def edits(good):
    """Copies of the JSON object `good` with one value replaced by another
    JSON value, or deleted."""

    def edit(at, new):
        obj = json.loads(json.dumps(good))
        if not at:
            return {} if new is DELETE else new
        parent = obj
        for k in at[:-1]:
            parent = parent[k]
        if new is DELETE:
            del parent[at[-1]]
        else:
            parent[at[-1]] = new
        return obj

    at = st.sampled_from(list(_paths(good)))
    return st.builds(edit, at, st.just(DELETE) | JSON_VALUES)


def test_corrupt_manifests_load_or_raise_format_or_config_error(tmp_path):
    # a mutated manifest parses, names a file that is not there (OSError),
    # or no longer matches the config (ConfigError); a file's errors surface
    # when the dataset reads it, so the trajectories are read inside the try
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "experiment": "cd", "seed": 1, "out_dir": str(tmp_path / "run"),
        "model": {"a": 1.0, "kappa": 1e-3, "n_elem": 4, "order_high": 2, "order_low": 1},
        "data": {"n_traj": 2, "dt": 1e-3, "t_final": 0.002},
    }))
    cfg = load_config(path)
    experiments.generate(cfg)
    manifest = cfg.out_dir / "manifest.json"
    good = manifest.read_bytes()

    @FUZZ
    @given(corruptions(good) | edits(json.loads(good)).map(lambda m: json.dumps(m).encode()))
    def check(blob):
        manifest.write_bytes(blob)
        try:
            dims = [tr.dim for tr in experiments.load_dataset(cfg)]
        except (FormatError, ConfigError, OSError):
            return
        assert all(d == 8 for d in dims)

    check()


@pytest.mark.parametrize("junk", [b"\0", b"junk" * 10])
def test_trailing_bytes_are_a_format_error(tmp_path, junk):
    traj = tmp_path / "t.sgnt"
    save_trajectory(Trajectory(t0=0.0, dt=0.1, states=np.ones((2, 3)), meta={}), traj)
    net = tmp_path / "n.sgnp"
    mlp.save_params(mlp.init_params(2, 1, seed=3), net)
    for path, load in ((traj, load_trajectory), (net, mlp.load_params)):
        load(path)
        path.write_bytes(path.read_bytes() + junk)
        with pytest.raises(FormatError, match="trailing"):
            load(path)


@pytest.mark.parametrize("count,t0,dt", [
    (0, 0.0, 0.1), (3, np.nan, 0.1), (3, 0.0, 0.0), (3, 0.0, -0.1), (3, 0.0, np.inf),
], ids=["no-states", "nan-t0", "zero-dt", "negative-dt", "infinite-dt"])
def test_a_header_no_writer_produces_is_a_format_error(tmp_path, capsys, count, t0, dt):
    path = tmp_path / "t.sgnt"
    save_trajectory(Trajectory(t0=t0, dt=dt, states=np.ones((count, 8)), meta={}), path)
    with pytest.raises(FormatError, match="header has count"):
        load_trajectory(path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "cd", "out_dir": str(tmp_path / "run"),
        "model": {"kappa": 1e-3, "n_elem": 4, "order_high": 2, "order_low": 1},
    }))
    assert main(["evaluate", "--config", str(cfg), "--pred", str(path), "--ref", str(path)]) == 4
    assert capsys.readouterr().err.startswith(f"i/o error: {path}: ")
