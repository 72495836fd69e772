"""Fixed-step explicit Runge-Kutta integration and trajectory storage.

`steps` is the one loop over ERK steps: `integrate` collects what it
yields into one array, `march` into time chunks of a long run, and the
training loss iterates it over a batch of windows.  The stepper is
duck-typed: states may be numpy arrays or autodiff ``Var`` handles, so the
same code advances production runs and the unrolled rollouts inside
training losses.  Each
stage input and the final update is one ``autodiff.lincomb``, which sums
its terms left to right in both cases and records a single tape node when
taped.  The systems are autonomous: a right-hand side is `rhs(u)`, and
time enters only trajectories and the step and time of a blowup.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import struct
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import BlowupError, FormatError, check_fully_read, read_exact, skip

BLOWUP_LIMIT = 1e12

# State history one chunk of `march` holds; the chunk being consumed and
# the next one being computed can be alive together.
CHUNK_BYTES = 4 << 20

_MAGIC = b"SGNT"
_VERSION = 1
_HEADER = struct.Struct("<IIQdd")  # version, d, count, t0, dt
_STATES = len(_MAGIC) + _HEADER.size  # offset of the state block


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an s-stage explicit Runge-Kutta scheme."""

    name: str
    a: np.ndarray  # (s, s), strictly lower triangular
    b: np.ndarray  # (s,)

    @property
    def stages(self):
        return len(self.b)

    def validate(self, tol=1e-14):
        """Check explicitness and first-order consistency."""
        s = self.stages
        if s < 1:
            raise ValueError("tableau needs at least one stage")
        if self.a.shape != (s, s):
            raise ValueError("tableau coefficient shapes disagree")
        if np.any(np.triu(self.a) != 0.0):
            raise ValueError(f"{self.name}: a is not strictly lower triangular")
        if abs(self.b.sum() - 1.0) > tol:
            raise ValueError(f"{self.name}: sum(b) = {self.b.sum()!r} != 1")

    @functools.cached_property
    def _plans(self):
        return {}  # dt -> plan; one entry per step size this tableau takes

    def plan(self, dt):
        """One step of size dt, cached per dt: each stage's (slope indices,
        weights), then the update's.  The indices and weights are those of
        the non-zero entries of the stage's row of a, or of b, times dt."""
        plan = self._plans.get(dt)
        if plan is None:
            rows = tuple(
                (tuple(j for j, w in enumerate(row) if w != 0.0),
                 tuple(dt * float(w) for w in row if w != 0.0))
                for row in (*self.a, self.b)
            )
            plan = self._plans[dt] = (rows[:-1], rows[-1])
        return plan


def tableau_rk4():
    """Classical fourth-order scheme."""
    a = np.zeros((4, 4))
    a[1, 0] = 0.5
    a[2, 1] = 0.5
    a[3, 2] = 1.0
    b = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])
    tab = ButcherTableau("rk4", a, b)
    tab.validate()
    return tab


def tableau_tsit5():
    """Tsitouras' fifth-order scheme (2011 coefficients), six stages.

    The pair's seventh, first-same-as-last stage only feeds the embedded
    error estimate, which a fixed-step solver never uses, so it is left out.
    """
    a = np.zeros((6, 6))
    a[1, 0] = 0.161
    a[2, 0] = -0.008480655492356989
    a[2, 1] = 0.335480655492357
    a[3, 0] = 2.8971530571054935
    a[3, 1] = -6.359448489975075
    a[3, 2] = 4.3622954328695815
    a[4, 0] = 5.325864828439257
    a[4, 1] = -11.748883564062828
    a[4, 2] = 7.4955393428898365
    a[4, 3] = -0.09249506636175525
    a[5, 0] = 5.86145544294642
    a[5, 1] = -12.92096931784711
    a[5, 2] = 8.159367898576159
    a[5, 3] = -0.071584973281401
    a[5, 4] = -0.028269050394068383
    b = np.array([
        0.09646076681806523,
        0.01,
        0.4798896504144996,
        1.379008574103742,
        -3.290069515436081,
        2.324710524099774,
    ])
    tab = ButcherTableau("tsit5", a, b)
    tab.validate()
    return tab


_TABLEAUS = {"rk4": tableau_rk4, "tsit5": tableau_tsit5}


def get_tableau(name):
    """The tableau called `name`."""
    try:
        return _TABLEAUS[name]()
    except KeyError:
        raise ValueError(f"unknown tableau {name!r}; choose from {sorted(_TABLEAUS)}")


@dataclass(frozen=True)
class Rhs:
    """Right-hand side f(u) with a declared state dimension."""

    fn: object
    dim: int

    def __call__(self, u):
        return self.fn(u)


def _raw(u):
    return u.value if isinstance(u, ad.Var) else u


def _check_finite(v, stage=None):
    """Raise BlowupError if v, the slope of `stage` or (None) a stepped
    state, is not finite or is past BLOWUP_LIMIT.  A 2-D v is a batched
    state: its first offending row is named as the sample."""
    a = np.abs(v)
    if a.max() <= BLOWUP_LIMIT:  # NaN fails the comparison too
        return
    sample = None
    if a.ndim == 2:
        sample = int(np.argmax(~(np.max(a, axis=-1) <= BLOWUP_LIMIT)))
    raise BlowupError(stage=stage, sample=sample)


def erk_step(tableau, rhs, u, dt):
    """One explicit RK step of size dt from u.

    `u` may be a numpy array (any leading batch shape) or a tape Var;
    the arithmetic records itself in the latter case.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    stages, (idx, weights) = tableau.plan(dt)
    ks = []
    for i, (stage_idx, stage_weights) in enumerate(stages):
        k = rhs(_combine(u, stage_idx, stage_weights, ks))
        _check_finite(_raw(k), stage=i)
        ks.append(k)
    return _combine(u, idx, weights, ks)


def _combine(u, idx, coeffs, ks):
    """u + sum_j coeffs[j] * ks[idx[j]] as one ``lincomb`` (one tape node
    when u or the slopes are taped)."""
    if not idx:
        return u
    return ad.lincomb(u, coeffs, [ks[j] for j in idx])


@dataclass
class Trajectory:
    """Uniformly sampled time series of flat state vectors."""

    t0: float
    dt: float
    states: np.ndarray  # (n_steps + 1, d)
    meta: dict = field(default_factory=dict)

    @property
    def times(self):
        return self.t0 + self.dt * np.arange(self.states.shape[0])

    @property
    def dim(self):
        return self.states.shape[1]

    def __len__(self):
        return self.states.shape[0]

    def rows(self, idx):
        """The states at the row indices idx (a sequence), as a new array."""
        return self.states[idx]


def steps(tableau, rhs, u0, t0, dt, n_steps, post_step=None):
    """Yield the n_steps states after u0, whose last axis must be an `Rhs`
    rhs's dim, one per fixed ERK step.

    `post_step(u_prev, u_stepped)`, when given, maps each ERK step's
    result to the state carried forward (a discrete correction).  Each
    state is checked as it is stepped, so a blowup is raised before it is
    yielded, stamped with its step n and start time t0 + n * dt."""
    if isinstance(rhs, Rhs) and _raw(u0).shape[-1] != rhs.dim:
        raise ValueError(f"state dim {_raw(u0).shape[-1]} != rhs dim {rhs.dim}")
    u = u0
    for n in range(n_steps):
        try:
            stepped = erk_step(tableau, rhs, u, dt)
            u = stepped if post_step is None else post_step(u, stepped)
            _check_finite(_raw(u))
        except BlowupError as e:
            e.step, e.time = n, t0 + n * dt
            raise
        yield u


def integrate(tableau, rhs, u0, t0, dt, n_steps, meta=None, post_step=None):
    """All n_steps + 1 states of a `steps` run, as one Trajectory."""
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    u0 = np.asarray(u0, dtype=np.float64)
    states = np.empty((n_steps + 1, u0.size), dtype=np.float64)
    states[0] = u0.ravel()
    for k, u in enumerate(steps(tableau, rhs, u0, t0, dt, n_steps, post_step), 1):
        states[k] = np.ravel(u)
    return Trajectory(t0=t0, dt=dt, states=states, meta=dict(meta or {}))


def march(tableau, rhs, u0, dt, n_steps):
    """The n_steps + 1 states of a run of the (n_traj, d) block u0 from
    t = 0, yielded as (rows, n_traj * d) time chunks of about CHUNK_BYTES:
    the first starts with u0, each later one with the state after the last.
    The chunks are filled from one `steps` run, so every step and a blowup
    are those of one `integrate` call."""
    per_chunk = max(1, CHUNK_BYTES // (8 * u0.size))
    run = steps(tableau, rhs, u0, 0.0, dt, n_steps)
    chunk, first, left = np.empty((min(per_chunk, n_steps) + 1, u0.size)), 1, n_steps
    chunk[0] = u0.ravel()
    while True:
        for row, u in zip(chunk[first:], run):
            row[:] = u.ravel()
        yield chunk
        left -= len(chunk) - first
        if not left:
            return
        chunk, first = np.empty((min(per_chunk, left), u0.size)), 0


class TrajectoryWriter:
    """A `.sgnt` file written in blocks of rows as they are computed.

    The header and metadata are fixed when the file opens, so `write` takes
    the `count` rows of `d` states in time order, in blocks of any length,
    and `close` appends the metadata.  Every byte is hashed as it is
    written: `close` returns the file's sha256.
    """

    def __init__(self, path, d, count, t0, dt, meta):
        self.path = path
        self._d = d
        self._left = count
        self._blob = json.dumps(meta, sort_keys=True).encode("utf-8")
        self._sha = hashlib.sha256()
        self._f = open(path, "wb")
        self._put(_MAGIC + _HEADER.pack(_VERSION, d, count, t0, dt))

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def _put(self, buf):
        self._sha.update(buf)
        self._f.write(buf)

    def write(self, rows):
        """Append a (n, d) block of states, written from its buffer."""
        rows = np.ascontiguousarray(rows, dtype="<f8")
        if rows.ndim != 2 or rows.shape[1] != self._d or rows.shape[0] > self._left:
            raise ValueError(
                f"{self.path}: a block of shape {rows.shape} does not fit the "
                f"{self._left} rows of {self._d} states left"
            )
        self._left -= rows.shape[0]
        self._put(rows)

    def close(self):
        """Write the metadata, close the file and return its sha256 hex digest."""
        if self._left:
            raise ValueError(f"{self.path}: {self._left} rows were never written")
        self._put(struct.pack("<I", len(self._blob)) + self._blob)
        self._f.close()
        return self._sha.hexdigest()


def save_trajectory(traj, path):
    """Binary layout: magic, u32 version, u32 d, u64 count, f64 t0, f64 dt,
    count*d little-endian f64 states, u32-length-prefixed UTF-8 JSON meta."""
    states = np.ascontiguousarray(traj.states, dtype="<f8")
    with TrajectoryWriter(path, states.shape[1], states.shape[0], traj.t0, traj.dt,
                          traj.meta) as w:
        w.write(states)
        w.close()


def _read_header(f, path):
    """(d, count, t0, dt) from the magic and header at the start of `.sgnt`
    file f, which is left at its state block."""
    magic = read_exact(f, 4, path, "magic")
    if magic != _MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}, expected {_MAGIC!r}")
    version, d, count, t0, dt = _HEADER.unpack(read_exact(f, _HEADER.size, path, "header"))
    if version != _VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if d == 0:
        raise FormatError(f"{path}: state dimension is 0")
    if count == 0 or not (np.isfinite(t0) and 0.0 < dt < np.inf):
        raise FormatError(f"{path}: header has count {count}, t0 {t0}, dt {dt}; a writer "
                          f"gives one state or more, a finite t0 and a finite dt > 0")
    return d, count, t0, dt


def _read_meta(f, path):
    """The metadata of `.sgnt` file f, which must be at its metadata length
    and end with the metadata."""
    length = read_exact(f, 4, path, "metadata length")
    blob = read_exact(f, struct.unpack("<I", length)[0], path, "metadata")
    check_fully_read(f, path)
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: metadata is not UTF-8 JSON: {e}") from e
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: metadata is not a JSON object")
    return meta


def load_trajectory(path):
    """The trajectory saved at `path`, read whole through a `StoredTrajectory`
    that is closed on return or error."""
    stored = StoredTrajectory(path)
    try:
        return stored.load()
    finally:
        stored.close()


class StoredTrajectory:
    """A `.sgnt` file held open and read by rows.

    Opening it parses the header and metadata and checks the layout; the
    states stay on disk.  `rows` reads the ones asked for, and `load` the
    whole block, each time they are called.  `file` is the open file, so a
    caller can check the very bytes that are later read; it closes with
    `close` or when the object is dropped.
    """

    def __init__(self, path):
        self.path = path
        f = open(path, "rb")
        try:
            d, count, self.t0, self.dt = _read_header(f, path)
            skip(f, 8 * count * d, path, "state block")
            self.meta = _read_meta(f, path)
        except BaseException:
            f.close()
            raise
        self.file = f
        self._shape = (count, d)
        self.close = weakref.finalize(self, f.close)

    @property
    def dim(self):
        return self._shape[1]

    def __len__(self):
        return self._shape[0]

    def rows(self, idx):
        """A new (len(idx), d) array of the states at the row indices idx,
        read by positioned reads, one per run of consecutive indices."""
        idx = list(map(int, idx))
        count, d = self._shape
        if idx and not (0 <= min(idx) and max(idx) < count):
            raise IndexError(f"{self.path}: row indices must lie in 0..{count - 1}")
        out = np.empty((len(idx), d), dtype="<f8")
        lo = 0
        for hi in range(1, len(idx) + 1):
            if hi == len(idx) or idx[hi] != idx[hi - 1] + 1:
                self._read_into(out[lo:hi], idx[lo])
                lo = hi
        return out

    def _read_into(self, part, first):
        """Fill the rows of `part` with the states from row `first` on.  A
        read that comes up short, as on a file truncated since it opened,
        is a FormatError naming the file."""
        fd, offset = self.file.fileno(), _STATES + 8 * self._shape[1] * first
        got = os.preadv(fd, [part], offset)
        # one read moves at most ~2 GiB on Linux; 0 bytes is the end of the file
        while got < part.nbytes:
            n = os.preadv(fd, [memoryview(part).cast("B")[got:]], offset + got)
            if n == 0:
                raise FormatError(f"{self.path}: truncated while reading states "
                                  f"{first}..{first + len(part) - 1}")
            got += n

    def load(self):
        """The whole trajectory in memory, as one Trajectory."""
        states = np.empty(self._shape, dtype="<f8")
        self._read_into(states, 0)
        return Trajectory(t0=self.t0, dt=self.dt, states=states, meta=dict(self.meta))
