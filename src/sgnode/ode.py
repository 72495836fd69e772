"""Fixed-step explicit Runge-Kutta integration and trajectory storage.

The stepper is duck-typed: states may be numpy arrays or autodiff ``Var``
handles, so the same code advances production runs and the unrolled
rollouts inside training losses.  Each stage input and the final update is
one ``autodiff.lincomb``, which sums its terms left to right in both cases
and records a single tape node when taped.
"""

from __future__ import annotations

import functools
import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import BlowupError, FormatError, check_fully_read, read_exact

BLOWUP_LIMIT = 1e12

_MAGIC = b"SGNT"
_VERSION = 1


@dataclass(frozen=True)
class ButcherTableau:
    """Coefficients of an s-stage explicit Runge-Kutta scheme."""

    name: str
    a: np.ndarray  # (s, s), strictly lower triangular
    b: np.ndarray  # (s,)
    c: np.ndarray  # (s,)

    @property
    def stages(self):
        return len(self.b)

    def validate(self, tol=1e-14):
        """Check explicitness and the consistency conditions."""
        s = self.stages
        if s < 1:
            raise ValueError("tableau needs at least one stage")
        if self.a.shape != (s, s) or self.c.shape != (s,):
            raise ValueError("tableau coefficient shapes disagree")
        if np.any(np.triu(self.a) != 0.0):
            raise ValueError(f"{self.name}: a is not strictly lower triangular")
        if abs(self.b.sum() - 1.0) > tol:
            raise ValueError(f"{self.name}: sum(b) = {self.b.sum()!r} != 1")
        row = self.a.sum(axis=1)
        if np.max(np.abs(row - self.c)) > 10 * tol:
            raise ValueError(f"{self.name}: c_i != sum_j a_ij")

    @functools.cached_property
    def _plans(self):
        return {}  # dt -> plan; one entry per step size this tableau takes

    def plan(self, dt):
        """One step of size dt, cached per dt: each stage as (i, c_i * dt,
        slope indices, weights), then the update's (slope indices, weights).
        The indices and weights are those of the non-zero entries of the
        stage's row of a, or of b, times dt."""
        plan = self._plans.get(dt)
        if plan is None:
            rows = [
                (tuple(j for j, w in enumerate(row) if w != 0.0),
                 tuple(dt * float(w) for w in row if w != 0.0))
                for row in (*self.a, self.b)
            ]
            stages = tuple((i, self.c[i] * dt, *rows[i]) for i in range(self.stages))
            plan = self._plans[dt] = (stages, rows[-1])
        return plan


def tableau_rk4():
    """Classical fourth-order scheme."""
    a = np.zeros((4, 4))
    a[1, 0] = 0.5
    a[2, 1] = 0.5
    a[3, 2] = 1.0
    b = np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6])
    c = np.array([0.0, 0.5, 0.5, 1.0])
    tab = ButcherTableau("rk4", a, b, c)
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
    c = np.array([0.0, 0.161, 0.327, 0.9, 0.9800255409045097, 1.0])
    tab = ButcherTableau("tsit5", a, b, c)
    tab.validate()
    return tab


_TABLEAUS = {"rk4": tableau_rk4, "tsit5": tableau_tsit5}


def get_tableau(name):
    """The tableau called `name`; a ButcherTableau is returned unchanged."""
    if isinstance(name, ButcherTableau):
        return name
    try:
        return _TABLEAUS[name]()
    except KeyError:
        raise ValueError(f"unknown tableau {name!r}; choose from {sorted(_TABLEAUS)}")


@dataclass(frozen=True)
class Rhs:
    """Right-hand side f(t, u) with a declared state dimension."""

    fn: object
    dim: int

    def __call__(self, t, u):
        return self.fn(t, u)


def _raw(u):
    return u.value if isinstance(u, ad.Var) else u


def _check_finite(v, what, t, **where):
    """Raise BlowupError if v holds a non-finite or blown-up value.

    `what` is formatted with the `where` provenance only on failure.  A 2-D
    v is a batched state, one sample per row: the first offending row is
    named as the sample.
    """
    a = np.abs(v)
    if float(np.max(a)) <= BLOWUP_LIMIT:  # NaN fails the comparison too
        return
    sample = None
    if a.ndim == 2:
        sample = int(np.argmax(~(np.max(a, axis=-1) <= BLOWUP_LIMIT)))
    msg = what.format(**where) + f" (t={t:.6g})"
    if sample is not None:
        msg += f", sample {sample}"
    raise BlowupError(msg, time=t, sample=sample, **where)


def erk_step(tableau, rhs, t, u, dt):
    """One explicit RK step from (t, u) to t + dt.

    `u` may be a numpy array (any leading batch shape) or a tape Var;
    the arithmetic records itself in the latter case.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    stages, (idx, weights) = tableau.plan(dt)
    ks = [None] * tableau.stages
    for i, offset, stage_idx, stage_weights in stages:
        ki = rhs(t + offset, _combine(u, stage_idx, stage_weights, ks))
        _check_finite(_raw(ki), "non-finite or blown-up value at stage {stage}", t, stage=i)
        ks[i] = ki
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


def integrate(tableau, rhs, u0, t0, dt, n_steps, meta=None, post_step=None):
    """March n_steps fixed steps; returns all n_steps + 1 states.

    `post_step(t, u_prev, u_stepped)`, when given, maps each ERK step's
    result to the state carried forward (a discrete correction).
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    u0 = np.asarray(u0, dtype=np.float64)
    if isinstance(rhs, Rhs) and u0.shape[-1] != rhs.dim:
        raise ValueError(f"state dim {u0.shape[-1]} != rhs dim {rhs.dim}")
    states = np.empty((n_steps + 1, u0.size), dtype=np.float64)
    states[0] = u0.ravel()
    u = u0
    t = t0
    for n in range(n_steps):
        try:
            stepped = erk_step(tableau, rhs, t, u, dt)
        except BlowupError as e:
            e.step = n
            raise
        u = stepped if post_step is None else post_step(t, u, stepped)
        _check_finite(u, "state blew up after step {step}", t, step=n)
        states[n + 1] = np.ravel(u)
        t = t0 + (n + 1) * dt
    return Trajectory(t0=t0, dt=dt, states=states, meta=dict(meta or {}))


def save_trajectory(traj, path):
    """Binary layout: magic, u32 version, u32 d, u64 count, f64 t0, f64 dt,
    count*d little-endian f64 states, u32-length-prefixed UTF-8 JSON meta."""
    states = np.ascontiguousarray(traj.states, dtype="<f8")
    count, d = states.shape
    blob = json.dumps(traj.meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IIQdd", _VERSION, d, count, traj.t0, traj.dt))
        f.write(states.tobytes())
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)


def load_trajectory(path):
    header = struct.calcsize("<IIQdd")
    with open(path, "rb") as f:
        head = read_exact(f, 4, path, "magic")
        if head != _MAGIC:
            raise FormatError(f"{path}: bad magic {head!r}, expected {_MAGIC!r}")
        version, d, count, t0, dt = struct.unpack("<IIQdd", read_exact(f, header, path, "header"))
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if d == 0:
            raise FormatError(f"{path}: state dimension is 0")
        payload = read_exact(f, count * d * 8, path, "state block")
        states = np.frombuffer(payload, dtype="<f8").reshape(count, d).copy()
        (blob_len,) = struct.unpack("<I", read_exact(f, 4, path, "metadata length"))
        blob = read_exact(f, blob_len, path, "metadata")
        check_fully_read(f, path)
    try:
        meta = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise FormatError(f"{path}: metadata is not UTF-8 JSON: {e}") from e
    if not isinstance(meta, dict):
        raise FormatError(f"{path}: metadata is not a JSON object")
    return Trajectory(t0=t0, dt=dt, states=states, meta=meta)
