"""Error metrics, kinetic energy spectra, and CSV exports.

Spectrum convention, pinned by the sin(x) anchor: with U the unnormalized
N-point transform of the uniform samples, the per-side density is
E_side(k) = |U(k)|^2 / (2 N^2) and the reported spectrum folds the two
directions, E(k) = E_side(k) + E_side(-k) for k = 1 .. N/2-1.  For
u = sin(x) this yields E(1) = 1/4 and, for zero-mean Nyquist-free signals,
sum_k E(k) equals the discrete kinetic energy (1/2N) sum_i u_i^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dg
from .errors import ConfigError


@dataclass
class ErrorReport:
    times: np.ndarray
    l2: np.ndarray       # broken-L2 error per shared time
    rel: np.ndarray      # l2 / ||ref||
    max_abs: np.ndarray  # max nodal |difference| per shared time

    @property
    def max_l2(self):
        return float(np.max(self.l2))

    @property
    def max_rel(self):
        return float(np.max(self.rel))


@dataclass
class Spectrum:
    k: np.ndarray  # wavenumbers 1 .. N/2-1
    e: np.ndarray  # folded energy density


def strides(dt, ref_dt):
    """(pred stride, ref stride): the steps each grid takes between the
    times it shares with the other, one of them 1.  A ConfigError names
    both dts when neither is an integer multiple of the other."""
    ratio = max(dt, ref_dt) / min(dt, ref_dt)
    k = int(round(ratio))
    if abs(ratio - k) > 1e-9 * ratio:
        raise ConfigError(f"incompatible timesteps: pred dt {dt} vs ref dt {ref_dt}, "
                          f"neither an integer multiple of the other")
    return (1, k) if dt >= ref_dt else (k, 1)


def _align(pred, ref):
    """Shared (pred indices, ref indices) when one dt is an integer multiple
    of the other and start times coincide; no interpolation ever."""
    if abs(pred.t0 - ref.t0) > 1e-12 * max(1.0, abs(ref.t0)):
        raise ConfigError(f"start times differ: pred t0 {pred.t0} vs ref t0 {ref.t0}")
    sp, sr = strides(pred.dt, ref.dt)
    n = min((len(pred) - 1) // sp, (len(ref) - 1) // sr)
    return np.arange(n + 1) * sp, np.arange(n + 1) * sr


def compare_fields(pred, ref, mesh=None):
    """Broken-L2, relative, and max-nodal errors at every shared time.

    Without a mesh the states are plain vectors and the Euclidean norm is
    used.
    """
    ip, ir = _align(pred, ref)
    dstates = pred.states[ip] - ref.states[ir]
    if mesh is None:
        l2 = np.linalg.norm(dstates, axis=1)
        ref_norm = np.linalg.norm(ref.states[ir], axis=1)
    else:
        l2 = dg.states_dg_norm(mesh, dstates)
        ref_norm = dg.states_dg_norm(mesh, ref.states[ir])
    rel = l2 / np.where(ref_norm > 0, ref_norm, 1.0)
    max_abs = np.max(np.abs(dstates), axis=1)
    times = ref.t0 + ref.dt * ir
    return ErrorReport(times=times, l2=l2, rel=rel, max_abs=max_abs)


def spectrum_of_samples(u):
    """Folded energy spectrum of one period of uniform samples."""
    u = np.asarray(u, dtype=np.float64)
    n = u.size
    if n < 4 or n & (n - 1):
        raise ValueError("need a power-of-two number of samples")
    side = np.abs(np.fft.fft(u)) ** 2 / (2.0 * n * n)
    ks = np.arange(1, n // 2)
    return Spectrum(k=ks, e=side[ks] + side[n - ks])


def energy_spectrum(mesh, u, n_pts):
    """Spectrum of the flat DG state u sampled at n_pts uniform points."""
    return spectrum_of_samples(dg.eval_uniform(mesh, u, n_pts))


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, (str, int, np.integer)):
        return str(v)
    return format(v, ".17g")


def write_csv(path, header, rows):
    """One header line of column names, then one line per row.  Floats are
    written with 17 significant digits, so they read back bit-exact; ints
    and strings as they are; None as an empty cell."""
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(map(_cell, row)) + "\n")


def export_xt(traj, path, mesh=None):
    """Long-format CSV of (t, x, u), t-major then x.

    With a mesh, x is the physical nodal coordinate; without one, the
    component index.
    """
    if mesh is not None:
        xs = mesh.node_coords().reshape(-1)
    else:
        xs = np.arange(traj.dim, dtype=np.float64)
    write_csv(path, ("t", "x", "u"), (
        (t, x, u) for t, row in zip(traj.times, traj.states) for x, u in zip(xs, row)
    ))


def write_error_report(report, path):
    write_csv(path, ("t", "l2_error", "rel_error", "max_abs"),
              zip(report.times, report.l2, report.rel, report.max_abs))


def write_spectrum(spec, path):
    write_csv(path, ("k", "E"), zip(spec.k, spec.e))
