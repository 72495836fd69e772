"""Shared exception types, and the checked reads the binary loaders share."""

import math
import os

import numpy as np


class BlowupError(RuntimeError):
    """Integration produced a non-finite or absurdly large state.

    Locates the failure inside nested loops: the stage whose slope blew up
    (None: the stepped state did) and the sample (the row of a batched
    state), then what each loop stamps on the error as it passes: the step
    and its start time (`ode.steps`), the epoch (training) and `run`, a
    caller's label of the rollout.  The message is built from these fields.
    """

    def __init__(self, stage=None, sample=None):
        self.stage = stage
        self.sample = sample
        self.step = self.time = self.epoch = self.run = None

    def __str__(self):
        if self.stage is None:
            msg = f"state blew up after step {self.step}"
        else:
            msg = f"non-finite or blown-up value at stage {self.stage}"
            msg += "" if self.step is None else f" of step {self.step}"
        msg += "" if self.time is None else f" (t={self.time:.6g})"
        msg += "" if self.sample is None else f", sample {self.sample}"
        if self.epoch is not None:
            msg = f"training rollout blew up at epoch {self.epoch}: {msg}"
        return msg if self.run is None else f"{self.run}: {msg}"


class ConfigError(ValueError):
    """Invalid run configuration (bad value, unknown key, missing file)."""


class FormatError(ValueError):
    """Corrupt or incompatible binary/JSON artifact on disk."""


def read_exact(f, n, path, what):
    """Read exactly n bytes of `what` from binary file f, or raise FormatError.

    n comes from a file header, so it is checked against the bytes left in
    the file before reading: a garbled count must not reach ``f.read``.
    """
    _require(f, n, path, what)
    return f.read(n)


def read_array(f, shape, path, what):
    """A little-endian f8 array of `shape` read from binary file f straight
    into place, or FormatError; its size is checked as read_exact checks n."""
    n = 8 * math.prod(shape)
    _require(f, n, path, what)
    out = np.empty(shape, dtype="<f8")
    if f.readinto(out) != n:
        raise FormatError(f"{path}: truncated while reading {what}")
    return out


def skip(f, n, path, what):
    """Move binary file f past the n bytes of `what`, or raise FormatError
    if fewer are left; n is checked as read_exact checks it."""
    _require(f, n, path, what)
    f.seek(n, os.SEEK_CUR)


def _require(f, n, path, what):
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"{path}: truncated while reading {what}")


def check_fully_read(f, path):
    """Raise FormatError unless binary file f is read to its last byte: an
    overlong or concatenated artifact is as corrupt as a truncated one."""
    extra = os.fstat(f.fileno()).st_size - f.tell()
    if extra:
        raise FormatError(f"{path}: {extra} trailing bytes after the last field")
