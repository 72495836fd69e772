"""Shared exception types, and the checked reads the binary loaders share."""

import math
import os

import numpy as np


class BlowupError(RuntimeError):
    """Integration produced a non-finite or absurdly large state.

    Carries enough provenance (epoch, stage, step, time, sample) to locate
    the failure inside nested loops; sample is the row of a batched state.
    """

    def __init__(self, message, stage=None, step=None, time=None, sample=None,
                 epoch=None):
        super().__init__(message)
        self.epoch = epoch
        self.stage = stage
        self.step = step
        self.time = time
        self.sample = sample


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


def _require(f, n, path, what):
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"{path}: truncated while reading {what}")


def check_fully_read(f, path):
    """Raise FormatError unless binary file f is read to its last byte: an
    overlong or concatenated artifact is as corrupt as a truncated one."""
    extra = os.fstat(f.fileno()).st_size - f.tell()
    if extra:
        raise FormatError(f"{path}: {extra} trailing bytes after the last field")
