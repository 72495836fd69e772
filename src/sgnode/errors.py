"""Shared exception types, and the checked reads the binary loaders share."""

import os


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
    if n > os.fstat(f.fileno()).st_size - f.tell():
        raise FormatError(f"{path}: truncated while reading {what}")
    return f.read(n)


def check_fully_read(f, path):
    """Raise FormatError unless binary file f is read to its last byte: an
    overlong or concatenated artifact is as corrupt as a truncated one."""
    extra = os.fstat(f.fileno()).st_size - f.tell()
    if extra:
        raise FormatError(f"{path}: {extra} trailing bytes after the last field")
