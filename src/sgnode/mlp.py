"""The source network: linear input layer, three ReLU hidden layers, linear output.

Forward evaluation is written against the autodiff dispatch helpers, so the
same function serves numpy prediction and taped training.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import FormatError

HIDDEN_WIDTH = 128
N_LAYERS = 4

_MAGIC = b"SGNP"
_VERSION = 1


@dataclass
class MlpParams:
    """Weights/biases of the 4-layer source net plus the seed used at init."""

    weights: list  # 4 matrices, shapes (h, d_in), (h, h), (h, h), (d_out, h)
    biases: list   # 4 vectors
    seed: int = 0

    @property
    def d_in(self):
        return self.weights[0].shape[1]

    @property
    def d_out(self):
        return self.weights[-1].shape[0]

    @property
    def layer_dims(self):
        return (self.d_in,) + tuple(w.shape[0] for w in self.weights)

    def check(self):
        if len(self.weights) != N_LAYERS or len(self.biases) != N_LAYERS:
            raise ValueError("expected exactly four layers")
        for i in range(1, N_LAYERS):
            if self.weights[i].shape[1] != self.weights[i - 1].shape[0]:
                raise ValueError(
                    f"layer {i} input dim {self.weights[i].shape[1]} != "
                    f"layer {i - 1} output dim {self.weights[i - 1].shape[0]}"
                )
        for w, b in zip(self.weights, self.biases):
            if b.shape != (w.shape[0],):
                raise ValueError("bias length does not match weight rows")
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                raise ValueError("non-finite parameter entries")

    def copy(self):
        return MlpParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            seed=self.seed,
        )

    def n_params(self):
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


def init_params(d_in, d_out, seed, hidden=HIDDEN_WIDTH):
    """Glorot-uniform weights, zero biases, reproducible from the seed."""
    if d_in < 1 or d_out < 1:
        raise ValueError("d_in and d_out must be >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = [d_in, hidden, hidden, hidden, d_out]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    p = MlpParams(weights=weights, biases=biases, seed=int(seed))
    p.check()
    return p


def zero_params(d_in, d_out, hidden=HIDDEN_WIDTH):
    dims = [d_in, hidden, hidden, hidden, d_out]
    return MlpParams(
        weights=[np.zeros((o, i)) for i, o in zip(dims[:-1], dims[1:])],
        biases=[np.zeros(o) for o in dims[1:]],
        seed=0,
    )


def param_list(params):
    """Flatten to [W1, b1, ..., W4, b4] for the optimizer/tape."""
    out = []
    for w, b in zip(params.weights, params.biases):
        out.append(w)
        out.append(b)
    return out


def forward(weights, biases, x):
    """Evaluate the net on rows of x: (batch, d_in) -> (batch, d_out)."""
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = ad.relu(h @ ad.transpose(w) + ad.reshape(b, (1, -1)))
    return h @ ad.transpose(weights[-1]) + ad.reshape(biases[-1], (1, -1))


def forward_per_component(weights, biases, x):
    """Apply a scalar->scalar net to every entry of x, preserving its shape."""
    shape = x.shape
    flat = ad.reshape(x, (-1, 1))
    return ad.reshape(forward(weights, biases, flat), shape)


def forward_params(params, x):
    """Numpy convenience wrapper; accepts (d_in,) or (batch, d_in)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return forward(params.weights, params.biases, x[None, :])[0]
    return forward(params.weights, params.biases, x)


def save_params(params, path):
    """Layout: magic, u32 version, u32 n_layers, per layer (u32 rows, u32
    cols, f64 row-major data, u32 bias_len, f64 bias), u64 seed."""
    params.check()
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<II", _VERSION, len(params.weights)))
        for w, b in zip(params.weights, params.biases):
            rows, cols = w.shape
            f.write(struct.pack("<II", rows, cols))
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(struct.pack("<I", b.size))
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())
        f.write(struct.pack("<Q", params.seed & 0xFFFFFFFFFFFFFFFF))


def _read_exact(f, n, path, what):
    buf = f.read(n)
    if len(buf) != n:
        raise FormatError(f"{path}: truncated while reading {what}")
    return buf


def load_params(path):
    with open(path, "rb") as f:
        if _read_exact(f, 4, path, "magic") != _MAGIC:
            raise FormatError(f"{path}: bad magic, expected {_MAGIC!r}")
        version, n_layers = struct.unpack("<II", _read_exact(f, 8, path, "header"))
        if version != _VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        if n_layers != N_LAYERS:
            raise FormatError(f"{path}: expected {N_LAYERS} layers, found {n_layers}")
        weights, biases = [], []
        for i in range(n_layers):
            rows, cols = struct.unpack("<II", _read_exact(f, 8, path, f"layer {i} shape"))
            w = np.frombuffer(
                _read_exact(f, rows * cols * 8, path, f"layer {i} weights"), dtype="<f8"
            ).reshape(rows, cols).copy()
            (blen,) = struct.unpack("<I", _read_exact(f, 4, path, f"layer {i} bias len"))
            b = np.frombuffer(
                _read_exact(f, blen * 8, path, f"layer {i} bias"), dtype="<f8"
            ).copy()
            weights.append(w)
            biases.append(b)
        (seed,) = struct.unpack("<Q", _read_exact(f, 8, path, "seed"))
    params = MlpParams(weights=weights, biases=biases, seed=seed)
    try:
        params.check()
    except ValueError as e:
        raise FormatError(f"{path}: {e}") from e
    return params


def require_dims(params, d_in, d_out):
    """Raise if a loaded net does not match the experiment's state layout."""
    if params.d_in != d_in or params.d_out != d_out:
        raise FormatError(
            f"network has dims {params.d_in}->{params.d_out}, "
            f"experiment expects {d_in}->{d_out}"
        )
