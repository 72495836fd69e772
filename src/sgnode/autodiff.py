"""Tape-based reverse-mode differentiation over a small set of numpy primitives.

A loss is built by composing ``Var`` handles that live on a ``Tape``.  The op
set is intentionally closed: exactly what MLP evaluation, the model
right-hand sides, and mean-squared losses unrolled through explicit
Runge-Kutta steps need (product with a constant matrix, fused dense layer,
Runge-Kutta stage combination, periodic block stencil, broadcast add/mul,
abs, max, square, roll, slice/concat, repeat, reshape, full sum).
``backward`` walks the tape once in reverse and returns the gradient of the
recorded scalar with respect to every registered parameter array.

The fused ``dense`` node (``h @ W.T + b``, optionally through ReLU) stores
only the layer's output, and a product with a constant matrix keeps the
matrix in the node instead of on the tape as a leaf.  ``lincomb``
(``u + sum_j c_j k_j``) is one node per stage combination, with the scalar
coefficients in the node.  ``stencil`` applies a banded periodic linear
map as a gather and one product per row, with the adjoint stencil in the
node, so its reverse sweep costs what its forward does.

The same model code runs untaped: every dispatch helper below falls through
to plain numpy when its arguments are ndarrays, so prediction and training
share one implementation of each right-hand side.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tape",
    "Var",
    "TapeError",
    "record",
    "backward",
    "dense",
    "lincomb",
    "stencil",
    "grad_check",
    "absolute",
    "maximum",
    "square",
    "sum_all",
    "roll",
    "reshape",
    "concatenate",
    "narrow",
    "repeat_elems",
]


class TapeError(TypeError):
    """A loss builder used an operation the tape cannot record."""


def _unbroadcast(g, shape):
    """Sum gradient g down to `shape`, undoing numpy broadcasting."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, s in enumerate(shape):
        if s == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def _dense_fwd(relu, h, w, b):
    z = h @ w.T
    if z.ndim == 1:
        z = z[None, :]  # a single input row still gives a (1, d_out) batch
    z += b
    if relu:
        np.maximum(z, 0.0, out=z)
    return z


def _lincomb_fwd(coeffs, u, *ks):
    # left to right, so the sum rounds as the chain u + c0*k0 + c1*k1 + ... does
    out = u + coeffs[0] * ks[0]
    for c, k in zip(coeffs[1:], ks[1:], strict=True):
        out += c * k
    return out


def _stencil_fwd(aux, x):
    # aux is (idx, s, s_adj); row e of the gather holds the entries that
    # output block e reads.  The stacked matmul is one (n_blocks, k*n) @
    # (k*n, n) product per batch row, so each row rounds as it would alone.
    idx, s, _ = aux
    return (np.take(x, idx, axis=-1) @ s).reshape(x.shape)


def _roll(a, shift, axis):
    """np.roll along one axis, by slicing: the last `shift` entries move to
    the front.  Same values, without np.roll's generic axis handling."""
    n = a.shape[axis]
    s = shift % n if n else 0
    lead = (slice(None),) * (axis % a.ndim)
    return np.concatenate((a[lead + (slice(n - s, None),)], a[lead + (slice(0, n - s),)]), axis=axis)


# Forward rules: fn(aux, *input_values) -> value.
_FWD = {
    "add": lambda aux, a, b: a + b,
    "sub": lambda aux, a, b: a - b,
    "mul": lambda aux, a, b: a * b,
    "neg": lambda aux, a: -a,
    "smul": lambda aux, a: a * aux,
    "sadd": lambda aux, a: a + aux,
    "matconst": lambda aux, a: a @ aux,
    "dense": _dense_fwd,  # aux is the relu flag
    "lincomb": _lincomb_fwd,  # aux is the coefficient tuple
    "stencil": _stencil_fwd,  # aux is (idx, s, s_adj)
    "abs": lambda aux, a: np.abs(a),
    "max2": lambda aux, a, b: np.maximum(a, b),
    "square": lambda aux, a: a * a,
    "sumall": lambda aux, a: np.sum(a),
    "reshape": lambda aux, a: np.reshape(a, aux),
    "roll": lambda aux, a: _roll(a, aux[0], aux[1]),
    "narrow": lambda aux, a: _narrow_fwd(aux, a),
    "concat": lambda aux, *xs: np.concatenate(xs, axis=aux),
    "repeat": lambda aux, a: np.repeat(a, aux[0], axis=aux[1]),
}


def _narrow_fwd(aux, a):
    axis, start, length = aux
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    return a[tuple(idx)]


def _vjp_add(aux, g, out, a, b):
    return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)


def _vjp_sub(aux, g, out, a, b):
    return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)


def _vjp_mul(aux, g, out, a, b):
    return _unbroadcast(g * b, a.shape), _unbroadcast(g * a, b.shape)


def _vjp_dense(aux, g, out, h, w, b):
    # out > 0 exactly where the pre-activation was > 0
    gz = g * (out > 0) if aux else g
    gz2 = gz.reshape(-1, w.shape[0])
    gh = (gz2 @ w).reshape(h.shape)
    return gh, gz2.T @ h.reshape(-1, w.shape[1]), gz2.sum(axis=0)


def _vjp_lincomb(aux, g, out, u, *ks):
    return (_unbroadcast(g, u.shape),) + tuple(
        _unbroadcast(g * c, k.shape) for c, k in zip(aux, ks)
    )


def _vjp_stencil(aux, g, out, x):
    # the transposed map is the same gather with the adjoint blocks
    idx, _, s_adj = aux
    return (_stencil_fwd((idx, s_adj, None), g),)


def _vjp_max2(aux, g, out, a, b):
    mask = a >= b  # ties send the gradient to the first argument
    return _unbroadcast(g * mask, a.shape), _unbroadcast(g * ~mask, b.shape)


def _vjp_narrow(aux, g, out, a):
    axis, start, length = aux
    ga = np.zeros_like(a)
    idx = [slice(None)] * a.ndim
    idx[axis] = slice(start, start + length)
    ga[tuple(idx)] = g
    return (ga,)


def _vjp_concat(aux, g, out, *xs):
    sizes = [x.shape[aux] for x in xs]
    return tuple(np.split(g, np.cumsum(sizes)[:-1], axis=aux))


def _vjp_repeat(aux, g, out, a):
    reps, axis = aux
    shape = a.shape[:axis] + (a.shape[axis], reps) + a.shape[axis + 1:]
    return (g.reshape(shape).sum(axis=axis + 1),)


# VJP rules: fn(aux, g, out_value, *input_values) -> per-input gradients.
# They never write into g: backward hands one adjoint array to several nodes.
_VJP = {
    "add": _vjp_add,
    "sub": _vjp_sub,
    "mul": _vjp_mul,
    "neg": lambda aux, g, out, a: (-g,),
    "smul": lambda aux, g, out, a: (g * aux,),
    "sadd": lambda aux, g, out, a: (g,),
    "matconst": lambda aux, g, out, a: (_unbroadcast(g @ np.swapaxes(aux, -1, -2), a.shape),),
    "dense": _vjp_dense,
    "lincomb": _vjp_lincomb,
    "stencil": _vjp_stencil,
    "abs": lambda aux, g, out, a: (g * np.sign(a),),
    "max2": _vjp_max2,
    "square": lambda aux, g, out, a: (2.0 * a * g,),
    "sumall": lambda aux, g, out, a: (g * np.ones_like(a),),
    "reshape": lambda aux, g, out, a: (np.reshape(g, a.shape),),
    "roll": lambda aux, g, out, a: (_roll(g, -aux[0], aux[1]),),
    "narrow": _vjp_narrow,
    "concat": _vjp_concat,
    "repeat": _vjp_repeat,
}


class Tape:
    """Append-only record of a forward computation.

    Nodes are stored in topological order by construction; leaves hold
    parameter or constant arrays, interior nodes hold (op, input ids, aux).
    """

    def __init__(self):
        self.ops = []        # (name, arg ids, aux); leaves use name "leaf"
        self.vals = []       # forward values, index-aligned with ops
        self.param_ids = []  # leaf ids registered as trainable parameters
        self.out = None      # id of the recorded scalar loss

    def __len__(self):
        return len(self.ops)

    def _leaf(self, x):
        x = np.asarray(x, dtype=np.float64)
        self.ops.append(("leaf", (), None))
        self.vals.append(x)
        return Var(self, len(self.vals) - 1)

    def const(self, x):
        """Register a non-trainable input array."""
        return self._leaf(x)

    def param(self, x):
        """Register a trainable parameter array; gradients flow to it."""
        v = self._leaf(x)
        self.param_ids.append(v.i)
        return v

    def _push(self, name, args, aux):
        if name not in _FWD:
            raise TapeError(f"unsupported primitive: {name}")
        val = _FWD[name](aux, *(self.vals[i] for i in args))
        self.ops.append((name, args, aux))
        self.vals.append(val)
        return Var(self, len(self.vals) - 1)

    def replay(self, overrides=None):
        """Recompute the recorded scalar from (optionally perturbed) leaves.

        `overrides` maps leaf id -> replacement array.  Data-dependent ops
        (dense ReLU, max) are re-evaluated, so this is a true re-execution of the
        recorded function.
        """
        overrides = overrides or {}
        vals = [None] * len(self.vals)
        for i, (name, args, aux) in enumerate(self.ops):
            if name == "leaf":
                vals[i] = overrides.get(i, self.vals[i])
            else:
                vals[i] = _FWD[name](aux, *(vals[j] for j in args))
        return float(vals[self.out])


class Var:
    """Handle to one tape node; supports the arithmetic the models need."""

    __slots__ = ("tape", "i")
    __array_ufunc__ = None  # make ndarray <op> Var defer to our reflected ops

    def __init__(self, tape, i):
        self.tape = tape
        self.i = i

    @property
    def value(self):
        return self.tape.vals[self.i]

    @property
    def shape(self):
        return np.shape(self.value)

    @property
    def ndim(self):
        return np.ndim(self.value)

    def _lift(self, other):
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise TapeError("cannot mix Vars from different tapes")
            return other
        return self.tape.const(other)

    def __add__(self, other):
        if isinstance(other, (int, float)):
            return self.tape._push("sadd", (self.i,), float(other))
        return self.tape._push("add", (self.i, self._lift(other).i), None)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            return self.tape._push("sadd", (self.i,), -float(other))
        return self.tape._push("sub", (self.i, self._lift(other).i), None)

    def __rsub__(self, other):
        return self.tape._push("sub", (self._lift(other).i, self.i), None)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return self.tape._push("smul", (self.i,), float(other))
        return self.tape._push("mul", (self.i, self._lift(other).i), None)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, float)):
            raise TapeError("Var division is supported by scalars only")
        return self.tape._push("smul", (self.i,), 1.0 / float(other))

    def __neg__(self):
        return self.tape._push("neg", (self.i,), None)

    def __matmul__(self, other):
        if isinstance(other, Var):
            raise TapeError("Var @ Var is not recorded; the right operand must be constant")
        # a constant matrix rides in the node; no leaf, no gradient for it
        return self.tape._push("matconst", (self.i,), np.asarray(other, dtype=np.float64))


def record(build, params):
    """Run `build(tape, param_vars)` and capture it on a fresh tape.

    `params` is a sequence of numpy arrays; `build` must return a scalar Var.
    Returns (loss value, tape).
    """
    tape = Tape()
    pvars = [tape.param(p) for p in params]
    out = build(tape, pvars)
    if not isinstance(out, Var):
        raise TapeError("loss builder must return a tape Var")
    if np.size(out.value) != 1:
        raise TapeError(f"loss must be scalar, got shape {out.shape}")
    tape.out = out.i
    return float(out.value), tape


def backward(tape):
    """Reverse sweep: the gradient of the recorded scalar w.r.t. every
    parameter, as a list aligned with the tape's registration order."""
    if tape.out is None:
        raise TapeError("tape has no recorded output; use record()")
    adj = [None] * len(tape.vals)
    adj[tape.out] = np.ones_like(tape.vals[tape.out])
    for i in range(len(tape.ops) - 1, -1, -1):
        g = adj[i]
        if g is None:
            continue
        name, args, aux = tape.ops[i]
        if name == "leaf":
            continue
        invals = tuple(tape.vals[j] for j in args)
        for j, gj in zip(args, _VJP[name](aux, g, tape.vals[i], *invals)):
            # accumulation is out of place, so adjoints may alias each other
            adj[j] = np.asarray(gj) if adj[j] is None else adj[j] + gj
        adj[i] = None  # free as we go
    grads = []
    for pid in tape.param_ids:
        g = adj[pid]
        if g is None:
            g = np.zeros_like(tape.vals[pid])
        elif any(np.may_share_memory(g, k) for k in grads):
            g = g.copy()  # e.g. both operands of a + b receive the same array
        grads.append(g)
    return grads


def grad_check(build, params, h=1e-6, sample=None, seed=0, atol=0.0):
    """Max relative disagreement between tape gradients and central differences.

    The finite differences re-run the recorded computation via tape replay
    with one parameter entry perturbed by +/-h.  `sample` limits the check to
    that many entries per parameter tensor (always including the entry with
    the largest tape gradient); None checks every entry.  Returns
    max over checked entries of |g_ad - g_fd| / max(1e-12, atol, |g_ad| + |g_fd|).

    With atol=0 this is a pure relative comparison.  Central differences
    cannot resolve differences below ~ulp(loss)/h, so callers checking
    losses whose gradient entries span many orders of magnitude should pass
    atol at that resolution; discrepancies inside the floor are then ignored
    (|g_ad - g_fd| is reduced by atol before normalizing).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    loss, tape = record(build, params)
    grads = backward(tape)
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    for pid, g in zip(tape.param_ids, grads):
        base = tape.vals[pid]
        n = base.size
        if n == 0:
            continue
        if sample is None or sample >= n:
            idxs = np.arange(n)
        else:
            idxs = rng.choice(n, size=sample, replace=False)
            top = int(np.argmax(np.abs(g)))
            if top not in idxs:
                idxs = np.append(idxs, top)
        for flat in idxs:
            pert = base.copy()
            pert.flat[flat] += h
            fp = tape.replay({pid: pert})
            pert.flat[flat] -= 2 * h
            fm = tape.replay({pid: pert})
            fd = (fp - fm) / (2 * h)
            ad = g.flat[flat]
            rel = max(0.0, abs(ad - fd) - atol) / max(1e-12, abs(ad) + abs(fd))
            max_rel = max(max_rel, rel)
    return max_rel


def _dispatch(x):
    return isinstance(x, Var)


def absolute(x):
    if _dispatch(x):
        return x.tape._push("abs", (x.i,), None)
    return np.abs(x)


def maximum(a, b):
    if _dispatch(a) or _dispatch(b):
        v = a if _dispatch(a) else b
        a = v._lift(a)
        b = v._lift(b)
        return v.tape._push("max2", (a.i, b.i), None)
    return np.maximum(a, b)


def square(x):
    if _dispatch(x):
        return x.tape._push("square", (x.i,), None)
    return x * x


def sum_all(x):
    """Sum every entry down to a scalar."""
    if _dispatch(x):
        return x.tape._push("sumall", (x.i,), None)
    return np.sum(x)


def roll(x, shift, axis=-1):
    if _dispatch(x):
        axis = axis % x.ndim
        return x.tape._push("roll", (x.i,), (int(shift), axis))
    return _roll(x, int(shift), axis)


def dense(h, w, b, relu):
    """One network layer, h @ w.T + b, through ReLU when `relu` is set.

    Taped, this is a single node over (h, w, b) that stores only the layer
    output.  A 1-D `h` gives a (1, d_out) result.
    """
    vs = [x for x in (h, w, b) if _dispatch(x)]
    if vs:
        ids = tuple(vs[0]._lift(x).i for x in (h, w, b))
        return vs[0].tape._push("dense", ids, bool(relu))
    return _dense_fwd(relu, h, w, b)


def lincomb(u, coeffs, ks):
    """u + sum_j coeffs[j] * ks[j], summed left to right.

    Taped, this is a single node over (u, *ks) with the scalar coefficients
    in the node; the values equal the chain of scalar products and adds.
    """
    xs = (u, *ks)
    for v in xs:
        if _dispatch(v):
            ids = tuple(v._lift(x).i for x in xs)
            return v.tape._push("lincomb", ids, tuple(coeffs))
    return _lincomb_fwd(coeffs, *xs)


def stencil(x, idx, s, s_adj):
    """Periodic block stencil on the last axis of x: output block e (n
    entries) is x[..., idx[e]] @ s.

    idx is the (n_blocks, k*n) gather of the blocks that block e reads and
    s the (k*n, n) response to them.  s_adj must be the stencil of the
    transposed map over the same gather: for idx's symmetric offsets, the
    blocks of s transposed and in reverse offset order.  Taped, this is
    one node that holds the three arrays.
    """
    if _dispatch(x):
        return x.tape._push("stencil", (x.i,), (idx, s, s_adj))
    return _stencil_fwd((idx, s, s_adj), x)


def reshape(x, shape):
    if _dispatch(x):
        return x.tape._push("reshape", (x.i,), tuple(shape))
    return np.reshape(x, shape)


def concatenate(xs, axis=-1):
    vs = [x for x in xs if _dispatch(x)]
    if vs:
        tape = vs[0].tape
        ids = tuple(vs[0]._lift(x).i for x in xs)
        axis = axis % tape.vals[ids[0]].ndim
        return tape._push("concat", ids, axis)
    return np.concatenate(xs, axis=axis)


def narrow(x, axis, start, length):
    """Contiguous slice of `length` entries starting at `start` along `axis`."""
    if _dispatch(x):
        axis = axis % x.ndim
        return x.tape._push("narrow", (x.i,), (axis, int(start), int(length)))
    idx = [slice(None)] * x.ndim
    idx[axis % x.ndim] = slice(start, start + length)
    return x[tuple(idx)]


def repeat_elems(x, reps, axis=-1):
    """Repeat each entry `reps` times consecutively along `axis`."""
    if _dispatch(x):
        axis = axis % x.ndim
        return x.tape._push("repeat", (x.i,), (int(reps), axis))
    return np.repeat(x, reps, axis=axis)
