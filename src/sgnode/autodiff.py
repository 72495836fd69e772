"""Tape-based reverse-mode differentiation over a small set of numpy primitives.

A loss is built by composing ``Var`` handles that live on a ``Tape``.  The op
set is intentionally closed: exactly what MLP evaluation, the model
right-hand sides, and mean-squared losses unrolled through explicit
Runge-Kutta steps need.  Its 9 primitives are ``smul`` (scalar product),
``dense`` (fused network layer), ``lincomb`` (Runge-Kutta stage
combination, and every ``+`` between arrays), ``stencil`` (the
convection-diffusion tendency), ``burgers`` (the DG viscous Burgers
tendency), ``l96`` (the two-scale Lorenz 96 tendency), ``sqdist`` (the
squared distance of a state from a constant target, one term of a loss),
``reshape`` and ``narrow`` (the slow variables of a Lorenz 96 state).
``backward`` walks the tape once in reverse and returns the gradient of the
recorded scalar with respect to every parameter array.

The fused ``dense`` node (``h @ W.T + b``, optionally through ReLU) stores
only the layer's output.  ``lincomb`` (``u + sum_j c_j k_j``) is one node
per stage combination, with the scalar coefficients in the node.
``stencil`` applies a banded periodic linear map to ``x - x[..., :1]`` as
a gather and one product per row, with the adjoint stencil in the node, so
its reverse sweep costs what its forward does.  ``burgers`` and ``l96`` are
each a whole right-hand side in one node with a hand-written VJP: the
``stencil`` rules plus the Lax-Friedrichs flux, and the slow and fast
Lorenz 96 rings with the slow equation's source as an input.  Constant
operands ride in the nodes, so a product with a constant matrix or a
distance from a target never lifts a leaf; a ``Var`` records only
``Var + array`` and ``Var * scalar``.  ``backward`` is one plain sweep on
the calling thread; training takes a second core with chunks of windows,
each on a tape of its own (see ``training``).

Each primitive has one forward rule in ``_FWD``.  ``_apply`` records it on
the tape of a ``Var`` argument, lifting each ndarray operand as a constant
leaf once per tape, or evaluates it directly when every argument is an
ndarray.  So a loss builder ``build(params)`` is one forward path:
``record`` runs it on parameter Vars, and the held-out loss, prediction
and ``grad_check``'s finite differences run it on plain arrays.  Every
forward rule keeps its inputs' dtype, so a builder run untaped on
long-double arrays computes in long double throughout.
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
    "burgers",
    "l96",
    "grad_check",
    "sqdist",
    "reshape",
    "narrow",
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


def _dense_fwd(relu, xs):
    h, w, b = xs
    if w.shape[1] == 1:
        # the one-term matmul is the sum 0.0 + h*w, which turns a -0.0
        # product to +0.0; that + 0.0 rides in the bias add
        z = h * w[:, 0]
        b = b + 0.0
    else:
        z = h @ w.T
    z += b
    if relu:
        np.maximum(z, 0.0, out=z)
    return z


def _lincomb_fwd(coeffs, xs):
    # left to right, so the sum rounds as the chain u + c0*k0 + c1*k1 + ... does
    out = xs[0] + coeffs[0] * xs[1]
    for c, k in zip(coeffs[1:], xs[2:], strict=True):
        out += c * k
    return out


def _gather_product(x, idx, s):
    # row e of the gather holds the entries that output block e reads.  The
    # stacked matmul is one (n_blocks, k*n) @ (k*n, n) product per batch
    # row, so each row rounds as it would alone.
    return (np.take(x, idx, axis=-1) @ s).reshape(x.shape)


def _stencil_fwd(aux, xs):
    # aux is (idx, s, s_adj).  The map reads x - x[..., :1]: the stencil
    # annihilates constants only to roundoff, and taking out one entry
    # keeps constant states exact steady states.
    (x,) = xs
    return _gather_product(x - x[..., :1], aux[0], aux[1])


def _burgers_fwd(aux, xs):
    # aux is (idx, s, s_adj, faces, weak, lift_adj): the diffusion stencil,
    # the (2, E+1) flat indices of the minus and plus traces at faces 0..E
    # (face e lies between elements e-1 and e, and face E is face 0 again),
    # the (n+2, n) weak-form lift of one element, and the VJP's adjoint lift
    # (see dg.burgers_operator).  The elementwise order and the two products
    # are those of the dg._tendency chain, so the values are bit-identical
    # to it; the traces are gathered face-contiguous because the flux's
    # ufuncs run faster on contiguous rows.
    faces, weak = aux[3], aux[4]
    (u,) = xs
    lin = _stencil_fwd(aux, xs)
    n = weak.shape[1]
    ue = u.reshape(u.shape[:-1] + (faces.shape[1] - 1, n))
    tr = np.take(u, faces, axis=-1)
    um, up = tr[..., 0, :], tr[..., 1, :]
    tau = np.maximum(np.abs(um), np.abs(up))
    fstar = (0.25 * (um * um + up * up) + 0.5 * tau * (um - up))[..., None]
    flux = 0.5 * (ue * ue)
    f_l = flux[..., 0:1]
    # the weak-form input [volume jump, right jump, left jump], written in place
    z = np.empty(flux.shape[:-1] + (n + 2,), flux.dtype)
    np.subtract(flux, f_l, out=z[..., :n])
    np.subtract(flux[..., n - 1:], fstar[..., 1:, :], out=z[..., n:n + 1])
    np.subtract(f_l, fstar[..., :-1, :], out=z[..., n + 1:])
    lin += (z @ weak).reshape(u.shape)
    return lin


def _ring(a, before, after):
    """The last axis of `a`, a ring of n entries, padded with its last
    `before` and its first `after` entries: a[..., (k + s) % n] is at
    index before + k + s for -before <= k + s < n + after."""
    n = a.shape[-1]
    return np.concatenate((a[..., n - before:], a, a[..., :after]), axis=-1)


def _l96_fwd(aux, xs):
    # aux is (K, J, c, h, F).  Each neighbour is a slice of its ring padded
    # once, and the elementwise order is that of the chain
    #   slow:  (-x[k-1]) * (x[k-2] - x[k+1]) - x[k] + F + source[k]
    #   fast:  c * (((-J) * y[i+1]) * (y[i+2] - y[i-1]) - y[i] + (h/J) * x[i // J])
    # so the values are bit-identical to it.  J = 0 is the slow equation alone.
    K, J, c, h, F = aux
    z, src = xs
    out = np.empty(z.shape, np.result_type(z, src))
    x = z[..., :K]
    xp = _ring(x, 2, 1)  # x[k + s] is xp[..., k + 2 + s]
    a = np.negative(xp[..., 1:K + 1])
    a *= xp[..., :K] - xp[..., 3:]
    a -= x
    a += F
    np.add(a, src, out=out[..., :K])
    if J:
        n = K * J
        y = z[..., K:]
        yp = _ring(y, 1, 2)  # y[i + s] is yp[..., i + 1 + s]
        b = (-J) * yp[..., 2:n + 2]
        b *= yp[..., 3:] - yp[..., :n]
        b -= y
        blocks = b.reshape(b.shape[:-1] + (K, J))
        blocks += (h / J) * x[..., None]
        np.multiply(b, c, out=out[..., K:])
    return out


# Forward rules: fn(aux, input_values) -> value.
# One input sequence keeps _apply's untaped call plain: a star call cost ~0.25 us
# more (CPython 3.11, 2-core x86-64), ~10% of a Burgers p = 1 tendency.
_FWD = {
    "smul": lambda aux, xs: xs[0] * aux,
    "dense": _dense_fwd,  # aux is the relu flag
    "lincomb": _lincomb_fwd,  # aux is the coefficient tuple
    "stencil": _stencil_fwd,  # aux is (idx, s, s_adj)
    "burgers": _burgers_fwd,  # aux is (idx, s, s_adj, faces, weak, lift_adj)
    "l96": _l96_fwd,  # aux is (K, J, c, h, F)
    "sqdist": lambda aux, xs: np.sum(np.square(xs[0] - aux)),  # aux is the target
    "reshape": lambda aux, xs: np.reshape(xs[0], aux),
    "narrow": lambda aux, xs: xs[0][..., :aux],  # aux is the entry count
}


def _vjp_dense(aux, g, out, h, w, b):
    # out > 0 exactly where the pre-activation was > 0
    gz = g * (out > 0) if aux else g
    gz2 = gz.reshape(-1, w.shape[0])
    h2 = h.reshape(-1, w.shape[1])
    # a one-unit output layer's input adjoint is a product of one term,
    # plus the one-term matmul's +0.0 for a -0.0 product
    gh = gz2 @ w if len(w) > 1 else gz2 * w[0] + 0.0
    return gh.reshape(h.shape), gz2.T @ h2, gz2.sum(axis=0)


def _vjp_lincomb(aux, g, out, u, *ks):
    return (_unbroadcast(g, u.shape),) + tuple(
        _unbroadcast(g * c, k.shape) for c, k in zip(aux, ks)
    )


def _vjp_stencil(aux, g, out, x):
    # the transposed map is the same gather with the adjoint blocks, then
    # the adjoint of x - x[..., :1]
    gx = _gather_product(g, aux[0], aux[2])
    gx[..., 0] -= gx.sum(axis=-1)
    return (gx,)


def _vjp_burgers(aux, g, out, u):
    faces, lift_adj = aux[3], aux[5]
    n = lift_adj.shape[0]
    shape = u.shape[:-1] + (faces.shape[1] - 1, n)
    # the adjoint lift gives each element's volume-flux adjoint and its
    # right- and left-face flux adjoints; face e is the right face of
    # element e-1
    gz = g.reshape(shape) @ lift_adj
    gfs = gz[..., n + 1] + np.concatenate((gz[..., -1:, n], gz[..., :-1, n]), axis=-1)
    # the volume flux u^2/2 has Jacobian diag(u)
    gue = gz[..., :n] * u.reshape(shape)
    # the face flux has one diagonal per trace; tau = max(|um|, |up|)
    # follows |um| on a tie, and |x| has slope sign(0) = 0 at 0
    tr = np.take(u, faces[:, :-1], axis=-1)
    um, up = tr[..., 0, :], tr[..., 1, :]
    am, ap = np.abs(um), np.abs(up)
    first = am >= ap
    tau = np.where(first, am, ap)
    jump = um - up
    half = 0.5 * gfs
    gm = half * (um + tau + jump * np.where(first, np.sign(um), 0.0))
    gp = half * (up - tau + jump * np.where(first, 0.0, np.sign(up)))
    # the trace scatter: up at face e is the first node of element e, um
    # the last node of element e-1
    gue[..., 0] += gp
    gue[..., n - 1] += np.concatenate((gm[..., 1:], gm[..., :1]), axis=-1)
    # plus the diffusion's adjoint
    return (_vjp_stencil(aux, g, out, u)[0] + gue.reshape(u.shape),)


def _vjp_l96(aux, g, out, z, src):
    K, J, c, h, _ = aux
    gz = np.empty(z.shape)
    gs, gx = g[..., :K], gz[..., :K]
    # slow: the adjoint gs*(x[k-2] - x[k+1]) of -x[k-1] reaches x[k-1]
    # negated, and q = gs*x[k-1] reaches x[k+1] and, negated, x[k-2]
    xp = _ring(z[..., :K], 2, 1)
    ga = _ring(gs * (xp[..., :K] - xp[..., 3:]), 0, 1)
    qp = _ring(gs * xp[..., 1:K + 1], 1, 2)
    np.subtract(qp[..., :K], qp[..., 3:], out=gx)
    gx -= ga[..., 1:]
    gx -= gs
    if J:
        # fast, on the adjoint gc of the bracket: r = gc*(y[i+2] - y[i-1])
        # reaches y[i+1], and s = gc*y[i+1] reaches y[i+2] and, negated,
        # y[i-1], each times -J; the drive sums each block into x[k]
        n = K * J
        gc = g[..., K:] * c
        yp = _ring(z[..., K:], 1, 2)
        rp = _ring(gc * (yp[..., 3:] - yp[..., :n]), 1, 0)
        sp = _ring(gc * yp[..., 2:n + 2], 2, 1)
        t = rp[..., :n] + sp[..., :n]
        t -= sp[..., 3:]
        gy = gz[..., K:]
        np.multiply(t, -J, out=gy)
        gy -= gc
        gx += (h / J) * gc.reshape(gc.shape[:-1] + (K, J)).sum(axis=-1)
    return gz, _unbroadcast(gs, src.shape)


def _vjp_narrow(aux, g, out, a):
    ga = np.zeros_like(a)
    ga[..., :aux] = g
    return (ga,)


# VJP rules: fn(aux, g, out_value, *input_values) -> per-input gradients.
# They never write into g: backward hands one adjoint array to several nodes.
_VJP = {
    "smul": lambda aux, g, out, a: (g * aux,),
    "dense": _vjp_dense,
    "lincomb": _vjp_lincomb,
    "stencil": _vjp_stencil,
    "burgers": _vjp_burgers,
    "l96": _vjp_l96,
    # one term 2*(x - target)*g; adding g*(x - target) twice would move Burgers gradient bits
    "sqdist": lambda aux, g, out, x: ((2.0 * (x - aux)) * g,),
    "reshape": lambda aux, g, out, a: (np.reshape(g, a.shape),),
    "narrow": _vjp_narrow,
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
        self.consts = {}     # id(x) -> (x, leaf id); holding x keeps its id unique

    def __len__(self):
        return len(self.ops)

    def _leaf(self, x):
        x = np.asarray(x, dtype=np.float64)
        self.ops.append(("leaf", (), None))
        self.vals.append(x)
        return Var(self, len(self.vals) - 1)

    def _const(self, x):
        """The leaf of constant operand x, lifted once per tape.  The cache
        holds a leaf id, not a Var, so no cycle keeps a dropped tape alive."""
        hit = self.consts.get(id(x))
        if hit is None:
            hit = self.consts[id(x)] = (x, self._leaf(x).i)
        return Var(self, hit[1])

    def param(self, x):
        """Register a trainable parameter array; gradients flow to it."""
        v = self._leaf(x)
        self.param_ids.append(v.i)
        return v

    def _push(self, name, args, aux):
        val = _FWD[name](aux, [self.vals[i] for i in args])
        self.ops.append((name, args, aux))
        self.vals.append(val)
        return Var(self, len(self.vals) - 1)


class Var:
    """Handle to one tape node; records Var + array and Var * scalar."""

    __slots__ = ("tape", "i")
    __array_ufunc__ = None  # make ndarray + Var defer to __radd__

    def __init__(self, tape, i):
        self.tape = tape
        self.i = i

    @property
    def value(self):
        return self.tape.vals[self.i]

    @property
    def shape(self):
        return np.shape(self.value)

    def _lift(self, other):
        if isinstance(other, Var):
            if other.tape is not self.tape:
                raise TapeError("cannot mix Vars from different tapes")
            return other
        return self.tape._const(other)

    # A sum of arrays is a lincomb node with coefficient 1: a + 1.0*b rounds
    # as a + b does, and so does its adjoint g*1.0.
    def __add__(self, other):
        if isinstance(other, (int, float)):
            raise _unrecorded("Var + scalar")
        return _apply("lincomb", (1.0,), self, other)

    __radd__ = __add__

    def __mul__(self, other):
        if not isinstance(other, (int, float)):
            raise _unrecorded("Var * array")
        return _apply("smul", float(other), self)


def _unrecorded(what):
    return TapeError(
        f"{what} is not recorded; the tape records Var + array, Var * scalar "
        f"and the primitives {', '.join(_FWD)}"
    )


def record(build, params):
    """Run `build(param_vars)` and capture it on a fresh tape.

    `params` is a sequence of numpy arrays and `build` returns a scalar: a
    Var, or a plain value when no parameter reaches the loss, which is then
    a constant with zero gradient.  Returns (loss value, tape).
    """
    tape = Tape()
    out = build([tape.param(p) for p in params])
    if not isinstance(out, Var):
        out = tape._leaf(out)
    if np.size(out.value) != 1:
        raise TapeError(f"loss must be scalar, got shape {out.shape}")
    tape.out = out.i
    return float(out.value), tape


def backward(tape):
    """Reverse sweep: the gradient of the recorded scalar w.r.t. every
    parameter, as a list aligned with the tape's registration order.

    Each node's adjoint is complete when the sweep reaches it, and each
    input's adjoint sums its terms in sweep order; a node's adjoint is
    freed once its VJP has run.
    """
    if tape.out is None:
        raise TapeError("tape has no recorded output; use record()")
    adj = [None] * len(tape.vals)
    adj[tape.out] = np.ones_like(tape.vals[tape.out])
    for i in range(len(tape.ops) - 1, -1, -1):
        g = adj[i]
        name, args, aux = tape.ops[i]
        if g is None or name == "leaf":
            continue
        gs = _VJP[name](aux, g, tape.vals[i], *(tape.vals[j] for j in args))
        for j, gj in zip(args, gs):
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


def grad_check(build, params, h=1e-6, sample=None, seed=0):
    """Max relative disagreement between tape gradients and central differences.

    The finite differences evaluate `build` untaped, as prediction and the
    held-out loss do, on the parameter list with one entry perturbed by
    +/-h; so a builder whose untaped value differs from its taped one fails
    the check.  They run in each parameter's dtype (at least float64), so
    long-double parameters resolve differences float64 cannot.  `sample`
    limits the check to that many entries per parameter tensor (always
    including the entry with the largest tape gradient); None checks every
    entry.  Returns the max over checked entries of
    |g_ad - g_fd| / max(1e-12, |g_ad| + |g_fd|), with no absolute floor.
    One-sided slopes over 1e-3 apart (relative) mark a kink, a ReLU's say,
    within h, where the central difference mixes two slopes; there the best
    of the three differences counts.  Curvature parts them by h|f''|: on the
    gradcheck problems by at most 1.1e-4 (4.5e-4 with roundoff).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    grads = backward(record(build, params)[1])
    trial = [np.asarray(p, dtype=np.result_type(p, float)) for p in params]
    rng = np.random.default_rng(seed)
    f0 = build(trial)
    max_rel = 0.0
    for k, g in enumerate(grads):
        base = trial[k]
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
            trial[k] = pert = base.copy()
            pert.flat[flat] += h
            fp = build(trial)
            pert.flat[flat] -= 2 * h
            fm = build(trial)
            fwd, bwd = (fp - f0) / h, (f0 - fm) / h
            kink = abs(fwd - bwd) > 1e-3 * (abs(fwd) + abs(bwd))
            fds = [(fp - fm) / (2 * h)] + ([fwd, bwd] if kink else [])
            ad = g.flat[flat]
            max_rel = max(max_rel, min(abs(ad - fd) / max(1e-12, abs(ad) + abs(fd)) for fd in fds))
        trial[k] = base
    return max_rel


def _apply(name, aux, *args):
    """Primitive `name` on args: recorded on the tape of the first Var among
    them, with the other arguments as constant leaves, or evaluated by its
    forward rule when every argument is an array."""
    for v in args:
        if isinstance(v, Var):
            return v.tape._push(name, tuple(v._lift(x).i for x in args), aux)
    return _FWD[name](aux, args)


def dense(h, w, b, relu):
    """One network layer, h @ w.T + b, through ReLU when `relu` is set.

    Taped, this is a single node over (h, w, b) that stores only the layer
    output.  Shapes follow matmul: a 1-D `h` is one row and gives a 1-D
    (d_out,) result.
    """
    return _apply("dense", bool(relu), h, w, b)


def lincomb(u, coeffs, ks):
    """u + sum_j coeffs[j] * ks[j], summed left to right.

    Taped, this is a single node over (u, *ks) with the scalar coefficients
    in the node; the values equal the chain of scalar products and adds.
    """
    return _apply("lincomb", tuple(coeffs), u, *ks)


def stencil(x, idx, s, s_adj):
    """Periodic block stencil on the last axis of x, centred: output block
    e (n entries) is c[..., idx[e]] @ s for c = x - x[..., :1].

    idx is the (n_blocks, k*n) gather of the blocks that block e reads and
    s the (k*n, n) response to them.  s_adj must be the stencil of the
    transposed map over the same gather: for idx's symmetric offsets, the
    blocks of s transposed and in reverse offset order.  Taped, this is
    one node that holds the three arrays.
    """
    return _apply("stencil", (idx, s, s_adj), x)


def burgers(u, op):
    """The DG viscous Burgers tendency of flat states u (..., E*n), for the
    constants op = (idx, s, s_adj, faces, weak, lift_adj) of
    ``dg.burgers_operator``.

    (idx, s, s_adj) is the diffusion stencil, applied to u - u[..., :1] as
    ``stencil`` does.  faces indexes the minus and plus traces (um, up) at
    each face; the Lax-Friedrichs face flux
    (um^2 + up^2)/4 + max(|um|, |up|)(um - up)/2 and the volume flux u^2/2
    reach the tendency through weak, the (n+2, n) lift of one element's
    volume flux and its right- and left-face jumps.  lift_adj is the
    adjoint of that lift as a map from the volume flux and the two face
    fluxes.  Taped, this is one node that holds the constants.
    """
    return _apply("burgers", op, u)


def l96(z, source, aux):
    """The two-scale Lorenz 96 tendency of states z (..., K(1+J)) whose
    slow equation takes `source` (..., K) as its coupling, for
    aux = (K, J, c, h, F).

    The state is [x_1..x_K, y] with the fast variables y one ring of K*J
    in k-major blocks:
      dx_k = -x_{k-1} (x_{k-2} - x_{k+1}) - x_k + F + source_k
      dy_i = c (-J y_{i+1} (y_{i+2} - y_{i-1}) - y_i + (h/J) x_{i//J})
    source broadcasts over z's leading axes.  With J = 0, z is (..., K)
    and this is the slow equation alone.  Taped, this is one node over
    (z, source) that stores only the tendency.
    """
    return _apply("l96", tuple(aux), z, source)


def sqdist(x, target):
    """sum((x - target)**2) for a constant `target` that broadcasts to x's
    shape.  Taped, this is one node over x that holds the target and stores
    only the sum; its VJP 2 (x - target) g rounds as the chain rule of the
    difference, square and sum does."""
    return _apply("sqdist", target, x)


def reshape(x, shape):
    return _apply("reshape", tuple(shape), x)


def narrow(x, n):
    """The first n entries of the last axis of x."""
    return _apply("narrow", n, x)
