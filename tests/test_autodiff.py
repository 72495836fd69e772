import gc
import weakref
import zlib

import numpy as np
import pytest

from sgnode import autodiff as ad
from sgnode import dg, lorenz96, mlp, training
from sgnode.ode import erk_step, integrate, tableau_rk4, tableau_tsit5


def quadratic(pvars):
    (theta,) = pvars
    return ad.sqdist(theta, 0.0)


def weighted_sum(x, w):
    # sum(x * w) for a constant w as one dense row, so the adjoint reaching
    # x is exactly w
    w = np.broadcast_to(w, x.shape).reshape(1, -1)
    return ad.reshape(ad.dense(ad.reshape(x, (1, -1)), w, np.zeros(1), relu=False), ())


# a 0-d array: Var + _ONE records a lincomb, where Var + 1.0 is not recorded
_ONE = np.array(1.0)


def test_quadratic_loss_value_and_tape():
    loss, tape = ad.record(quadratic, [np.array([1.0, 2.0])])
    assert loss == 5.0
    assert len(tape) == 2  # one leaf and one sqdist


def test_quadratic_gradient_analytic():
    loss, tape = ad.record(quadratic, [np.array([1.0, 2.0])])
    assert np.array_equal(ad.backward(tape)[0], [2.0, 4.0])
    assert loss == 5.0


def test_dead_relu_kills_gradient():
    def build(pvars):
        (w,) = pvars
        return ad.reshape(ad.dense(np.array([[-3.0]]), w, np.zeros(1), relu=True), ())

    loss, tape = ad.record(build, [np.array([[4.0]])])
    assert loss == 0.0
    assert np.array_equal(ad.backward(tape)[0], [[0.0]])


def test_relu_subgradient_zero_at_origin():
    def build(pvars):
        (b,) = pvars
        # zero weights: each unit's pre-activation is its bias
        return weighted_sum(ad.dense(np.ones((1, 2)), np.zeros((3, 2)), b, relu=True), 1.0)

    loss, tape = ad.record(build, [np.array([-1.0, 0.0, 2.0])])
    g = ad.backward(tape)[0]
    assert np.array_equal(g, [0.0, 0.0, 1.0])


def test_gradient_of_parameter_independent_loss_is_zero():
    def build(pvars):
        return ad.sqdist(np.arange(3.0), 0.0)

    loss, tape = ad.record(build, [np.ones(4)])
    g = ad.backward(tape)[0]
    assert np.array_equal(g, np.zeros(4))


def test_gradient_linearity_in_loss():
    rng = np.random.default_rng(2)
    theta = rng.normal(size=5)
    x1 = rng.normal(size=5)
    x2 = rng.normal(size=5)
    a, b = 1.7, -0.4

    def l1(pvars):
        return ad.sqdist(pvars[0], x1)

    def l2(pvars):
        return ad.sqdist(pvars[0] * 0.5, x2)

    def combo(pvars):
        return l1(pvars) * a + l2(pvars) * b

    g1 = ad.backward(ad.record(l1, [theta])[1])[0]
    g2 = ad.backward(ad.record(l2, [theta])[1])[0]
    gc = ad.backward(ad.record(combo, [theta])[1])[0]
    assert np.max(np.abs(gc - (a * g1 + b * g2))) < 1e-12


def test_grad_check_quadratic():
    assert ad.grad_check(quadratic, [np.array([1.0, 2.0])], h=1e-6) < 1e-9


def test_grad_check_zero_params():
    def build(pvars):
        return weighted_sum(np.ones(2), 1.0)

    assert ad.grad_check(build, [], h=1e-6) == 0.0


def test_grad_check_requires_positive_h():
    with pytest.raises(ValueError):
        ad.grad_check(quadratic, [np.ones(2)], h=0.0)


def test_grad_check_flags_a_builder_whose_untaped_value_differs():
    # the finite differences run the builder untaped; a builder that
    # computes another loss there disagrees with its own tape
    def build(pvars):
        scale = 1.0 if isinstance(pvars[0], ad.Var) else 2.0
        return ad.sqdist(pvars[0], 0.0) * scale

    theta = [np.array([1.0, -2.0])]
    assert ad.record(build, theta)[0] == 5.0 and float(build(theta)) == 10.0
    # tape gradient 2*theta against differences of 4*theta: 2/6 apart
    assert ad.grad_check(build, theta, h=1e-6) == pytest.approx(1.0 / 3.0, rel=1e-6)


def test_mlp_rollout_gradient_matches_finite_differences(monkeypatch):
    # 2-state toy rhs, 3-step unrolled RK4 MSE, full finite-difference sweep
    monkeypatch.setattr(mlp, "HIDDEN_WIDTH", 8)
    params = mlp.init_params(2, 2, seed=4)
    mat = np.array([[-0.5, 0.2], [0.1, -0.3]])
    u0 = np.array([[0.3, -0.2]])
    targets = [np.array([[0.4, -0.1]]), np.array([[0.5, 0.0]]), np.array([[0.6, 0.1]])]

    def build(pvars):
        ws, bs = pvars[0::2], pvars[1::2]

        def rhs(u):
            return ad.dense(u, mat, np.zeros(2), relu=False) + mlp.forward(ws, bs, u)

        u = u0
        loss = None
        for tgt in targets:
            u = erk_step(tableau_rk4(), rhs, u, 0.1)
            s = ad.sqdist(u, tgt)
            loss = s if loss is None else loss + s
        return loss * (1.0 / 3.0)

    err = ad.grad_check(build, mlp.param_list(params), h=1e-6)
    assert err < 1e-5


def test_single_step_gradient_matches_hand_chain_rule():
    # scalar linear rhs u' = theta*u: one RK4 step is u0*P(h*theta) with
    # P(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so for loss (u1 - y)^2
    # dL/dtheta = 2 (u1 - y) u0 h P'(h theta), P'(z) = 1 + z + z^2/2 + z^3/6.
    theta = 0.37
    u0, y, h = 1.4, 1.9, 0.1

    def build(pvars):
        (th,) = pvars

        def rhs(u):
            return ad.dense(u, th, np.zeros(1), relu=False)  # theta * u

        u = erk_step(tableau_rk4(), rhs, np.array([[u0]]), h)
        return ad.sqdist(u, np.array([[y]]))

    loss, tape = ad.record(build, [np.array([[theta]])])
    g = ad.backward(tape)[0][0, 0]
    z = h * theta
    poly = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
    dpoly = 1 + z + z**2 / 2 + z**3 / 6
    u1 = u0 * poly
    expected = 2 * (u1 - y) * u0 * h * dpoly
    assert g == pytest.approx(expected, rel=1e-12)


def _ring_stencil(n_blocks, n, seed):
    # a random periodic block stencil over offsets -2..2 and its adjoint
    blocks = [np.random.default_rng(seed + k).normal(size=(n, n)) for k in range(5)]
    elems = (np.arange(n_blocks)[:, None] + np.arange(-2, 3)) % n_blocks
    idx = (elems[:, :, None] * n + np.arange(n)).reshape(n_blocks, 5 * n)
    return idx, np.concatenate(blocks), np.concatenate([b.T for b in blocks[::-1]])


# the Burgers tendency on four elements of order 2 and on six of order 1,
# its entries of order 1
_BURGERS_P2 = dg.burgers_operator(
    dg.PdeConfig(dg.VISCOUS_BURGERS, kappa=0.05), dg.make_mesh(4, 2, 0.0, 2 * np.pi)
)
_BURGERS_P1 = dg.burgers_operator(
    dg.PdeConfig(dg.VISCOUS_BURGERS, kappa=0.05), dg.make_mesh(6, 1, 0.0, 2 * np.pi)
)
_RAMP = (np.arange(36.0).reshape(3, 12) + 1.0) / 36.0
# (K, J, c, h, F) of small two-scale Lorenz 96 rings, and weights under
# which every gradient entry of the l96 cases exceeds 0.1, so the central
# differences resolve it
_L96 = (4, 3, 2.0, 0.5, 1.5)
_L96_J1 = (5, 1, 3.0, 1.0, 2.0)
_L96_W = 0.5 + (np.arange(48.0).reshape(3, 16) % 5) / 5.0


# One finite-difference case per primitive; test_every_primitive_has_a_vjp_and_a_case
# checks that the tapes of these cases cover every op in autodiff._FWD.
FD_CASES = [
    ("l96", lambda p: weighted_sum(ad.l96(p[0], p[1], _L96), _L96_W), [(3, 16), (3, 4)]),
    ("narrow", lambda p: weighted_sum(ad.narrow(p[0], 2), _RAMP[:, :2] + 0.5), [(3, 4)]),
    ("l96_flat", lambda p: weighted_sum(ad.l96(p[0], p[1], _L96), _L96_W[1]), [(16,), (4,)]),
    # the source broadcasts over the state's leading axes, so its gradient is summed back down
    ("l96_source_broadcast", lambda p: weighted_sum(ad.l96(p[0], p[1], _L96), _L96_W[:2]), [(2, 16), (4,)]),
    # the Burgers weights vary, so no gradient entry cancels to roundoff: the
    # tendency conserves the integral of u, and uniform weights zero the
    # gradient at p = 1
    ("burgers", lambda p: weighted_sum(ad.burgers(p[0], _BURGERS_P2), _RAMP), [(3, 12)]),
    ("burgers_flat", lambda p: weighted_sum(ad.burgers(p[0], _BURGERS_P2), _RAMP[0]), [(12,)]),
    # one fast variable per slow one: the fast ring is as short as the slow
    ("l96_j1", lambda p: weighted_sum(ad.l96(p[0], p[1], _L96_J1), _L96_W[:, :10]), [(3, 10), (3, 5)]),
    ("burgers_p1", lambda p: weighted_sum(ad.burgers(p[0], _BURGERS_P1), (np.arange(24.0).reshape(2, 12) % 5 - 2.0) / 2.0), [(2, 12)]),
    ("bias_broadcast", lambda p: ad.sqdist(np.arange(20.0).reshape(5, 4) / 7.0 + ad.reshape(p[0], (1, -1)), 0.0), [(4,)]),
    ("sqdist", lambda p: ad.sqdist(p[0], _RAMP[:, :4]), [(3, 4)]),
    # J = 0: the slow equation alone, as the slow-only prediction runs it
    ("l96_slow", lambda p: weighted_sum(ad.l96(p[0], p[1], (4, 0) + _L96[2:]), _L96_W[:, :4]), [(3, 4), (3, 4)]),
    # dense inputs 1 + p/4, positive for |p| < 4, and sums free of cancellation, so
    # the central differences resolve every gradient entry; 8 * b kills about a quarter of the units
    ("dense_relu", lambda p: weighted_sum(ad.dense(p[0] * 0.25 + _ONE, p[1] * 0.25 + _ONE, p[2] * 8.0, relu=True), 1.0), [(5, 3), (4, 3), (4,)]),
    ("dense_linear", lambda p: weighted_sum(ad.dense(p[0] * 0.25 + _ONE, p[1] * 0.25 + _ONE, p[2] * 8.0, relu=False), 1.0), [(5, 3), (4, 3), (4,)]),
    ("dense_row", lambda p: weighted_sum(ad.dense(p[0] * 0.25 + _ONE, p[1] * 0.25 + _ONE, p[2] * 8.0, relu=True), 1.0), [(3,), (4, 3), (4,)]),
    ("arith", lambda p: weighted_sum(p[0] * 0.25 + p[1] + _RAMP[:, 4:8], _RAMP[:, :4] + 0.5), [(3, 4), (3, 4)]),
    # u broadcasts against the slopes, so its gradient is summed back down
    ("lincomb", lambda p: weighted_sum(ad.lincomb(p[0], [0.5, -1.25], [p[1], p[2]]), np.arange(12.0).reshape(3, 4)), [(4,), (3, 4), (3, 4)]),
    # varied weights, as for burgers, so no gradient entry of the centred map cancels to roundoff
    ("stencil", lambda p: weighted_sum(ad.stencil(p[0], *_ring_stencil(6, 2, 1)), (np.arange(36.0).reshape(3, 12) % 7 - 3.0) / 2.0), [(3, 12)]),
]


@pytest.mark.parametrize("name,build,shapes", FD_CASES)
def test_primitive_vjps_match_finite_differences(name, build, shapes):
    if np.finfo(np.longdouble).eps == np.finfo(np.float64).eps:
        # float64 differences at h = 1e-6 resolve no more than this
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        params = [rng.normal(size=s) for s in shapes]
        assert ad.grad_check(build, params, h=1e-6) < 1e-7, name
        return
    # long-double differences leave the float64 tape gradient a real margin:
    # over 40 seeds no case read worse than 6.3e-10
    for k in range(3):
        rng = np.random.default_rng([zlib.crc32(name.encode()), k])
        params = [rng.normal(size=s).astype(np.longdouble) for s in shapes]
        assert ad.grad_check(build, params, h=1e-6) < 1e-8, (name, k)


# (rows, d_in, d_out); rows None is one (d_in,) state
DENSE_SHAPES = [
    # the L96 per-component net on 100 windows of K = 36
    (3600, 1, 128), (3600, 128, 128), (3600, 128, 1),
    # the same net on one of l96-desk's four training chunks of 25 windows
    (900, 1, 128), (900, 128, 128), (900, 128, 1),
    # an odd row count
    (3601, 1, 128), (3601, 128, 128), (3601, 128, 1),
    # CD (100 dofs) and Burgers (128 dofs) on a batch of 100
    (100, 100, 128), (100, 128, 128), (100, 128, 100),
    # one state
    (None, 1, 128), (None, 128, 1), (None, 100, 128),
]


@pytest.mark.parametrize("rows,d_in,d_out", DENSE_SHAPES)
@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("zeros", [False, True], ids=["normal", "signed_zeros"])
def test_dense_rules_give_the_bytes_of_the_matmul_chain(rows, d_in, d_out, relu, zeros):
    # the one-term products of one-unit layers round, signed zeros
    # included, as the matmuls they replace
    rng = np.random.default_rng([rows or 0, d_in, d_out])
    h = rng.normal(size=(d_in,) if rows is None else (rows, d_in))
    w, b = rng.normal(size=(d_out, d_in)), rng.normal(size=d_out)
    if zeros:
        # a product of one term is -0.0 where the matmul sums to +0.0
        h[..., ::3], w[::2], b[::3] = 0.0, -0.0, -0.0
    z = ad._dense_fwd(relu, (h, w, b))
    want = h @ w.T
    want += b
    if relu:
        np.maximum(want, 0.0, out=want)
    assert (z.shape, z.tobytes()) == (want.shape, want.tobytes())
    g = rng.normal(size=z.shape)
    if zeros:
        g[..., ::2] = 0.0
    gz = (g * (z > 0) if relu else g).reshape(-1, d_out)
    want = ((gz @ w).reshape(h.shape), gz.T @ h.reshape(-1, d_in), gz.sum(axis=0))
    got = ad._vjp_dense(relu, g, z, h, w, b)
    assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]


def test_grad_check_takes_the_one_sided_slope_across_a_kink():
    # the ReLU's kink lies 0.3e-6 below w, inside the central difference's
    # reach at h = 1e-6, which mixes the slopes 2.0 and 0 into ~1.3
    x, b = np.ones((1, 1)), np.array([0.3e-6 - 0.5])

    def build(p):
        return ad.sqdist(ad.dense(x, p[0], b, True), -1.0)

    assert ad.grad_check(build, [np.array([[0.5]])], h=1e-6) < 1e-5


def test_grad_check_holds_a_smooth_entry_to_the_central_difference(monkeypatch):
    # a sqdist rule giving the forward slope 2(x - t) + h of the quadratic
    # loss: off by h|f''|/2 from the true slope, as every one-sided
    # difference of a smooth entry is, so it must not pass as one
    monkeypatch.setitem(ad._VJP, "sqdist", lambda aux, g, out, x: ((2.0 * (x - aux) + 1e-6) * g,))
    (build, shapes), = [(b, s) for name, b, s in FD_CASES if name == "sqdist"]
    params = [np.random.default_rng(zlib.crc32(b"sqdist")).normal(size=s) for s in shapes]
    assert ad.grad_check(build, params, h=1e-6) >= 1e-7


@pytest.mark.parametrize("scale", [1 - 4e-7, 1 + 4e-7])
def test_a_dense_vjp_off_by_4e_7_fails_every_fd_case_through_dense(monkeypatch, scale):
    # weighted_sum is a dense row, so most cases run the rule; a wrong rule
    # must fail the bound of test_primitive_vjps_match_finite_differences
    vjp = ad._VJP["dense"]
    monkeypatch.setitem(ad._VJP, "dense", lambda *a: tuple(x * scale for x in vjp(*a)))
    ran = 0
    for name, build, shapes in FD_CASES:
        if "dense" in {op for op, _, _ in ad.record(build, [np.ones(s) for s in shapes])[1].ops}:
            rng = np.random.default_rng(zlib.crc32(name.encode()))
            params = [rng.normal(size=s) for s in shapes]
            assert ad.grad_check(build, params, h=1e-6) >= 1e-7, name
            ran += 1
    assert ran == len(FD_CASES) - 2  # all but sqdist and bias_broadcast


def test_every_primitive_has_a_vjp_and_a_case():
    assert set(ad._VJP) == set(ad._FWD)
    covered = set()
    for name, build, shapes in FD_CASES:
        _, tape = ad.record(build, [np.ones(s) for s in shapes])
        covered.update(op for op, _, _ in tape.ops)
    assert set(ad._FWD) - covered == set()


def _fwd_inputs():
    """(name, aux, input values) of every primitive node on the FD cases' tapes."""
    nodes = []
    for _, build, shapes in FD_CASES:
        _, tape = ad.record(build, [np.ones(s) for s in shapes])
        nodes += [(op, aux, [tape.vals[i] for i in args])
                  for op, args, aux in tape.ops if op != "leaf"]
    return nodes


def test_forward_rules_keep_long_double():
    seen = set()
    for name, aux, xs in _fwd_inputs():
        out = ad._FWD[name](aux, [np.asarray(x, np.longdouble) for x in xs])
        assert np.asarray(out).dtype == np.longdouble, name
        seen.add(name)
    assert seen == set(ad._FWD)


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps == np.finfo(np.float64).eps,
    reason="np.longdouble is binary64 on this platform, so long-double "
           "differences resolve nothing the float64 check does not",
)
@pytest.mark.parametrize("name,build,shapes", FD_CASES)
def test_primitive_vjps_match_long_double_finite_differences(name, build, shapes):
    # float64 tape gradients (the tape stores float64) against central
    # differences of the untaped builder in long double (one-sided ones only
    # across a kink), which resolve entries far below float64's ~ulp(loss)/h
    worst = 0.0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        params = [rng.normal(size=s).astype(np.longdouble) for s in shapes]
        worst = max(worst, ad.grad_check(build, params, h=1e-6))
    assert worst < 1e-7, (name, worst)


@pytest.mark.parametrize("stencil", [
    _ring_stencil(3, 2, 0),  # offsets -2..2 fold onto three blocks
    _ring_stencil(7, 3, 0),
    dg.linear_stencil(dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=1e-2, a=1.0), dg.make_mesh(4, 4)),
    dg.linear_stencil(dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=1e-4, a=-0.7), dg.make_mesh(50, 5)),
], ids=["ring3", "ring7", "cd4", "cd50"])
def test_stencil_vjp_is_the_adjoint_map(stencil):
    # <stencil(x), g> = <x, vjp(g)> for a batch of states and adjoints
    d = stencil[0].size // 5
    rng = np.random.default_rng(d)
    x, g = rng.normal(size=(2, 3, d))
    _, tape = ad.record(lambda p: weighted_sum(ad.stencil(p[0], *stencil), g), [x])
    (gx,) = ad.backward(tape)
    lhs, rhs = np.vdot(ad.stencil(x, *stencil), g), np.vdot(x, gx)
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(gx)


# The adjoint identity <J v, w> = <v, J^T w> of each linear primitive, with
# J^T w from the tape and J v from the forward rule on arrays.
ADJOINT_CASES = {
    "stencil": (lambda p: ad.stencil(p[0], *_ring_stencil(6, 2, 3)), [(3, 12)]),
    # u broadcasts against the slopes
    "lincomb": (lambda p: ad.lincomb(p[0], [0.5, -1.25], [p[1], p[2]]), [(4,), (3, 4), (3, 4)]),
    "smul": (lambda p: p[0] * -1.7, [(3, 4)]),
    "reshape": (lambda p: ad.reshape(p[0], (4, 3)), [(3, 4)]),
    "narrow": (lambda p: ad.narrow(p[0], 2), [(3, 4)]),
}


@pytest.mark.parametrize("name", sorted(ADJOINT_CASES))
def test_linear_primitive_vjps_are_adjoint_maps(name):
    f, shapes = ADJOINT_CASES[name]
    for seed in range(20):
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        vs = [rng.normal(size=s) for s in shapes]
        w = rng.normal(size=np.shape(f(vs)))
        _, tape = ad.record(lambda p: weighted_sum(f(p), w), [rng.normal(size=s) for s in shapes])
        gs = ad.backward(tape)
        lhs, rhs = np.vdot(f(vs), w), sum(np.vdot(v, g) for v, g in zip(vs, gs))
        scale = np.sqrt(sum(np.vdot(v, v) for v in vs) * sum(np.vdot(g, g) for g in gs))
        assert abs(lhs - rhs) <= 1e-13 * scale, (name, seed)


def _dense_case(relu):
    def case(rng):
        # every pre-activation is 0.5 or more from ReLU's kink: the bias puts
        # all rows of even units alive and of odd units dead
        h, w = rng.normal(size=(5, 3)), rng.normal(size=(4, 3))
        z = h @ w.T
        b = np.where(np.arange(4) % 2 == 0, 0.5 - z.min(axis=0), -0.5 - z.max(axis=0))
        wts = rng.normal(size=(5, 4))
        return lambda p: weighted_sum(ad.dense(p[0], p[1], p[2], relu), wts), [h, w, b]

    return case


def _burgers_case(rng):
    # order-2 elements: in row 0 each element's first node, in row 1 its
    # last, exceeds the other end by 0.5 or more, and row 1 is negative; so
    # |um|, |up| and max(|um|, |up|) stay off their kinks
    u = rng.uniform(0.5, 1.0, size=(2, 4, 3))
    u[0, :, 0] += 1.0
    u[1, :, 2] += 1.0
    u[1] *= -1.0
    wts = rng.normal(size=(2, 12))
    return lambda p: weighted_sum(ad.burgers(p[0], _BURGERS_P2), wts), [u.reshape(2, 12)]


def _l96_case(rng):
    wts = rng.normal(size=(3, 16))
    return lambda p: weighted_sum(ad.l96(p[0], p[1], _L96), wts), [rng.normal(size=(3, 16)), rng.normal(size=(3, 4))]


def _sqdist_case(rng):
    # a target far from the state keeps the slope along v large, so a slope
    # 1e-3 off leaves an O(h) term above the h^2 remainder
    target = 10.0 * rng.normal(size=(3, 4))
    return lambda p: ad.sqdist(p[0], target), [rng.normal(size=(3, 4))]


TAYLOR_CASES = {
    "dense_relu": _dense_case(True),
    "dense_linear": _dense_case(False),
    "burgers": _burgers_case,
    "l96": _l96_case,
    "sqdist": _sqdist_case,
}


@pytest.mark.parametrize("name", sorted(TAYLOR_CASES))
def test_primitive_taylor_remainders_are_second_order(name):
    # after dolfin-adjoint's taylor_test: along a unit direction v,
    # |J(p + hv) - J(p) - h dJ.v| falls as h^2 only if dJ is right.  The
    # order is fitted over h 1e-2..1e-5 and over its last decade; a slope
    # 1e-3 off must leave an O(h) term there, so the check has the power to
    # see a wrong gradient.
    hs = np.array([1e-2, 1e-3, 1e-4, 1e-5])
    for seed in range(20):
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        build, params = TAYLOR_CASES[name](rng)
        loss, tape = ad.record(build, params)
        grads = ad.backward(tape)
        vs = [rng.normal(size=p.shape) for p in params]
        norm = np.sqrt(sum(np.vdot(v, v) for v in vs))
        vs = [v / norm for v in vs]
        slope = sum(np.vdot(g, v) for g, v in zip(grads, vs))
        js = np.array([build([p + h * v for p, v in zip(params, vs)]) for h in hs])
        for s, second_order in ((slope, True), (slope * (1 + 1e-3), False)):
            rem = np.log10(np.abs(js - loss - hs * s))
            fit, last = (rem[0] - rem[-1]) / 3, rem[-2] - rem[-1]
            if second_order:
                assert min(fit, last) >= 1.9, (name, seed, fit, last)
            else:
                assert last < 1.5, (name, seed, last)


def _chain(u, coeffs, ks):
    # the scalar-product-and-add chain that lincomb replaces
    for c, k in zip(coeffs, ks):
        u = u + k * c
    return u


def test_lincomb_is_bit_identical_to_the_chain_it_replaces():
    rng = np.random.default_rng(5)
    coeffs = [float(1e-3 * b) for b in tableau_tsit5().b[:6]]
    arrays = [rng.normal(size=(4, 7)) for _ in range(7)]
    assert np.array_equal(ad.lincomb(arrays[0], coeffs, arrays[1:]), _chain(arrays[0], coeffs, arrays[1:]))
    weight = rng.normal(size=(4, 7))

    def build_with(combine):
        def build(pvars):
            return ad.sqdist(combine(pvars[0], coeffs, pvars[1:]), weight)

        return build

    loss, tape = ad.record(build_with(ad.lincomb), arrays)
    ref_loss, ref_tape = ad.record(build_with(_chain), arrays)
    assert loss == ref_loss
    for g, ref in zip(ad.backward(tape), ad.backward(ref_tape), strict=True):
        assert np.array_equal(g, ref)


def test_a_tsit5_step_records_one_lincomb_per_stage_combination():
    # five stage inputs (stage 0 is u itself) and the update
    tape = ad.Tape()
    u = tape.param(np.ones((2, 3)))
    before = len(tape)
    erk_step(tableau_tsit5(), lambda x: ad.reshape(x, (2, 3)), u, 0.1)
    added = [op for op, _, _ in tape.ops[before:]]
    assert added.count("lincomb") == 6 and "smul" not in added and "add" not in added


def test_training_tapes_record_exactly_the_closed_op_set(monkeypatch):
    # one training loss per model; an op no model records is dead code
    seen = set()
    backward = ad.backward

    def spy(tape):
        seen.update(op for op, _, _ in tape.ops)
        return backward(tape)

    monkeypatch.setattr(ad, "backward", spy)
    dt = 5e-3
    tcfg = training.TrainConfig(
        epochs=1, batch_size=2, window=2, dt=dt, tableau="rk4", split=1.0, test_every=0
    )
    for kind, domain, fn in (
        (dg.CONVECTION_DIFFUSION, (0.0, 1.0), lambda x: np.sin(2 * np.pi * x)),
        (dg.VISCOUS_BURGERS, (0.0, 2 * np.pi), np.sin),
    ):
        mesh = dg.make_mesh(4, 1, *domain)
        rhs = dg.rhs_semidiscrete(dg.PdeConfig(kind, kappa=1e-2, a=1.0), mesh)
        trajs = [integrate(tableau_rk4(), rhs, dg.field_from_function(mesh, fn), 0.0, dt, 6)]
        builder = lambda ws, bs: training.augmented(rhs, ws, bs)
        training.train(trajs, tcfg, builder, mesh.n_dof, mesh.n_dof)
    inputs, targets = training.discrete_forcing_dataset(trajs, dt, rhs, "rk4")
    training.train_discrete_forcing(inputs, targets, tcfg, mesh.n_dof, mesh.n_dof)
    for scope in ("per_component", "global"):
        lcfg = lorenz96.L96Config(K=4, J=2, source_scope=scope)
        trajs = lorenz96.generate_truth(lcfg, 1, dt, 0.0, 6 * dt, seed=0)
        builder = lambda ws, bs: lorenz96.rhs_coupled_neural(lcfg, ws, bs)
        training.train(trajs, tcfg, builder, *lcfg.source_dims)
    assert seen - {"leaf"} == set(ad._FWD)


def _reference_loss_and_gradients(weights, biases, x, y):
    # sum((net(x) - y)**2) and its gradients by plain-numpy backprop, one
    # unfused step at a time, in the [W1, b1, ..., W4, b4] order
    hs = [x]
    for i, (w, b) in enumerate(zip(weights, biases)):
        z = hs[-1] @ w.T + b
        hs.append(np.maximum(z, 0.0) if i < len(weights) - 1 else z)
    r = hs[-1] - y
    g = 2.0 * r
    grads = []
    for i in reversed(range(len(weights))):
        if i < len(weights) - 1:
            g = g * (hs[i + 1] > 0)
        grads[:0] = [g.T @ hs[i], g.sum(axis=0)]
        g = g @ weights[i]
    return float(np.sum(r * r)), grads


@pytest.mark.parametrize("d,rows", [(1, 300), (5, 7)])
def test_fused_mlp_gradients_equal_the_unfused_composition(d, rows, monkeypatch):
    rng = np.random.default_rng(d)
    monkeypatch.setattr(mlp, "HIDDEN_WIDTH", 16)
    params = mlp.init_params(d, d, seed=2)
    for b in params.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    x = rng.normal(size=(rows, d))
    y = rng.normal(size=(rows, d))

    def build(pvars):
        return ad.sqdist(mlp.forward(pvars[0::2], pvars[1::2], x), y)

    fused_loss, fused = ad.record(build, mlp.param_list(params))
    ref_loss, ref_grads = _reference_loss_and_gradients(params.weights, params.biases, x, y)
    assert fused_loss == ref_loss
    for a, b in zip(ad.backward(fused), ref_grads, strict=True):
        assert np.array_equal(a, b)


def test_mlp_forward_records_one_node_per_layer_and_no_leaf():
    params = mlp.init_params(3, 2, seed=0)
    tape = ad.Tape()
    ws_bs = [tape.param(p) for p in mlp.param_list(params)]
    x = tape.param(np.ones((4, 3)))
    before = len(tape)
    mlp.forward(ws_bs[0::2], ws_bs[1::2], x)
    added = [op for op, _, _ in tape.ops[before:]]
    assert added == ["dense"] * 4


def test_mlp_forward_of_one_state_is_one_row():
    # dense follows matmul: a 1-D input is one row and gives a 1-D output
    params = mlp.init_params(3, 2, seed=0)
    x = np.array([0.1, -0.2, 0.3])
    out = mlp.forward(params.weights, params.biases, x)
    assert out.shape == (2,)
    assert np.array_equal(out, mlp.forward(params.weights, params.biases, x[None, :])[0])


_C = np.arange(12.0).reshape(3, 4) / 7.0


@pytest.mark.parametrize("f,shapes,op,signs", [
    (lambda a, b: a + b, [(3, 4), (3, 4)], "lincomb", (1, 1)),
    (lambda a: _C + a, [(3, 4)], "lincomb", (1,)),
    (lambda a, b: a + b, [(3, 4), (4,)], "lincomb", (1, 1)),  # b broadcasts over rows
    (lambda a: a * -1.0, [(3, 4)], "smul", (-1,)),
], ids=["add", "ndarray_add", "broadcast_add", "smul"])
def test_sums_and_scalar_products_record_lincomb_and_smul(f, shapes, op, signs):
    rng = np.random.default_rng(len(shapes))
    xs = [rng.normal(size=s) for s in shapes]
    w = rng.normal(size=(3, 4))
    tape = ad.Tape()
    out = f(*[tape.param(x) for x in xs])
    assert tape.ops[out.i][0] == op
    assert np.array_equal(out.value, f(*xs))
    tape.out = weighted_sum(out, w).i
    # the adjoint reaching `out` is w, so each operand receives +-w, summed
    # over the rows it was broadcast across
    for g, x, sign in zip(ad.backward(tape), xs, signs, strict=True):
        assert np.array_equal(g, sign * (w if x.shape == w.shape else w.sum(axis=0)))


# Each public helper with the shapes of its array arguments.
HELPER_CASES = {
    "sqdist": (lambda a: ad.sqdist(a, _RAMP[:2, None, :]), [(2, 3, 12)]),
    "dense": (lambda h, w, b: ad.dense(h, w, b, relu=True), [(2, 3, 12), (5, 12), (5,)]),
    "lincomb": (lambda u, k0, k1: ad.lincomb(u, [0.5, -1.25], [k0, k1]), [(12,), (3, 12), (3, 12)]),
    "stencil": (lambda a: ad.stencil(a, *_ring_stencil(6, 2, 1)), [(2, 3, 12)]),
    "burgers": (lambda a: ad.burgers(a, _BURGERS_P2), [(2, 3, 12)]),
    "l96": (lambda z, s: ad.l96(z, s, _L96), [(2, 3, 16), (3, 4)]),
    "reshape": (lambda a: ad.reshape(a, (6, -1)), [(2, 3, 12)]),
    "narrow": (lambda a: ad.narrow(a, 4), [(2, 3, 12)]),
}


@pytest.mark.parametrize("name", sorted(
    set(ad.__all__) - {"Tape", "Var", "TapeError", "record", "backward", "grad_check"}
))
def test_helper_on_arrays_returns_the_value_it_records(name):
    helper, shapes = HELPER_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    xs = [rng.normal(size=s) for s in shapes]
    tape = ad.Tape()
    taped = helper(*[tape.param(x) for x in xs])
    plain = helper(*xs)
    assert isinstance(taped, ad.Var) and not isinstance(plain, ad.Var)
    assert np.shape(plain) == taped.shape and np.array_equal(plain, taped.value)


def test_grads_of_a_shared_adjoint_do_not_alias():
    def build(pvars):
        a, b = pvars
        return weighted_sum(a + b, 1.0)

    _, tape = ad.record(build, [np.ones(3), np.ones(3)])
    ga, gb = ad.backward(tape)
    assert np.array_equal(ga, np.ones(3)) and np.array_equal(gb, np.ones(3))
    assert not np.shares_memory(ga, gb)


def test_a_constant_is_lifted_once_and_frees_with_its_tape():
    # every use of one array reads one leaf, and the cache ties no cycle
    # through the tape, so a dropped tape goes without the cycle collector
    c = np.arange(3.0)
    gc.disable()
    try:
        tape = ad.Tape()
        a = tape.param(np.ones(3))
        a + c + c
        ad.lincomb(c, (0.5,), [a])
        assert [op for op, _, _ in tape.ops].count("leaf") == 2
        ref = weakref.ref(tape)
        del tape, a
        assert ref() is None
    finally:
        gc.enable()


def test_mixing_tapes_is_rejected():
    _, tape1 = ad.record(quadratic, [np.ones(2)])
    t1 = ad.Tape()
    v1 = t1.param(np.ones(2))
    t2 = ad.Tape()
    v2 = t2.param(np.ones(2))
    with pytest.raises(ad.TapeError):
        v1 + v2


def test_nonscalar_loss_rejected():
    def build(pvars):
        return pvars[0] * 2.0

    with pytest.raises(ad.TapeError):
        ad.record(build, [np.ones(3)])


def test_product_of_two_vars_is_rejected():
    def build(pvars):
        return pvars[0] @ pvars[1]

    with pytest.raises(TypeError):
        ad.record(build, [np.ones((2, 2)), np.ones((2, 2))])


@pytest.mark.parametrize("f", [
    lambda a, b: a * b,
    lambda a, b: a * b.value,
    lambda a, b: a + 1.5,
    lambda a, b: 1.5 + a,
], ids=["var_var", "var_array", "add_scalar", "scalar_add"])
def test_products_of_arrays_and_scalar_shifts_are_rejected_naming_the_primitives(f):
    tape = ad.Tape()
    a, b = tape.param(np.ones(3)), tape.param(np.full(3, 2.0))
    with pytest.raises(ad.TapeError) as e:
        f(a, b)
    assert all(op in str(e.value) for op in ad._FWD)


@pytest.mark.parametrize("f", [
    lambda a, b: b.value * a,
    lambda a, b: 2.0 * a,
    lambda a, b: a / b.value,
    lambda a, b: a - b,
    lambda a, b: a - 2,
    lambda a, b: 2.0 - a,
    lambda a, b: -a,
], ids=["array_var", "scalar_var", "div_array", "sub_var", "sub_scalar", "scalar_sub", "neg"])
def test_operators_a_var_does_not_define_raise_type_error(f):
    # a Var records + and * scalar only; Python raises for every other operator
    tape = ad.Tape()
    a, b = tape.param(np.ones(3)), tape.param(np.full(3, 2.0))
    with pytest.raises(TypeError):
        f(a, b)
    assert len(tape) == 2


def test_product_with_a_constant_matrix_is_rejected():
    # constant products are dense, stencil or burgers nodes; @ records nothing
    tape = ad.Tape()
    with pytest.raises(TypeError):
        tape.param(np.ones((2, 2))) @ np.eye(2)


def test_unsupported_division_by_var():
    def build(pvars):
        return pvars[0] / pvars[0]

    with pytest.raises(TypeError):
        ad.record(build, [np.ones(2)])


def test_batched_gradient_accumulation_is_sample_order_invariant(monkeypatch):
    rng = np.random.default_rng(9)
    monkeypatch.setattr(mlp, "HIDDEN_WIDTH", 8)
    params = mlp.init_params(3, 3, seed=1)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 3))
    perm = rng.permutation(6)

    def build_for(xb, yb):
        def build(pvars):
            ws, bs = pvars[0::2], pvars[1::2]
            return ad.sqdist(mlp.forward(ws, bs, xb), yb) * (1.0 / xb.shape[0])

        return build

    g1 = ad.backward(ad.record(build_for(x, y), mlp.param_list(params))[1])
    g2 = ad.backward(ad.record(build_for(x[perm], y[perm]), mlp.param_list(params))[1])
    for a, b in zip(g1, g2):
        assert np.max(np.abs(a - b)) < 1e-14
