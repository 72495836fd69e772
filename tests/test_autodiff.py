import zlib

import numpy as np
import pytest

from sgnode import autodiff as ad
from sgnode import dg, lorenz96, mlp, training
from sgnode.ode import erk_step, integrate, tableau_rk4, tableau_tsit5


def quadratic(tape, pvars):
    (theta,) = pvars
    return ad.sum_all(ad.square(theta))


def test_quadratic_loss_value_and_tape():
    loss, tape = ad.record(quadratic, [np.array([1.0, 2.0])])
    assert loss == 5.0
    assert len(tape) <= 5  # one leaf, square, sum in our encoding


def test_replay_reproduces_recorded_loss_exactly():
    rng = np.random.default_rng(0)
    theta = rng.normal(size=6)

    def build(tape, pvars):
        (th,) = pvars
        x = tape.const(rng.normal(size=6))
        return ad.sum_all(ad.square(th * x + ad.maximum(th, 0.0)))

    loss, tape = ad.record(build, [theta])
    assert tape.replay() == loss


def test_quadratic_gradient_analytic():
    loss, tape = ad.record(quadratic, [np.array([1.0, 2.0])])
    assert np.array_equal(ad.backward(tape)[0], [2.0, 4.0])
    assert loss == 5.0


def test_dead_relu_kills_gradient():
    def build(tape, pvars):
        (w,) = pvars
        return ad.sum_all(ad.dense(tape.const(np.array([[-3.0]])), w, np.zeros(1), relu=True))

    loss, tape = ad.record(build, [np.array([[4.0]])])
    assert loss == 0.0
    assert np.array_equal(ad.backward(tape)[0], [[0.0]])


def test_relu_subgradient_zero_at_origin():
    def build(tape, pvars):
        (b,) = pvars
        # zero weights: each unit's pre-activation is its bias
        return ad.sum_all(ad.dense(tape.const(np.ones((1, 2))), np.zeros((3, 2)), b, relu=True))

    loss, tape = ad.record(build, [np.array([-1.0, 0.0, 2.0])])
    g = ad.backward(tape)[0]
    assert np.array_equal(g, [0.0, 0.0, 1.0])


def test_gradient_of_parameter_independent_loss_is_zero():
    def build(tape, pvars):
        return ad.sum_all(ad.square(tape.const(np.arange(3.0))))

    loss, tape = ad.record(build, [np.ones(4)])
    g = ad.backward(tape)[0]
    assert np.array_equal(g, np.zeros(4))


def test_gradient_linearity_in_loss():
    rng = np.random.default_rng(2)
    theta = rng.normal(size=5)
    x1 = rng.normal(size=5)
    x2 = rng.normal(size=5)
    a, b = 1.7, -0.4

    def l1(tape, pvars):
        return ad.sum_all(ad.square(pvars[0] - tape.const(x1)))

    def l2(tape, pvars):
        return ad.sum_all(ad.square(pvars[0] * tape.const(x2)))

    def combo(tape, pvars):
        return l1(tape, pvars) * a + l2(tape, pvars) * b

    g1 = ad.backward(ad.record(l1, [theta])[1])[0]
    g2 = ad.backward(ad.record(l2, [theta])[1])[0]
    gc = ad.backward(ad.record(combo, [theta])[1])[0]
    assert np.max(np.abs(gc - (a * g1 + b * g2))) < 1e-12


def test_grad_check_quadratic():
    assert ad.grad_check(quadratic, [np.array([1.0, 2.0])], h=1e-6) < 1e-9


def test_grad_check_zero_params():
    def build(tape, pvars):
        return ad.sum_all(tape.const(np.ones(2)))

    assert ad.grad_check(build, [], h=1e-6) == 0.0


def test_grad_check_requires_positive_h():
    with pytest.raises(ValueError):
        ad.grad_check(quadratic, [np.ones(2)], h=0.0)


def test_mlp_rollout_gradient_matches_finite_differences():
    # 2-state toy rhs, 3-step unrolled RK4 MSE, full finite-difference sweep
    params = mlp.init_params(2, 2, seed=4, hidden=8)
    mat = np.array([[-0.5, 0.2], [0.1, -0.3]])
    u0 = np.array([[0.3, -0.2]])
    targets = [np.array([[0.4, -0.1]]), np.array([[0.5, 0.0]]), np.array([[0.6, 0.1]])]

    def build(tape, pvars):
        ws, bs = pvars[0::2], pvars[1::2]

        def rhs(t, u):
            return u @ mat.T + mlp.forward(ws, bs, u)

        u = tape.const(u0)
        loss = None
        t = 0.0
        for tgt in targets:
            u = erk_step(tableau_rk4(), rhs, t, u, 0.1)
            t += 0.1
            s = ad.sum_all(ad.square(u - tape.const(tgt)))
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

    def build(tape, pvars):
        (th,) = pvars

        def rhs(t, u):
            return th * u

        u = erk_step(tableau_rk4(), rhs, 0.0, tape.const(np.array([[u0]])), h)
        return ad.sum_all(ad.square(u - tape.const(np.array([[y]]))))

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


# One finite-difference case per primitive; test_every_primitive_has_a_vjp_and_a_case
# checks that the tapes of these cases cover every op in autodiff._FWD.
FD_CASES = [
    ("roll", lambda t, p: ad.sum_all(ad.roll(p[0], 2, -1) * t.const(np.arange(12.0).reshape(3, 4))), [(3, 4)]),
    ("narrow", lambda t, p: ad.sum_all(ad.narrow(p[0], -1, 1, 2) * t.const(np.ones((3, 2)))), [(3, 4)]),
    ("concat", lambda t, p: ad.sum_all(ad.concatenate([p[0], p[1]], -1) * t.const(np.arange(21.0).reshape(3, 7))), [(3, 4), (3, 3)]),
    ("repeat", lambda t, p: ad.sum_all(ad.repeat_elems(p[0], 3, -1) * t.const(np.arange(36.0).reshape(3, 12))), [(3, 4)]),
    ("maximum", lambda t, p: ad.sum_all(ad.maximum(p[0], t.const(np.zeros((3, 4)))) * t.const(np.arange(12.0).reshape(3, 4))), [(3, 4)]),
    ("abs", lambda t, p: ad.sum_all(ad.absolute(p[0]) * t.const(np.arange(12.0).reshape(3, 4))), [(3, 4)]),
    # the DG face exchange rolls along the element axis, not the last one
    ("roll_rows", lambda t, p: ad.sum_all(ad.roll(p[0], 1, -2) * t.const(np.arange(24.0).reshape(2, 3, 4))), [(2, 3, 4)]),
    ("maximum_pair", lambda t, p: ad.sum_all(ad.maximum(p[0], p[1]) * t.const(np.arange(12.0).reshape(3, 4))), [(3, 4), (3, 4)]),
    ("bias_broadcast", lambda t, p: ad.sum_all(ad.square(t.const(np.arange(20.0).reshape(5, 4) / 7.0) + ad.reshape(p[0], (1, -1)))), [(4,)]),
    ("matconst", lambda t, p: ad.sum_all((p[0] @ (np.arange(20.0).reshape(5, 4) / 10.0)) * t.const(np.arange(4.0))), [(2, 3, 5)]),
    # dense inputs kept away from 0 and sums free of cancellation, so the
    # central differences resolve every gradient entry; 8 * b kills about a quarter of the units
    ("dense_relu", lambda t, p: ad.sum_all(ad.dense(ad.absolute(p[0]) + 0.5, ad.absolute(p[1]) + 0.5, p[2] * 8.0, relu=True)), [(5, 3), (4, 3), (4,)]),
    ("dense_linear", lambda t, p: ad.sum_all(ad.dense(ad.absolute(p[0]) + 0.5, ad.absolute(p[1]) + 0.5, p[2] * 8.0, relu=False)), [(5, 3), (4, 3), (4,)]),
    ("dense_row", lambda t, p: ad.sum_all(ad.dense(ad.absolute(p[0]) + 0.5, ad.absolute(p[1]) + 0.5, p[2] * 8.0, relu=True)), [(3,), (4, 3), (4,)]),
    ("arith", lambda t, p: ad.sum_all((p[0] - p[1] * 0.25) * t.const(np.arange(12.0).reshape(3, 4) / 10.0) + (-p[0] + 1.5) / 4.0), [(3, 4), (3, 4)]),
    # u broadcasts against the slopes, so its gradient is summed back down
    ("lincomb", lambda t, p: ad.sum_all(ad.lincomb(p[0], [0.5, -1.25], [p[1], p[2]]) * t.const(np.arange(12.0).reshape(3, 4))), [(4,), (3, 4), (3, 4)]),
    ("stencil", lambda t, p: ad.sum_all(ad.stencil(p[0], *_ring_stencil(6, 2, 1)) * t.const(np.arange(36.0).reshape(3, 12) / 9.0)), [(3, 12)]),
]


@pytest.mark.parametrize("name,build,shapes", FD_CASES)
def test_primitive_vjps_match_finite_differences(name, build, shapes):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    params = [rng.normal(size=s) for s in shapes]
    assert ad.grad_check(build, params, h=1e-6, atol=0.0) < 1e-7, name


def test_every_primitive_has_a_vjp_and_a_case():
    assert set(ad._VJP) == set(ad._FWD)
    covered = set()
    for name, build, shapes in FD_CASES:
        _, tape = ad.record(build, [np.ones(s) for s in shapes])
        covered.update(op for op, _, _ in tape.ops)
    assert set(ad._FWD) - covered == set()


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
    _, tape = ad.record(lambda t, p: ad.sum_all(ad.stencil(p[0], *stencil) * t.const(g)), [x])
    (gx,) = ad.backward(tape)
    lhs, rhs = np.vdot(ad.stencil(x, *stencil), g), np.vdot(x, gx)
    assert abs(lhs - rhs) <= 1e-13 * np.linalg.norm(x) * np.linalg.norm(gx)


def _chain(u, coeffs, ks):
    # the scalar-product-and-add chain that lincomb replaces
    for c, k in zip(coeffs, ks):
        u = u + c * k
    return u


def test_lincomb_is_bit_identical_to_the_chain_it_replaces():
    rng = np.random.default_rng(5)
    coeffs = [float(1e-3 * b) for b in tableau_tsit5().b[:6]]
    arrays = [rng.normal(size=(4, 7)) for _ in range(7)]
    assert np.array_equal(ad.lincomb(arrays[0], coeffs, arrays[1:]), _chain(arrays[0], coeffs, arrays[1:]))
    weight = rng.normal(size=(4, 7))

    def build_with(combine):
        def build(tape, pvars):
            return ad.sum_all(ad.square(combine(pvars[0], coeffs, pvars[1:])) * tape.const(weight))

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
    erk_step(tableau_tsit5(), lambda t, x: x @ np.eye(3), 0.0, u, 0.1)
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
        trajs = [integrate(tableau_rk4(), rhs, dg.field_from_function(mesh, fn).flat, 0.0, dt, 6)]
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
def test_fused_mlp_gradients_equal_the_unfused_composition(d, rows):
    rng = np.random.default_rng(d)
    params = mlp.init_params(d, d, seed=2, hidden=16)
    for b in params.biases:
        b[:] = rng.normal(scale=0.1, size=b.shape)
    x = rng.normal(size=(rows, d))
    y = rng.normal(size=(rows, d))

    def build(tape, pvars):
        return ad.sum_all(ad.square(mlp.forward(pvars[0::2], pvars[1::2], tape.const(x)) - y))

    fused_loss, fused = ad.record(build, mlp.param_list(params))
    ref_loss, ref_grads = _reference_loss_and_gradients(params.weights, params.biases, x, y)
    assert fused_loss == ref_loss
    for a, b in zip(ad.backward(fused), ref_grads, strict=True):
        assert np.array_equal(a, b)


def test_mlp_forward_records_one_node_per_layer_and_no_leaf():
    params = mlp.init_params(3, 2, seed=0, hidden=8)
    tape = ad.Tape()
    ws_bs = [tape.param(p) for p in mlp.param_list(params)]
    x = tape.const(np.ones((4, 3)))
    before = len(tape)
    mlp.forward(ws_bs[0::2], ws_bs[1::2], x)
    added = [op for op, _, _ in tape.ops[before:]]
    assert added == ["dense"] * 4


def test_untaped_mlp_forward_of_one_row_is_a_batch_of_one():
    params = mlp.init_params(3, 2, seed=0, hidden=8)
    x = np.array([0.1, -0.2, 0.3])
    out = mlp.forward(params.weights, params.biases, x)
    assert out.shape == (1, 2)
    assert np.array_equal(out, mlp.forward(params.weights, params.biases, x[None, :]))


def test_grads_of_a_shared_adjoint_do_not_alias():
    def build(tape, pvars):
        a, b = pvars
        return ad.sum_all(a + b)

    _, tape = ad.record(build, [np.ones(3), np.ones(3)])
    ga, gb = ad.backward(tape)
    assert np.array_equal(ga, np.ones(3)) and np.array_equal(gb, np.ones(3))
    assert not np.shares_memory(ga, gb)


def test_mixing_tapes_is_rejected():
    _, tape1 = ad.record(quadratic, [np.ones(2)])
    t1 = ad.Tape()
    v1 = t1.param(np.ones(2))
    t2 = ad.Tape()
    v2 = t2.param(np.ones(2))
    with pytest.raises(ad.TapeError):
        v1 + v2


def test_nonscalar_loss_rejected():
    def build(tape, pvars):
        return pvars[0] * 2.0

    with pytest.raises(ad.TapeError):
        ad.record(build, [np.ones(3)])


def test_product_of_two_vars_is_rejected():
    def build(tape, pvars):
        return ad.sum_all(pvars[0] @ pvars[1])

    with pytest.raises(ad.TapeError):
        ad.record(build, [np.ones((2, 2)), np.ones((2, 2))])


def test_unsupported_division_by_var():
    def build(tape, pvars):
        return pvars[0] / pvars[0]

    with pytest.raises(ad.TapeError):
        ad.record(build, [np.ones(2)])


def test_batched_gradient_accumulation_is_sample_order_invariant():
    rng = np.random.default_rng(9)
    params = mlp.init_params(3, 3, seed=1, hidden=8)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 3))
    perm = rng.permutation(6)

    def build_for(xb, yb):
        def build(tape, pvars):
            ws, bs = pvars[0::2], pvars[1::2]
            r = mlp.forward(ws, bs, tape.const(xb)) - tape.const(yb)
            return ad.sum_all(ad.square(r)) * (1.0 / xb.shape[0])

        return build

    g1 = ad.backward(ad.record(build_for(x, y), mlp.param_list(params))[1])
    g2 = ad.backward(ad.record(build_for(x[perm], y[perm]), mlp.param_list(params))[1])
    for a, b in zip(g1, g2):
        assert np.max(np.abs(a - b)) < 1e-14
