import numpy as np
import pytest

from sgnode import autodiff as ad
from sgnode import dg
from sgnode.ode import integrate, tableau_rk4


def dg_error(mesh, a, b):
    """Broken L2 norm of the difference of two flat states."""
    return dg.states_dg_norm(mesh, (a - b)[None])[0]


def mass(mesh, u):
    """Integral of the flat state u by the mesh quadrature."""
    uq = u.reshape(mesh.n_elem, -1) @ mesh.vq.T
    return float(mesh.jac * np.sum(mesh.quad_w * uq))


def test_lgl_nodes_symmetric_with_endpoints():
    for p in (1, 2, 3, 5, 8):
        nodes = dg.lgl_nodes(p)
        assert nodes[0] == -1.0 and nodes[-1] == 1.0
        assert np.max(np.abs(nodes + nodes[::-1])) == 0.0


def test_quadrature_exactness():
    # 2(p+1) Gauss points integrate degree 4p+3 exactly
    for p in (1, 3):
        mesh = dg.make_mesh(4, p)
        deg = 4 * p + 3
        exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
        got = np.sum(mesh.quad_w * mesh.quad_x**deg)
        assert got == pytest.approx(exact, abs=1e-14)


def test_mass_matrix_spd_and_consistent():
    mesh = dg.make_mesh(10, 3, 0.0, 1.0)
    # row sums of M give integrals of the basis: sum = measure of element
    assert mesh.mass.sum() == pytest.approx(mesh.h, abs=1e-14)
    assert np.allclose(mesh.mass, mesh.mass.T)
    assert np.all(np.linalg.eigvalsh(mesh.mass) > 0)


@pytest.mark.parametrize("kind,extra", [
    (dg.CONVECTION_DIFFUSION, dict(a=1.0, kappa=1e-4)),
    (dg.VISCOUS_BURGERS, dict(kappa=0.005)),
])
def test_constant_states_are_exact_steady_states(kind, extra):
    cfg = dg.PdeConfig(kind, **extra)
    mesh = dg.make_mesh(12, 4, 0.0, 1.0)
    rhs = dg.rhs_semidiscrete(cfg, mesh)
    for c in (0.0, 1.0, -3.7):
        out = rhs(np.full(mesh.n_dof, c))
        assert np.max(np.abs(out)) <= 1e-13


def test_single_mode_semidiscrete_decay_and_phase():
    # project sin(2 pi x), integrate briefly, compare against the analytic
    # decaying travelling wave within spatial error
    a, kappa, alpha, T = 1.0, 1e-4, 1, 0.05
    mesh = dg.make_mesh(50, 5, 0.0, 1.0)
    cfg = dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=kappa, a=a)
    rhs = dg.rhs_semidiscrete(cfg, mesh)
    u0 = dg.field_from_function(mesh, lambda x: np.sin(2 * np.pi * alpha * x))
    tr = integrate(tableau_rk4(), rhs, u0, 0.0, 1e-4, round(T / 1e-4))
    exact = dg.field_from_function(
        mesh,
        lambda x: np.sin(2 * np.pi * alpha * (x - a * T))
        * np.exp(-kappa * (2 * np.pi * alpha) ** 2 * T),
    )
    err = dg_error(mesh, tr.states[-1], exact)
    assert err < 1e-8


def test_burgers_constant_state_zero_tendency():
    cfg = dg.PdeConfig(dg.VISCOUS_BURGERS, kappa=0.01)
    mesh = dg.make_mesh(8, 2, 0.0, 2 * np.pi)
    out = dg.rhs_semidiscrete(cfg, mesh)(np.full(mesh.n_dof, 2.5))
    assert np.max(np.abs(out)) == 0.0


def test_spatial_convergence_orders():
    for p in (1, 2, 3):
        errs = []
        for n_elem in (20, 40, 80):
            mesh = dg.make_mesh(n_elem, p, 0.0, 1.0)
            cfg = dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=1e-4, a=1.0)
            rhs = dg.rhs_semidiscrete(cfg, mesh)
            u0 = dg.field_from_function(mesh, lambda x: np.sin(2 * np.pi * x))
            T = 0.25
            dt = 2e-4 * (20 / n_elem)
            tr = integrate(tableau_rk4(), rhs, u0, 0.0, dt, round(T / dt))
            exact = dg.field_from_function(
                mesh,
                lambda x: np.sin(2 * np.pi * (x - T))
                * np.exp(-1e-4 * (2 * np.pi) ** 2 * T),
            )
            errs.append(dg_error(mesh, tr.states[-1], exact))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= p + 0.5, (p, errs, orders)


def test_conservation_over_integration():
    mesh = dg.make_mesh(50, 5, 0.0, 1.0)
    cfg = dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=1e-4, a=1.0)
    rhs = dg.rhs_semidiscrete(cfg, mesh)
    u0 = dg.cd_initial_condition(mesh, 0.37)
    m0 = mass(mesh, u0)
    tr = integrate(tableau_rk4(), rhs, u0, 0.0, 1e-3, 200)
    m1 = mass(mesh, tr.states[-1])
    assert abs(m1 - m0) < 1e-12


def test_filter_leaves_members_unchanged():
    # elementwise linear data represented at p=5 projects onto itself at p=1
    mesh = dg.make_mesh(6, 5, 0.0, 1.0)
    f = dg.field_from_function(mesh, lambda x: 2.0 * x - 0.3)
    low = dg.project_states(mesh, f[None], 1)[0]
    expect = dg.field_from_function(dg.make_mesh(6, 1, 0.0, 1.0), lambda x: 2.0 * x - 0.3)
    assert np.max(np.abs(low - expect)) < 1e-12


def test_filter_idempotent_through_reembedding():
    mesh = dg.make_mesh(6, 4, 0.0, 1.0)
    rng = np.random.default_rng(0)
    f = rng.normal(size=(1, mesh.n_dof))
    g1 = dg.project_states(mesh, f, 2)
    again = dg.project_states(mesh, dg.interp_states(dg.make_mesh(6, 2, 0.0, 1.0), g1, 4), 2)
    assert np.max(np.abs(again - g1)) < 1e-12


def test_filter_kills_orthogonal_legendre_mode():
    # nodal samples of P2 on each element project to zero at order 1
    mesh = dg.make_mesh(5, 4, 0.0, 1.0)
    p2 = np.polynomial.legendre.legval(mesh.nodes, [0, 0, 1])
    low = dg.project_states(mesh, np.tile(p2, (1, 5)), 1)
    assert np.max(np.abs(low)) < 1e-13


def test_filter_rejects_upward_projection():
    mesh = dg.make_mesh(4, 2, 0.0, 1.0)
    f = np.zeros((1, mesh.n_dof))
    with pytest.raises(ValueError):
        dg.project_states(mesh, f, 2)
    with pytest.raises(ValueError):
        dg.project_states(mesh, f, 3)


def test_interpolation_rejects_downward_embedding():
    mesh = dg.make_mesh(4, 2, 0.0, 1.0)
    with pytest.raises(ValueError, match="source order exceeds target"):
        dg.interp_states(mesh, np.zeros((1, mesh.n_dof)), 1)


def test_projection_optimality():
    # || u - Gu || <= || u - v || for sampled low-order candidates v
    mesh = dg.make_mesh(4, 4, 0.0, 1.0)
    low = dg.make_mesh(4, 1, 0.0, 1.0)
    rng = np.random.default_rng(1)
    for _ in range(25):
        f = rng.normal(size=(1, mesh.n_dof))
        gu = dg.project_states(mesh, f, 1)
        base = dg.states_dg_norm(mesh, f - dg.interp_states(low, gu, 4))[0]
        for _ in range(4):
            v = gu + 0.5 * rng.normal(size=gu.shape)
            alt = dg.states_dg_norm(mesh, f - dg.interp_states(low, v, 4))[0]
            assert base <= alt + 1e-12


def test_dg_norm_values():
    mesh = dg.make_mesh(50, 5, 0.0, 1.0)
    f = dg.field_from_function(mesh, lambda x: np.sin(2 * np.pi * x))
    zero, one, sine = dg.states_dg_norm(mesh, np.stack([np.zeros_like(f), np.ones_like(f), f]))
    assert zero == 0.0
    assert one == pytest.approx(1.0, abs=1e-14)
    assert sine == pytest.approx(1.0 / np.sqrt(2.0), abs=1e-8)


def test_cd_initial_condition_values_and_norm():
    mesh = dg.make_mesh(50, 5, 0.0, 1.0)
    f = dg.cd_initial_condition(mesh, 0.0)
    # phase 0 at x=0: all four sines vanish
    assert abs(f[0]) < 1e-12
    x = mesh.node_coords()
    direct = sum(np.sin(2 * np.pi * k * (x - 0.3)) for k in (20, 4, 6, 7))
    f2 = dg.cd_initial_condition(mesh, 0.3)
    assert np.array_equal(f2, direct.reshape(-1))
    # four orthogonal unit modes: norm sqrt(2) up to interpolation error
    assert dg.states_dg_norm(mesh, f2[None])[0] == pytest.approx(np.sqrt(2.0), abs=2e-6)


def test_turbulence_signal_realizes_target_spectrum():
    n = 1024
    u, coeffs = dg.synthesize_turbulence_signal(10, n, seed=3)
    # zero mean (no k=0 content)
    assert abs(u.mean()) < 1e-14
    side = np.abs(np.fft.fft(u)) ** 2 / (2.0 * n * n)
    ks = np.arange(1, n // 2)
    target = dg.target_spectrum(ks, 10)
    # exact per wavenumber across the energetic band; beyond it the target
    # underflows past fft roundoff, so only absolute smallness is checkable
    band = target > 1e-12 * target.max()
    rel = np.abs(side[ks][band] - target[band]) / target[band]
    assert rel.max() < 1e-10
    assert side[ks][~band].max() < 1e-14


def test_turbulence_signal_seed_determinism():
    a, _ = dg.synthesize_turbulence_signal(10, 512, seed=5)
    b, _ = dg.synthesize_turbulence_signal(10, 512, seed=5)
    c, _ = dg.synthesize_turbulence_signal(10, 512, seed=6)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_target_spectrum_peaks_at_k0():
    k = np.arange(1, 64)
    e = dg.target_spectrum(k, 10)
    assert k[np.argmax(e)] == 10
    assert dg.target_spectrum(0.0, 10) == 0.0


def test_burgulence_ic_interpolation_accuracy():
    # the fine-grid signal is band-limited; LGL interpolation through the
    # 8-point windows must track it closely
    mesh = dg.make_mesh(64, 8, 0.0, 2 * np.pi)
    n = 32768
    f = dg.burgulence_initial_condition(mesh, 10, n, seed=1)
    u, coeffs = dg.synthesize_turbulence_signal(10, n, seed=1)
    # evaluate the underlying Fourier series at the nodes directly
    xq = mesh.node_coords().reshape(-1)
    kmax = 80  # amplitudes are negligible beyond this
    series = np.zeros_like(xq)
    for k in range(1, kmax):
        series += (2.0 / n) * (
            coeffs[k].real * np.cos(k * xq) - coeffs[k].imag * np.sin(k * xq)
        )
    assert np.max(np.abs(f - series)) < 1e-7


def test_eval_uniform_matches_nodal_data():
    mesh = dg.make_mesh(8, 3, 0.0, 2 * np.pi)
    f = dg.field_from_function(mesh, np.sin)
    u64 = dg.eval_uniform(mesh, f, 64)
    xs = 2 * np.pi * np.arange(64) / 64
    assert np.max(np.abs(u64 - np.sin(xs))) < 1e-3  # interpolation error only
    # non-divisible count goes through the generic path
    u60 = dg.eval_uniform(mesh, f, 60)
    xs60 = 2 * np.pi * np.arange(60) / 60
    assert np.max(np.abs(u60 - np.sin(xs60))) < 1e-3


@pytest.mark.parametrize("kind,extra", [
    (dg.CONVECTION_DIFFUSION, dict(a=1.0, kappa=1e-4)),
    (dg.VISCOUS_BURGERS, dict(kappa=0.005)),
])
def test_taped_tendency_records_no_leaf(kind, extra):
    # the stencil and the operator matrices ride in their nodes, not on the
    # tape as leaves; Burgers is one node per call
    mesh = dg.make_mesh(6, 2, 0.0, 1.0)
    rhs = dg.rhs_semidiscrete(dg.PdeConfig(kind, **extra), mesh)
    tape = ad.Tape()
    u = tape.param(np.random.default_rng(0).normal(size=(3, rhs.dim)))
    before = len(tape)
    du = rhs(u)
    added = [op for op, _, _ in tape.ops[before:]]
    assert "leaf" not in added
    if kind == dg.VISCOUS_BURGERS:
        assert added == ["burgers"]
    else:
        assert added.count("stencil") == 1
    assert np.array_equal(du.value, rhs(u.value))


CD = [dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=1e-4, a=1.0),
      dg.PdeConfig(dg.CONVECTION_DIFFUSION, kappa=0.01, a=-0.7)]
BURGERS = dg.PdeConfig(dg.VISCOUS_BURGERS, kappa=0.005)
# E = 2, 3, 4 fold the +-2 offsets of the stencil onto the same element
GRID = [(2, 1), (3, 2), (4, 4), (50, 1), (50, 5), (64, 8)]


def _chain(cfg, mesh, u):
    lead = u.shape[:-1]
    return dg._tendency(cfg, mesh, u.reshape(lead + (mesh.n_elem, mesh.order + 1))).reshape(u.shape)


def _rel(got, ref):
    return np.max(np.abs(got - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("cfg", CD)
@pytest.mark.parametrize("n_elem,p", GRID)
def test_cd_operator_matches_the_tendency_chain(cfg, n_elem, p):
    mesh = dg.make_mesh(n_elem, p)
    d = mesh.n_dof
    rhs = dg.rhs_semidiscrete(cfg, mesh)
    rng = np.random.default_rng(10 * n_elem + p)
    for shape in ((d,), (1, d), (7, d)):
        u = rng.normal(size=shape)
        got = rhs(u)
        assert got.shape == shape
        assert _rel(got, _chain(cfg, mesh, u)) <= 1e-14


@pytest.mark.parametrize("cfg", CD)
@pytest.mark.parametrize("n_elem,p", GRID)
def test_cd_operator_rolled_from_one_element_equals_the_identity_response(cfg, n_elem, p):
    # the stencil, built from one element of a five-element ring, applied to
    # every unit vector of the mesh: exact once the ring fits in the mesh.
    # This is the uncentred gather and product that the stencil's forward
    # and VJP share; ad.stencil centres its input first.
    mesh = dg.make_mesh(n_elem, p)
    d = mesh.n_dof
    full = _chain(cfg, mesh, np.eye(d))
    idx, s, _ = dg.linear_stencil(cfg, mesh)
    got = ad._gather_product(np.eye(d), idx, s)
    if n_elem >= 5:
        assert np.array_equal(got, full)
    else:
        assert _rel(got, full) <= 1e-14


def test_taped_cd_tendency_is_one_operator_product():
    mesh = dg.make_mesh(6, 2, 0.0, 1.0)
    rhs = dg.rhs_semidiscrete(CD[0], mesh)
    tape = ad.Tape()
    u = tape.param(np.random.default_rng(0).normal(size=(3, rhs.dim)))
    before = len(tape)
    rhs(u)
    added = [op for op, _, _ in tape.ops[before:]]
    assert added == ["stencil"]


@pytest.mark.parametrize("cfg", CD)
@pytest.mark.parametrize("n_elem,p", GRID)
def test_one_node_cd_tendency_equals_the_centring_chain(cfg, n_elem, p):
    # the stencil node centres its input itself; the chain that centred it
    # as separate nodes (after which the node's own centring subtracts an
    # exact 0) gives the same bytes, and gradients that differ only in where
    # the centring's adjoint joins the sum
    mesh = dg.make_mesh(n_elem, p)
    st = dg.linear_stencil(cfg, mesh)
    rhs = dg.rhs_semidiscrete(cfg, mesh)
    rng = np.random.default_rng(10 * n_elem + p)
    u = rng.normal(size=(7, mesh.n_dof))
    w = rng.normal(size=(1, u.size))

    def chain(x):
        return ad.stencil(ad.lincomb(x, (-1.0,), [ad.narrow(x, 1)]), *st)

    def loss(f):
        # sum(f(u) * w) as one dense row, so the adjoint reaching f is w
        return lambda pv: ad.reshape(ad.dense(ad.reshape(f(pv[0]), (1, -1)), w, np.zeros(1), relu=False), ())

    assert np.array_equal(rhs(u), chain(u))
    got_loss, got_tape = ad.record(loss(lambda x: rhs(x)), [u])
    ref_loss, ref_tape = ad.record(loss(chain), [u])
    assert got_loss == ref_loss
    (got,), (ref,) = ad.backward(got_tape), ad.backward(ref_tape)
    assert _rel(got, ref) <= 1e-14


def test_burgers_has_no_linear_operator():
    # its diffusion part is the stencil of the a = 0 convection-diffusion operator
    with pytest.raises(ValueError):
        dg.linear_stencil(BURGERS, dg.make_mesh(4, 1))


@pytest.mark.parametrize("p", [1, 8])
def test_burgers_split_matches_the_tendency_chain(p):
    mesh = dg.make_mesh(64, p, 0.0, 2 * np.pi)
    rhs = dg.rhs_semidiscrete(BURGERS, mesh)
    u = np.random.default_rng(p).normal(size=(5, mesh.n_dof))
    assert _rel(rhs(u), _chain(BURGERS, mesh, u)) <= 1e-14


@pytest.mark.parametrize("p", [1, 2, 8])
@pytest.mark.parametrize("n_elem", [2, 3, 64])
def test_burgers_node_is_bit_identical_to_the_stencil_and_convective_chain(n_elem, p):
    # the fused node repeats the chain's elementwise order and its two
    # products: the diffusion stencil, then the convective lift
    mesh = dg.make_mesh(n_elem, p, 0.0, 2 * np.pi)
    rhs = dg.rhs_semidiscrete(BURGERS, mesh)
    st = dg.linear_stencil(dg.PdeConfig(dg.CONVECTION_DIFFUSION, BURGERS.kappa), mesh)
    rng = np.random.default_rng(10 * n_elem + p)
    for shape in ((mesh.n_dof,), (1, mesh.n_dof), (7, mesh.n_dof)):
        u = rng.normal(size=shape)
        u.flat[::5] = 0.0  # some traces at 0
        lead = shape[:-1]
        conv = dg._convection(BURGERS, mesh, u.reshape(lead + (n_elem, p + 1))).reshape(shape)
        ref = ad.stencil(u - u[..., :1], *st) + conv
        assert np.array_equal(rhs(u), ref)


def _frozen_branch_tendency(mesh, u, first, s_m, s_p):
    # the Burgers tendency of u (E, n) with tau = max(|um|, |up|) replaced by
    # the branch the VJP takes: s_m * um where `first`, else s_p * up.  It is
    # quadratic in u, so central differences give its Jacobian to roundoff.
    um = np.roll(u[..., -1:], 1, -2)
    up = u[..., :1]
    tau = np.where(first, s_m * um, s_p * up)
    fstar = 0.25 * (um * um + up * up) + 0.5 * tau * (um - up)
    return dg._diffusion(BURGERS, mesh, u) + dg._divergence(mesh, 0.5 * (u * u), fstar)


def test_burgers_vjp_takes_the_chain_subgradient_at_its_kinks():
    # faces with um = up, um = -up, um = 0, up = 0 and um = up = 0: a tie of
    # |um| and |up| sends the gradient through |um| (it matters at um = -up),
    # and |x| takes slope sign(0) = 0 at 0, which tau's factor um - up
    # zeroes wherever it could enter
    E, p = 5, 2
    mesh = dg.make_mesh(E, p, 0.0, 2 * np.pi)
    u = np.random.default_rng(3).normal(size=(E, p + 1))
    for e, (um, up) in enumerate([(0.7, 0.7), (0.5, -0.5), (0.0, 0.3), (-0.4, 0.0), (0.0, 0.0)]):
        u[e - 1, -1], u[e, 0] = um, up
    um0, up0 = np.roll(u[:, -1:], 1, 0), u[:, :1]
    first = np.abs(um0) >= np.abs(up0)
    s_m, s_p = np.sign(um0), np.sign(up0)
    g = np.random.default_rng(4).normal(size=mesh.n_dof)

    def frozen(x):
        return _frozen_branch_tendency(mesh, x.reshape(E, p + 1), first, s_m, s_p).reshape(-1)

    h = 1e-4
    fd = np.array([
        np.dot(frozen(u.reshape(-1) + h * e_i) - frozen(u.reshape(-1) - h * e_i), g) / (2 * h)
        for e_i in np.eye(mesh.n_dof)
    ])
    rhs = dg.rhs_semidiscrete(BURGERS, mesh)
    # sum(rhs * g) as one dense row, so the adjoint reaching the tendency is g
    _, tape = ad.record(
        lambda pv: ad.reshape(ad.dense(rhs(pv[0]), g[None, :], np.zeros(1), relu=False), ()),
        [u.reshape(-1)],
    )
    (vjp,) = ad.backward(tape)
    assert np.max(np.abs(vjp - fd)) <= 1e-9 * np.max(np.abs(fd))


@pytest.mark.parametrize("cfg,n_elem,p", [
    (CD[0], 50, 5), (CD[1], 50, 1), (BURGERS, 64, 1), (BURGERS, 64, 8),
])
@pytest.mark.parametrize("batch", [1, 7, 100])
def test_each_row_of_a_batch_rounds_as_it_does_alone(cfg, n_elem, p, batch):
    mesh = dg.make_mesh(n_elem, p)
    rhs = dg.rhs_semidiscrete(cfg, mesh)
    us = np.random.default_rng(batch).normal(size=(batch, mesh.n_dof))
    block = rhs(us)
    for i in range(batch):
        assert np.array_equal(block[i], rhs(us[i:i + 1])[0])
