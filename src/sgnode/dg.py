"""Nodal discontinuous Galerkin discretization on a periodic 1-D mesh.

Lagrange basis on Legendre-Gauss-Lobatto points, integrals by Gauss
quadrature with 2(p+1) points, central fluxes for the diffusion pair and
Lax-Friedrichs for convection.  The diffusion gradient variable is
eliminated inside each tendency evaluation.

A DG state is its flat nodal array everywhere: one state is (n_dof,),
n_dof = n_elem*(p+1), element-major, and a trajectory or a batch stacks
states along leading axes.  The filter (``project_states``), the embedding
into a higher order (``interp_states``) and the broken L2 norm
(``states_dg_norm``) each map a (n_times, n_dof) block at once.  The
tendency takes batched states of shape (..., n_dof) at the solver
interface and works on (..., n_elem, p+1) element blocks inside.
The same right-hand side serves plain integration (numpy) and taped
training rollouts, as one autodiff primitive per call.

The linear part of each tendency couples an element to its two neighbours
on either side only.  It is assembled once per (config, mesh) into a
periodic block stencil (``linear_stencil``): five element blocks of
response per output element, applied to the state less its first entry
as one ``autodiff.stencil`` node.  That is all of convection-diffusion.
Viscous Burgers is one ``autodiff.burgers`` node per call: the stencil of
its diffusion plus the Lax-Friedrichs convective flux, with a hand-written
VJP (Hesthaven & Warburton, *Nodal Discontinuous Galerkin Methods*, 2008,
ch. 5).  The numpy chain ``_tendency`` assembles the stencils and is the
reference the tests compare both against.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import legendre as npleg

from . import autodiff as ad
from .ode import Rhs

CONVECTION_DIFFUSION = "convection_diffusion"
VISCOUS_BURGERS = "viscous_burgers"

CD_MODES = (20, 4, 6, 7)  # wavenumbers of the multi-mode initial signal


@dataclass(frozen=True)
class PdeConfig:
    kind: str
    kappa: float
    a: float = 0.0  # convection velocity; used by convection_diffusion only

    def __post_init__(self):
        if self.kind not in (CONVECTION_DIFFUSION, VISCOUS_BURGERS):
            raise ValueError(f"unknown PDE kind {self.kind!r}")
        if self.kappa <= 0:
            raise ValueError("kappa must be positive")


def lgl_nodes(p):
    """p+1 Legendre-Gauss-Lobatto points on [-1, 1], symmetric about 0."""
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    if p == 1:
        return np.array([-1.0, 1.0])
    coeffs = np.zeros(p + 1)
    coeffs[p] = 1.0
    interior = np.sort(npleg.legroots(npleg.legder(coeffs)).real)
    nodes = np.concatenate([[-1.0], interior, [1.0]])
    return 0.5 * (nodes - nodes[::-1])


def _legendre_vandermonde(x, deg):
    return npleg.legvander(np.asarray(x, dtype=np.float64), deg)


def _legendre_deriv_vandermonde(x, deg):
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros((x.size, deg + 1))
    for j in range(1, deg + 1):
        cj = np.zeros(j + 1)
        cj[j] = 1.0
        out[:, j] = npleg.legval(x, npleg.legder(cj))
    return out


class Mesh1D:
    """Uniform periodic mesh with per-order reference operators."""

    def __init__(self, n_elem, order, domain=(0.0, 1.0)):
        if n_elem < 2:
            raise ValueError(f"n_elem must be >= 2 for periodic faces, got {n_elem}")
        self.n_elem = int(n_elem)
        self.order = int(order)
        self.domain = (float(domain[0]), float(domain[1]))
        if not self.domain[0] < self.domain[1]:
            raise ValueError(f"domain must run left to right, got {list(self.domain)}")
        self.h = (self.domain[1] - self.domain[0]) / self.n_elem
        self.jac = self.h / 2.0

        p = self.order
        self.nodes = lgl_nodes(p)
        self.quad_x, self.quad_w = npleg.leggauss(2 * (p + 1))
        self._vinv = np.linalg.inv(_legendre_vandermonde(self.nodes, p))
        # nodal -> quadrature interpolation and reference-derivative operators
        self.vq = _legendre_vandermonde(self.quad_x, p) @ self._vinv
        self.vdq = _legendre_deriv_vandermonde(self.quad_x, p) @ self._vinv
        wvq = self.quad_w[:, None] * self.vq
        self.mass = self.jac * (self.vq.T @ wvq)
        kmat = self.vq.T @ (self.quad_w[:, None] * self.vdq)
        # weak form of one element: its volume flux, right-face jump and
        # left-face jump, concatenated, map to its tendency through this
        # (p+3, p+1) matrix, the inverse mass matrix folded in.  The face
        # rows are unit rows: the nodal basis hits the endpoints exactly
        # (LGL includes them).
        n = p + 1
        lift = np.concatenate([-kmat.T, np.eye(n)[n - 1:n], -np.eye(n)[0:1]])
        self.weak = lift @ np.linalg.inv(self.mass).T
        self._proj = {}
        self._interp = {}

    @property
    def n_dof(self):
        return self.n_elem * (self.order + 1)

    def node_coords(self):
        """Physical coordinates of every nodal point, shape (n_elem, p+1)."""
        left = self.domain[0] + self.h * np.arange(self.n_elem)
        return left[:, None] + self.jac * (self.nodes[None, :] + 1.0)

    def basis_at(self, r):
        """Nodal basis values at reference points r, shape (len(r), p+1)."""
        return _legendre_vandermonde(r, self.order) @ self._vinv

    def projection_to(self, target_order):
        """Elementwise L2-projection matrix onto order `target_order` nodes."""
        L = int(target_order)
        if L >= self.order:
            raise ValueError(
                f"projection target order {L} must be below source order {self.order}"
            )
        if L not in self._proj:
            pl_quad = _legendre_vandermonde(self.quad_x, L)  # (nq, L+1)
            scale = (2.0 * np.arange(L + 1) + 1.0) / 2.0
            modal = scale[:, None] * (pl_quad.T @ (self.quad_w[:, None] * self.vq))
            self._proj[L] = _legendre_vandermonde(lgl_nodes(L), L) @ modal
        return self._proj[L]

    def interpolation_from(self, source_order):
        """Nodal embedding matrix from a lower order onto this mesh's nodes."""
        Lo = int(source_order)
        if Lo > self.order:
            raise ValueError("interpolation source order exceeds target order")
        if Lo not in self._interp:
            vin = np.linalg.inv(_legendre_vandermonde(lgl_nodes(Lo), Lo))
            self._interp[Lo] = _legendre_vandermonde(self.nodes, Lo) @ vin
        return self._interp[Lo]


@functools.lru_cache(maxsize=None)
def make_mesh(n_elem, order, x_left=0.0, x_right=1.0):
    return Mesh1D(n_elem, order, (x_left, x_right))


def field_from_function(mesh, fn):
    """Nodal interpolation of a callable of x, as a flat (n_dof,) state."""
    return np.asarray(fn(mesh.node_coords()), dtype=np.float64).reshape(mesh.n_dof)


def _weak_form(mesh, vol, right, left):
    """Tendency of per-element volume data (..., E, p+1) and right- and
    left-face jumps (..., E, 1), as one product with ``mesh.weak``."""
    return np.concatenate([vol, right, left], -1) @ mesh.weak


def _divergence(mesh, flux, face_flux):
    """Weak-form tendency of a volume flux (..., E, p+1) and a numerical
    flux per face (..., E, 1), face i between elements i-1 and i."""
    f_r = flux[..., -1:]
    f_l = flux[..., :1]
    return _weak_form(mesh, flux - f_l, f_r - np.roll(face_flux, -1, -2), f_l - face_flux)


def _diffusion(cfg, mesh, u):
    """The linear diffusion part of the tendency of u (..., n_elem, p+1)."""
    u_r = u[..., -1:]                           # (..., E, 1) right-endpoint trace
    u_l = u[..., :1]                            # left-endpoint trace
    # auxiliary q ~ -kappa u_x with central interface values.  Volume terms
    # see per-element-centred data (the stiffness operator annihilates
    # constants analytically); this keeps constant states exact steady
    # states instead of leaving ~1e-12 roundoff residue.
    ustar = 0.5 * (np.roll(u_r, 1, -2) + u_l)   # central value at face i
    ustar_right = np.roll(ustar, -1, -2)        # value at each element's right face
    q = cfg.kappa * _weak_form(mesh, u - u_l, u_r - ustar_right, u_l - ustar)
    qstar = 0.5 * (np.roll(q[..., -1:], 1, -2) + q[..., :1])
    return _divergence(mesh, q, qstar)


def _convection(cfg, mesh, u):
    """The convective part of the tendency, with the Lax-Friedrichs flux."""
    um = np.roll(u[..., -1:], 1, -2)  # minus-side value at face i
    up = u[..., :1]                   # plus-side value at face i
    if cfg.kind == CONVECTION_DIFFUSION:
        fstar = 0.5 * cfg.a * (um + up) + 0.5 * abs(cfg.a) * (um - up)
        flux = cfg.a * u
    else:
        tau = np.maximum(np.abs(um), np.abs(up))
        fstar = 0.25 * (um * um + up * up) + 0.5 * tau * (um - up)
        flux = 0.5 * (u * u)
    return _divergence(mesh, flux, fstar)


def _tendency(cfg, mesh, u):
    """Semi-discrete RHS on element-shaped states u (..., n_elem, p+1).

    The numpy reference chain: ``linear_stencil`` and ``burgers_operator``
    assemble their stencils from it once per (config, mesh).
    """
    return _diffusion(cfg, mesh, u) + _convection(cfg, mesh, u)


@functools.lru_cache(maxsize=None)
def linear_stencil(cfg, mesh):
    """The convection-diffusion tendency as a read-only periodic block
    stencil (idx, s, s_adj) for ``autodiff.stencil``.

    The tendency couples each element to elements e-2..e+2 only (two face
    exchanges, one for q and one for the flux) and is the same in every
    element, so the chain runs once, on the p+1 unit vectors of the middle
    element of a five-element ring.  idx is the (n_elem, 5(p+1)) periodic
    gather of elements e-2..e+2, s the (5(p+1), p+1) response to them, and
    s_adj the blocks of s transposed and in reverse offset order.
    """
    if cfg.kind != CONVECTION_DIFFUSION:
        raise ValueError(f"{cfg.kind} has no linear stencil")
    E, n = mesh.n_elem, mesh.order + 1
    units = np.zeros((n, 5, n))
    units[:, 2, :] = np.eye(n)
    resp = _tendency(cfg, mesh, units)          # (source node, element, node)
    # input at offset o from an output element lands in ring element 2 - o
    blocks = [resp[:, 2 - o, :] for o in range(-2, 3)]
    s = np.concatenate(blocks)
    s_adj = np.concatenate([b.T for b in blocks[::-1]])
    elems = (np.arange(E)[:, None] + np.arange(-2, 3)[None, :]) % E
    idx = (elems[:, :, None] * n + np.arange(n)).reshape(E, 5 * n)
    for a in (idx, s, s_adj):
        a.flags.writeable = False  # one cached stencil serves every caller
    return idx, s, s_adj


@functools.lru_cache(maxsize=None)
def burgers_operator(cfg, mesh):
    """The read-only constants (idx, s, s_adj, faces, weak, lift_adj) of
    ``autodiff.burgers`` for a viscous Burgers config.

    (idx, s, s_adj) is the stencil of the a = 0 convection-diffusion
    operator, Burgers' diffusion.  Column e of the (2, E+1) faces holds the
    flat indices of the minus trace (the last node of element e-1) and the
    plus trace (the first node of element e) at face e, for e = 0..E: the
    last column repeats face 0, the right face of element E-1, so that each
    element's left and right fluxes are two slices of one face flux.
    weak is ``Mesh1D.weak``.  An element's volume flux f and its right- and
    left-face fluxes (fr, fl) enter weak as [f - f_0, f_n-1 - fr, f_0 - fl];
    lift_adj, (n, n+2), maps the tendency's adjoint to the adjoints of
    [f, fr, fl] in one product.
    """
    if cfg.kind != VISCOUS_BURGERS:
        raise ValueError(f"{cfg.kind} has no Burgers operator")
    E, n = mesh.n_elem, mesh.order + 1
    idx, s, s_adj = linear_stencil(PdeConfig(CONVECTION_DIFFUSION, cfg.kappa), mesh)
    e = np.arange(E + 1)
    faces = np.stack([(e - 1) % E * n + n - 1, e % E * n])
    weak = mesh.weak.copy()
    # the weak-form input as a linear map of [f, fr, fl]
    q = np.zeros((n + 2, n + 2))
    q[:n, :n] = np.eye(n)
    q[:n, 0] -= 1.0
    q[n, n - 1] = q[n + 1, 0] = 1.0
    q[n, n] = q[n + 1, n + 1] = -1.0
    lift_adj = weak.T @ q
    for a in (faces, weak, lift_adj):
        a.flags.writeable = False  # one cached operator serves every caller
    return idx, s, s_adj, faces, weak, lift_adj


def rhs_semidiscrete(cfg, mesh):
    """Flat-vector RHS suitable for the ERK stepper; batch-shape agnostic.

    Convection-diffusion is one ``autodiff.stencil`` node, viscous Burgers
    one ``autodiff.burgers`` node, each centring u on its first entry.  Each
    row of a batch rounds the same as it would alone.
    """
    if cfg.kind == VISCOUS_BURGERS:
        op = burgers_operator(cfg, mesh)
        return Rhs(lambda u: ad.burgers(u, op), mesh.n_dof)
    st = linear_stencil(cfg, mesh)
    return Rhs(lambda u: ad.stencil(u, *st), mesh.n_dof)


def _per_element(mesh, states, m):
    """The matrix m applied to every element of a (n_times, n_dof) block,
    shape (n_times, n_elem, len(m))."""
    return states.reshape(states.shape[0], mesh.n_elem, mesh.order + 1) @ m.T


def project_states(mesh, states, target_order):
    """Apply the filter to a whole (n_times, n_dof) state block at once."""
    g = mesh.projection_to(target_order)
    return _per_element(mesh, states, g).reshape(states.shape[0], -1)


def interp_states(mesh, states, target_order):
    """Embed a (n_times, n_dof) state block into order `target_order` by
    nodal interpolation (exact)."""
    e = make_mesh(mesh.n_elem, target_order, *mesh.domain).interpolation_from(mesh.order)
    return _per_element(mesh, states, e).reshape(states.shape[0], -1)


def states_dg_norm(mesh, states):
    """Broken L2 norm of each row of a (n_times, n_dof) block."""
    uq = _per_element(mesh, states, mesh.vq)
    return np.sqrt(mesh.jac * np.sum(mesh.quad_w * uq * uq, axis=(1, 2)))


def cd_initial_condition(mesh, phase):
    """Sum of four unit sine modes, shifted by the given phase."""
    return field_from_function(
        mesh,
        lambda x: sum(np.sin(2.0 * np.pi * k * (x - phase)) for k in CD_MODES),
    )


def target_spectrum(k, k0):
    """Energy density peaked at k0: E(k) = A0 k^4 exp(-2 (k/k0)^2)."""
    a0 = 2.0 * k0 ** -5 / (3.0 * np.sqrt(np.pi))
    k = np.asarray(k, dtype=np.float64)
    return a0 * k ** 4 * np.exp(-2.0 * (k / k0) ** 2)


def check_synthesis(k0, n_grid):
    """Raise ValueError unless a signal peaked at k0 fits on n_grid points."""
    if k0 < 1:
        raise ValueError(f"k0 must be >= 1, got {k0}")
    if n_grid < 4 or n_grid & (n_grid - 1):
        raise ValueError(f"the synthesis grid n_synth must be a power of two >= 4, got {n_grid}")


def synthesize_turbulence_signal(k0, n_grid, seed):
    """Random-phase real signal on n_grid uniform points realizing the target
    spectrum exactly per wavenumber (Hermitian coefficient pairs)."""
    check_synthesis(k0, n_grid)
    rng = np.random.Generator(np.random.PCG64(seed))
    coeffs = np.zeros(n_grid, dtype=np.complex128)
    ks = np.arange(1, n_grid // 2)
    amps = n_grid * np.sqrt(2.0 * target_spectrum(ks, k0))
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, size=ks.size))
    coeffs[1:n_grid // 2] = amps * phases
    coeffs[n_grid // 2 + 1:] = np.conj(coeffs[1:n_grid // 2])[::-1]
    u = np.fft.ifft(coeffs)
    return u.real.copy(), coeffs


def _barycentric_interp(x_grid_spacing, u_grid, x_query, x0, window=8):
    """Local barycentric Lagrange interpolation off a fine periodic grid."""
    n = u_grid.size
    half = window // 2
    # equispaced barycentric weights: (-1)^j * C(window-1, j)
    w = np.array([(-1) ** j * math.comb(window - 1, j) for j in range(window)], float)
    ratio = (x_query - x0) / x_grid_spacing
    base = np.floor(ratio).astype(int)
    offsets = np.arange(-half + 1, half + 1)
    idx = (base[:, None] + offsets[None, :]) % n
    xrel = ratio[:, None] - (base[:, None] + offsets[None, :])
    exact = np.abs(xrel) <= 1e-13
    xrel_safe = np.where(exact, 1.0, xrel)
    terms = w[None, :] / xrel_safe
    vals = (terms * u_grid[idx]).sum(axis=1) / terms.sum(axis=1)
    hit = exact.any(axis=1)
    if np.any(hit):
        vals[hit] = u_grid[idx[hit]][exact[hit]]
    return vals


def burgulence_initial_condition(mesh, k0, n_grid, seed):
    """Turbulent initial velocity: spectral synthesis on a fine uniform grid,
    then interpolation onto the mesh's LGL nodes, as a flat (n_dof,) state."""
    u_grid, _ = synthesize_turbulence_signal(k0, n_grid, seed)
    x0, x1 = mesh.domain
    spacing = (x1 - x0) / n_grid
    xq = mesh.node_coords().reshape(-1)
    return _barycentric_interp(spacing, u_grid, xq, x0)


def eval_uniform(mesh, u, n_pts):
    """Sample the flat state u at n_pts uniform points (left-closed)."""
    x0, x1 = mesh.domain
    E = mesh.n_elem
    coeffs = np.reshape(u, (E, mesh.order + 1))
    if n_pts % E == 0:
        m = n_pts // E
        r = -1.0 + 2.0 * (np.arange(m) / m)
        b = mesh.basis_at(r)
        return (coeffs @ b.T).reshape(-1)
    xs = x0 + (x1 - x0) * np.arange(n_pts) / n_pts
    e = np.minimum(((xs - x0) / mesh.h).astype(int), E - 1)
    r = 2.0 * (xs - (x0 + e * mesh.h)) / mesh.h - 1.0
    out = np.empty(n_pts)
    for el in range(E):
        mask = e == el
        if np.any(mask):
            out[mask] = mesh.basis_at(r[mask]) @ coeffs[el]
    return out
