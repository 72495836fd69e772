"""Two-scale Lorenz 96 dynamics and the neural-source variant.

State layout is a flat vector [X_1..X_K, Y_flat] where the fast variables
form a single ring of length K*J in k-major blocks: Y_flat[k*J + j] holds
the j-th fast variable attached to slow component k, and the j+1 neighbour
of the last entry in block k is the first entry of block k+1 (cyclic).
Every right-hand side here is one ``autodiff.l96`` call; they differ only in
the slow equation's source and in whether the fast ring is present.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import mlp
from .ode import Rhs, Trajectory, integrate, steps, tableau_rk4


@dataclass(frozen=True)
class L96Config:
    K: int = 36       # slow components
    J: int = 10       # fast components per slow component
    c: float = 10.0   # time-scale separation
    h: float = 1.0    # coupling strength
    F: float = 10.0   # forcing
    source_scope: str = "global"  # whole-X source net; "per_component" shares
                                  # one scalar map across the ring

    def __post_init__(self):
        if self.K < 4:
            raise ValueError("K must be >= 4 (cyclic stencil needs 3 neighbours)")
        if self.J < 1 or self.c <= 0:
            raise ValueError("J must be >= 1 and c > 0")
        if self.source_scope not in ("per_component", "global"):
            raise ValueError(f"unknown source_scope {self.source_scope!r}")

    @property
    def dim(self):
        return self.K * (1 + self.J)

    @property
    def source_dims(self):
        """(d_in, d_out) of the source net under the configured scope."""
        return (1, 1) if self.source_scope == "per_component" else (self.K, self.K)


def _aux(cfg, J):
    """autodiff.l96's constants; J = 0 leaves out the fast ring."""
    return (cfg.K, J, cfg.c, cfg.h, cfg.F)


def coupling_term(cfg, z):
    """The exact slow-equation coupling -h * mean_j Y_jk; z is (..., dim)."""
    y = np.asarray(z)[..., cfg.K:]
    return -cfg.h * y.reshape(y.shape[:-1] + (cfg.K, cfg.J)).mean(axis=-1)


def rhs_coupled(cfg):
    """Full two-scale dynamics (truth model); numpy states only."""
    aux = _aux(cfg, cfg.J)

    def fn(z):
        return ad.l96(z, coupling_term(cfg, z), aux)

    return Rhs(fn, cfg.dim)


def _source(cfg, weights, biases, x):
    if cfg.source_scope == "per_component":
        return mlp.forward_per_component(weights, biases, x)
    return mlp.forward(weights, biases, x)


def rhs_slow_neural(cfg, params):
    """Slow equation alone with the trained source standing in for coupling."""
    mlp.require_dims(params, *cfg.source_dims)
    aux = _aux(cfg, 0)

    def fn(x):
        return ad.l96(x, _source(cfg, params.weights, params.biases, x), aux)

    return Rhs(fn, cfg.K)


def rhs_coupled_neural(cfg, weights, biases):
    """Neural-source slow equation plus the unchanged fast equation.

    Generic over numpy arrays and tape Vars: used for training rollouts over
    the full state and for uncoupled-baseline comparisons.
    """
    K, aux = cfg.K, _aux(cfg, cfg.J)

    def fn(z):
        return ad.l96(z, _source(cfg, weights, biases, ad.narrow(z, K)), aux)

    return fn


def random_initial_state(cfg, rng):
    x = rng.uniform(-5.0, 5.0, size=cfg.K)
    y = rng.uniform(-0.5, 0.5, size=cfg.K * cfg.J)
    return np.concatenate([x, y])


def truth_start(cfg, n_traj, dt, spinup_t, seed):
    """The start of every truth run, (rhs, z0, metas): the truth model, the
    (n_traj, dim) states after spinup_t of it in RK4 from random states,
    trajectory i drawn from seed + i, and each trajectory's metadata."""
    rhs = rhs_coupled(cfg)
    z = np.stack([
        random_initial_state(cfg, np.random.Generator(np.random.PCG64(seed + i)))
        for i in range(n_traj)
    ])
    for z in steps(tableau_rk4(), rhs, z, 0.0, dt, int(round(spinup_t / dt))):
        pass
    meta = {
        "model": "l96",
        "K": str(cfg.K),
        "J": str(cfg.J),
        "c": repr(cfg.c),
        "h": repr(cfg.h),
        "F": repr(cfg.F),
        "spinup": repr(spinup_t),
    }
    return rhs, z, [{**meta, "seed": str(seed + i)} for i in range(n_traj)]


def generate_truth(cfg, n_traj, dt, spinup_t, t_final, seed):
    """`truth_start`, then t_final/dt recorded steps per trajectory.

    All trajectories advance together as one (n_traj, dim) RK4 rollout; a
    blowup's sample is the trajectory index.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    rhs, z0, metas = truth_start(cfg, n_traj, dt, spinup_t, seed)
    n_keep = int(round(t_final / dt))
    block = integrate(tableau_rk4(), rhs, z0, 0.0, dt, n_keep).states
    d = cfg.dim
    return [
        Trajectory(t0=0.0, dt=dt, states=block[:, i * d:(i + 1) * d], meta=meta)
        for i, meta in enumerate(metas)
    ]
