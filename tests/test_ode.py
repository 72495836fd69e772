import struct

import numpy as np
import pytest

from sgnode.errors import BlowupError, FormatError
from sgnode.ode import (
    ButcherTableau,
    Rhs,
    Trajectory,
    erk_step,
    get_tableau,
    integrate,
    load_trajectory,
    save_trajectory,
    tableau_rk4,
    tableau_tsit5,
)


def test_rk4_tableau_weights():
    tab = tableau_rk4()
    assert np.allclose(tab.b, [1 / 6, 1 / 3, 1 / 3, 1 / 6])


@pytest.mark.parametrize("tab", [tableau_rk4(), tableau_tsit5()])
def test_tableau_consistency(tab):
    assert abs(tab.b.sum() - 1.0) <= 1e-15
    assert np.max(np.abs(tab.a.sum(axis=1) - tab.c)) <= 1e-14
    assert np.all(np.triu(tab.a) == 0.0)


def test_tableau_validation_rejects_bad_weights():
    a = np.zeros((2, 2))
    a[1, 0] = 0.5
    with pytest.raises(ValueError):
        ButcherTableau("bad", a, np.array([0.5, 0.4]), np.array([0.0, 0.5])).validate()


def test_zero_rhs_leaves_state_unchanged():
    u = np.array([1.0, -2.0, 3.0])
    out = erk_step(tableau_rk4(), lambda t, x: np.zeros_like(x), 0.0, u, 0.1)
    assert np.array_equal(out, u)


def test_rk4_step_matches_fourth_order_taylor():
    # u' = u from u=1: one RK4 step of size h reproduces the degree-4
    # Taylor sum 1 + h + h^2/2 + h^3/6 + h^4/24 exactly.
    out = erk_step(tableau_rk4(), lambda t, u: u, 0.0, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(1.1051708333333332, abs=1e-15)


def _observed_orders(tab):
    errs = []
    for dt in (0.1, 0.05, 0.025):
        tr = integrate(tab, Rhs(lambda t, u: -u, 1), np.array([1.0]), 0.0, dt, round(1.0 / dt))
        errs.append(abs(tr.states[-1, 0] - np.exp(-1.0)))
    return [np.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)]


def test_rk4_observed_order():
    orders = _observed_orders(tableau_rk4())
    assert all(3.8 <= o <= 4.3 for o in orders)


def test_tsit5_observed_order():
    orders = _observed_orders(tableau_tsit5())
    assert all(o >= 4.8 for o in orders)


def test_tsit5_skips_unused_final_stage():
    tab = tableau_tsit5()
    calls = []

    def rhs(t, u):
        calls.append(t)
        return -u

    erk_step(tab, rhs, 0.0, np.array([1.0]), 0.1)
    assert len(calls) == 6


def test_erk_step_linear_in_state_for_linear_rhs():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(4, 4))
    rhs = lambda t, x: x @ mat.T
    u, v = rng.normal(size=4), rng.normal(size=4)
    a, b = 0.7, -1.3
    tab = tableau_rk4()
    lhs = erk_step(tab, rhs, 0.0, a * u + b * v, 0.05)
    rhs_val = a * erk_step(tab, rhs, 0.0, u, 0.05) + b * erk_step(tab, rhs, 0.0, v, 0.05)
    assert np.max(np.abs(lhs - rhs_val)) < 1e-12


def test_erk_step_deterministic():
    rng = np.random.default_rng(0)
    u = rng.normal(size=8)
    mat = rng.normal(size=(8, 8))
    out1 = erk_step(tableau_tsit5(), lambda t, x: x @ mat.T, 0.0, u.copy(), 0.01)
    out2 = erk_step(tableau_tsit5(), lambda t, x: x @ mat.T, 0.0, u.copy(), 0.01)
    assert np.array_equal(out1, out2)


def test_blowup_carries_stage_and_step():
    def rhs(t, u):
        return u * u  # finite-time blowup

    with pytest.raises(BlowupError) as e:
        integrate(tableau_rk4(), rhs, np.array([5.0]), 0.0, 0.5, 50)
    assert e.value.stage is not None
    assert e.value.step is not None


def test_nonfinite_stage_raises():
    def rhs(t, u):
        return np.full_like(u, np.nan)

    with pytest.raises(BlowupError):
        erk_step(tableau_rk4(), rhs, 0.0, np.array([1.0]), 0.1)


def test_integrate_zero_steps_returns_initial_state():
    tr = integrate(tableau_rk4(), lambda t, u: -u, np.array([2.0, 3.0]), 0.5, 0.1, 0)
    assert len(tr) == 1
    assert np.array_equal(tr.states[0], [2.0, 3.0])
    assert tr.t0 == 0.5


def test_integrate_constant_dynamics():
    tr = integrate(tableau_rk4(), lambda t, u: np.zeros_like(u), np.array([1.0, 2.0]), 0.0, 0.2, 5)
    assert len(tr) == 6
    assert np.all(tr.states == tr.states[0])


def test_integrate_dim_check():
    with pytest.raises(ValueError):
        integrate(tableau_rk4(), Rhs(lambda t, u: u, 3), np.array([1.0]), 0.0, 0.1, 1)


def test_trajectory_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    tr = Trajectory(t0=0.25, dt=0.005, states=rng.normal(size=(7, 3)),
                    meta={"model": "toy", "note": "q"})
    path = tmp_path / "t.sgnt"
    save_trajectory(tr, path)
    back = load_trajectory(path)
    assert back.t0 == tr.t0 and back.dt == tr.dt
    assert np.array_equal(back.states, tr.states)
    assert back.meta == tr.meta


def test_trajectory_truncated_file(tmp_path):
    tr = Trajectory(t0=0.0, dt=0.1, states=np.zeros((4, 2)), meta={})
    path = tmp_path / "t.sgnt"
    save_trajectory(tr, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(FormatError):
        load_trajectory(path)


def test_trajectory_bad_magic(tmp_path):
    path = tmp_path / "t.sgnt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(FormatError):
        load_trajectory(path)


@pytest.mark.parametrize("d,count", [(0xFFFFFFFF, 2**63), (0, 2**63)])
def test_trajectory_huge_state_count_is_format_error(tmp_path, d, count):
    tr = Trajectory(t0=0.0, dt=0.1, states=np.zeros((4, 2)), meta={})
    path = tmp_path / "t.sgnt"
    save_trajectory(tr, path)
    raw = bytearray(path.read_bytes())
    raw[8:20] = struct.pack("<IQ", d, count)
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        load_trajectory(path)


@pytest.mark.parametrize("blob", [b"\xff\xfe{}", b"{not json", b"[1, 2]"])
def test_trajectory_garbled_metadata_is_format_error(tmp_path, blob):
    tr = Trajectory(t0=0.0, dt=0.1, states=np.zeros((4, 2)), meta={})
    path = tmp_path / "t.sgnt"
    save_trajectory(tr, path)
    raw = path.read_bytes()[: -(4 + len(b"{}"))]
    path.write_bytes(raw + struct.pack("<I", len(blob)) + blob)
    with pytest.raises(FormatError):
        load_trajectory(path)


def test_get_tableau_passes_a_tableau_through():
    tab = tableau_rk4()
    assert get_tableau(tab) is tab


def test_integrate_post_step_output_is_carried_forward():
    seen = []

    def post_step(t, u_prev, u_stepped):
        seen.append((t, u_prev.copy(), u_stepped.copy()))
        return u_stepped + 1.0

    tr = integrate(tableau_rk4(), lambda t, u: np.zeros_like(u), np.array([0.0, 2.0]),
                   0.5, 0.25, 3, post_step=post_step)
    assert np.array_equal(tr.states[:, 0], [0.0, 1.0, 2.0, 3.0])
    assert [t for t, _, _ in seen] == [0.5, 0.75, 1.0]
    assert all(np.array_equal(prev, stepped) for _, prev, stepped in seen)
    assert np.array_equal(seen[2][1], [2.0, 4.0])


def _batched_blowup(rhs, u0, post_step=None):
    with pytest.raises(BlowupError) as e:
        integrate(tableau_rk4(), rhs, u0, 0.0, 0.1, 20, post_step=post_step)
    return e.value


def test_batched_stage_blowup_names_the_row():
    # only row 2 grows fast enough to blow up; alone it fails at the same step
    rate = np.array([[1.0], [-1.0], [1e3], [0.5]])
    u0 = np.ones((4, 3))
    e = _batched_blowup(lambda t, u: rate * u, u0)
    alone = _batched_blowup(lambda t, u: 1e3 * u, u0[2])
    assert e.stage is not None and e.sample == 2
    assert (e.step, e.stage, e.time) == (alone.step, alone.stage, alone.time)
    assert alone.sample is None  # a flat state names no sample
    assert "sample 2" in str(e)


def test_batched_post_step_blowup_names_the_row():
    factor = np.array([[1.0], [2.0], [1e3], [1.0]])
    e = _batched_blowup(
        lambda t, u: np.zeros_like(u), np.ones((4, 2)),
        post_step=lambda t, u_prev, u_stepped: u_stepped * factor,
    )
    # row 2 reaches 1e15 > BLOWUP_LIMIT after the fifth step (index 4)
    assert (e.sample, e.step, e.stage) == (2, 4, None)
    assert e.time == pytest.approx(0.4)


def test_integrate_post_step_blowup_is_caught():
    with pytest.raises(BlowupError) as e:
        integrate(tableau_rk4(), lambda t, u: np.zeros_like(u), np.array([1.0]), 0.0, 0.1, 5,
                  post_step=lambda t, u_prev, u_stepped: u_stepped * 1e9)
    assert e.value.step == 1


def test_get_tableau_unknown_name():
    with pytest.raises(ValueError):
        get_tableau("rk9000")
