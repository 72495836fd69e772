import os
import struct

import numpy as np
import pytest

from sgnode.errors import BlowupError, FormatError
from sgnode.ode import (
    ButcherTableau,
    Rhs,
    StoredTrajectory,
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
    assert np.all(np.triu(tab.a) == 0.0)


def test_tableau_validation_rejects_bad_weights():
    a = np.zeros((2, 2))
    a[1, 0] = 0.5
    with pytest.raises(ValueError):
        ButcherTableau("bad", a, np.array([0.5, 0.4])).validate()


def test_zero_rhs_leaves_state_unchanged():
    u = np.array([1.0, -2.0, 3.0])
    out = erk_step(tableau_rk4(), lambda x: np.zeros_like(x), u, 0.1)
    assert np.array_equal(out, u)


def test_rk4_step_matches_fourth_order_taylor():
    # u' = u from u=1: one RK4 step of size h reproduces the degree-4
    # Taylor sum 1 + h + h^2/2 + h^3/6 + h^4/24 exactly.
    out = erk_step(tableau_rk4(), lambda u: u, np.array([1.0]), 0.1)
    assert out[0] == pytest.approx(1.1051708333333332, abs=1e-15)


def _observed_orders(tab):
    errs = []
    for dt in (0.1, 0.05, 0.025):
        tr = integrate(tab, Rhs(lambda u: -u, 1), np.array([1.0]), 0.0, dt, round(1.0 / dt))
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

    def rhs(u):
        calls.append(u)
        return -u

    erk_step(tab, rhs, np.array([1.0]), 0.1)
    assert len(calls) == 6


def test_erk_step_linear_in_state_for_linear_rhs():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(4, 4))
    rhs = lambda x: x @ mat.T
    u, v = rng.normal(size=4), rng.normal(size=4)
    a, b = 0.7, -1.3
    tab = tableau_rk4()
    lhs = erk_step(tab, rhs, a * u + b * v, 0.05)
    rhs_val = a * erk_step(tab, rhs, u, 0.05) + b * erk_step(tab, rhs, v, 0.05)
    assert np.max(np.abs(lhs - rhs_val)) < 1e-12


def test_erk_step_deterministic():
    rng = np.random.default_rng(0)
    u = rng.normal(size=8)
    mat = rng.normal(size=(8, 8))
    out1 = erk_step(tableau_tsit5(), lambda x: x @ mat.T, u.copy(), 0.01)
    out2 = erk_step(tableau_tsit5(), lambda x: x @ mat.T, u.copy(), 0.01)
    assert np.array_equal(out1, out2)


def test_blowup_carries_stage_and_step():
    def rhs(u):
        return u * u  # finite-time blowup

    with pytest.raises(BlowupError) as e:
        integrate(tableau_rk4(), rhs, np.array([5.0]), 0.0, 0.5, 50)
    assert e.value.stage is not None
    assert e.value.step is not None


def test_nonfinite_stage_raises():
    def rhs(u):
        return np.full_like(u, np.nan)

    with pytest.raises(BlowupError):
        erk_step(tableau_rk4(), rhs, np.array([1.0]), 0.1)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2e12, -2e12])
@pytest.mark.parametrize("where", ["stage", "step"])
@pytest.mark.parametrize("batched", [False, True])
def test_a_bad_value_raises_blowup_naming_stage_or_step(bad, where, batched):
    # one bad entry, in a stage slope or in the stepped state, fails the check
    u0 = np.ones((3, 4)) if batched else np.ones(4)

    def poison(u):
        out = np.zeros_like(u)
        out[(1, 2) if batched else 2] = bad
        return out

    calls, steps = [], []

    def rhs(u):
        calls.append(u)
        return poison(u) if where == "stage" and len(calls) == 6 else np.zeros_like(u)

    def post_step(u_prev, u_stepped):
        steps.append(u_stepped)
        return u_stepped + poison(u_stepped) if where == "step" and len(steps) == 3 else u_stepped

    with pytest.raises(BlowupError) as e:
        integrate(tableau_rk4(), rhs, u0, 0.0, 0.1, 5, post_step=post_step)
    if where == "stage":  # the second stage of the second step
        assert (e.value.step, e.value.stage) == (1, 1)
    else:  # after the third step
        assert (e.value.step, e.value.stage) == (2, None)
    assert e.value.sample == (1 if batched else None)
    assert (", sample 1" in str(e.value)) == batched
    assert ("at stage 1 of step 1 (t=0.1)" if where == "stage" else
            "state blew up after step 2 (t=0.2)") in str(e.value)


def test_integrate_zero_steps_returns_initial_state():
    tr = integrate(tableau_rk4(), lambda u: -u, np.array([2.0, 3.0]), 0.5, 0.1, 0)
    assert len(tr) == 1
    assert np.array_equal(tr.states[0], [2.0, 3.0])
    assert tr.t0 == 0.5


def test_integrate_constant_dynamics():
    tr = integrate(tableau_rk4(), lambda u: np.zeros_like(u), np.array([1.0, 2.0]), 0.0, 0.2, 5)
    assert len(tr) == 6
    assert np.all(tr.states == tr.states[0])


def test_integrate_dim_check():
    with pytest.raises(ValueError):
        integrate(tableau_rk4(), Rhs(lambda u: u, 3), np.array([1.0]), 0.0, 0.1, 1)


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


def test_a_stored_trajectory_reads_the_rows_asked_for(tmp_path, monkeypatch):
    rng = np.random.default_rng(2)
    tr = Trajectory(t0=0.25, dt=0.005, states=rng.normal(size=(9, 3)), meta={"model": "toy"})
    path = tmp_path / "t.sgnt"
    save_trajectory(tr, path)
    stored = StoredTrajectory(path)
    assert (len(stored), stored.dim, stored.t0, stored.dt, stored.meta) == (9, 3, 0.25, 0.005,
                                                                           tr.meta)
    for idx in ([0], [8], [2, 3, 4, 7, 8], [5, 1, 2, 1], np.arange(0, 9, 3), []):
        rows = stored.rows(idx)
        assert rows.shape == (len(idx), 3)
        assert rows.tobytes() == tr.rows(np.asarray(idx, dtype=int)).tobytes()
    for idx in ([9], [-1], [0, 9]):
        with pytest.raises(IndexError):
            stored.rows(idx)
    # a read may move fewer bytes than asked for before the end of the file
    preadv = os.preadv
    monkeypatch.setattr(os, "preadv",
                        lambda fd, bufs, at: preadv(fd, [memoryview(bufs[0]).cast("B")[:20]], at))
    assert stored.rows([2, 3, 4, 8]).tobytes() == tr.states[[2, 3, 4, 8]].tobytes()
    assert stored.load().states.tobytes() == tr.states.tobytes()
    monkeypatch.undo()
    f = stored.file
    del stored
    assert f.closed  # the file closes with its last holder


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


def test_integrate_post_step_output_is_carried_forward():
    seen = []

    def post_step(u_prev, u_stepped):
        seen.append((u_prev.copy(), u_stepped.copy()))
        return u_stepped + 1.0

    tr = integrate(tableau_rk4(), lambda u: np.zeros_like(u), np.array([0.0, 2.0]),
                   0.5, 0.25, 3, post_step=post_step)
    assert np.array_equal(tr.states[:, 0], [0.0, 1.0, 2.0, 3.0])
    assert len(seen) == 3 and np.array_equal(tr.times, [0.5, 0.75, 1.0, 1.25])
    assert all(np.array_equal(prev, stepped) for prev, stepped in seen)
    assert np.array_equal(seen[2][0], [2.0, 4.0])


def _batched_blowup(rhs, u0, post_step=None):
    with pytest.raises(BlowupError) as e:
        integrate(tableau_rk4(), rhs, u0, 0.0, 0.1, 20, post_step=post_step)
    return e.value


def test_batched_stage_blowup_names_the_row():
    # only row 2 grows fast enough to blow up; alone it fails at the same step
    rate = np.array([[1.0], [-1.0], [1e3], [0.5]])
    u0 = np.ones((4, 3))
    e = _batched_blowup(lambda u: rate * u, u0)
    alone = _batched_blowup(lambda u: 1e3 * u, u0[2])
    assert e.stage is not None and e.sample == 2
    assert (e.step, e.stage, e.time) == (alone.step, alone.stage, alone.time)
    assert alone.sample is None  # a flat state names no sample
    assert "sample 2" in str(e)


def test_batched_post_step_blowup_names_the_row():
    factor = np.array([[1.0], [2.0], [1e3], [1.0]])
    e = _batched_blowup(
        lambda u: np.zeros_like(u), np.ones((4, 2)),
        post_step=lambda u_prev, u_stepped: u_stepped * factor,
    )
    # row 2 reaches 1e15 > BLOWUP_LIMIT after the fifth step (index 4)
    assert (e.sample, e.step, e.stage) == (2, 4, None)
    assert e.time == pytest.approx(0.4)


def test_a_stage_blowup_message_names_its_step():
    # the slope of stage 1 in step 1 (t = 0.1) is the first that is not finite
    calls = []

    def rhs(u):
        calls.append(u)
        return np.full_like(u, np.nan) if len(calls) == 6 else np.zeros_like(u)

    with pytest.raises(BlowupError) as e:
        integrate(tableau_rk4(), rhs, np.ones((2, 3)), 0.0, 0.1, 5)
    assert (e.value.step, e.value.stage, e.value.time, e.value.sample) == (1, 1, 0.1, 0)
    assert str(e.value) == "non-finite or blown-up value at stage 1 of step 1 (t=0.1), sample 0"


def test_integrate_post_step_blowup_is_caught():
    with pytest.raises(BlowupError) as e:
        integrate(tableau_rk4(), lambda u: np.zeros_like(u), np.array([1.0]), 0.0, 0.1, 5,
                  post_step=lambda u_prev, u_stepped: u_stepped * 1e9)
    assert e.value.step == 1


def test_get_tableau_unknown_name():
    with pytest.raises(ValueError):
        get_tableau("rk9000")
