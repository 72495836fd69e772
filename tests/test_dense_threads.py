"""``dense`` runs its large products on a second thread; every byte of its
forward, its VJP and ``backward``'s gradients must equal the one-thread
rules.

These tests also run under ``taskset -c 0``, where no worker thread starts.
"""

import ctypes
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from sgnode import autodiff as ad


def _serial_fwd(relu, h, w, b):
    z = h @ w.T
    z += b
    if relu:
        np.maximum(z, 0.0, out=z)
    return z


def _serial_vjp(relu, g, out, h, w):
    gz = g * (out > 0) if relu else g
    gz2 = gz.reshape(-1, w.shape[0])
    return (gz2 @ w).reshape(h.shape), gz2.T @ h.reshape(-1, w.shape[1]), gz2.sum(axis=0)


_T = ad.SPLIT_ROWS
# (rows, d_in, d_out); rows None is one (d_in,) state
SHAPES = [
    # the L96 per-component net on 100 windows of K = 36
    (3600, 1, 128), (3600, 128, 128), (3600, 128, 1),
    # CD (100 dofs) and Burgers (128 dofs) on a batch of 100
    (100, 100, 128), (100, 128, 128), (100, 128, 100),
    # one state, an odd row count, and either side of the split threshold
    (None, 1, 128), (None, 128, 1), (None, 100, 128),
    (3601, 128, 128), (3601, 1, 128), (3601, 128, 1),
    (_T - 1, 128, 128), (_T, 128, 128), (_T, 1, 128),
]


def _bytes(*arrays):
    return [(a.shape, a.tobytes()) for a in arrays]


def _vjp(*args):
    """_vjp_dense's gradients, with its deferred weight and bias sums run."""
    got = ad._vjp_dense(*args)
    return got[:-1] + got[-1]() if callable(got[-1]) else got


@pytest.mark.parametrize("rows,d_in,d_out", SHAPES)
@pytest.mark.parametrize("relu", [True, False])
@pytest.mark.parametrize("zeros", [False, True], ids=["normal", "signed_zeros"])
def test_dense_forward_and_vjp_equal_the_one_thread_rules(rows, d_in, d_out, relu, zeros):
    rng = np.random.default_rng([rows or 0, d_in, d_out])
    h = rng.normal(size=(d_in,) if rows is None else (rows, d_in))
    w, b = rng.normal(size=(d_out, d_in)), rng.normal(size=d_out)
    if zeros:
        # a product of one term is -0.0 where the matmul sums to +0.0
        h[..., ::3], w[::2], b[::3] = 0.0, -0.0, -0.0
    z = ad._dense_fwd(relu, (h, w, b))
    assert _bytes(z) == _bytes(_serial_fwd(relu, h, w, b))
    g = rng.normal(size=z.shape)
    if zeros:
        g[..., ::2] = 0.0
    got = _vjp(relu, g, z, h, w, b)
    assert _bytes(*got) == _bytes(*_serial_vjp(relu, g, z, h, w))


class _Counting:
    """The worker, recording the future of every task submitted to it."""

    def __init__(self, pool):
        self.pool, self.tasks = pool, []

    def submit(self, fn, *args):
        self.tasks.append(self.pool.submit(fn, *args))
        return self.tasks[-1]


def _count_tasks(monkeypatch):
    pool = ad._worker()
    counting = _Counting(pool)
    monkeypatch.setattr(ad, "_worker", lambda: None if pool is None else counting)
    return counting.tasks


def test_only_products_of_split_rows_reach_the_worker(monkeypatch):
    tasks = _count_tasks(monkeypatch)
    rng = np.random.default_rng(0)
    w, b = rng.normal(size=(8, 4)), np.zeros(8)
    seen = {}
    for rows in (_T - 1, _T):
        h = rng.normal(size=(rows, 4))
        tape = ad.record(lambda p: ad.sqdist(ad.dense(h, p[0], p[1], True), 0.0), [w, b])[1]
        forward = len(tasks)
        ad.backward(tape)
        seen[rows] = (forward, len(tasks) - forward)
        tasks.clear()
    # the forward's row split and the VJP's deferred sums, one task each
    split = 1 if ad._worker() is not None else 0
    assert seen == {_T - 1: (0, 0), _T: (split, split)}


def _tied_loss(h_big, h_small, c):
    """One weight and bias feeding, in sweep order, a SPLIT_ROWS-row product,
    a 100-row product, a lincomb, a product through a non-leaf weight and
    another large product."""
    def build(p):
        w, b = p
        first = ad.dense(h_big, w, b, True)
        through = ad.dense(h_big, w * 0.5, b, False)
        comb = ad.lincomb(w, (0.25,), [c])
        small = ad.dense(h_small, w, b, True)
        last = ad.dense(h_big[::-1], w, b, False)
        terms = [ad.sqdist(t, 0.0) for t in (first, through, comb, small, last)]
        return terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
    return build


def test_shared_parameter_gradients_equal_the_inline_sweep(monkeypatch):
    rng = np.random.default_rng(3)
    w, b = rng.normal(size=(16, 8)), rng.normal(size=16)
    build = _tied_loss(rng.normal(size=(_T, 8)), rng.normal(size=(100, 8)), rng.normal(size=(16, 8)))
    rule = ad._vjp_dense

    def slow(*args):
        got = rule(*args)
        if not callable(got[-1]):
            return got

        def later():
            time.sleep(0.05)  # the sweep runs ahead of the worker
            return got[-1]()

        return got[:-1] + (later,)

    monkeypatch.setitem(ad._VJP, "dense", slow)
    got = ad.backward(ad.record(build, [w, b])[1])
    monkeypatch.setattr(ad, "_split", lambda rows: False)
    want = ad.backward(ad.record(build, [w, b])[1])
    assert _bytes(*got) == _bytes(*want)


def test_a_deferred_sum_that_raises_surfaces_from_backward(monkeypatch):
    tasks = _count_tasks(monkeypatch)
    rng = np.random.default_rng(4)
    w, b = rng.normal(size=(16, 8)), rng.normal(size=16)
    build = _tied_loss(rng.normal(size=(_T, 8)), rng.normal(size=(100, 8)), rng.normal(size=(16, 8)))
    want = ad.backward(ad.record(build, [w, b])[1])
    rule, calls = ad._vjp_dense, []

    def failing(aux, g, out, h, w, b):
        gh, *sums = rule(aux, g, out, h, w, b)
        calls.append(1)
        first = len(calls) == 1

        def later():
            if first:
                raise FloatingPointError("deferred sum")
            time.sleep(0.02)  # still running when a sweep that did not wait returns
            return sums[0]() if callable(sums[0]) else sums

        # deferred here even where the rule computes the sums at once
        return gh, later

    monkeypatch.setitem(ad._VJP, "dense", failing)
    tape = ad.record(build, [w, b])[1]
    with pytest.raises(FloatingPointError, match="deferred sum"):
        ad.backward(tape)
    assert all(task.done() for task in tasks)
    # the worker goes on serving the next sweep
    monkeypatch.setitem(ad._VJP, "dense", rule)
    assert _bytes(*ad.backward(tape)) == _bytes(*want)


def _split_in_child(h, w, b, want, done):
    done.put(ad._dense_fwd(True, (h, w, b)).tobytes() == want)


def test_a_forked_child_splits_on_a_worker_of_its_own():
    # the parent's worker thread does not survive the fork
    rng = np.random.default_rng(1)
    h, w, b = rng.normal(size=(_T, 8)), rng.normal(size=(8, 8)), rng.normal(size=8)
    want = ad._dense_fwd(True, (h, w, b)).tobytes()
    ctx = multiprocessing.get_context("fork")
    done = ctx.Queue()
    child = ctx.Process(target=_split_in_child, args=(h, w, b, want, done))
    child.start()
    try:
        assert done.get(timeout=60)
        child.join(10)
        assert child.exitcode == 0
    finally:
        child.kill()


def test_callers_on_many_threads_share_the_worker(monkeypatch):
    # more calling threads than cores, switching often: every forward and
    # every sweep must still give its own serial bytes
    rng = np.random.default_rng(2)
    w, b = rng.normal(size=(16, 8)), rng.normal(size=16)
    hs = [rng.normal(size=(_T + k, 8)) for k in range(6)]
    want = [_serial_fwd(True, h, w, b).tobytes() for h in hs]
    builds = [_tied_loss(h, h[:100], rng.normal(size=(16, 8))) for h in hs]
    with monkeypatch.context() as inline:
        inline.setattr(ad, "_split", lambda rows: False)
        want_grads = [_bytes(*ad.backward(ad.record(build, [w, b])[1])) for build in builds]
    got = [None] * len(hs)

    def run(k):
        got[k] = all(
            ad._dense_fwd(True, (hs[k], w, b)).tobytes() == want[k]
            and _bytes(*ad.backward(ad.record(builds[k], [w, b])[1])) == want_grads[k]
            for _ in range(5)
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(len(hs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [True] * len(hs)


# One L96 desk training step (batch 100, window 5, per-component net on
# K = 36) in a fresh process with one BLAS thread; prints the sha256 of the
# loss and gradients and whether the worker thread started.
_DESK_STEP = """
import hashlib, os, sys
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
from sgnode import autodiff as ad, lorenz96, mlp, training
lcfg = lorenz96.L96Config(K=36, J=10, F=6.0, source_scope="per_component")
trajs = lorenz96.generate_truth(lcfg, 2, 0.005, 0.1, 0.1, seed=11)
tcfg = training.TrainConfig(epochs=1, batch_size=100, window=5, dt=0.005,
                            tableau="rk4", seed=3, split=1.0)
batch = training.sample_windows(trajs, tcfg, epoch_seed=[3, 101, 1, 0])
builder = lambda ws, bs: lorenz96.rhs_coupled_neural(lcfg, ws, bs)
loss, tape = training.node_loss(mlp.init_params(1, 1, seed=5), batch, builder, "rk4")
digest = hashlib.sha256(np.float64(loss).tobytes())
for g in ad.backward(tape):
    digest.update(g.tobytes())
print(digest.hexdigest(), ad._worker.cache_info().currsize > 0 and ad._worker() is not None)
"""


def _desk_step(cpus):
    env = dict(os.environ, PYTHONPATH=str(Path(ad.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _DESK_STEP, cpus], env=env,
                          capture_output=True, text=True, check=True)
    digest, pooled = proc.stdout.split()
    return digest, pooled == "True"


def test_an_l96_desk_step_on_one_cpu_equals_the_pooled_step():
    one, pooled = _desk_step("one"), _desk_step("all")
    assert one[0] == pooled[0]
    assert not one[1]  # one CPU starts no thread
    assert pooled[1] == (len(os.sched_getaffinity(0)) > 1)


def _openblas_threads():
    """The live thread count of the OpenBLAS that numpy loaded, or None."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    names = ("openblas_get_num_threads", "openblas_get_num_threads64_",
             "scipy_openblas_get_num_threads", "scipy_openblas_get_num_threads64_")
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = (), ctypes.c_int
                return get()
    return None


def test_the_suite_runs_blas_on_the_pinned_thread_count():
    # conftest.py sets the count, to 1 unless it is set already, before
    # numpy loads OpenBLAS, which reads it once
    live = _openblas_threads()
    if live is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread count")
    assert live == int(os.environ["OPENBLAS_NUM_THREADS"])
