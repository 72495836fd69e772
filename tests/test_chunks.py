"""A training step and the held-out loss run fixed chunks of windows, the
odd ones on a thread that lives for the call; their losses and gradients
are the same bytes on one CPU as on two.

These tests also run under ``taskset -c 0``, where neither starts a thread.
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

from sgnode import autodiff as ad, experiments, lorenz96, mlp, training
from sgnode.config import load_config
from sgnode.errors import BlowupError

ROOT = Path(__file__).resolve().parents[1]


def _bytes(loss, grads):
    return np.float64(loss).tobytes(), [(g.shape, g.tobytes()) for g in grads]


def _state_dim(cfg):
    if cfg.experiment == "l96":
        lcfg = experiments.l96_config(cfg.model)
        return lcfg.K * (lcfg.J + 1)
    return experiments.pde_meshes(cfg.model)[1].n_dof


@pytest.mark.parametrize("name,chunks", [
    # the per-component net takes 36 rows a window, 3600 a batch of 100
    ("l96-desk", 4), ("cd-desk", 1), ("burgers-desk", 1), ("l96-paper", 1),
])
def test_the_chunk_count_of_each_config(name, chunks):
    cfg = load_config(ROOT / "configs" / f"{name}.json")
    n, m, d = cfg.training.batch_size, cfg.training.window, _state_dim(cfg)
    batch = training.WindowBatch(np.zeros((n, d)), np.zeros((m, n, d)), cfg.training.dt)
    params = mlp.zero_params(*experiments.source_dims(cfg))
    assert training.chunk_count(batch, experiments.rhs_builder_for(cfg), params) == chunks


def test_a_chunk_holds_at_least_one_window():
    # a per-entry net on 1500 entries a window: 3000 rows for two windows
    batch = training.WindowBatch(np.zeros((2, 1500)), np.zeros((1, 2, 1500)), 0.1)
    builder = lambda ws, bs: lambda u: mlp.forward_per_component(ws, bs, u)
    assert training.chunk_count(batch, builder, mlp.zero_params(1, 1)) == 2


@pytest.mark.parametrize("experiment", ["l96", "cd", "burgers"])
def test_a_one_chunk_step_is_node_loss_and_backward(experiment):
    batch, builder, params = experiments.window_problem(experiment, seed=2)
    loss, tape = training.node_loss(params, batch, builder, "rk4")
    want = _bytes(loss, ad.backward(tape))
    assert _bytes(*training.step_grads(params, batch, builder, "rk4")) == want


def test_chunks_sum_their_weighted_parts_in_order(monkeypatch):
    # windows 0, 1 and 2:4 of a batch of 4, each weighted by its share
    batch, builder, params = experiments.window_problem("cd", seed=4)
    loss, grads = None, None
    for lo, hi in ((0, 1), (1, 2), (2, 4)):
        part = training.WindowBatch(batch.x0[lo:hi], batch.targets[:, lo:hi], batch.dt)
        part_loss, tape = training.node_loss(params, part, builder, "rk4")
        share = (hi - lo) / 4
        part_grads = [g * share for g in ad.backward(tape)]
        if loss is None:
            loss, grads = part_loss * share, part_grads
        else:
            loss += part_loss * share
            grads = [g + h for g, h in zip(grads, part_grads)]
    want = _bytes(loss, grads)
    got = training.step_grads(params, batch, builder, "rk4", chunks=3)
    assert _bytes(*got) == want
    monkeypatch.setattr(training, "_two_cpus", lambda: False)
    assert _bytes(*training.step_grads(params, batch, builder, "rk4", chunks=3)) == want
    # and the whole batch's gradient, to reassociation roundoff
    whole, tape = training.node_loss(params, batch, builder, "rk4")
    assert got[0] == pytest.approx(whole, rel=1e-14)
    for g, w in zip(got[1], ad.backward(tape)):
        assert np.abs(g - w).max() <= 1e-14 * np.abs(w).max()


@pytest.mark.parametrize("experiment", ["l96", "cd", "burgers"])
def test_a_one_chunk_held_out_loss_is_rollout_loss_value(experiment):
    batch, builder, params = experiments.window_problem(experiment, seed=2)
    want = np.float64(training.rollout_loss_value(params, batch, builder, "rk4")).tobytes()
    assert np.float64(training.held_out_loss(params, batch, builder, "rk4")).tobytes() == want


def test_held_out_chunks_sum_their_weighted_parts_in_order(monkeypatch):
    # windows 0, 1 and 2:4 of a batch of 4, each weighted by its share
    batch, builder, params = experiments.window_problem("cd", seed=4)
    loss = None
    for lo, hi in ((0, 1), (1, 2), (2, 4)):
        part = training.WindowBatch(batch.x0[lo:hi], batch.targets[:, lo:hi], batch.dt)
        part_loss = training.rollout_loss_value(params, part, builder, "rk4") * ((hi - lo) / 4)
        loss = part_loss if loss is None else loss + part_loss
    want = np.float64(loss).tobytes()
    got = training.held_out_loss(params, batch, builder, "rk4", chunks=3)
    assert np.float64(got).tobytes() == want
    monkeypatch.setattr(training, "_two_cpus", lambda: False)
    assert np.float64(training.held_out_loss(params, batch, builder, "rk4", chunks=3)).tobytes() \
        == want
    # and the whole batch's loss, to reassociation roundoff
    whole = training.rollout_loss_value(params, batch, builder, "rk4")
    assert abs(got - whole) <= 1e-15 * whole


def _l96_desk_step():
    """An L96 desk batch (100 windows of 5 RK4 steps, per-component net on
    K = 36: four chunks), its right-hand side builder and a net."""
    lcfg = lorenz96.L96Config(K=36, J=10, F=6.0, source_scope="per_component")
    trajs = lorenz96.generate_truth(lcfg, 2, 0.005, 0.1, 0.1, seed=11)
    cfg = training.TrainConfig(epochs=2, batch_size=100, window=5, dt=0.005,
                               tableau="rk4", seed=3, split=1.0)
    builder = lambda ws, bs: lorenz96.rhs_coupled_neural(lcfg, ws, bs)
    return trajs, cfg, builder, mlp.init_params(1, 1, seed=5)


def _poison(monkeypatch, epoch, rows, stream=101):
    """sample_windows, with rows[r] added to entry 0 of window r's initial
    state in `epoch`'s training batch (stream 101) or held-out batch (202)."""
    sample = training.sample_windows

    def poisoned(trajs, cfg, epoch_seed, ranges=None):
        batch = sample(trajs, cfg, epoch_seed, ranges)
        if epoch_seed[1:] == [stream, epoch]:
            for r, v in rows.items():
                batch.x0[r, 0] += v
        return batch

    monkeypatch.setattr(training, "sample_windows", poisoned)


def test_a_blowup_in_chunk_3_names_its_epoch_step_and_sample(monkeypatch):
    trajs, cfg, builder, _ = _l96_desk_step()
    _poison(monkeypatch, 2, {80: 1e4})  # window 80 is window 5 of chunk 3
    with pytest.raises(BlowupError) as e:
        training.train(trajs, cfg, builder, 1, 1)
    err = e.value
    assert (err.epoch, err.step, err.stage, err.sample) == (2, 1, 0, 80)
    assert str(err) == ("training rollout blew up at epoch 2: non-finite or blown-up "
                        "value at stage 0 of step 1 (t=0.005), sample 80")


def test_a_held_out_blowup_in_chunk_3_names_its_epoch_step_and_sample(monkeypatch):
    trajs, cfg, builder, _ = _l96_desk_step()
    cfg.split, cfg.test_every = 0.5, 1
    _poison(monkeypatch, 2, {80: 1e100}, stream=202)  # window 5 of chunk 3
    with pytest.raises(BlowupError) as e:
        training.train(trajs, cfg, builder, 1, 1)
    err = e.value
    assert (err.epoch, err.step, err.stage, err.sample) == (2, 0, 0, 80)
    assert str(err) == ("held-out windows: training rollout blew up at epoch 2: non-finite "
                        "or blown-up value at stage 0 of step 0 (t=0), sample 80")


# 1e4 blows up in step 1, 1e100 in step 0
@pytest.mark.parametrize("rows,sample,step", [
    # chunk 1 before chunk 3, both the chunk thread's
    ({30: 1e4, 80: 1e100}, 30, 1),
    # chunk 2, this thread's, blows up later in its rollout than chunk 3
    ({60: 1e4, 80: 1e100}, 60, 1),
    # chunk 1, the chunk thread's, before chunk 2, which blows up sooner
    ({30: 1e4, 60: 1e100}, 30, 1),
    # chunk 0 before chunk 1
    ({10: 1e4, 30: 1e100}, 10, 1),
    ({20: 1e100, 30: 1e4}, 20, 0),
])
def test_the_lowest_numbered_failing_chunk_is_raised(monkeypatch, rows, sample, step):
    trajs, cfg, builder, params = _l96_desk_step()
    batch = training.sample_windows(trajs, cfg, epoch_seed=[3, 101, 1])
    for r, v in rows.items():
        batch.x0[r, 0] += v
    with pytest.raises(BlowupError) as e:
        training.step_grads(params, batch, builder, "rk4", chunks=4)
    assert (e.value.sample, e.value.step) == (sample, step)


def _logged_chunks(monkeypatch, fail):
    """_chunk_grads, logging ("start" | "end", chunk, thread ident) for each
    chunk of 4 of the cd window problem: chunk 1 takes 0.2 s more, and chunk
    `fail`, if any, raises once chunk 1 has started.  Starts a thread per
    step, as on two CPUs, even on one."""
    batch, builder, params = experiments.window_problem("cd", seed=1)
    chunk_of = {batch.size * j // 4: j for j in range(4)}
    log, started = [], threading.Event()
    grads = training._chunk_grads

    def logged(params, batch, lo, *args):
        j = chunk_of[lo]
        log.append(("start", j, threading.get_ident()))
        if j == 1:
            started.set()
            time.sleep(0.2)
        if j == fail:
            assert started.wait(10)
            raise FloatingPointError(f"chunk {j}")
        out = grads(params, batch, lo, *args)
        log.append(("end", j, threading.get_ident()))
        return out

    monkeypatch.setattr(training, "_two_cpus", lambda: True)
    monkeypatch.setattr(training, "_chunk_grads", logged)
    return log, lambda: training.step_grads(params, batch, builder, "rk4", chunks=4)


def test_an_error_leaves_once_the_started_chunk_is_done(monkeypatch):
    log, step = _logged_chunks(monkeypatch, fail=0)
    with pytest.raises(FloatingPointError, match="chunk 0"):
        step()
    # chunk 1 ended before the error left, and chunk 3 was cancelled unstarted
    assert sorted(event[:2] for event in log) == [("end", 1), ("start", 0), ("start", 1)]


@pytest.mark.parametrize("fail", [None, 0, 1])
def test_no_thread_a_step_starts_outlives_it(monkeypatch, fail):
    log, step = _logged_chunks(monkeypatch, fail)
    before = threading.active_count()
    if fail is None:
        step()
    else:
        with pytest.raises(FloatingPointError, match=f"chunk {fail}"):
            step()
    assert threading.active_count() == before
    # chunk 1 ran on a second thread, which is gone
    ((_, _, ident),) = [event for event in log if event[:2] == ("start", 1)]
    assert ident != threading.get_ident()
    assert ident not in {t.ident for t in threading.enumerate()}


def test_callers_on_many_threads_get_the_bytes_of_one():
    # more calling threads than cores, each step starting its own chunk
    # thread, switching often: every step must still give the bytes of the
    # same step run alone
    problems = [experiments.window_problem(exp, seed=5) for exp in ("cd", "burgers", "l96")]
    want = [_bytes(*training.step_grads(p, b, f, "rk4", chunks=4)) for b, f, p in problems]
    got = [None] * 6

    def run(k):
        batch, builder, params = problems[k % 3]
        got[k] = all(
            _bytes(*training.step_grads(params, batch, builder, "rk4", chunks=4)) == want[k % 3]
            for _ in range(5)
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [True] * 6


def _step_in_child(done):
    batch, builder, params = experiments.window_problem("burgers", seed=3)
    done.put(_bytes(*training.step_grads(params, batch, builder, "rk4", chunks=4)))


def test_a_forked_child_steps_to_the_bytes_of_its_parent():
    # a child forked after the parent has stepped starts its own chunk thread
    batch, builder, params = experiments.window_problem("burgers", seed=3)
    want = _bytes(*training.step_grads(params, batch, builder, "rk4", chunks=4))
    ctx = multiprocessing.get_context("fork")
    done = ctx.Queue()
    child = ctx.Process(target=_step_in_child, args=(done,))
    child.start()
    try:
        assert done.get(timeout=60) == want
        child.join(10)
        assert child.exitcode == 0
    finally:
        child.kill()


# One L96 desk training step and held-out loss in a fresh process with one
# BLAS thread; prints the chunk count, the sha256 of the loss, gradients and
# held-out loss, and whether a second thread ran a chunk of each.
_DESK_STEP = """
import hashlib, os, sys, threading
if sys.argv[1] == "one":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import numpy as np
sys.path.insert(0, sys.argv[2])
from test_chunks import _l96_desk_step
from sgnode import training
trajs, cfg, builder, params = _l96_desk_step()
batch = training.sample_windows(trajs, cfg, epoch_seed=[3, 101, 1, 0])
chunks = training.chunk_count(batch, builder, params)
idents = {"_chunk_grads": set(), "_chunk_loss_value": set()}
def logged(name, fn):
    def run(*args):
        idents[name].add(threading.get_ident())
        return fn(*args)
    return run
for name in idents:
    setattr(training, name, logged(name, getattr(training, name)))
loss, grads = training.step_grads(params, batch, builder, "rk4", chunks)
digest = hashlib.sha256(np.float64(loss).tobytes())
for g in grads:
    digest.update(g.tobytes())
held_out = training.sample_windows(trajs, cfg, epoch_seed=[3, 202, 1, 0])
digest.update(np.float64(training.held_out_loss(params, held_out, builder, "rk4", chunks)).tobytes())
print(chunks, digest.hexdigest(), *(len(ids) > 1 for ids in idents.values()))
"""


def _desk_step(cpus):
    env = dict(os.environ, PYTHONPATH=str(Path(training.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", _DESK_STEP, cpus, str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, check=True)
    chunks, digest, *started = proc.stdout.split()
    return int(chunks), digest, [flag == "True" for flag in started]


def test_an_l96_desk_step_on_one_cpu_equals_the_step_on_two():
    one, two = _desk_step("one"), _desk_step("all")
    assert one[:2] == two[:2] and one[0] == 4
    assert one[2] == [False, False]  # one CPU starts no thread
    assert two[2] == [len(os.sched_getaffinity(0)) > 1] * 2


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
    # conftest.py imports sgnode, which pins the count to 1, before numpy
    # loads OpenBLAS, which reads it once
    live = _openblas_threads()
    if live is None:
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread count")
    assert live == 1 and os.environ["OPENBLAS_NUM_THREADS"] == "1"
