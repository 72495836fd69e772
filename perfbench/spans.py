"""Spans around the public callables of the sgnode modules.

The benchmark never edits the package: ``instrument`` swaps module
attributes for timing wrappers and returns a function that puts the
originals back.  Each wrapped call is one span.  Its self time is its
duration minus the time of the spans it encloses, so a layer that calls
another (an RK step calling the DG tendency) is charged only for its own
work.  Spans are folded into per-name totals as they close, which keeps
memory flat over the hundreds of thousands of calls a solve makes.
"""

from __future__ import annotations

import functools
import os
import time
from collections import Counter

import numpy as np

from metrics import TAPE_OPS


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = Counter()
        self.self_s = Counter()
        self.root_s = Counter()  # time of spans opened inside no other span
        self.counts = Counter()  # work counters recorded at span boundaries
        self._open = []          # child time accumulated by each open span

    def wrap(self, name, fn, counter=None):
        """`fn` timed as span `name` (a string, or a callable of the call's
        arguments returning one); `counter(args, result)` may add counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(*args, **kwargs)
            child = [0.0]
            self._open.append(child)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dur
                else:
                    self.root_s[label] += dur
                self.calls[label] += 1
                self.total_s[label] += dur
                self.self_s[label] += dur - child[0]
            if counter is not None:
                for key, n in counter(args, out).items():
                    self.counts[key] += n
            return out

        return traced

    def table(self):
        """Calls, and total, self and root milliseconds of every span name."""
        return {
            name: {"calls": n, "total_ms": self.total_s[name] * 1e3,
                   "self_ms": self.self_s[name] * 1e3, "root_ms": self.root_s[name] * 1e3}
            for name, n in self.calls.items()
        }


def instrument(tracer, sg):
    """Wrap the layer boundaries of the sgnode modules in `sg`; returns undo()."""
    saved = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def rhs_factory(label, factory):
        # the factories return Rhs objects or bare closures; time every call
        # of the returned tendency, not its construction
        @functools.wraps(factory)
        def make(*args, **kwargs):
            rhs = factory(*args, **kwargs)
            if isinstance(rhs, sg.ode.Rhs):
                return sg.ode.Rhs(tracer.wrap(label, rhs.fn), rhs.dim)
            return tracer.wrap(label, rhs)

        return make

    patch(sg.dg, "rhs_semidiscrete", rhs_factory("dg.rhs", sg.dg.rhs_semidiscrete))
    for attr in ("rhs_coupled", "rhs_coupled_neural", "rhs_slow_neural"):
        patch(sg.lorenz96, attr, rhs_factory("lorenz96.rhs", getattr(sg.lorenz96, attr)))
    patch(sg.mlp, "forward", tracer.wrap(
        "mlp.forward", sg.mlp.forward, lambda a, out: {"mlp.forward.rows": a[2].shape[0]}
    ))
    patch(sg.ad, "backward", tracer.wrap("autodiff.backward", sg.ad.backward))

    erk = tracer.wrap("ode.erk_step", sg.ode.erk_step)
    integrate = tracer.wrap("ode.integrate", sg.ode.integrate)
    patch(sg.ode, "erk_step", erk)        # the steps inside ode.integrate
    patch(sg.training, "erk_step", erk)
    patch(sg.training, "integrate", integrate)
    patch(sg.experiments, "integrate", integrate)
    patch(sg.lorenz96, "integrate", integrate)

    for attr in ("sample_windows", "node_loss", "opt_step", "rollout_loss_value"):
        patch(sg.training, attr, tracer.wrap(f"training.{attr}", getattr(sg.training, attr)))

    patch(sg.experiments, "save_trajectory", tracer.wrap(
        "ode.save_trajectory", sg.experiments.save_trajectory,
        lambda a, out: {"ode.save_trajectory.bytes": os.path.getsize(a[1])},
    ))
    for attr in ("sha256_file", "generate", "load_dataset"):
        patch(sg.experiments, attr, tracer.wrap(f"experiments.{attr}", getattr(sg.experiments, attr)))
    patch(sg.experiments, "predict", tracer.wrap(
        lambda cfg, params, u0, dt, n_steps, variant, t0=0.0: f"experiments.predict.{variant}",
        sg.experiments.predict,
    ))

    def undo():
        for module, attr, orig in reversed(saved):
            setattr(module, attr, orig)

    return undo


def tape_stats(tape):
    """Exact node, leaf and per-op counts of a recorded tape, plus the bytes
    its stored forward values take."""
    ops = Counter(name for name, _, _ in tape.ops)
    out = {f"autodiff.tape.nodes.{op}": ops.pop(op, 0) for op in TAPE_OPS if op != "other"}
    out["autodiff.tape.nodes.other"] = sum(ops.values())
    out["autodiff.tape.nodes"] = len(tape.ops)
    out["autodiff.tape.leaves"] = out["autodiff.tape.nodes.leaf"]
    out["autodiff.tape.bytes"] = int(sum(np.asarray(v).nbytes for v in tape.vals))
    return out


def layer_metrics(tracer, work_label):
    """Per-layer figures in milliseconds and counts from a finished trace."""
    def ms(seconds):
        return seconds * 1e3

    m = {
        "autodiff.backward.ms": ms(tracer.total_s["autodiff.backward"]),
        "autodiff.backward.calls": tracer.calls["autodiff.backward"],
        "training.node_loss.self_ms": ms(tracer.self_s["training.node_loss"]),
        "mlp.forward.ms": ms(tracer.total_s["mlp.forward"]),
        "mlp.forward.calls": tracer.calls["mlp.forward"],
        "mlp.forward.rows": tracer.counts["mlp.forward.rows"],
        "dg.rhs.self_ms": ms(tracer.self_s["dg.rhs"]),
        "dg.rhs.calls": tracer.calls["dg.rhs"],
        "lorenz96.rhs.self_ms": ms(tracer.self_s["lorenz96.rhs"]),
        "lorenz96.rhs.calls": tracer.calls["lorenz96.rhs"],
        "ode.erk_step.self_ms": ms(tracer.self_s["ode.erk_step"]),
        "ode.erk_step.calls": tracer.calls["ode.erk_step"],
        "ode.integrate.self_ms": ms(tracer.self_s["ode.integrate"]),
        "ode.save_trajectory.ms": ms(tracer.total_s["ode.save_trajectory"]),
        "ode.save_trajectory.bytes": tracer.counts["ode.save_trajectory.bytes"],
        "experiments.sha256_file.ms": ms(tracer.total_s["experiments.sha256_file"]),
        "experiments.generate.self_ms": ms(tracer.self_s["experiments.generate"]),
        "experiments.load_dataset.ms": ms(tracer.total_s["experiments.load_dataset"]),
    }
    for attr in ("sample_windows", "opt_step", "rollout_loss_value"):
        m[f"training.{attr}.ms"] = ms(tracer.total_s[f"training.{attr}"])
    for name, total in tracer.total_s.items():
        if name.startswith("experiments.predict."):
            m[f"{name}.ms"] = ms(total)
    m["trace.unaccounted_ms"] = ms(tracer.self_s[work_label])
    m["trace.unaccounted_pct"] = 100.0 * tracer.self_s[work_label] / tracer.total_s[work_label]
    return m
