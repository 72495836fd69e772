"""Names, units and meaning of every metric the benchmark reports.

BENCHMARK.json lists the same end-to-end and per-layer metrics; the
self-test checks that the two agree.  The last field of each ``PER_LAYER``
entry names the end-to-end figure (as named in README.md) that the layer
metric is expected to move, and on which workload, so a later change can
say beforehand which numbers should shift.
"""

# name -> (unit, better, bound)
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "work_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

# Op kinds a taped loss records today; anything else is counted as "other".
TAPE_OPS = (
    "leaf", "add", "sub", "mul", "neg", "smul", "sadd", "matmul", "relu",
    "abs", "max2", "square", "sumall", "reshape", "transpose", "roll",
    "narrow", "concat", "repeat", "other",
)

PREDICT_VARIANTS = ("high", "low", "augmented", "discrete", "low2", "low3", "slow")

# name -> (unit, better, what it should move)
PER_LAYER = {
    "autodiff.backward.ms": ("ms", "lower", "windows_per_s, epoch_ms_p50 (train-cd, train-l96)"),
    "autodiff.backward.calls": ("count", "lower", "control: one per timed epoch"),
    "autodiff.tape.nodes": ("count", "lower", "windows_per_s (train-cd)"),
    "autodiff.tape.leaves": ("count", "lower", "windows_per_s (train-cd)"),
    "autodiff.tape.bytes": ("bytes", "lower", "peak_rss_mb, windows_per_s (train-l96); computed from Tape.vals"),
    "training.node_loss.self_ms": ("ms", "lower", "windows_per_s (train-*): tape record outside dg, lorenz96 and mlp"),
    "training.sample_windows.ms": ("ms", "lower", "control: <1% of a step, should not move windows_per_s"),
    "training.opt_step.ms": ("ms", "lower", "control: <1% of a step, should not move windows_per_s"),
    "training.rollout_loss_value.ms": ("ms", "lower", "epoch_ms_tail (train-*)"),
    "mlp.forward.ms": ("ms", "lower", "windows_per_s, peak_rss_mb (train-l96)"),
    "mlp.forward.calls": ("count", "lower", "windows_per_s (train-l96)"),
    "mlp.forward.rows": ("count", "lower", "windows_per_s (train-l96)"),
    "dg.rhs.self_ms": ("ms", "lower", "windows_per_s (train-cd); generate_s, predict_*_s (solve)"),
    "dg.rhs.calls": ("count", "lower", "windows_per_s (train-cd); generate_s (solve)"),
    "lorenz96.rhs.self_ms": ("ms", "lower", "windows_per_s (train-l96); predict_low_s, predict_high_s (solve)"),
    "lorenz96.rhs.calls": ("count", "lower", "windows_per_s (train-l96)"),
    "ode.erk_step.self_ms": ("ms", "lower", "generate_s, predict_*_s (solve)"),
    "ode.erk_step.calls": ("count", "lower", "generate_s, predict_*_s (solve)"),
    "ode.integrate.self_ms": ("ms", "lower", "generate_s, predict_*_s (solve)"),
    "ode.save_trajectory.ms": ("ms", "lower", "generate_s (solve)"),
    "ode.save_trajectory.bytes": ("bytes", "lower", "generate_s (solve)"),
    "experiments.sha256_file.ms": ("ms", "lower", "generate_s (solve)"),
    "experiments.generate.self_ms": ("ms", "lower", "generate_s (solve): filtering and set-up outside the solver"),
    "experiments.load_dataset.ms": ("ms", "lower", "setup_s (train-*)"),
    **{
        f"experiments.predict.{v}.ms": (
            "ms", "lower", "predict_high_s (solve)" if v == "high" else "predict_low_s (solve)"
        )
        for v in PREDICT_VARIANTS
    },
    **{
        f"autodiff.tape.nodes.{op}": ("count", "lower", "windows_per_s (train-*)")
        for op in TAPE_OPS
    },
    "trace.unaccounted_ms": ("ms", "lower", "timed work outside every span: loop glue of the workload"),
    "trace.unaccounted_pct": ("%", "lower", "share of the traced work outside every span"),
    "trace.overhead_pct": ("%", "lower", "traced minus untraced work time, as a share of untraced"),
}
