"""Metric definitions of the rqet benchmark.

END_TO_END metrics come from untraced runs (`--trace 0`), PER_LAYER
metrics from traced runs (`--trace 1`).  Each per-layer entry names the
end-to-end metric and workload it is expected to move; BENCHMARK.json
carries the same names, units and directions.  Layer counts and times
are divided by the number of solves in the traced run.  `flop_est` is
computed from slot counts and matrix dimensions, not counted.
"""

from __future__ import annotations

# name, unit, better, bound.  The report also gives, per run, the tail
# percentile (p90 needs a hundred solves, which only small-mix reaches),
# solves per second (a mean over solves, which the host's speed switches
# spread about twice as wide as the median on scalar-deep) and the
# failure ratio (0 on working code, and a gated metric must never be 0;
# the result line carries `attempted` and `failed`).
END_TO_END = [
    ("solve_p50_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("setup_s", "s", "lower", 0.25),
]

_SMALL = "solve_p50_s on small-mix"
_DEEP = "solve_p50_s on scalar-deep"
_D64_SMALL = "solve_p50_s on matrix-d64 and small-mix"
_GUARD = "none; guards correctness"

# name, unit, better, expected to move
PER_LAYER = [
    ("qsp.pade_phases.calls", "count/solve", "lower", _SMALL),
    ("qsp.pade_phases.total_s", "s/solve", "lower", _SMALL),
    ("qsp.pade_phases.repeat_ratio", "ratio", "lower", _SMALL),
    ("qsp.find_phases_rotation.total_s", "s/solve", "lower", _SMALL),
    ("qsp.reflection_upper_left.total_s", "s/solve", "lower", _DEEP),
    ("qsp.reflection_upper_left.phase_points", "count/solve", "lower", _DEEP),
    ("kernels.phase_chain.total_s", "s/solve", "lower", _DEEP),
    ("qet.compose_phases.total_s", "s/solve", "lower",
     "solve_p50_s and peak_rss_mb on scalar-deep; solve_p50_s on small-mix"),
    ("qet.compose_phases.phases_out", "count/solve", "lower",
     "solve_p50_s and peak_rss_mb on scalar-deep; solve_p50_s on small-mix"),
    ("qet.qet_assemble.total_s", "s/solve", "lower", "solve_p50_s on small-mix and matrix-d64"),
    ("qet.qet_assemble.slots", "count/solve", "lower", "solve_p50_s on small-mix and matrix-d64"),
    ("qet.qet_assemble.flop_est", "flop/solve", "lower", "solve_p50_s on small-mix and matrix-d64"),
    ("linalg.hermitian_eig.calls", "count/solve", "lower", _D64_SMALL),
    ("linalg.hermitian_eig.total_s", "s/solve", "lower", _D64_SMALL),
    ("linalg.hermitian_eig.repeat_ratio", "ratio", "lower", _D64_SMALL),
    ("kernels.jacobi_sweeps.total_s", "s/solve", "lower", _D64_SMALL),
    ("kernels.jacobi_sweeps.sweeps", "count/solve", "lower", _D64_SMALL),
    ("linalg.operator_norm.calls", "count/solve", "lower", _D64_SMALL),
    ("linalg.operator_norm.total_s", "s/solve", "lower", _D64_SMALL),
    ("blockenc.dilate_hermitian.total_s", "s/solve", "lower", _D64_SMALL),
    ("blockenc.dilate_general.total_s", "s/solve", "lower", _SMALL),
    ("qsvt.qsvt_assemble.total_s", "s/solve", "lower", _SMALL),
    ("qsvt.qsvt_assemble.slots", "count/solve", "lower", _SMALL),
    ("layer.qsp.self_s", "s/solve", "lower", "solve_p50_s on small-mix and scalar-deep"),
    ("layer.kernels.self_s", "s/solve", "lower", "solve_p50_s on every workload"),
    ("layer.qet.self_s", "s/solve", "lower", "solve_p50_s on every workload"),
    ("layer.linalg.self_s", "s/solve", "lower", _D64_SMALL),
    ("layer.blockenc.self_s", "s/solve", "lower", _D64_SMALL),
    ("layer.qsvt.self_s", "s/solve", "lower", _SMALL),
    ("blockenc.unitarity_dev", "dist", "lower", _GUARD),
    ("qet.mode_agreement", "dist", "lower", _GUARD),
    ("trace.coverage", "ratio", "higher", "none; below 0.9 a layer is missing from the trace"),
    ("trace.overhead", "ratio", "lower", "none; traced over untraced solve_p50_s, minus 1"),
]
