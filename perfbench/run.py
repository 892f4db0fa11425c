"""rqet benchmark: time to a verified solve on three driver workloads.

Run from the repository root:

    python3 perfbench/run.py --workload scalar-deep --seed 1 --seconds 30 --trace 0

Workloads: scalar-deep, matrix-d64, small-mix (see workloads.py).  The
benchmark imports rqet from `src/` next to this directory and drives its
public entry points in-process, one solve after another.  `--trace 0`
measures the end-to-end metrics with no wrapper installed; `--trace 1`
first runs untraced for a third of `--seconds`, then wraps the layer
modules (tracing.py) and runs traced for `--seconds`, reporting the
per-layer metrics and the tracing overhead.  Times are scaled to a
reference machine speed measured between solves (speed.py).

Output: a human-readable JSON report (environment, sample counts,
percentiles, per-request errors and their digest, per-function trace),
then, as the last line, {"correct", "attempted", "failed", "metrics"}.
Exits 2 without a result when the rqet sources are missing.
"""

from __future__ import annotations

import os

# One client, one thread: cap BLAS before numpy loads.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import metrics as spec
import tracing
from setup_probe import warm_up
from speed import SpeedProbe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
COVERAGE_FLOOR = 0.9


def _import_rqet():
    """rqet from this checkout's src/, or None when it is not there."""
    if not (SRC / "rqet" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import rqet

    if SRC not in Path(rqet.__file__).resolve().parents:
        return None
    return rqet


def _setup_seconds(workload) -> tuple[list[float], list[float]]:
    """Set-up times of fresh interpreters: raw, and scaled to reference speed."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
           ",".join(str(l) for l in workload.pade_ls)]
    speed = SpeedProbe()
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
        speed.gap()
    return times, speed.scaled(times)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    kernels = sys.modules.get("rqet._kernels")
    has_numba = bool(getattr(kernels, "HAS_NUMBA", False))
    numba_on = bool(kernels.numba_active()) if hasattr(kernels, "numba_active") else False
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "numba_importable": has_numba,
        "kernel_path": "numba" if numba_on else "numpy",
        "kernel_comparison": ("available: run benchmarks/bench_kernels.py" if has_numba else
                              "unavailable: numba is not importable, every number is the numpy "
                              "path; the README's numba speedups are not reproduced here"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "load": "closed loop, one client, in-process",
    }


def _percentiles(times: list[float]) -> dict:
    """Median, and the highest of p75/p90/p99 with at least ten samples beyond it."""
    out = {"samples": len(times), "p50_s": statistics.median(times)}
    tail = None
    for p in (75, 90, 99):
        if len(times) * (100 - p) / 100 >= 10:
            tail = p
    if tail is not None:
        out[f"p{tail}_s"] = statistics.quantiles(times, n=100)[tail - 1]
    else:
        out["tail"] = f"omitted: fewer than ten samples beyond p75 with {len(times)} samples"
    return out


def run_phase(rqet, workload, seed: int, seconds: float, min_rounds: int, tracer=None) -> dict:
    """Issue solves until `seconds` have passed and `min_rounds` are done."""
    times, errors, failures = [], [], []
    attempted = failed = verified = 0
    digest = hashlib.sha256()
    speed = SpeedProbe()
    start = perf_counter()
    index = 0
    while index < min_rounds or perf_counter() - start < seconds:
        calls = workload.make_round(rqet, np.random.default_rng([seed, index]))
        spent = 0.0
        round_ok = True
        for call in calls:
            attempted += 1
            if tracer is not None:
                tracer.begin()
            t0 = perf_counter()
            try:
                out = call.run()
                exc = None
            except Exception as raised:  # a failing request is counted, not fatal
                out, exc = None, raised
            dt = perf_counter() - t0
            if tracer is not None:
                tracer.end(dt)
            spent += dt
            err = math.inf
            if exc is None:
                try:
                    err = call.check(out)
                except Exception as check_exc:
                    exc = check_exc
            if exc is not None or not err <= call.tol:
                failed += 1
                round_ok = False
                reason = (traceback.format_exception_only(exc)[-1].strip() if exc is not None
                          else f"error {err:.3e} above tolerance {call.tol:.1e}")
                failures.append(f"round {index} {call.label}: {reason}")
            elif tracer is not None and call.health is not None:
                tracer.mode_agreement = max(tracer.mode_agreement, call.health(out))
            errors.append((index, call.label, err))
            if index < workload.digest_rounds:
                digest.update(f"{index} {call.label} {err!r}\n".encode())
        times.append(spent)
        verified += round_ok
        index += 1
        speed.gap()
    return {
        "times": times,
        "scaled": speed.scaled(times),
        "factor": speed.factor(),
        "probes": sum(len(g) for g in speed.gaps),
        "attempted": attempted,
        "failed": failed,
        "verified": verified,
        "failures": failures,
        "errors": errors,
        "digest": digest.hexdigest()[:16] if index >= workload.digest_rounds else None,
    }


def _phase_report(phase: dict) -> dict:
    worst: dict[str, float] = {}
    for _, label, err in phase["errors"]:
        worst[label] = max(worst.get(label, 0.0), err)
    return {
        "solve_time_raw": _percentiles(phase["times"]),
        "solve_time_scaled": _percentiles(phase["scaled"]),
        "solves_per_s_scaled": phase["verified"] / sum(phase["scaled"]),
        "speed_factor": phase["factor"],
        "probes": phase["probes"],
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "failure_ratio": phase["failed"] / phase["attempted"],
        "worst_error_by_call": {k: f"{v:.3e}" for k, v in worst.items()},
        "errors_digest": phase["digest"],
        "failures": phase["failures"][:10],
    }


def _check_benchmark_json(trace: int, metrics: dict) -> list[str]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return []
    spec = json.loads(path.read_text())
    listed = spec["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    have = {k: v["unit"] for k, v in metrics.items()}
    return [] if want == have else [f"metrics differ from BENCHMARK.json: {sorted(set(want) ^ set(have))}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")

    rqet = _import_rqet()
    if rqet is None:
        print(f"perfbench: no rqet package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    problems = []
    report = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": _environment()}

    if args.trace == 0:
        setups, setups_scaled = _setup_seconds(workload)
        warm_up(rqet, workload.pade_ls)
        phase = run_phase(rqet, workload, args.seed, args.seconds, workload.digest_rounds)
        problems += [f"wrapper bound in the untraced run: {n}" for n in tracing.find_wrappers()]
        values = {
            "solve_p50_s": statistics.median(phase["scaled"]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": statistics.median(setups_scaled),
        }
        report["setup"] = {"raw_s": setups, "scaled_s": setups_scaled}
        report["untraced"] = _phase_report(phase)
        listed = spec.END_TO_END
        phases = [phase]
    else:
        warm_up(rqet, workload.pade_ls)
        plain = run_phase(rqet, workload, args.seed, args.seconds / 3.0, 1)
        tracer = tracing.Tracer()
        try:
            tracer.install()
            traced = run_phase(rqet, workload, args.seed, args.seconds, 1, tracer)
        finally:
            tracer.uninstall()
        problems += [f"wrapper still bound after uninstall: {n}" for n in tracing.find_wrappers()]
        missing = {tracing.layer_label(m) for m in tracing.LAYERS} - tracer.layers_wrapped()
        if missing:
            problems.append(f"layers with no wrapped function: {sorted(missing)}")
        values = tracer.per_solve(len(traced["times"]), traced["factor"])
        values["trace.overhead"] = (statistics.median(traced["scaled"])
                                    / statistics.median(plain["scaled"]) - 1.0)
        if values["trace.coverage"] < COVERAGE_FLOOR:
            problems.append(f"wrapped self time covers {values['trace.coverage']:.1%} "
                            f"of request time, below {COVERAGE_FLOOR:.0%}")
        report["untraced"] = _phase_report(plain)
        report["traced"] = _phase_report(traced)
        report["functions"] = {
            k: {f: round(values[f"{k}.{f}"], 6) for f in ("calls", "total_s", "self_s")}
            for k, st in sorted(tracer.stats.items(), key=lambda kv: -kv[1].self_s) if st.calls
        }
        report["absent_functions"] = sorted(
            name for name, *_ in spec.PER_LAYER if name not in values)
        report["expected_to_move"] = {name: moves for name, _, _, moves in spec.PER_LAYER}
        listed = [(name, unit, better, None) for name, unit, better, _ in spec.PER_LAYER]
        phases = [plain, traced]

    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit, *_ in listed}
    problems += _check_benchmark_json(args.trace, metrics)
    report["problems"] = problems
    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    print(json.dumps(report, indent=1))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
