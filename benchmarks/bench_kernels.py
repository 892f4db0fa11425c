"""Time the two hot paths on their own and print absolute times.

Run from the repository root as `python benchmarks/bench_kernels.py`.
The hot paths are the blocked phase chain (`rqet._kernels.phase_chain`)
at 5^7 and 5^8 random phases on 21 points, and the Hermitian eigensolve
(`rqet.hermitian_eig`) at dimension 64.  Each row is the best of a few
repeats on one BLAS thread.  For end-to-end times see perfbench/.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from rqet import hermitian_eig  # noqa: E402
from rqet._kernels import phase_chain  # noqa: E402


def best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_eig(n: int = 64, repeats: int = 20) -> None:
    rng = np.random.default_rng(0)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    H = (Z + Z.conj().T) / 2
    t = best_of(lambda: hermitian_eig(H), repeats)
    print(f"hermitian_eig  dim={n:<8d} {t * 1e3:9.3f} ms")


def bench_chain(n_phases: int, n_points: int = 21, repeats: int = 3) -> None:
    rng = np.random.default_rng(1)
    phases = rng.uniform(-np.pi, np.pi, n_phases)
    xs = np.linspace(-1.0, 1.0, n_points)
    t = best_of(lambda: phase_chain(phases, xs), repeats)
    print(f"phase_chain    len={n_phases:<8d} {t * 1e3:9.3f} ms   ({n_points} points)")


if __name__ == "__main__":
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, 1 BLAS thread")
    bench_eig()
    bench_chain(5 ** 7)
    bench_chain(5 ** 8)
