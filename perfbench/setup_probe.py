"""Time rqet's set-up in a fresh interpreter: `import rqet` plus warm-up.

Usage: python3 setup_probe.py SRC_DIR L[,L...]

Prints the seconds from just before `import rqet` to the end of
`warm_up`.  Interpreter start-up is excluded; importing numpy (which
rqet does) is included.  numpy is not imported at module level so that
its import lands inside the timed region.
"""

from __future__ import annotations

import sys
import time


def warm_up(rqet, pade_ls) -> None:
    """Lazy set-up a first request would otherwise pay: phase derivation
    for each family member used, and one call into each kernel (which
    compiles it when numba is active)."""
    import numpy as np

    for l in pade_ls:
        rqet.pade_phases(l)
    A = np.array([[0.5, 0.1], [0.1, -0.5]], dtype=np.complex128)
    rqet.hermitian_eig(A)
    rqet.reflection_upper_left(rqet.pade_phases(pade_ls[0]), np.array([0.0, 0.5]))


if __name__ == "__main__":
    src, ls = sys.argv[1], [int(v) for v in sys.argv[2].split(",")]
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import rqet

    warm_up(rqet, ls)
    print(repr(time.perf_counter() - t0))
