"""Outside-in layer tracing for the rqet benchmark.

`Tracer.install` wraps every public function defined in the layer
modules and rebinds each name in every loaded `rqet.*` module that holds
the original, so calls between modules go through the wrappers too.
`Tracer.uninstall` puts every original back.  Wrappers record only while
a request is open (`begin` .. `end`); set-up, reference checks and health
probes run outside requests and leave no trace.

Self time of a call is its duration minus the time covered by wrapped
calls it made.  Some functions also carry counters taken from their
arguments or return values (see `_OBSERVERS`); those are computed from
the data, not measured.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
from time import perf_counter

import numpy as np

# Package modules that form the traced layers.  `poly` is reached only
# through qsp.pade_phases and `cli` only parses arguments around the same
# calls, so neither is a layer of its own.
LAYERS = ("qsp", "_kernels", "qet", "linalg", "blockenc", "qsvt")


def layer_label(module: str) -> str:
    """Metric prefix of a layer; metric names may not start with '_'."""
    return module.lstrip("_")


class FnStats:
    __slots__ = ("calls", "total_s", "self_s", "extra")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.extra: dict[str, float] = {}

    def add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


def _matrix_key(M) -> bytes:
    arr = np.ascontiguousarray(M, dtype=np.complex128)
    return hashlib.blake2b(arr.tobytes() + repr(arr.shape).encode(), digest_size=16).digest()


# Observers run after the wrapped call returns, outside its span.
# Each takes (tracer, stats, argument values in signature order, result).

def _obs_pade_phases(tr, st, a, out):
    l = a[0]
    st.add("repeats", 1.0 if l in tr.seen_pade else 0.0)
    tr.seen_pade.add(l)


def _obs_phase_points(tr, st, a, out):
    st.add("phase_points", float(np.size(a[0]) * np.size(a[1])))


def _obs_compose_phases(tr, st, a, out):
    st.add("phases_out", float(len(out)))


def _product_flops(st, slots: int, dim: int, matmuls_per_slot: int) -> None:
    # dense complex D x D product: 8 D^3 real flops; the diagonal scaling
    # adds 6 D^2.  Computed from the shapes, not counted by hardware.
    st.add("slots", float(slots))
    st.add("flop_est", float(slots * (matmuls_per_slot * 8 * dim ** 3 + 6 * dim ** 2)))


def _obs_qet_assemble(tr, st, a, out):
    _product_flops(st, len(np.atleast_1d(a[1])), out.shape[0], 1)
    tr.unitaries.append(out)


def _obs_qsvt_assemble(tr, st, a, out):
    _product_flops(st, len(np.atleast_1d(a[1])), out.shape[0], 2)
    tr.unitaries.append(out)


def _obs_dilate(tr, st, a, out):
    tr.unitaries.append(out.unitary)


def _obs_hermitian_eig(tr, st, a, out):
    key = _matrix_key(a[0])
    st.add("repeats", 1.0 if key in tr.request_matrices else 0.0)
    tr.request_matrices.add(key)


def _obs_jacobi_sweeps(tr, st, a, out):
    st.add("sweeps", float(out))


_OBSERVERS = {
    "qsp.pade_phases": (_obs_pade_phases, ("repeats",)),
    "qsp.reflection_upper_left": (_obs_phase_points, ("phase_points",)),
    "kernels.phase_chain": (_obs_phase_points, ("phase_points",)),
    "qet.compose_phases": (_obs_compose_phases, ("phases_out",)),
    "qet.qet_assemble": (_obs_qet_assemble, ("slots", "flop_est")),
    "qsvt.qsvt_assemble": (_obs_qsvt_assemble, ("slots", "flop_est")),
    "blockenc.dilate_hermitian": (_obs_dilate, ()),
    "blockenc.dilate_general": (_obs_dilate, ()),
    "linalg.hermitian_eig": (_obs_hermitian_eig, ("repeats",)),
    "kernels.jacobi_sweeps": (_obs_jacobi_sweeps, ("sweeps",)),
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "rqet" or name.startswith("rqet."))]


def find_wrappers() -> list[str]:
    """Names in loaded rqet modules that are bound to a benchmark wrapper."""
    found = []
    for mod in _package_modules():
        for attr, val in vars(mod).items():
            if getattr(val, "_perfbench_key", None) is not None:
                found.append(f"{mod.__name__}.{attr}")
    return found


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, FnStats] = {}
        self.active = False
        self.request_s = 0.0
        self.seen_pade: set = set()
        self.request_matrices: set = set()
        self.unitaries: list = []
        self.unitarity_dev = 0.0
        self.mode_agreement = 0.0
        self._stack: list[float] = []
        self._rebound: list = []

    # ------------------------------------------------------------ wiring

    def install(self) -> None:
        modules = _package_modules()
        for layer in LAYERS:
            mod = importlib.import_module(f"rqet.{layer}")
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer_label(layer)}.{name}", fn)
                for target in modules:
                    for attr, val in list(vars(target).items()):
                        if val is fn:
                            setattr(target, attr, wrapper)
                            self._rebound.append((target, attr, fn))

    def uninstall(self) -> None:
        while self._rebound:
            target, attr, fn = self._rebound.pop()
            setattr(target, attr, fn)

    def layers_wrapped(self) -> set[str]:
        return {key.split(".")[0] for key in self.stats}

    def _wrap(self, key: str, fn):
        st = self.stats[key] = FnStats()
        observe, extras = _OBSERVERS.get(key, (None, ()))
        st.extra = dict.fromkeys(extras, 0.0)
        sig = inspect.signature(fn) if observe else None
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - child
            if observe is not None:
                observe(tracer, st, list(sig.bind(*args, **kwargs).arguments.values()), out)
            return out

        wrapper._perfbench_key = key
        return wrapper

    # ---------------------------------------------------------- requests

    def begin(self) -> None:
        self.active = True

    def end(self, wall_s: float) -> None:
        """Close a request of `wall_s` seconds and fold in its health values."""
        self.active = False
        self.request_s += wall_s
        seen = set()
        for U in self.unitaries:
            if id(U) in seen:
                continue
            seen.add(id(U))
            dev = float(np.abs(U.conj().T @ U - np.eye(U.shape[0])).max())
            self.unitarity_dev = max(self.unitarity_dev, dev)
        self.unitaries.clear()
        self.request_matrices.clear()

    # ----------------------------------------------------------- summary

    def per_solve(self, solves: int, time_scale: float) -> dict[str, float]:
        """Flat metrics, each count and time divided by the number of solves;
        times are multiplied by `time_scale`."""
        out: dict[str, float] = {}
        layer_self = {layer_label(m): 0.0 for m in LAYERS}
        for key, st in self.stats.items():
            out[f"{key}.calls"] = st.calls / solves
            out[f"{key}.total_s"] = st.total_s * time_scale / solves
            out[f"{key}.self_s"] = st.self_s * time_scale / solves
            for extra, value in st.extra.items():
                if extra == "repeats":
                    out[f"{key}.repeat_ratio"] = value / st.calls if st.calls else 0.0
                else:
                    out[f"{key}.{extra}"] = value / solves
            layer_self[key.split(".")[0]] += st.self_s
        for layer, self_s in layer_self.items():
            out[f"layer.{layer}.self_s"] = self_s * time_scale / solves
        covered = sum(layer_self.values())
        out["trace.coverage"] = covered / self.request_s if self.request_s else 0.0
        out["blockenc.unitarity_dev"] = self.unitarity_dev
        out["qet.mode_agreement"] = self.mode_agreement
        return out
