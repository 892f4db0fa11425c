import numpy as np


def hermitian_with_spectrum(seed: int, eigenvalues) -> tuple[np.ndarray, np.ndarray]:
    """Seeded Hermitian matrix with the given spectrum; returns (A, Q)."""
    vals = np.asarray(eigenvalues, dtype=np.float64)
    d = len(vals)
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q = np.linalg.qr(Z)[0]
    A = (Q * vals[None, :]) @ Q.conj().T
    return (A + A.conj().T) / 2, Q
