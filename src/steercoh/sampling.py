"""Seeded random generators for states, unitaries and channels."""

from __future__ import annotations

import numpy as np

from .qkernel import DensityMatrix, KrausMap


def haar_unitaries(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k Haar-distributed unitaries, shape (k, d, d): QR of complex Gaussians
    with the phase fix, from one draw. Each equals what k successive
    haar_unitary calls would return, and the rng ends in the same state."""
    z = rng.normal(size=(k, 2, d, d))  # per unitary: real part, then imaginary
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    ph = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (ph / np.abs(ph))[:, None, :]


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Gaussian with phase fix."""
    return haar_unitaries(d, 1, rng)[0]


def random_pure(dims, rng: np.random.Generator) -> DensityMatrix:
    """Pure state with Haar-uniform direction (normalized complex Gaussian)."""
    dims = tuple(int(d) for d in dims)
    side = int(np.prod(dims))
    v = rng.normal(size=side) + 1j * rng.normal(size=side)
    return DensityMatrix.from_pure(v, dims)


def random_hs_state(dims, rng: np.random.Generator) -> DensityMatrix:
    """Mixed state from the Hilbert-Schmidt induced measure (partial trace of
    a random pure state on a doubled space)."""
    dims = tuple(int(d) for d in dims)
    side = int(np.prod(dims))
    g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace().real, dims)


def random_psd_unit_trace(d: int, rng: np.random.Generator) -> np.ndarray:
    """Random PSD matrix with unit trace (coefficient matrices, HS measure)."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / m.trace().real


def min_eigengap(mat: np.ndarray) -> float:
    w = np.sort(np.linalg.eigvalsh(mat))
    if w.size < 2:
        return np.inf
    return float(np.diff(w).min())


def random_state_nondegenerate_b(
    dims, rng: np.random.Generator, gap: float = 1e-4, pure: bool = False
) -> DensityMatrix:
    """Random state whose B-side marginal has all eigenvalue gaps above `gap`.

    Degenerate-marginal states are sampled out of the generic ensembles:
    for them sic adds the minimax over Bob's eigenbases, which the Werner
    and Bell-diagonal inputs cover instead.
    """
    da, db = dims
    for _ in range(1000):
        rho = random_pure(dims, rng) if pure else random_hs_state(dims, rng)
        t = rho.data.reshape(da, db, da, db)
        rho_b = np.einsum("abad->bd", t)
        if min_eigengap(rho_b) > gap:
            return rho
    raise RuntimeError("failed to sample a non-degenerate-marginal state")


def random_b_classical(dims, rng: np.random.Generator) -> DensityMatrix:
    """B-side classical state: mixture of Alice states tagged by the members
    of a random orthonormal basis on Bob's side."""
    da, db = dims
    v = haar_unitary(db, rng)
    w = rng.dirichlet(np.ones(db) * 3.0)
    acc = np.zeros((da * db, da * db), dtype=complex)
    for j in range(db):
        proj = np.outer(v[:, j], v[:, j].conj())
        acc += w[j] * np.kron(random_psd_unit_trace(da, rng), proj)
    return DensityMatrix(acc, tuple(dims))


def random_stinespring_kraus(
    d: int, n_ops: int, rng: np.random.Generator, target: int = 0
) -> KrausMap:
    """Random CPTP channel: Kraus blocks cut from a Haar unitary on d*n_ops."""
    u = haar_unitary(d * n_ops, rng)
    ops = [u[i * d:(i + 1) * d, :d] for i in range(n_ops)]
    return KrausMap(tuple(ops), target=target)


def random_permutation_phase_kraus(
    d: int, n_ops: int, rng: np.random.Generator, target: int = 0
) -> KrausMap:
    """Incoherent Kraus family: each operator permutes the reference basis and
    attaches phases/magnitudes, with columns of the magnitude table unit-norm
    so the map is trace preserving."""
    c = rng.normal(size=(n_ops, d)) + 1j * rng.normal(size=(n_ops, d))
    c /= np.linalg.norm(c, axis=0, keepdims=True)
    ops = []
    for n in range(n_ops):
        perm = rng.permutation(d)
        k = np.zeros((d, d), dtype=complex)
        k[perm, np.arange(d)] = c[n]
        ops.append(k)
    return KrausMap(tuple(ops), target=target)
