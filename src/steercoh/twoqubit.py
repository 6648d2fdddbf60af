"""Two-qubit closed form for the l1 steered coherence.

A two-qubit state is handled through its Pauli expansion

    rho = (1/4) sum_ij Theta_ij sigma_i (x) sigma_j,   Theta_00 = 1,

with local Bloch vectors a = Theta[1:, 0], b = Theta[0, 1:] and correlation
matrix T = Theta[1:, 1:]. When Alice measures along the Bloch direction u,
Bob is steered to (b +- T^t u) / (1 +- a.u) with probabilities
(1 +- a.u) / 2, and the l1 coherence of a qubit in the basis with axis n is
the length of its Bloch vector orthogonal to n. For n parallel to b, or any
n when b = 0, the local term cancels and the average steered coherence is
|(1 - n n^t) T^t u|, whose maximum over u is

    sigma_max(T (1 - n n^t)).

Bob's eigenbasis has n = b/|b| for b != 0, which gives the closed form. For
b = 0 every basis is an eigenbasis, and the minimum over n of
sigma_max(T (1 - n n^t)) is the middle singular value sigma_2(T) by
interlacing, attained at the top right singular vector.

The paper states the b != 0 value in a canonical frame (b along +z,
T11 = T12 = T21 = 0) as the radical

    sqrt( (T22^2 + T31^2 + T32^2)/2
          + sqrt((T32^2 + T22^2)^2 + 2 T31^2 (T32^2 - T22^2) + T31^4)/2 ).

It is the same number. With n = z the projected matrix keeps only
K = T[:, :2], and the radical is the square root of the top eigenvalue of
K^t K, (tr + sqrt(tr^2 - 4 det)) / 2 with tr = T22^2 + T31^2 + T32^2 and
det = T22^2 T31^2. The singular value needs no frame, and it keeps full
precision where the two singular values of K meet; there the radical's
inner root amplifies the rounding of its cancelling terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import DistanceKind
from .qkernel import DensityMatrix
from .report import FAIL, PASS, VerificationReport

PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# Row 4*i + j is the functional X -> tr(X sigma_i (x) sigma_j) on a row-major
# flattened 4x4 matrix X, i.e. kron(PAULI[i], PAULI[j]).T flattened.
_THETA_TABLE = np.array([np.kron(p, q).T.reshape(16) for p in PAULI for q in PAULI])
_THETA_TABLE.flags.writeable = False

# Bloch vectors shorter than this are treated as zero, switching the closed
# form to its degenerate branch.
BLOCH_DEGENERATE = 1e-8


@dataclass(frozen=True)
class PauliTheta:
    """Pauli expansion coefficients of a two-qubit state."""

    theta: np.ndarray

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        if th.shape != (4, 4):
            raise ValueError("theta must be a real 4x4 matrix")
        th = th.copy()
        th.flags.writeable = False
        object.__setattr__(self, "theta", th)

    @property
    def a(self) -> np.ndarray:
        return self.theta[1:, 0]

    @property
    def b(self) -> np.ndarray:
        return self.theta[0, 1:]

    @property
    def tmat(self) -> np.ndarray:
        return self.theta[1:, 1:]


def _pauli_coefficients(m: np.ndarray) -> np.ndarray:
    """Theta_ij = Re tr(m sigma_i (x) sigma_j) of a 4x4 matrix, as a (4, 4) array."""
    return (_THETA_TABLE @ m.reshape(16)).real.reshape(4, 4)


def pauli_decompose(rho: DensityMatrix) -> PauliTheta:
    if rho.dims != (2, 2):
        raise ValueError("pauli_decompose expects a two-qubit state")
    return PauliTheta(_pauli_coefficients(rho.data))


def reconstruct(theta: PauliTheta) -> DensityMatrix:
    acc = _THETA_TABLE.conj().T @ theta.theta.reshape(16)
    return DensityMatrix(acc.reshape(4, 4) / 4.0, (2, 2))


def _max_steered_l1(tmat: np.ndarray, n: np.ndarray) -> float:
    """sigma_max(T (1 - n n^t)): the maximum over Alice's Bloch directions u
    of the average steered l1 coherence |(1 - n n^t) T^t u| at Bob's unit
    reference axis n, exact when n is parallel to b or b = 0."""
    proj = np.eye(3) - np.outer(n, n)
    return float(np.linalg.svd(proj @ tmat.T, compute_uv=False)[0])


def sic_l1_closed(rho: DensityMatrix) -> float:
    """Closed-form l1 steering value of an arbitrary two-qubit state:
    sigma_max(T (1 - n n^t)) at n = b/|b|, or sigma_2(T) when b vanishes."""
    if rho.dims != (2, 2):
        raise ValueError("sic_l1_closed expects a two-qubit state")
    theta = _pauli_coefficients(rho.data)
    tmat, b = theta[1:, 1:], theta[0, 1:]
    bnorm = np.linalg.norm(b)
    if bnorm < BLOCH_DEGENERATE:
        return float(np.linalg.svd(tmat, compute_uv=False)[1])
    return _max_steered_l1(tmat, b / bnorm)


def verify_theorem3(rho: DensityMatrix, budget=None, seed: int = 0) -> VerificationReport:
    """Three-way check of the two-qubit closed form against the numerical
    l1 steering value and the trace-norm disturbance."""
    from .correlations import b_side_mid, sic

    closed = sic_l1_closed(rho)
    res = sic(rho, DistanceKind.L1, budget, seed)
    q_t = b_side_mid(rho, DistanceKind.TRACE_NORM, budget, seed)
    dev = max(abs(res.value - closed), abs(q_t - closed))
    tol = 1e-5
    status = PASS if dev <= tol else FAIL
    details = [f"closed={closed:.10f}", f"numeric_sic={res.value:.10f}",
               f"numeric_mid_t={q_t:.10f}"]
    if status == FAIL:
        flat = np.round(pauli_decompose(rho).theta, 12).tolist()
        details.append(f"theta={flat}")
    return VerificationReport(
        theorem="two_qubit_closed_form",
        kind="l1",
        value_lhs=res.value,
        value_rhs=closed,
        margin=tol - dev,
        tolerance=tol,
        seeds=(seed,),
        converged=res.converged,
        status=status,
        details=tuple(details),
    )
