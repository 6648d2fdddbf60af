"""Two-qubit closed form for the l1 steered coherence.

A two-qubit state is handled through its Pauli expansion

    rho = (1/4) sum_ij Theta_ij sigma_i (x) sigma_j,   Theta_00 = 1,

with local Bloch vectors a = Theta[1:, 0], b = Theta[0, 1:] and correlation
matrix T = Theta[1:, 1:]. Local unitaries act as proper rotations on these
blocks, which lets the state be brought to a canonical frame where the
optimal steering value is an explicit radical (b != 0) or a middle singular
value of T (b = 0).
"""

from __future__ import annotations

import math
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


class DegenerateBlochError(ValueError):
    """The B-side Bloch vector vanishes; the canonical frame is undefined."""


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


def _rotation_aligning(v, w) -> np.ndarray:
    """Proper rotation sending unit vector v to unit vector w (Rodrigues)."""
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    c = float(v @ w)
    axis = np.cross(v, w)
    s = np.linalg.norm(axis)
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        # opposite vectors: rotate by pi around any perpendicular axis
        perp = np.eye(3)[np.argmin(np.abs(v))]
        perp = perp - (perp @ v) * v
        perp /= np.linalg.norm(perp)
        return 2.0 * np.outer(perp, perp) - np.eye(3)
    k = axis / s
    kx = np.array([[0, -k[2], k[1]], [k[2], 0, -k[0]], [-k[1], k[0], 0]])
    return np.eye(3) + s * kx + (1 - c) * (kx @ kx)


def canonical_form(theta: PauliTheta):
    """Local-rotation frame in which b points along +z and the correlation
    matrix satisfies T11 = T12 = T21 = 0.

    Returns (canonical PauliTheta, rot_a, rot_b) with
    T_canonical = rot_a @ T @ rot_b.T, b_canonical = rot_b @ b. Requires a
    nonvanishing b.
    """
    b = theta.b
    bnorm = np.linalg.norm(b)
    if bnorm < BLOCH_DEGENERATE:
        raise DegenerateBlochError("b-side Bloch vector vanishes")
    rot_b1 = _rotation_aligning(b / bnorm, np.array([0.0, 0.0, 1.0]))
    t1 = theta.tmat @ rot_b1.T

    # zero the (x, y) square of T with an SVD of its first two columns,
    # using only rotations of Alice's frame and of Bob's x-y plane
    k = t1[:, :2]
    w, s, vt = np.linalg.svd(k, full_matrices=True)
    if np.linalg.det(w) < 0:
        w = w.copy()
        w[:, 2] *= -1.0
    if np.linalg.det(vt) < 0:
        vt = vt.copy()
        vt[1, :] *= -1.0
    # send (sig1, sig2) from rows (1, 2) to (T31, T22); the row swap has
    # determinant -1, compensated by negating the middle row
    perm = np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])
    rot_a = perm @ w.T
    rot_b2 = np.eye(3)
    rot_b2[:2, :2] = vt
    rot_b = rot_b2 @ rot_b1
    # rot_b2 must be proper and fix z so b stays aligned
    if np.linalg.det(rot_b2) < 0:
        raise AssertionError("internal: improper Bob rotation")

    a_new = rot_a @ theta.a
    b_new = rot_b @ b
    t_new = rot_a @ theta.tmat @ rot_b.T
    for idx in ((0, 0), (0, 1), (1, 0)):
        if abs(t_new[idx]) > 1e-9:
            raise AssertionError(f"canonicalization left T{idx} = {t_new[idx]:.2e}")
    th = np.empty((4, 4))
    th[0, 0] = 1.0
    th[1:, 0] = a_new
    th[0, 1:] = b_new
    th[1:, 1:] = t_new
    return PauliTheta(th), rot_a, rot_b


def _signed_diagonalize(tmat):
    """T = rot_a.T @ diag(t) @ rot_b with proper rotations and the diagonal
    sorted by magnitude, signs absorbed into the last entry."""
    w, s, vt = np.linalg.svd(tmat)
    t = s.copy()
    if np.linalg.det(w) < 0:
        w = w.copy()
        w[:, 2] *= -1.0
        t[2] *= -1.0
    if np.linalg.det(vt) < 0:
        vt = vt.copy()
        vt[2, :] *= -1.0
        t[2] *= -1.0
    return t, w.T, vt


def diagonal_form(theta: PauliTheta) -> PauliTheta:
    """Local-rotation frame with T diagonal, |T11| >= |T22| >= |T33|, used
    for the b = 0 branch. Rotations are proper, signs absorbed into T33."""
    t, rot_a, rot_b = _signed_diagonalize(theta.tmat)
    th = np.empty((4, 4))
    th[0, 0] = 1.0
    th[1:, 0] = rot_a @ theta.a
    th[0, 1:] = rot_b @ theta.b
    th[1:, 1:] = np.diag(t)
    return PauliTheta(th)


def closed_form_sic_l1(theta: PauliTheta) -> float:
    """l1 steering-induced coherence of a canonicalized two-qubit state.

    Expects the output of canonical_form (b along +z, upper T corner zero)
    or, for b = 0, of diagonal_form (T diagonal, magnitudes descending);
    anything else is rejected. The nonvanishing-b branch evaluates

        sqrt( (T22^2 + T31^2 + T32^2)/2
              + sqrt((T32^2 + T22^2)^2 + 2 T31^2 (T32^2 - T22^2) + T31^4)/2 )

    and the degenerate branch returns |T22| of the sorted diagonal.
    """
    tm = theta.tmat
    b = theta.b
    if np.linalg.norm(b) < BLOCH_DEGENERATE:
        off = tm - np.diag(np.diagonal(tm))
        mags = np.abs(np.diagonal(tm))
        if np.abs(off).max() > 1e-9 or mags[0] < mags[1] - 1e-12 or mags[1] < mags[2] - 1e-12:
            raise ValueError("degenerate branch expects a sorted diagonal form")
        return float(mags[1])
    if (abs(b[0]) > 1e-9 or abs(b[1]) > 1e-9 or b[2] <= 0
            or abs(tm[0, 0]) > 1e-9 or abs(tm[0, 1]) > 1e-9 or abs(tm[1, 0]) > 1e-9):
        raise ValueError("expected canonical form: b along +z, T11 = T12 = T21 = 0")
    t22_sq = tm[1, 1] ** 2
    t31_sq = tm[2, 0] ** 2
    t32_sq = tm[2, 1] ** 2
    inner = (t32_sq + t22_sq) ** 2 + 2.0 * t31_sq * (t32_sq - t22_sq) + t31_sq ** 2
    val = (t22_sq + t31_sq + t32_sq) / 2.0 + math.sqrt(max(0.0, inner)) / 2.0
    return math.sqrt(max(0.0, val))


def sic_l1_closed(rho: DensityMatrix) -> float:
    """Closed-form l1 steering value of an arbitrary two-qubit state:
    canonicalize (or diagonalize when b vanishes), then evaluate."""
    if rho.dims != (2, 2):
        raise ValueError("sic_l1_closed expects a two-qubit state")
    theta = pauli_decompose(rho)
    if np.linalg.norm(theta.b) < BLOCH_DEGENERATE:
        return closed_form_sic_l1(diagonal_form(theta))
    can, _, _ = canonical_form(theta)
    return closed_form_sic_l1(can)


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
