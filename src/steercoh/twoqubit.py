"""Closed form for the l1 steered coherence of a qubit Bob, and the
two-qubit Pauli expansion.

Let Bob's qubit basis be (b0, b1) and C = <b0|rho|b1>, a d_A x d_A block.
Alice's outcome e steers an unnormalised l1 coherence 2 |<e|C|e>| into
Bob's basis, so her basis {e_i} steers sum_i 2 |<e_i|C|e_i>| on average.
Its maximum over her bases is 2 ||C||_1 (von Neumann's trace inequality;
Horn & Johnson, Matrix Analysis, 7.4): with C = U S V^dag, W = V U^dag is
unitary with tr(C W) = ||C||_1, and on W's eigenbasis sum_i w_i
<e_i|C|e_i> = tr(C W). rho - Delta_B rho has the off-diagonal blocks C and
C^dag, so the B-side trace-norm disturbance in Bob's basis is 2 ||C||_1
too. At Bob's eigenbasis this is the closed form.

For two qubits (rho = (1/4) sum_ij Theta_ij sigma_i (x) sigma_j, b =
Theta[0, 1:], T = Theta[1:, 1:]) it is sigma_max(T (1 - n n^t)) at n =
b/|b|. When b = 0 every basis is an eigenbasis, and the minimum over n is
the middle singular value sigma_2(T) by interlacing, attained at the top
right singular vector.

The paper states the b != 0 value in a canonical frame (b along +z,
T11 = T12 = T21 = 0) as the radical

    sqrt( (T22^2 + T31^2 + T32^2)/2
          + sqrt((T32^2 + T22^2)^2 + 2 T31^2 (T32^2 - T22^2) + T31^4)/2 ).

It is the same number. With n = z the projected matrix keeps only
K = T[:, :2], and the radical is the square root of the top eigenvalue of
K^t K, (tr + sqrt(tr^2 - 4 det)) / 2 with tr = T22^2 + T31^2 + T32^2 and
det = T22^2 T31^2. The singular values need no frame, and they keep full
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


def _steered_l1_block(data: np.ndarray, da: int, bob: np.ndarray) -> np.ndarray:
    """C = <b0|rho|b1> for the d_A x 2 state `data` and Bob's basis `bob`
    (kets as columns)."""
    return bob[:, 0].conj() @ (data.reshape(da, 2, da, 2) @ bob[:, 1])


def _steered_l1_witness(data: np.ndarray, da: int, bob: np.ndarray) -> np.ndarray:
    """Alice's basis reaching 2 ||C||_1 against Bob's basis `bob` (kets as
    columns): W's eigenbasis, made orthonormal by QR where eig leaves
    repeated eigenvalues' kets skewed."""
    u, _, vh = np.linalg.svd(_steered_l1_block(data, da, bob))
    return np.linalg.qr(np.linalg.eig(vh.conj().T @ u.conj().T)[1])[0]


def _bob_eigenbasis_block(rho: DensityMatrix):
    """rho_B's EigenbasisFamily and C's singular values at its base."""
    from .correlations import _b_marginal_family

    if rho.n_subsystems != 2 or rho.dims[1] != 2:
        raise ValueError("the l1 closed form expects a d_A x 2 state (Bob a qubit)")
    fam = _b_marginal_family(rho)
    return fam, np.linalg.svd(_steered_l1_block(rho.data, rho.dims[0], fam.base.matrix),
                              compute_uv=False)


def sic_l1_closed(rho: DensityMatrix) -> float:
    """Closed-form l1 steering value of a d_A x 2 state: 2 ||C||_1 at Bob's
    eigenbasis, or sigma_2(T) for two qubits with rho_B = I/2."""
    fam, svals = _bob_eigenbasis_block(rho)
    if fam.is_trivial:
        return 2.0 * float(svals.sum())
    if rho.dims[0] != 2:
        raise ValueError("the l1 closed form needs a simple B marginal unless d_A = 2")
    return float(np.linalg.svd(_pauli_coefficients(rho.data)[1:, 1:], compute_uv=False)[1])


def verify_theorem3(rho: DensityMatrix, budget=None, seed: int = 0) -> VerificationReport:
    """Three-way check of the l1 closed form of a d_A x 2 state against the
    numerical l1 steering value and the trace-norm disturbance."""
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
        svals = np.round(_bob_eigenbasis_block(rho)[1], 12).tolist()
        details.append(f"singular_values_C={svals}")
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
