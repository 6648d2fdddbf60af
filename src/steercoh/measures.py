"""Distance measures between states and basis-dependent coherence built on them.

Three distances are provided:

* relative entropy  S(rho || sigma) = Tr(rho log2 rho - rho log2 sigma)
* entrywise l1      sum_ij |rho_ij - sigma_ij|   (deliberately basis dependent)
* trace norm        sum of singular values of (rho - sigma)

Coherence of a state with respect to a projective basis is the distance to its
dephasing in that basis. The trace-norm variant is only meaningful for
qubits, where it coincides with the l1 variant; larger dimensions are
rejected.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .qkernel import (
    EIG_FLOOR,
    DensityMatrix,
    ProjectiveBasis,
    _entropy_rows,
    apply_kraus,
    dephase,
    tensor_product,
)
from .report import FAIL, PASS, VerificationReport
from .sampling import (
    haar_unitary,
    random_hs_state,
    random_permutation_phase_kraus,
    random_stinespring_kraus,
)

# Mass of rho allowed in sigma's numerical null space before the relative
# entropy is declared divergent.
SUPPORT_TOL = 1e-9


class DistanceKind(Enum):
    RELATIVE_ENTROPY = "r"
    L1 = "l1"
    TRACE_NORM = "t"

    @classmethod
    def parse(cls, token) -> "DistanceKind":
        if isinstance(token, cls):
            return token
        key = str(token).strip().lower()
        aliases = {
            "r": cls.RELATIVE_ENTROPY,
            "rel": cls.RELATIVE_ENTROPY,
            "relative_entropy": cls.RELATIVE_ENTROPY,
            "l1": cls.L1,
            "t": cls.TRACE_NORM,
            "trace": cls.TRACE_NORM,
            "trace_norm": cls.TRACE_NORM,
        }
        if key not in aliases:
            raise ValueError(f"unknown distance kind {token!r}")
        return aliases[key]


class SupportViolationError(ValueError):
    """Relative entropy diverges: rho has weight outside sigma's support."""


def _check_pair(rho: DensityMatrix, sigma: DensityMatrix) -> None:
    if rho.side != sigma.side:
        raise ValueError(f"dimension mismatch: {rho.side} vs {sigma.side}")


def relative_entropy(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """S(rho || sigma) in bits; raises SupportViolationError on divergence."""
    _check_pair(rho, sigma)
    w, v = np.linalg.eigh(sigma.data)
    overlaps = (v.conj() * (rho.data @ v)).sum(axis=0).real
    null = w <= EIG_FLOOR
    if overlaps[null].sum() > SUPPORT_TOL:
        raise SupportViolationError(
            "rho has support outside sigma's support; relative entropy diverges"
        )
    tr_rho_log_rho = -float(_entropy_rows(np.linalg.eigvalsh(rho.data)))
    keep = ~null
    tr_rho_log_sigma = float(np.sum(overlaps[keep] * np.log2(w[keep])))
    return max(0.0, tr_rho_log_rho - tr_rho_log_sigma)


def _l1_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    return float(np.abs(rho.data - sigma.data).sum())


def _trace_norm_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    # The difference is Hermitian, so the singular values are |eigenvalues|.
    return float(np.abs(np.linalg.eigvalsh(rho.data - sigma.data)).sum())


def distance(kind, rho: DensityMatrix, sigma: DensityMatrix) -> float:
    kind = DistanceKind.parse(kind)
    _check_pair(rho, sigma)
    if kind is DistanceKind.RELATIVE_ENTROPY:
        return relative_entropy(rho, sigma)
    if kind is DistanceKind.L1:
        return _l1_distance(rho, sigma)
    return _trace_norm_distance(rho, sigma)


def coherence(kind, rho: DensityMatrix, basis: ProjectiveBasis) -> float:
    """Distance from rho to its dephasing, measured in the given basis.

    The state is first expressed in the reference basis, so the l1 variant
    is the usual sum of off-diagonal magnitudes in that basis (the entrywise
    norm is not unitarily invariant, so the frame matters; the other two
    kinds are frame independent). The basis must span the whole state space
    (use product_basis for composite reference bases). Trace-norm coherence
    is limited to dim 2, where it equals the l1 value.
    """
    kind = DistanceKind.parse(kind)
    if basis.dim != rho.side:
        raise ValueError(f"basis dim {basis.dim} does not match state side {rho.side}")
    if kind is DistanceKind.TRACE_NORM and rho.side != 2:
        raise ValueError("trace-norm coherence is only defined here for dim 2")
    u = basis.matrix
    rotated = DensityMatrix._derived(u.conj().T @ rho.data @ u, (rho.side,))
    comp = ProjectiveBasis.computational(rho.side)
    return distance(kind, rotated, dephase(rotated, comp, target=0))


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """Bloch vector (x, y, z) of a qubit state."""
    if rho.side != 2:
        raise ValueError("bloch_vector expects a qubit")
    a = rho.data
    return np.array(
        [2.0 * a[0, 1].real, -2.0 * a[0, 1].imag, (a[0, 0] - a[1, 1]).real]
    )


# ---------------------------------------------------------------------------
# randomized property batteries
#
# Each battery runs every check on n_instances independent draws and reports
# the worst violation seen. "Violation" is oriented so that <= 0 means the
# property held exactly; values up to the slack still pass.

PROPERTY_SLACK = 1e-9


def _battery_report(theorem: str, kind: str, worst: dict, seed: int,
                    slack: float) -> VerificationReport:
    top = max(worst.values())
    details = tuple(f"{name}: worst violation {val:+.3e}" for name, val in worst.items())
    return VerificationReport(
        theorem=theorem,
        kind=kind,
        value_lhs=top,
        value_rhs=0.0,
        margin=slack - top,
        tolerance=slack,
        seeds=(seed,),
        converged=True,
        status=PASS if top <= slack else FAIL,
        details=details,
    )


def verify_distance_properties(n_instances: int = 200, seed: int = 0):
    """Randomized checks of the distance axioms.

    Identity of indiscernibles for all kinds; selective-measurement
    monotonicity and ancilla invariance for the relative entropy; convexity
    for all kinds; unitary invariance for relative entropy and trace norm;
    and the single-qubit identity l1 = trace norm = Bloch distance on
    dephased pairs, where the difference has no diagonal part.
    """
    rng = np.random.default_rng(seed)
    kinds = (DistanceKind.RELATIVE_ENTROPY, DistanceKind.L1, DistanceKind.TRACE_NORM)
    worst = {name: -np.inf for name in
             ("D1_zero", "D1_positive", "D2_r", "D3", "D5_r", "D6", "qubit_l1_t_bloch")}
    for i in range(n_instances):
        d = (2, 3, 4)[i % 3]
        rho = random_hs_state((d,), rng)
        sigma = random_hs_state((d,), rng)

        for kind in kinds:
            worst["D1_zero"] = max(worst["D1_zero"], distance(kind, rho, rho))
            # distinct random states must be seen as distinct
            worst["D1_positive"] = max(
                worst["D1_positive"], 1e-6 - distance(kind, rho, sigma)
            )

        kmap = random_stinespring_kraus(d, 3, rng, target=0)
        # both states have full rank, so no outcome is dropped and the
        # outcomes pair by operator position
        outs_r = apply_kraus(rho, kmap, selective=True)
        outs_s = apply_kraus(sigma, kmap, selective=True)
        lhs = sum(
            orho.probability * relative_entropy(orho.state, osig.state)
            for orho, osig in zip(outs_r, outs_s, strict=True)
        )
        worst["D2_r"] = max(
            worst["D2_r"], lhs - distance(DistanceKind.RELATIVE_ENTROPY, rho, sigma)
        )

        rho2 = random_hs_state((d,), rng)
        sigma2 = random_hs_state((d,), rng)
        lam = rng.uniform(0.1, 0.9)
        mix_rho = DensityMatrix(lam * rho.data + (1 - lam) * rho2.data, (d,))
        mix_sigma = DensityMatrix(lam * sigma.data + (1 - lam) * sigma2.data, (d,))
        for kind in kinds:
            bound = lam * distance(kind, rho, sigma) + (1 - lam) * distance(
                kind, rho2, sigma2
            )
            worst["D3"] = max(worst["D3"], distance(kind, mix_rho, mix_sigma) - bound)

        tau = random_hs_state((2,), rng)
        base = distance(DistanceKind.RELATIVE_ENTROPY, rho, sigma)
        ext = distance(
            DistanceKind.RELATIVE_ENTROPY,
            tensor_product(rho, tau),
            tensor_product(sigma, tau),
        )
        worst["D5_r"] = max(worst["D5_r"], abs(ext - base))

        u = haar_unitary(d, rng)
        urho = DensityMatrix(u @ rho.data @ u.conj().T, (d,))
        usigma = DensityMatrix(u @ sigma.data @ u.conj().T, (d,))
        for kind in (DistanceKind.RELATIVE_ENTROPY, DistanceKind.TRACE_NORM):
            worst["D6"] = max(
                worst["D6"],
                abs(distance(kind, urho, usigma) - distance(kind, rho, sigma)),
            )

        qubit = rho if d == 2 else random_hs_state((2,), rng)
        basis = ProjectiveBasis.from_columns(haar_unitary(2, rng))
        c_l1 = coherence(DistanceKind.L1, qubit, basis)
        c_t = coherence(DistanceKind.TRACE_NORM, qubit, basis)
        u = basis.matrix
        rot = DensityMatrix(u.conj().T @ qubit.data @ u, (2,))
        deph = dephase(rot, ProjectiveBasis.computational(2), target=0)
        c_bloch = float(np.linalg.norm(bloch_vector(rot) - bloch_vector(deph)))
        worst["qubit_l1_t_bloch"] = max(
            worst["qubit_l1_t_bloch"],
            abs(c_l1 - c_t),
            abs(c_l1 - c_bloch),
        )
    return _battery_report("distance_axioms", "all", worst, seed, PROPERTY_SLACK)


def verify_coherence_properties(n_instances: int = 200, seed: int = 0):
    """Randomized checks of the coherence conditions for the relative-entropy
    and l1 variants: faithfulness on incoherent states, monotonicity on
    average under incoherent (permutation-phase) selective maps, and
    convexity."""
    rng = np.random.default_rng(seed)
    kinds = (DistanceKind.RELATIVE_ENTROPY, DistanceKind.L1)
    worst = {name: -np.inf for name in ("C1_zero", "C1_positive", "C2", "C3")}
    for i in range(n_instances):
        d = (2, 3, 4)[i % 3]
        rho = random_hs_state((d,), rng)
        basis = ProjectiveBasis.from_columns(haar_unitary(d, rng))
        comp = ProjectiveBasis.computational(d)

        incoherent = dephase(rho, basis, target=0)
        for kind in kinds:
            worst["C1_zero"] = max(worst["C1_zero"], coherence(kind, incoherent, basis))
            worst["C1_positive"] = max(
                worst["C1_positive"], 1e-6 - coherence(kind, rho, basis)
            )

        kmap = random_permutation_phase_kraus(d, 3, rng, target=0)
        for kind in kinds:
            base = coherence(kind, rho, comp)
            after = sum(
                out.probability * coherence(kind, out.state, comp)
                for out in apply_kraus(rho, kmap, selective=True)
            )
            worst["C2"] = max(worst["C2"], after - base)

        rho2 = random_hs_state((d,), rng)
        lam = rng.uniform(0.1, 0.9)
        mix = DensityMatrix(lam * rho.data + (1 - lam) * rho2.data, (d,))
        for kind in kinds:
            bound = lam * coherence(kind, rho, basis) + (1 - lam) * coherence(
                kind, rho2, basis
            )
            worst["C3"] = max(worst["C3"], coherence(kind, mix, basis) - bound)
    return _battery_report("coherence_conditions", "r,l1", worst, seed, PROPERTY_SLACK)
