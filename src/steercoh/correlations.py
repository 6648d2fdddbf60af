"""Measurement-induced disturbance and steering-induced coherence.

The two headline quantities for a bipartite state rho_AB:

* b_side_mid: smallest distance between rho and its B-side dephasing over
  the eigenbases of rho_B (a one-point set when rho_B is non-degenerate).
* sic: the B-side eigenbasis infimum of the best average coherence Alice can
  steer into Bob's lab by measuring her side projectively.

Inner maximizations run a multi-start derivative-free local search over a
unitary parametrized by a Hermitian generator (UnitaryPoint). Degenerate
marginals add an outer minimization over block rotations of the eigenbasis.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from scipy.linalg import schur
from scipy.optimize import minimize

from .measures import DistanceKind, coherence, distance
from .qkernel import (
    EIG_FLOOR,
    ZERO_PROB,
    DensityMatrix,
    ProjectiveBasis,
    dephase,
    eig_hermitian,
    partial_trace,
    steer,
    von_neumann_entropy,
)
from .report import FAIL, PASS, VerificationReport
from .sampling import (
    random_b_classical,
    random_permutation_phase_kraus,
    random_state_nondegenerate_b,
    random_stinespring_kraus,
)

# Eigenvalues closer than this are treated as degenerate, activating the
# eigenbasis-family optimization.
EPS_DEG = 1e-8


class ComparabilityWarning(UserWarning):
    """The requested quantity is well defined but has no disturbance bound."""


@dataclass(frozen=True)
class SearchBudget:
    """Evaluation budgets for the derivative-free searches.

    starts / max_evals control the inner (Alice basis) maximization;
    outer_starts / outer_evals the eigenbasis-family minimization;
    refine_evals the light warm-started inner passes used while the outer
    search explores.
    """

    starts: int = 32
    max_evals: int = 2000
    outer_starts: int = 8
    outer_evals: int = 600
    refine_evals: int = 140


DEFAULT_BUDGET = SearchBudget()


# ---------------------------------------------------------------------------
# unitary parametrization


@lru_cache(maxsize=32)
def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal Hermitian basis: identity plus generalized Gell-Mann."""
    mats = [np.eye(d, dtype=complex) / math.sqrt(d)]
    for i in range(d):
        for j in range(i + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(m)
            m = np.zeros((d, d), dtype=complex)
            m[i, j] = -1j / math.sqrt(2.0)
            m[j, i] = 1j / math.sqrt(2.0)
            mats.append(m)
    for k in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[np.arange(k), np.arange(k)] = 1.0
        m[k, k] = -k
        mats.append(m / math.sqrt(k * (k + 1)))
    out = np.stack(mats)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _traceless_generators(d: int) -> np.ndarray:
    """The d*d - 1 traceless members of _hermitian_basis(d), each flattened
    to a row: shape (d*d - 1, d*d); a read-only view."""
    return _hermitian_basis(d)[1:].reshape(d * d - 1, d * d)


@dataclass(frozen=True)
class UnitaryPoint:
    """Point in the search space: dim**2 real parameters mapped to a special
    unitary through the exponential of a traceless Hermitian generator.

    params are coefficients over _hermitian_basis(dim); params[0], the
    identity component, only adds a global phase and is ignored."""

    dim: int
    params: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.params, dtype=float).reshape(-1).copy()
        if p.size != self.dim * self.dim:
            raise ValueError(f"expected {self.dim ** 2} parameters, got {p.size}")
        p.flags.writeable = False
        object.__setattr__(self, "params", p)

    def realize(self) -> np.ndarray:
        return _realize_unitary(self.dim, self.params)

    def basis(self) -> ProjectiveBasis:
        return ProjectiveBasis.from_columns(self.realize())

    @classmethod
    def from_unitary(cls, u) -> "UnitaryPoint":
        u = np.asarray(u, dtype=complex)
        d = u.shape[0]
        t, z = schur(u, output="complex")
        phases = np.angle(np.diagonal(t))
        h = (z * phases) @ z.conj().T
        h = (h + h.conj().T) / 2.0
        gens = _hermitian_basis(d)
        params = np.einsum("kij,ji->k", gens, h).real
        return cls(d, params)


def _realize_unitary(d: int, params: np.ndarray) -> np.ndarray:
    h = (params[1:] @ _traceless_generators(d)).reshape(d, d)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def fourier_basis(d: int) -> ProjectiveBasis:
    """Basis mutually unbiased to the computational one:
    |xi_k> = d**-0.5 * sum_j exp(-2 pi i k j / d) |j>."""
    k = np.arange(d)
    vecs = np.exp(-2j * np.pi * np.outer(k, k) / d) / math.sqrt(d)
    return ProjectiveBasis(vecs)


@lru_cache(maxsize=32)
def _fourier_params(d: int) -> np.ndarray:
    return UnitaryPoint.from_unitary(fourier_basis(d).matrix).params


# ---------------------------------------------------------------------------
# eigenbasis families


@dataclass(frozen=True)
class EigenbasisFamily:
    """All eigenbases of a Hermitian matrix, up to irrelevant phases.

    Blocks group eigenvalue clusters (within EPS_DEG). Clusters of size >= 2
    carrying actual weight contribute block-rotation parameters; clusters at
    eigenvalue zero are skipped because their projectors annihilate the state.
    """

    base: ProjectiveBasis
    eigenvalues: np.ndarray
    blocks: tuple
    active_blocks: tuple

    @classmethod
    def from_matrix(cls, mat, eps: float = EPS_DEG) -> "EigenbasisFamily":
        w, v = eig_hermitian(mat)
        blocks = []
        current = [0]
        for i in range(1, w.size):
            if w[i] - w[i - 1] < eps:
                current.append(i)
            else:
                blocks.append(tuple(current))
                current = [i]
        blocks.append(tuple(current))
        active = tuple(
            blk for blk in blocks if len(blk) >= 2 and w[blk[-1]] > EIG_FLOOR
        )
        ev = np.asarray(w, dtype=float)
        ev.flags.writeable = False
        return cls(ProjectiveBasis.from_columns(v), ev, tuple(blocks), active)

    @property
    def n_params(self) -> int:
        return sum(len(blk) ** 2 for blk in self.active_blocks)

    @property
    def is_trivial(self) -> bool:
        return self.n_params == 0

    def member(self, params) -> ProjectiveBasis:
        if self.is_trivial:
            return self.base
        params = np.asarray(params, dtype=float).reshape(-1)
        if params.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {params.size}")
        cols = np.array(self.base.matrix)
        off = 0
        for blk in self.active_blocks:
            m = len(blk)
            u = _realize_unitary(m, params[off:off + m * m])
            idx = list(blk)
            cols[:, idx] = cols[:, idx] @ u
            off += m * m
        return ProjectiveBasis.from_columns(cols)


def _b_marginal_family(rho: DensityMatrix) -> EigenbasisFamily:
    return EigenbasisFamily.from_matrix(partial_trace(rho, [1]).data)


# ---------------------------------------------------------------------------
# objective machinery


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis; entries at or below
    EIG_FLOOR contribute zero."""
    return -(x * np.log2(np.where(x > EIG_FLOOR, x, 1.0))).sum(axis=-1)


def _binary_entropy(x: float) -> float:
    if x <= EIG_FLOOR or x >= 1.0 - EIG_FLOOR:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _rotate_bob_frame(rho: DensityMatrix, bob_basis: ProjectiveBasis) -> np.ndarray:
    da = rho.dims[0]
    big = np.kron(np.eye(da), bob_basis.matrix)
    return big.conj().T @ rho.data @ big


def _objective_bloch_2q(sig: np.ndarray, kind: DistanceKind):
    """Two-qubit objective in Bloch form; Bob's reference basis is the z axis
    of the (already rotated) frame."""
    a = np.array([np.trace(sig @ np.kron(_PAULI[i], _PAULI[0])).real for i in (1, 2, 3)])
    b = np.array([np.trace(sig @ np.kron(_PAULI[0], _PAULI[j])).real for j in (1, 2, 3)])
    tmat_t = np.array(
        [[np.trace(sig @ np.kron(_PAULI[i], _PAULI[j])).real for i in (1, 2, 3)]
         for j in (1, 2, 3)]
    )  # transpose of the correlation matrix
    s2 = math.sqrt(2.0)
    is_l1 = kind is DistanceKind.L1

    def f(params):
        hx, hy, hz = params[1] / s2, params[2] / s2, params[3] / s2
        h = math.sqrt(hx * hx + hy * hy + hz * hz)
        if h < 1e-12:
            ux, uy, uz = 0.0, 0.0, 1.0
        else:
            c, s = math.cos(h), math.sin(h)
            nx, ny, nz = hx / h, hy / h, hz / h
            alpha = complex(c, s * nz)
            beta = complex(-s * ny, s * nx)
            ab = alpha.conjugate() * beta
            ux, uy = 2.0 * ab.real, 2.0 * ab.imag
            uz = (alpha.real ** 2 + alpha.imag ** 2) - (beta.real ** 2 + beta.imag ** 2)
        u = np.array([ux, uy, uz])
        tu = tmat_t @ u
        au = float(a @ u)
        total = 0.0
        for sign in (1.0, -1.0):
            p = 0.5 * (1.0 + sign * au)
            if p < ZERO_PROB:
                continue
            v = b + sign * tu
            rx, ry, rz = v[0] / (2 * p), v[1] / (2 * p), v[2] / (2 * p)
            if is_l1:
                total += p * math.hypot(rx, ry)
            else:
                rn = min(math.sqrt(rx * rx + ry * ry + rz * rz), 1.0)
                cval = _binary_entropy(0.5 * (1 + abs(rz))) - _binary_entropy(0.5 * (1 + rn))
                total += p * max(0.0, cval)
        return total

    return f


def _objective_general(sig: np.ndarray, da: int, db: int, kind: DistanceKind):
    # amat[(a,c),(b,d)] = sig[(a,b),(c,d)]: Alice's index pair on the rows
    amat = sig.reshape(da, db, da, db).transpose(0, 2, 1, 3).reshape(da * da, db * db)
    diag = slice(None, None, db + 1)  # diagonal of a flattened db x db block
    is_l1 = kind is DistanceKind.L1

    def f(params):
        u = _realize_unitary(da, params)
        w = (u.conj()[:, None, :] * u[None, :, :]).reshape(da * da, da)
        # row i is outcome i's unnormalised steered state, flattened
        m = w.T @ amat
        ps = m[:, diag].real.sum(axis=1)
        good = ps >= ZERO_PROB
        if not good.all():
            if not good.any():
                return 0.0
            m, ps = m[good], ps[good]
        mn = m / ps[:, None]
        if is_l1:
            mag = np.abs(mn)
            per = mag.sum(axis=1) - mag[:, diag].sum(axis=1)
        else:
            if db == 2:
                purity = (mn.real ** 2 + mn.imag ** 2).sum(axis=1)
                r = np.sqrt(np.maximum(2.0 * purity - 1.0, 0.0))
                lam = 0.5 + np.multiply.outer(r, (0.5, -0.5))
            else:
                lam = np.linalg.eigvalsh(mn.reshape(-1, db, db))
            spectra = np.minimum(np.maximum(np.array([mn[:, diag].real, lam]), 0.0), 1.0)
            s_diag, s_full = _entropy_rows(spectra)
            per = np.maximum(s_diag - s_full, 0.0)
        return float(ps @ per)

    return f


def _alice_objective(rho: DensityMatrix, bob_basis: ProjectiveBasis, kind: DistanceKind,
                     force_general: bool = False):
    da, db = rho.dims
    sig = _rotate_bob_frame(rho, bob_basis)
    if da == 2 and db == 2 and not force_general:
        return _objective_bloch_2q(sig, kind)
    return _objective_general(sig, da, db, kind)


def avg_steered_coherence(rho: DensityMatrix, alice: ProjectiveBasis,
                          bob_basis: ProjectiveBasis, kind) -> float:
    """Average coherence of Bob's steered states for one Alice basis.

    Reference implementation used for witnesses and cross-checks; outcome
    probabilities below the zero threshold are excluded.
    """
    kind = DistanceKind.parse(kind)
    total = 0.0
    for out in steer(rho, alice):
        if out.negligible:
            continue
        total += out.probability * coherence(kind, out.state, bob_basis)
    return total


# ---------------------------------------------------------------------------
# multi-start search engine


class _SearchOutcome(NamedTuple):
    value: float
    x: np.ndarray
    converged: bool
    evals: int


def _multistart_minimize(fn, starts, max_evals, xtol=1e-7, ftol=1e-11) -> _SearchOutcome:
    best = None
    total = 0
    for idx, x0 in enumerate(starts):
        res = minimize(
            fn,
            np.asarray(x0, dtype=float),
            method="Powell",
            options={"maxfev": int(max_evals), "xtol": xtol, "ftol": ftol},
        )
        total += res.nfev
        # ties broken by start order: strict < keeps the earliest
        if best is None or res.fun < best[0]:
            best = (float(res.fun), np.asarray(res.x, dtype=float), bool(res.success))
    return _SearchOutcome(best[0], best[1], best[2], total)


def _alice_starts(da: int, budget: SearchBudget, rng: np.random.Generator,
                  extra=()) -> list:
    n = da * da
    starts = [np.zeros(n), np.asarray(_fourier_params(da), dtype=float)]
    for e in extra:
        starts.append(np.asarray(e, dtype=float))
    while len(starts) < budget.starts:
        starts.append(rng.normal(scale=1.2, size=n))
    return starts


def _maximize_alice(rho: DensityMatrix, bob_basis: ProjectiveBasis, kind: DistanceKind,
                    budget: SearchBudget, rng: np.random.Generator,
                    extra_starts=(), force_general: bool = False) -> _SearchOutcome:
    f = _alice_objective(rho, bob_basis, kind, force_general=force_general)
    starts = _alice_starts(rho.dims[0], budget, rng, extra_starts)
    res = _multistart_minimize(lambda x: -f(x), starts, budget.max_evals)
    return _SearchOutcome(-res.value, res.x, res.converged, res.evals)


# ---------------------------------------------------------------------------
# disturbance quantities


def _dephased_b(rho: DensityMatrix, basis: ProjectiveBasis) -> DensityMatrix:
    return dephase(rho, basis, target=1)


def _mid_value(rho: DensityMatrix, sigma: DensityMatrix, kind: DistanceKind) -> float:
    if kind is DistanceKind.RELATIVE_ENTROPY:
        # sigma is a pinching of rho, so the divergence is an entropy gap
        return max(0.0, von_neumann_entropy(sigma) - von_neumann_entropy(rho))
    return float(np.abs(np.linalg.eigvalsh(rho.data - sigma.data)).sum())


def _check_mid_kind(kind) -> DistanceKind:
    kind = DistanceKind.parse(kind)
    if kind is DistanceKind.L1:
        raise ValueError(
            "l1 distance is basis dependent and does not define a disturbance "
            "measure; use 'r' or 't'"
        )
    return kind


class MidResult(NamedTuple):
    value: float
    basis: ProjectiveBasis
    converged: bool


def b_side_mid_detail(rho: DensityMatrix, kind, budget: SearchBudget | None = None,
                       seed: int = 0) -> MidResult:
    kind = _check_mid_kind(kind)
    if rho.n_subsystems != 2:
        raise ValueError("b_side_mid expects a bipartite state (regroup dims first)")
    budget = budget or DEFAULT_BUDGET
    fam = _b_marginal_family(rho)
    if fam.is_trivial:
        basis = fam.base
        return MidResult(_mid_value(rho, _dephased_b(rho, basis), kind), basis, True)
    rng = np.random.default_rng(seed)

    def obj(phi):
        return _mid_value(rho, _dephased_b(rho, fam.member(phi)), kind)

    starts = [np.zeros(fam.n_params)]
    while len(starts) < budget.outer_starts:
        starts.append(rng.normal(scale=1.2, size=fam.n_params))
    res = _multistart_minimize(obj, starts, budget.outer_evals, xtol=1e-8, ftol=1e-13)
    return MidResult(res.value, fam.member(res.x), res.converged)


def b_side_mid(rho: DensityMatrix, kind, budget: SearchBudget | None = None,
               seed: int = 0) -> float:
    """B-side measurement-induced disturbance: the smallest distance between
    rho and its B-side dephasing over eigenbases of rho_B."""
    return b_side_mid_detail(rho, kind, budget, seed).value


class MidJointResult(NamedTuple):
    value: float
    basis_a: ProjectiveBasis
    basis_b: ProjectiveBasis
    converged: bool


def mid_detail(rho: DensityMatrix, kind, budget: SearchBudget | None = None,
               seed: int = 0) -> MidJointResult:
    kind = _check_mid_kind(kind)
    if rho.n_subsystems != 2:
        raise ValueError("mid expects a bipartite state (regroup dims first)")
    budget = budget or DEFAULT_BUDGET
    fam_a = EigenbasisFamily.from_matrix(partial_trace(rho, [0]).data)
    fam_b = _b_marginal_family(rho)
    na, nb = fam_a.n_params, fam_b.n_params

    def value_at(basis_a, basis_b):
        sig = dephase(dephase(rho, basis_a, target=0), basis_b, target=1)
        return _mid_value(rho, sig, kind)

    if na == 0 and nb == 0:
        return MidJointResult(value_at(fam_a.base, fam_b.base),
                              fam_a.base, fam_b.base, True)
    rng = np.random.default_rng(seed)

    def obj(phi):
        return value_at(fam_a.member(phi[:na]), fam_b.member(phi[na:]))

    starts = [np.zeros(na + nb)]
    while len(starts) < budget.outer_starts:
        starts.append(rng.normal(scale=1.2, size=na + nb))
    res = _multistart_minimize(obj, starts, budget.outer_evals, xtol=1e-8, ftol=1e-13)
    return MidJointResult(res.value, fam_a.member(res.x[:na]),
                          fam_b.member(res.x[na:]), res.converged)


def mid(rho: DensityMatrix, kind, budget: SearchBudget | None = None,
        seed: int = 0) -> float:
    """Two-sided measurement-induced disturbance (dephase both marginals)."""
    return mid_detail(rho, kind, budget, seed).value


# ---------------------------------------------------------------------------
# steering-induced coherence


class SicResult(NamedTuple):
    value: float
    alice_basis: ProjectiveBasis
    bob_basis: ProjectiveBasis
    converged: bool


def sic(rho: DensityMatrix, kind, budget: SearchBudget | None = None,
        seed: int = 0, force_general: bool = False) -> SicResult:
    """Steering-induced coherence of a bipartite state.

    Maximizes the average steered coherence over Alice's projective bases;
    when rho_B is degenerate the eigenbasis of reference is additionally
    minimized over (a minimax, solved by nesting the searches). The reported
    value is re-evaluated at the returned witness bases.
    """
    kind = DistanceKind.parse(kind)
    if kind is DistanceKind.TRACE_NORM:
        raise ValueError("steered coherence uses kinds 'r' or 'l1'")
    if rho.n_subsystems != 2:
        raise ValueError("sic expects a bipartite state (regroup dims first)")
    if kind is DistanceKind.L1 and rho.dims[1] > 2:
        warnings.warn(
            "l1 steered coherence with dim_B > 2 has no disturbance counterpart",
            ComparabilityWarning,
            stacklevel=2,
        )
    budget = budget or DEFAULT_BUDGET
    rng = np.random.default_rng(seed)
    fam = _b_marginal_family(rho)
    if fam.is_trivial:
        res = _maximize_alice(rho, fam.base, kind, budget, rng,
                              force_general=force_general)
        alice = UnitaryPoint(rho.dims[0], res.x).basis()
        value = avg_steered_coherence(rho, alice, fam.base, kind)
        return SicResult(value, alice, fam.base, res.converged)
    return _sic_degenerate(rho, kind, fam, budget, rng, force_general)


def _exact_inner_l1_2q(rho: DensityMatrix):
    """Exact inner maximum for two qubits with rho_B maximally mixed.

    In Bloch form the averaged steered l1 coherence at Alice direction u and
    reference axis n is |P T^t u| with P the projector onto the plane
    orthogonal to n (the local terms cancel because b = 0), so the maximum
    over u is the top singular value of P T^t. Used only to steer the outer
    search; the returned witness value always comes from the generic path.
    """
    tmat_t = np.array(
        [[np.trace(rho.data @ np.kron(_PAULI[i], _PAULI[j])).real for i in (1, 2, 3)]
         for j in (1, 2, 3)]
    )

    def value(basis: ProjectiveBasis) -> float:
        v = basis.vectors[0]
        rho01 = v[0] * np.conj(v[1])
        n = np.array([2.0 * rho01.real, -2.0 * rho01.imag,
                      abs(v[0]) ** 2 - abs(v[1]) ** 2])
        proj = np.eye(3) - np.outer(n, n)
        return float(np.linalg.svd(proj @ tmat_t, compute_uv=False)[0])

    return value


def _sic_degenerate(rho: DensityMatrix, kind: DistanceKind, fam: EigenbasisFamily,
                    budget: SearchBudget, rng: np.random.Generator,
                    force_general: bool) -> SicResult:
    da = rho.dims[0]
    incumbent = {"x": None}
    fixed_start = rng.normal(scale=1.2, size=da * da)
    exact_inner = None
    if kind is DistanceKind.L1 and rho.dims == (2, 2) and not force_general:
        exact_inner = _exact_inner_l1_2q(rho)

    def inner_light(basis) -> float:
        if exact_inner is not None:
            return exact_inner(basis)
        f = _alice_objective(rho, basis, kind, force_general=force_general)
        starts = [np.zeros(da * da), fixed_start]
        if incumbent["x"] is not None:
            starts.insert(0, incumbent["x"])
        res = _multistart_minimize(lambda x: -f(x), starts, budget.refine_evals,
                                   xtol=1e-6, ftol=1e-10)
        incumbent["x"] = res.x
        return -res.value

    def outer_obj(phi):
        return inner_light(fam.member(phi))

    value = np.inf
    best_phi = np.zeros(fam.n_params)
    converged = False
    final = None
    for _ in range(2):
        starts = [best_phi]
        while len(starts) < budget.outer_starts:
            starts.append(rng.normal(scale=1.2, size=fam.n_params))
        outer = _multistart_minimize(outer_obj, starts, budget.outer_evals,
                                     xtol=1e-7, ftol=1e-11)
        best_phi = outer.x
        bob = fam.member(best_phi)
        extra = (incumbent["x"],) if incumbent["x"] is not None else ()
        final = _maximize_alice(rho, bob, kind, budget, rng, extra_starts=extra,
                                force_general=force_general)
        incumbent["x"] = final.x
        converged = outer.converged and final.converged
        if final.value <= outer.value + 1e-6:
            break
        # the light inner pass underestimated the max at the chosen basis;
        # rerun the outer search with the improved incumbent
    bob = fam.member(best_phi)
    alice = UnitaryPoint(da, final.x).basis()
    value = avg_steered_coherence(rho, alice, bob, kind)
    converged = converged and abs(value - final.value) <= 1e-7
    return SicResult(value, alice, bob, converged)


# ---------------------------------------------------------------------------
# verification


def verify_theorem1(rho: DensityMatrix, kind="r", budget: SearchBudget | None = None,
                    seed: int = 0) -> VerificationReport:
    """Check that steering-induced coherence never exceeds the B-side
    disturbance (relative-entropy kind), for one state."""
    kind = DistanceKind.parse(kind)
    if kind is not DistanceKind.RELATIVE_ENTROPY:
        raise ValueError("the disturbance bound is certified for kind 'r' only")
    tol = 1e-6
    res = sic(rho, kind, budget, seed)
    mid_res = b_side_mid_detail(rho, kind, budget, seed)
    margin = mid_res.value - res.value
    status = PASS if margin >= -tol else FAIL
    return VerificationReport(
        theorem="sic_le_b_side_mid",
        kind=kind.value,
        value_lhs=res.value,
        value_rhs=mid_res.value,
        margin=margin,
        tolerance=tol,
        seeds=(seed,),
        converged=res.converged and mid_res.converged,
        status=status,
    )


def _aligned_to_b_eigenbasis(rho: DensityMatrix) -> DensityMatrix:
    """Rotate Bob's side so rho_B is diagonal (sic is invariant under this)."""
    fam = _b_marginal_family(rho)
    big = np.kron(np.eye(rho.dims[0]), fam.base.matrix)
    return DensityMatrix(big.conj().T @ rho.data @ big, rho.dims, rho.tol)


def verify_sic_properties(rho: DensityMatrix, kind="r",
                          budget: SearchBudget | None = None, seed: int = 0,
                          samples: int = 4) -> VerificationReport:
    """Spot-check the resource-style properties of steered coherence around a
    given state: vanishing on B-classical states, monotonicity under local
    channels on A, monotonicity on average under incoherent selective maps on
    B, and convexity across mixtures sharing Bob's reference eigenbasis."""
    kind = DistanceKind.parse(kind)
    budget = budget or DEFAULT_BUDGET
    rng = np.random.default_rng(seed)
    details = []
    worst = np.inf

    # E1: B-classical states carry no steerable coherence
    tol_e1 = 1e-7
    for _ in range(samples):
        cls_state = random_b_classical(rho.dims, rng)
        v = sic(cls_state, kind, budget, seed).value
        worst = min(worst, tol_e1 - v)
        details.append(f"E1 classical sic={v:.3e}")

    # E2: channels on Alice's side cannot increase it
    base = sic(rho, kind, budget, seed).value
    tol_mono = 1e-6
    from .qkernel import apply_kraus

    for _ in range(samples):
        ch = random_stinespring_kraus(rho.dims[0], 2, rng, target=0)
        after = sic(apply_kraus(rho, ch), kind, budget, seed).value
        worst = min(worst, base + tol_mono - after)
        details.append(f"E2 before={base:.6f} after={after:.6f}")

    # E3: selective incoherent maps on Bob's side do not increase it on
    # average (tested in the frame where rho_B is diagonal, so every branch
    # shares the same reference eigenbasis)
    aligned = _aligned_to_b_eigenbasis(rho)
    base_aligned = sic(aligned, kind, budget, seed).value
    for _ in range(samples):
        kmap = random_permutation_phase_kraus(rho.dims[1], 2, rng, target=1)
        avg = 0.0
        for out in apply_kraus(aligned, kmap, selective=True):
            if out.negligible:
                continue
            avg += out.probability * sic(out.state, kind, budget, seed).value
        worst = min(worst, base_aligned + tol_mono - avg)
        details.append(f"E3 base={base_aligned:.6f} avg={avg:.6f}")

    # E4: convexity across mixtures sharing the reference eigenbasis
    for _ in range(samples):
        partner = _aligned_to_b_eigenbasis(
            random_state_nondegenerate_b(rho.dims, rng)
        )
        lam = float(rng.uniform(0.2, 0.8))
        mix = DensityMatrix(
            lam * aligned.data + (1 - lam) * partner.data, rho.dims
        )
        vp = sic(partner, kind, budget, seed).value
        vm = sic(mix, kind, budget, seed).value
        bound = lam * base_aligned + (1 - lam) * vp
        worst = min(worst, bound + tol_mono - vm)
        details.append(f"E4 mix={vm:.6f} bound={bound:.6f}")

    status = PASS if worst >= 0 else FAIL
    return VerificationReport(
        theorem="sic_resource_properties",
        kind=kind.value,
        value_lhs=base,
        value_rhs=base,
        margin=float(worst),
        tolerance=tol_mono,
        seeds=(seed,),
        converged=True,
        status=status,
        details=tuple(details),
    )
