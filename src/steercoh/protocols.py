"""Witness-state generators and the steering-to-entanglement protocol.

Contains the named states used throughout the package (maximally correlated
families, the Bell state, the coherence/disturbance gap example, the rho_X
counterexample), JSON-serializable recipes for the CLI, and the tripartite
protocol that converts steered coherence into B-C entanglement through an
incoherent copy gate. Its steered BC states are maximally correlated, so their
relative entropy of entanglement has the closed form S(B) - S(BC).
"""

from __future__ import annotations

import inspect
import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .correlations import (
    EPS_DEG,
    SearchBudget,
    _aligned_to_b_eigenbasis,
    _lanes_search,
    avg_steered_coherence,
    b_side_mid,
    b_side_mid_detail,
    fourier_basis,
    sic,
)
from .measures import (
    DistanceKind,
    coherence,
    relative_entropy,
)
from .qkernel import (
    DEFAULT_TOL,
    EIG_FLOOR,
    DensityMatrix,
    KrausMap,
    ProjectiveBasis,
    _entropy_rows,
    _number,
    apply_kraus,
    eig_hermitian,  # noqa: F401  (unused here; perfbench/tracer.py rebinds it)
    entropy_of_probs,
    partial_trace,
    product_basis,
    regroup_dims,
    steer,
    tensor_product,
    von_neumann_entropy,
)
from .report import FAIL, FINDING, PASS, SKIP, VerificationReport
from .sampling import (
    min_eigengap,
    random_b_classical,
    random_hs_state,
    random_psd_unit_trace,
    random_pure,
)

PURITY_TOL = 1e-9
_ABSENT = object()  # the default of a recipe parameter whose presence picks a branch


# ---------------------------------------------------------------------------
# named states


def maximally_correlated(coeff) -> DensityMatrix:
    """rho = sum_ij m_ij |ii><jj| from a PSD unit-trace coefficient matrix.

    The embedding is an isometry onto span{|ii>}, so the state inherits the
    coefficient matrix's spectrum.
    """
    m = np.asarray(coeff, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("coefficient matrix must be square")
    d = m.shape[0]
    if abs(np.trace(m) - 1.0) > 1e-9 or np.abs(m - m.conj().T).max() > 1e-9:
        raise ValueError("coefficient matrix must be Hermitian with unit trace")
    if np.linalg.eigvalsh(m).min() < -1e-9:
        raise ValueError("coefficient matrix must be positive semidefinite")
    data = np.zeros((d * d, d * d), dtype=complex)
    idx = np.arange(d) * d + np.arange(d)
    data[np.ix_(idx, idx)] = m
    return DensityMatrix(data, (d, d))


def bell_state() -> DensityMatrix:
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return DensityMatrix.from_pure(v, (2, 2))


def gap_example() -> DensityMatrix:
    """Equal mixture of the Bell state with |01><01|: the state whose B-side
    relative-entropy disturbance (0.5 bits) strictly exceeds its steered
    coherence."""
    bell = bell_state().data
    data = 0.5 * bell
    data[1, 1] += 0.5
    return DensityMatrix(data, (2, 2))


def rho_x_state() -> DensityMatrix:
    """Three-qubit state mixing |0><0| (x) Psi+ with |1><1| (x) Psi-.

    BC-classical with respect to the Bell-type basis (so the BC disturbance
    vanishes) yet each steered BC state is maximally entangled.
    """
    psi_p = np.zeros(4, dtype=complex)
    psi_m = np.zeros(4, dtype=complex)
    psi_p[0] = psi_p[3] = 1.0 / math.sqrt(2.0)
    psi_m[0], psi_m[3] = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
    data = np.zeros((8, 8), dtype=complex)
    data[:4, :4] = 0.5 * np.outer(psi_p, psi_p.conj())
    data[4:, 4:] = 0.5 * np.outer(psi_m, psi_m.conj())
    return DensityMatrix(data, (2, 2, 2))


def werner_state(p: float) -> DensityMatrix:
    """p |Phi+><Phi+| + (1-p) I/4, valid for -1/3 <= p <= 1."""
    if p < -1.0 / 3.0 - 1e-12 or p > 1.0 + 1e-12:
        raise ValueError("werner mixing parameter out of range")
    data = p * bell_state().data + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(data, (2, 2))


def bell_diagonal_state(weights) -> DensityMatrix:
    """sum_k w_k |B_k><B_k| over the Bell basis Phi+, Phi-, Psi+, Psi-."""
    if len(weights) != 4:
        raise ValueError("a Bell-diagonal state takes four weights")
    kets = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]],
                    dtype=complex) / math.sqrt(2.0)
    data = sum(w * np.outer(k, k.conj()) for w, k in zip(weights, kets))
    return DensityMatrix(data, (2, 2))


# ---------------------------------------------------------------------------
# recipes


@dataclass(frozen=True)
class StateRecipe:
    """JSON-serializable description of a state for CLI replay."""

    kind: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in _RECIPES:
            raise ValueError(f"unknown recipe kind {self.kind!r}")

    def to_json(self) -> str:
        return json.dumps(
            {"kind": self.kind, "params": self.params, "seed": self.seed},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "StateRecipe":
        payload = json.loads(text)
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ValueError("recipe must be an object with a 'kind' field")
        try:
            params = dict(payload.get("params", {}))
        except TypeError as exc:
            raise ValueError("recipe params must be an object") from exc
        return cls(kind=payload["kind"], params=params,
                   seed=_number(payload.get("seed", 0), "seed", int))


def _floats(value, what: str) -> np.ndarray:
    """value as a float array, for a recipe field; a value of the wrong JSON
    type (an object or null) raises ValueError, as a ragged list does."""
    message = f"{what} must be an array of numbers, got {value!r}"
    if value is None:  # np.asarray would make it a 0-d NaN
        raise ValueError(message)
    try:
        return np.asarray(value, dtype=float)
    except TypeError as exc:
        raise ValueError(message) from exc


def _maximally_correlated_recipe(*, coeff_re=_ABSENT, coeff_im=0.0, schmidt=_ABSENT, d=2):
    """The coefficient matrix coeff_re + i coeff_im, else the pure state of
    Schmidt weights schmidt, else a random d x d coefficient matrix."""
    if coeff_re is not _ABSENT:
        real, imag = _floats(coeff_re, "coeff_re"), _floats(coeff_im, "coeff_im")
        side = max(np.broadcast_shapes(real.shape, imag.shape), default=1)
        return side * side, lambda rng: maximally_correlated(real + 1j * imag)
    if schmidt is not _ABSENT:
        lam = _floats(schmidt, "schmidt")
        if lam.min() < -1e-12 or abs(lam.sum() - 1.0) > 1e-9:
            raise ValueError("schmidt weights must be a probability vector")
        root = np.sqrt(np.clip(lam, 0.0, None))
        return root.size ** 2, lambda rng: maximally_correlated(np.outer(root, root))
    d = _number(d, "d", int)
    if d < 2:
        raise ValueError("d must be at least 2")
    return d * d, lambda rng: maximally_correlated(random_psd_unit_trace(d, rng))


def _werner_recipe(*, p=1.0):
    p = _number(p, "p", float)
    return 4, lambda rng: werner_state(p)


def _drawn(draw, parties: int | None = None):
    """A kind drawn as draw(dims, rng), on `parties` subsystems if that is set."""
    def parse(*, dims=(2, 2)):
        if not isinstance(dims, (list, tuple)):
            raise ValueError("dims must be a list of subsystem dimensions")
        dims = tuple(_number(d, "a subsystem dimension", int) for d in dims)
        if any(d < 2 for d in dims):
            raise ValueError("every subsystem dimension must be at least 2")
        if parties is not None and len(dims) != parties:
            raise ValueError(f"dims must list {parties} subsystem dimensions, got {len(dims)}")
        return math.prod(dims), lambda rng: draw(dims, rng)

    return parse


# each recipe kind: a function of its parameters, keywords with their defaults,
# that parses them and returns (total dimension, build), allocating nothing of
# the state's size; build(rng) makes the state
_RECIPES = {
    "maximally_correlated": _maximally_correlated_recipe,
    "bell": lambda: (4, lambda rng: bell_state()),
    "gap_example": lambda: (4, lambda rng: gap_example()),
    "rho_x": lambda: (8, lambda rng: rho_x_state()),
    "b_classical": _drawn(random_b_classical, parties=2),
    "random_hs": _drawn(random_hs_state),
    "random_pure": _drawn(random_pure),
    "product": _drawn(lambda dims, rng: tensor_product(
        random_hs_state(dims[:1], rng), random_hs_state(dims[1:], rng)), parties=2),
    "werner": _werner_recipe,
}


def _side_and_build(recipe: StateRecipe):
    """(total dimension, build) from the recipe kind's entry in _RECIPES; a
    parameter the kind does not take raises ValueError naming it."""
    parse = _RECIPES[recipe.kind]
    taken = inspect.signature(parse).parameters
    for name in recipe.params:
        if name not in taken:
            raise ValueError(f"recipe kind {recipe.kind!r} takes no parameter {name!r}")
    return parse(**recipe.params)


def recipe_side(recipe: StateRecipe) -> int:
    """Total dimension of make_state(recipe), found without building it."""
    return _side_and_build(recipe)[0]


def make_state(recipe: StateRecipe) -> DensityMatrix:
    return _side_and_build(recipe)[1](np.random.default_rng(recipe.seed))


# ---------------------------------------------------------------------------
# maximally correlated verification


def verify_theorem2(d: int, budget: SearchBudget | None = None, seed: int = 0,
                    coeff=None) -> VerificationReport:
    """Check that maximally correlated states reach the disturbance bound:
    steered coherence = B-side disturbance = S(rho_B) - S(rho), with the
    mutually unbiased (Fourier) measurement achieving the optimum."""
    rng = np.random.default_rng(seed)
    if coeff is None:
        for _ in range(64):
            m = random_psd_unit_trace(d, rng)
            if min_eigengap(np.diag(np.diagonal(m))) > 1e-4:
                break
        else:
            return VerificationReport(
                theorem="maximally_correlated_equality", kind="r",
                value_lhs=0.0, value_rhs=0.0, margin=0.0, tolerance=1e-5,
                seeds=(seed,), converged=False, status=SKIP,
                details=("resampling budget exhausted: rho_B stayed degenerate",),
            )
    else:
        m = np.asarray(coeff, dtype=complex)
    rho = maximally_correlated(m)
    rho_b = partial_trace(rho, [1])
    rhs = von_neumann_entropy(rho_b) - von_neumann_entropy(rho)
    four = avg_steered_coherence(
        rho, fourier_basis(d), ProjectiveBasis.computational(d), DistanceKind.RELATIVE_ENTROPY
    )
    q_b = b_side_mid(rho, DistanceKind.RELATIVE_ENTROPY, budget, seed)
    res = sic(rho, DistanceKind.RELATIVE_ENTROPY, budget, seed)
    tol = 1e-5
    dev_sic = abs(res.value - rhs)
    dev_four = abs(four - rhs)
    overshoot = res.value - q_b
    ok = dev_sic <= tol and dev_four <= 1e-7 and overshoot <= 1e-6
    return VerificationReport(
        theorem="maximally_correlated_equality",
        kind="r",
        value_lhs=res.value,
        value_rhs=rhs,
        margin=tol - dev_sic,
        tolerance=tol,
        seeds=(seed,),
        converged=res.converged,
        status=PASS if ok else FAIL,
        details=(
            f"entropy_gap={rhs:.10f}",
            f"fourier_avg={four:.10f} (dev {dev_four:.2e}, tol 1e-07)",
            f"b_side_mid={q_b:.10f} (overshoot {overshoot:+.2e}, tol 1e-06)",
        ),
    )


# ---------------------------------------------------------------------------
# tripartite steering protocol


def incoherent_cnot(d_b: int, d_c: int) -> KrausMap:
    """Copy gate |j>_B |k>_C -> |j>_B |(k + j) mod d_C>_C as a single-unitary
    Kraus map on the joined BC subsystem. Permutes the computational product
    basis, so incoherent states stay incoherent."""
    if d_c < d_b:
        raise ValueError("the target register cannot be smaller than the source")
    side = d_b * d_c
    u = np.zeros((side, side), dtype=complex)
    for j in range(d_b):
        for k in range(d_c):
            u[j * d_c + (k + j) % d_c, j * d_c + k] = 1.0
    return KrausMap((u,), target=1)


def prepare_protocol_state(varrho_ab: DensityMatrix, d_c: int | None = None) -> DensityMatrix:
    """Attach |0><0| on C and apply the incoherent copy gate on BC."""
    if varrho_ab.n_subsystems != 2:
        raise ValueError("expected a bipartite input state")
    da, db = varrho_ab.dims
    d_c = db if d_c is None else int(d_c)
    ancilla = np.zeros((d_c, d_c), dtype=complex)
    ancilla[0, 0] = 1.0
    rho0 = tensor_product(varrho_ab, DensityMatrix(ancilla, (d_c,)))
    flat = regroup_dims(rho0, (da, db * d_c))
    out = apply_kraus(flat, incoherent_cnot(db, d_c))
    return regroup_dims(out, (da, db, d_c))


class ReeResult(NamedTuple):
    value: float
    converged: bool


def _ree_objective(rho: DensityMatrix):
    """S(rho || sigma) in bits and its gradient over stacked rows of 64
    reals: f(rows) -> (values, grads, sigmas). A row holds 8 product kets
    a_k (x) b_k, each factor two complex entries as (re, im) pairs, and
    sigma = M / tr M with M = sum_k |a_k b_k><a_k b_k|, its eigenvalues
    floored at EIG_FLOOR. dS = -tr(G dsigma) with G = V (L o V^dag rho V) V^dag,
    where L holds the divided differences of log2 at sigma's eigenvalues
    (Daleckii-Krein, as in _chart_pullback), written through atanh so close
    eigenvalues do not cancel; the gradient in psi_k = a_k (x) b_k is
    2 (tr(G sigma) psi_k - G psi_k) / tr M.
    """
    r = rho.data
    neg_entropy = -float(_entropy_rows(np.linalg.eigvalsh(r)))

    def f(rows):
        a, b = np.moveaxis(np.ascontiguousarray(rows, dtype=float)
                           .reshape(-1, 8, 2, 4).view(complex), 2, 0)
        psi = (a[..., :, None] * b[..., None, :]).reshape(-1, 8, 4)
        norm = (psi.real ** 2 + psi.imag ** 2).sum(axis=(1, 2))[:, None, None]
        sigma = psi.swapaxes(1, 2) @ psi.conj() / norm
        w, v = np.linalg.eigh(sigma)
        w = np.maximum(w, EIG_FLOOR)
        vh = v.conj().swapaxes(1, 2)
        o = vh @ r @ v
        values = neg_entropy - (np.diagonal(o, axis1=1, axis2=2).real * np.log2(w)).sum(axis=1)
        s = w[:, :, None] + w[:, None, :]
        u = (w[:, :, None] - w[:, None, :]) / s
        ratio = np.divide(np.arctanh(u), u, out=np.ones_like(u), where=u != 0.0)
        g = v @ (2.0 / math.log(2.0) * ratio / s * o) @ vh
        tr_g_sigma = (g * sigma.swapaxes(1, 2)).sum(axis=(1, 2)).real[:, None, None]
        dpsi = (2.0 * (tr_g_sigma * psi - psi @ g.swapaxes(1, 2)) / norm).reshape(-1, 8, 2, 2)
        # each factor's part contracts dpsi with the conjugate of the other factor
        dz = np.concatenate([(dpsi @ b.conj()[..., None])[..., 0],
                             (a.conj()[..., None, :] @ dpsi)[..., 0, :]], axis=2)
        return values, dz.view(float).reshape(-1, 64), sigma

    return f


def ree_numeric(rho: DensityMatrix, budget: SearchBudget | None = None,
                seed: int = 0) -> ReeResult:
    """Upper bound on the relative entropy of entanglement of a two-qubit
    state: minimize S(rho || sigma) over mixtures of up to 8 product
    projectors (_ree_objective) in one lockstep gradient search, a lane per
    start. Lane 0 starts at the fully dephased state, so the result never
    exceeds that separable candidate's divergence. The value is
    relative_entropy at the best sigma; converged means the best lane passed
    the gradient test and that value is within 1e-7 of the search's.
    """
    if rho.dims != (2, 2):
        raise ValueError("ree_numeric supports two-qubit states only")
    budget = budget or SearchBudget(starts=16, max_evals=3000)
    rng = np.random.default_rng(seed)
    f = _ree_objective(rho)
    k = np.arange(4)
    warm = np.zeros((8, 2, 2, 2))
    warm[k, 0, k // 2, 0] = warm[k, 1, k % 2, 0] = (
        np.clip(np.diagonal(rho.data).real, 0.0, None) ** 0.25)
    starts = np.vstack([warm.reshape(1, 64),
                        rng.normal(scale=0.5, size=(max(budget.starts - 1, 0), 64))])

    def fun(points, idx):
        values, grads, _ = f(starts[idx] + np.array(points))
        return zip(values.tolist(), grads.tolist())

    res = _lanes_search(fun, len(starts), 64, budget.max_evals)
    value = relative_entropy(rho, DensityMatrix(f(starts[res.run] + res.x)[2][0], (2, 2)))
    return ReeResult(value, res.converged and abs(value - res.value) <= 1e-7)


def steering_induced_entanglement(rho_abc: DensityMatrix, alice: ProjectiveBasis,
                                  budget: SearchBudget | None = None,
                                  seed: int = 0):
    """Average entanglement Alice's measurement leaves between B and C.

    A pure steered BC state, or one supported on span{|jj>} as every outcome
    of prepare_protocol_state is, gets its exact relative entropy of
    entanglement S(B) - S(BC), the hashing bound that its separable |jj>
    dephasing meets. Other mixed two-qubit states fall back to the upper
    bound ree_numeric, flagged inexact; other mixed states raise ValueError.
    Returns (average, per_outcome) where each entry records probability,
    entanglement, whether it was exact, whether its search converged and the
    steered BC state ("state", dims (db, dc)).
    """
    if rho_abc.n_subsystems != 3:
        raise ValueError("expected a tripartite state")
    da, db, dc = rho_abc.dims
    flat = regroup_dims(rho_abc, (da, db * dc))
    on = np.isin(np.arange(db * dc), np.arange(min(db, dc)) * (dc + 1))  # the |jj> rows
    off_mc = ~np.outer(on, on)  # entries a maximally correlated state leaves at zero
    per_outcome = []
    avg = 0.0
    for out in steer(flat, alice):
        bc = regroup_dims(out.state, (db, dc))
        lam = np.linalg.eigvalsh(bc.data)
        if lam[-1] >= 1.0 - PURITY_TOL or np.abs(bc.data[off_mc]).max() <= DEFAULT_TOL:
            ent = max(0.0, von_neumann_entropy(partial_trace(bc, [0])) - entropy_of_probs(lam))
            exact = converged = True
        elif bc.dims == (2, 2):
            ree = ree_numeric(bc, budget, seed)
            ent, exact, converged = ree.value, False, ree.converged
        else:
            raise ValueError(
                "mixed steered state beyond two qubits that is not maximally "
                "correlated: no entanglement estimate available"
            )
        per_outcome.append(
            {
                "probability": out.probability,
                "entanglement": ent,
                "exact": exact,
                "converged": converged,
                "state": bc,
            }
        )
        avg += out.probability * ent
    return avg, per_outcome


def verify_corollary1(varrho_ab: DensityMatrix, alice: ProjectiveBasis | None = None,
                      budget: SearchBudget | None = None, seed: int = 0) -> VerificationReport:
    """Drive the copy-gate protocol and check the entanglement chain: each
    steered BC entanglement, exact on these maximally correlated states, is
    bounded by its BC coherence, which is bounded by the steered B coherence,
    and the average entanglement never exceeds the B-side disturbance."""
    if varrho_ab.n_subsystems != 2:
        raise ValueError("expected a bipartite input state")
    da, db = varrho_ab.dims
    rho_b = partial_trace(varrho_ab, [1])
    if min_eigengap(rho_b.data) < EPS_DEG:
        raise ValueError("input must have a non-degenerate B marginal")
    alice = alice or fourier_basis(da)
    aligned = _aligned_to_b_eigenbasis(varrho_ab)
    e_b = ProjectiveBasis.computational(db)
    e_c = ProjectiveBasis.computational(db)
    e_bc = product_basis(e_b, e_c)

    mid_res = b_side_mid_detail(aligned, DistanceKind.RELATIVE_ENTROPY, budget, seed)
    q_b = mid_res.value
    rho_abc = prepare_protocol_state(aligned)
    avg, per_outcome = steering_induced_entanglement(rho_abc, alice, budget, seed)

    chain_tol = 1e-5
    agg_tol = 1e-6
    worst = math.inf
    details = []
    # the copy gate acts on BC only, so both lists drop the same outcomes
    steered_b = steer(aligned, alice)
    for i, rec in enumerate(per_outcome):
        c_bc = coherence(DistanceKind.RELATIVE_ENTROPY, rec["state"], e_bc)
        c_b = coherence(DistanceKind.RELATIVE_ENTROPY, steered_b[i].state, e_b)
        worst = min(worst, c_bc + chain_tol - rec["entanglement"], c_b + chain_tol - c_bc)
        details.append(
            f"outcome {i}: p={rec['probability']:.6f} E={rec['entanglement']:.8f} "
            f"C_bc={c_bc:.8f} C_b={c_b:.8f} exact={rec['exact']}"
        )
    worst = min(worst, q_b + agg_tol - avg)
    details.append(f"avg_entanglement={avg:.10f} b_side_mid={q_b:.10f}")
    return VerificationReport(
        theorem="steered_entanglement_bound",
        kind="r",
        value_lhs=avg,
        value_rhs=q_b,
        margin=float(worst),
        tolerance=agg_tol,
        seeds=(seed,),
        converged=mid_res.converged and all(rec["converged"] for rec in per_outcome),
        status=PASS if worst >= 0 else FAIL,
        details=tuple(details),
    )


def rho_x_finding(budget: SearchBudget | None = None, seed: int = 0) -> VerificationReport:
    """The documented counterexample: steering rho_X creates a full ebit
    between B and C on average although the BC-side disturbance vanishes,
    so the disturbance bound does not extend to the BC pair."""
    rho = rho_x_state()
    flat = regroup_dims(rho, (2, 4))
    mid_res = b_side_mid_detail(flat, DistanceKind.RELATIVE_ENTROPY, budget, seed)
    q_bc = mid_res.value
    avg, per_outcome = steering_induced_entanglement(
        rho, ProjectiveBasis.computational(2), budget, seed
    )
    ok = q_bc <= 1e-9 and abs(avg - 1.0) <= 1e-9
    details = [f"bc_side_mid={q_bc:.3e}", f"avg_entanglement={avg:.12f}"]
    details += [
        f"outcome: p={rec['probability']:.6f} E={rec['entanglement']:.10f} exact={rec['exact']}"
        for rec in per_outcome
    ]
    return VerificationReport(
        theorem="steered_entanglement_exceeds_bc_disturbance",
        kind="r",
        value_lhs=avg,
        value_rhs=q_bc,
        margin=avg - q_bc,
        tolerance=1e-9,
        seeds=(seed,),
        converged=mid_res.converged and all(rec["converged"] for rec in per_outcome),
        status=FINDING if ok else FAIL,
        details=tuple(details),
    )
