"""Seeded inputs, frozen budgets and checked verification instances.

Every input is generated here with plain numpy from the benchmark seed, so
a change to ``steercoh.sampling``, to the test suites or to the CLI suite
budgets cannot change what is measured. The library only ever receives the
generated states (or, for theorem 2, the generated coefficient matrix).

A workload is a fixed cycle of instance kinds repeated a whole number of
times. Library functions are looked up on their modules at call time
(``correlations.sic`` rather than a name imported once), so the tracer can
rebind them for a traced pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from steercoh import correlations, protocols, twoqubit
from steercoh.correlations import SearchBudget
from steercoh.qkernel import DensityMatrix
from steercoh.report import PASS

# Acceptance budgets, frozen as benchmark constants (the values of the
# Tier-1 acceptance suite when this benchmark was defined).
BUDGET_2Q = SearchBudget(starts=8, max_evals=800)
BUDGET_3X2 = SearchBudget(starts=6, max_evals=500)
BUDGET_MC = SearchBudget(starts=6, max_evals=600)
BUDGET_CF = SearchBudget(starts=8, max_evals=700, outer_starts=4,
                         outer_evals=300, refine_evals=70)
BUDGET_PROPS = SearchBudget(starts=6, max_evals=500, outer_starts=4,
                            outer_evals=300, refine_evals=70)

# Generic ensembles keep every B-marginal gap above this.
B_GAP = 1e-4
# Near-degenerate states draw their B gap log-uniformly from this range,
# which lies just above the library's degeneracy switch (EPS_DEG = 1e-8).
NEAR_GAP_RANGE = (1e-8, 1e-4)
# Entangled Werner states (p > 1/3), where the degenerate minimax is the
# expensive path. Below p ~ 1/3 the search ends 3-5 times sooner, which
# would make the cost of a Werner instance bimodal.
WERNER_P_RANGE = (0.4, 0.95)
# An analytic reference "misses" when the value is off by more than the
# search tolerance the library reports; a run is incorrect only beyond the
# certification tolerance of theorems 2 and 3.
REF_MISS_TOL = 1e-6
REF_CHECK_TOL = 1e-5
MID_TOL = 1e-6

_BELL_KETS = np.array(
    [[1.0, 0.0, 0.0, 1.0],
     [1.0, 0.0, 0.0, -1.0],
     [0.0, 1.0, 1.0, 0.0],
     [0.0, 1.0, -1.0, 0.0]]
) / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# generators


def hs_state(dims, rng: np.random.Generator) -> np.ndarray:
    """Hilbert-Schmidt random density matrix on prod(dims)."""
    side = int(np.prod(dims))
    g = rng.normal(size=(side, side)) + 1j * rng.normal(size=(side, side))
    m = g @ g.conj().T
    return m / m.trace().real


def b_gap(data: np.ndarray, dims) -> float:
    """Smallest eigenvalue gap of the B marginal."""
    da, db = dims
    rho_b = np.einsum("abad->bd", data.reshape(da, db, da, db))
    return float(np.diff(np.linalg.eigvalsh(rho_b)).min())


def hs_state_gapped(dims, rng: np.random.Generator, gap: float = B_GAP) -> np.ndarray:
    for _ in range(1000):
        data = hs_state(dims, rng)
        if b_gap(data, dims) > gap:
            return data
    raise RuntimeError("no Hilbert-Schmidt state with a gapped B marginal")


def werner(p: float) -> np.ndarray:
    """p |Phi+><Phi+| + (1 - p) I/4."""
    return p * np.outer(_BELL_KETS[0], _BELL_KETS[0]).astype(complex) + (1.0 - p) * np.eye(4) / 4.0


def bell_diagonal(rng: np.random.Generator) -> np.ndarray:
    weights = rng.dirichlet(np.ones(4))
    return np.einsum("k,ki,kj->ij", weights, _BELL_KETS, _BELL_KETS).astype(complex)


def near_degenerate(rng: np.random.Generator, gap: float) -> np.ndarray:
    """Bell-diagonal state (rho_B = I/2) mixed with a little of a gapped
    Hilbert-Schmidt state, so the B gap equals ``gap`` exactly."""
    base = bell_diagonal(rng)
    other = hs_state_gapped((2, 2), rng, gap=0.05)
    eps = gap / b_gap(other, (2, 2))
    return (1.0 - eps) * base + eps * other


def mc_coeff(d: int, rng: np.random.Generator) -> np.ndarray:
    """Coefficient matrix of a maximally correlated state whose B marginal
    (its diagonal) has every gap above B_GAP."""
    for _ in range(1000):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m = g @ g.conj().T
        m /= m.trace().real
        if np.diff(np.sort(np.diagonal(m).real)).min() > B_GAP:
            return m
    raise RuntimeError("no coefficient matrix with a gapped diagonal")


def _entropy_bits(w) -> float:
    w = np.asarray(w, dtype=float)
    w = w[w > 1e-12]
    return float(-np.sum(w * np.log2(w)))


def werner_sic_r(p: float) -> float:
    """Analytic sic^r of a Werner state: 1 - h((1 + p) / 2)."""
    return 1.0 - _entropy_bits([(1.0 + p) / 2.0, (1.0 - p) / 2.0])


def mc_entropy_gap(coeff: np.ndarray) -> float:
    """S(rho_B) - S(rho) of the maximally correlated state of ``coeff``."""
    return _entropy_bits(np.diagonal(coeff).real) - _entropy_bits(np.linalg.eigvalsh(coeff))


# ---------------------------------------------------------------------------
# instances


@dataclass(frozen=True)
class Instance:
    kind: str
    data: np.ndarray  # the state, or the coefficient matrix for theorem 2
    dims: tuple
    seed: int  # search seed handed to the library
    param: float = float("nan")  # Werner p or near-degenerate B gap


@dataclass
class Outcome:
    passed: bool
    converged: bool
    ref_dev: float | None = None  # |value - analytic reference|, if any
    detail: str = ""


def _state(inst: Instance) -> DensityMatrix:
    return DensityMatrix(inst.data, inst.dims)


def _thm1(inst: Instance, budget: SearchBudget) -> Outcome:
    rep = correlations.verify_theorem1(_state(inst), "r", budget, seed=inst.seed)
    return Outcome(rep.status == PASS, rep.converged, None, f"margin={rep.margin:.3e}")


def _thm3(inst: Instance, budget: SearchBudget) -> Outcome:
    rep = twoqubit.verify_theorem3(_state(inst), budget, seed=inst.seed)
    dev = abs(rep.value_lhs - rep.value_rhs)
    return Outcome(rep.status == PASS and dev <= REF_CHECK_TOL, rep.converged, dev,
                   f"closed={rep.value_rhs:.10f} numeric={rep.value_lhs:.10f}")


def run_thm1_2q(inst):
    return _thm1(inst, BUDGET_2Q)


def run_thm1_qudit(inst):
    return _thm1(inst, BUDGET_3X2)


def run_thm3_generic(inst):
    return _thm3(inst, BUDGET_CF)


def run_thm3_bell_diagonal(inst):
    return _thm3(inst, BUDGET_PROPS)


def run_thm2(inst: Instance) -> Outcome:
    d = inst.data.shape[0]
    rep = protocols.verify_theorem2(d, BUDGET_MC, seed=inst.seed, coeff=inst.data)
    dev = abs(rep.value_lhs - mc_entropy_gap(inst.data))
    return Outcome(rep.status == PASS and dev <= REF_CHECK_TOL, rep.converged, dev,
                   f"sic={rep.value_lhs:.10f}")


def run_werner(inst: Instance) -> Outcome:
    rep = correlations.verify_theorem1(_state(inst), "r", BUDGET_PROPS, seed=inst.seed)
    dev = abs(rep.value_lhs - werner_sic_r(inst.param))
    return Outcome(rep.status == PASS and dev <= REF_CHECK_TOL, rep.converged, dev,
                   f"p={inst.param:.6f} sic={rep.value_lhs:.10f}")


def run_mid_t(inst: Instance) -> Outcome:
    rho = _state(inst)
    both = correlations.mid_detail(rho, "t", BUDGET_PROPS, seed=inst.seed)
    b_side = correlations.b_side_mid_detail(rho, "t", BUDGET_PROPS, seed=inst.seed)
    return Outcome(both.value >= b_side.value - MID_TOL, both.converged and b_side.converged,
                   None, f"mid={both.value:.10f} b_side_mid={b_side.value:.10f}")


@dataclass(frozen=True)
class Kind:
    name: str
    run: object
    make: object  # (rng, u) -> (data, dims, param); u is a stratified uniform


def _hs(dims):
    return lambda rng, u: (hs_state_gapped(dims, rng), dims, math.nan)


def _bell(rng, u):
    return bell_diagonal(rng), (2, 2), math.nan


KINDS = {
    k.name: k
    for k in (
        Kind("thm1_2x2", run_thm1_2q, _hs((2, 2))),
        Kind("thm3_2x2", run_thm3_generic, _hs((2, 2))),
        Kind("thm1_3x2", run_thm1_qudit, _hs((3, 2))),
        Kind("thm1_3x3", run_thm1_qudit, _hs((3, 3))),
        Kind("thm2_d3", run_thm2, lambda rng, u: (mc_coeff(3, rng), (3, 3), math.nan)),
        Kind("werner", run_werner, lambda rng, u: _werner_input(u)),
        Kind("thm3_bell_diag", run_thm3_bell_diagonal, _bell),
        Kind("mid_t_bell_diag", run_mid_t, _bell),
        Kind("thm1_near_degenerate", run_thm1_2q, lambda rng, u: _near_input(rng, u)),
    )
}


def _werner_input(u: float):
    lo, hi = WERNER_P_RANGE
    p = lo + (hi - lo) * u
    return werner(p), (2, 2), p


def _near_input(rng, u: float):
    lo, hi = (math.log10(x) for x in NEAR_GAP_RANGE)
    gap = 10.0 ** (lo + (hi - lo) * u)
    return near_degenerate(rng, gap), (2, 2), gap


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple  # instance kinds, repeated whole
    cycle_seconds: float  # untraced wall of one cycle on the reference machine
    warmup: str  # kind of the untimed warm-up instance


WORKLOADS = {
    w.name: w
    for w in (
        # 2:1 like acceptance criteria 1 and 3 (1000 vs 500 generic states)
        Workload("generic-2q", ("thm1_2x2", "thm3_2x2", "thm1_2x2"), 0.16, "thm1_2x2"),
        Workload("qudit-a", ("thm1_3x2", "thm1_3x3", "thm1_3x2", "thm2_d3"), 4.3, "thm2_d3"),
        # 10% Werner, 40% Bell-diagonal theorem 3, 20% mid checks and a 30%
        # near-degenerate minority. The median falls inside the theorem-3
        # cluster. With 20 instances, p90 lies at the top of the steady
        # mid-check cluster, a tenth of the way to the cheapest Werner.
        Workload("degenerate-b",
                 ("werner", "thm3_bell_diag", "thm1_near_degenerate", "thm3_bell_diag",
                  "mid_t_bell_diag", "thm3_bell_diag", "thm1_near_degenerate",
                  "mid_t_bell_diag", "thm3_bell_diag", "thm1_near_degenerate"),
                 7.0, "thm3_bell_diag"),
    )
}


def cycles_for(workload: Workload, seconds: float) -> int:
    """Whole cycles that take about ``seconds`` on the reference machine.

    The amount of work depends only on the run length, never on how fast
    this run happens to go, so counts repeat exactly for a fixed seed.
    """
    return max(1, round(seconds / workload.cycle_seconds))


def make_inputs(workload: Workload, seed: int, cycles: int):
    """(warm-up instance, timed instances) for one run."""
    rng = np.random.default_rng([seed, 0x5EC0])

    def make(kind: str, u: float) -> Instance:
        data, dims, param = KINDS[kind].make(rng, u)
        return Instance(kind, np.ascontiguousarray(data, dtype=complex), dims,
                        int(rng.integers(2**31)), float(param))

    warmup = make(workload.warmup, float(rng.uniform()))
    per_cycle = {k: workload.cycle.count(k) for k in workload.cycle}
    instances = []
    for _ in range(cycles):
        # stratify each kind's draw within the cycle to steady the mix
        seen = dict.fromkeys(per_cycle, 0)
        for kind in workload.cycle:
            u = (seen[kind] + float(rng.uniform())) / per_cycle[kind]
            seen[kind] += 1
            instances.append(make(kind, u))
    return warmup, instances


def input_digest(workload: Workload, instances) -> str:
    h = hashlib.sha256(workload.name.encode())
    for inst in instances:
        h.update(inst.kind.encode())
        h.update(np.asarray(inst.dims, dtype=np.int64).tobytes())
        h.update(np.int64(inst.seed).tobytes())
        h.update(np.float64(inst.param).tobytes())
        h.update(inst.data.tobytes())
    return h.hexdigest()


def run_instance(inst: Instance) -> Outcome:
    return KINDS[inst.kind].run(inst)
