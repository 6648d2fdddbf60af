"""End-to-end acceptance: each test certifies one primary claim.

Every test below prints as a single pass/fail line under pytest -v. Search
budgets are sized so the whole module completes in minutes while keeping
every optimizer on the safe side of its tolerance: steering values are
maxima found by search, so undershooting can never produce a false bound
violation for states with a simple B marginal.
"""

import math

import numpy as np

from steercoh import (
    DensityMatrix,
    FINDING,
    PASS,
    SearchBudget,
    b_side_mid,
    bell_state,
    gap_example,
    partial_trace,
    rho_x_finding,
    sic,
    verify_corollary1,
    verify_coherence_properties,
    verify_distance_properties,
    verify_sic_properties,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from steercoh.sampling import (
    min_eigengap,
    random_pure,
    random_state_nondegenerate_b,
)

# reference value for the gap example, frozen from an independent
# grid + local-search optimization over Alice's measurement directions
GAP_SIC_R = 0.21040208776627728

BUDGET_2Q = SearchBudget(starts=8, max_evals=800)
BUDGET_3X2 = SearchBudget(starts=6, max_evals=500)
BUDGET_MC = SearchBudget(starts=6, max_evals=600)
BUDGET_CF = SearchBudget(starts=8, max_evals=700, outer_starts=4,
                         outer_evals=300, refine_evals=70)
BUDGET_PROPS = SearchBudget(starts=6, max_evals=500, outer_starts=4,
                            outer_evals=300, refine_evals=70)


def _bell_diagonal(rng: np.random.Generator) -> DensityMatrix:
    kets = np.array(
        [
            [1.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, -1.0],
            [0.0, 1.0, 1.0, 0.0],
            [0.0, 1.0, -1.0, 0.0],
        ]
    ) / math.sqrt(2.0)
    weights = rng.dirichlet(np.ones(4))
    acc = np.zeros((4, 4), dtype=complex)
    for w, k in zip(weights, kets):
        acc += w * np.outer(k, k)
    return DensityMatrix(acc, (2, 2))


def _pure_with_simple_b_marginal(dims, rng, gap=1e-4):
    while True:
        rho = random_pure(dims, rng)
        if min_eigengap(partial_trace(rho, [1]).data) > gap:
            return rho


def test_criterion_1_steered_coherence_bounded_by_b_side_disturbance():
    # 1000 two-qubit states and 300 states of a qutrit steering a qubit:
    # sic^r <= Q_B^r + 1e-6 in every single instance, and every search
    # converges
    rng = np.random.default_rng(1001)
    worst = math.inf
    for i in range(1000):
        rho = random_state_nondegenerate_b((2, 2), rng)
        rep = verify_theorem1(rho, "r", BUDGET_2Q, seed=i)
        worst = min(worst, rep.margin)
        assert rep.status == PASS, f"instance {i} (2x2): margin {rep.margin:.3e}"
        assert rep.converged, f"instance {i} (2x2): search did not converge"
    for i in range(300):
        rho = random_state_nondegenerate_b((3, 2), rng)
        rep = verify_theorem1(rho, "r", BUDGET_3X2, seed=i)
        worst = min(worst, rep.margin)
        assert rep.status == PASS, f"instance {i} (3x2): margin {rep.margin:.3e}"
        assert rep.converged, f"instance {i} (3x2): search did not converge"
    assert worst >= -1e-6


def test_criterion_2_maximally_correlated_states_reach_the_bound():
    # 100 random coefficient matrices in each of d = 2 and d = 3:
    # sic^r, the B-side disturbance and the entropy gap S(rho_B) - S(rho)
    # coincide, with the mutually unbiased measurement achieving the value
    for d in (2, 3):
        for i in range(100):
            rep = verify_theorem2(d, BUDGET_MC, seed=10_000 * d + i)
            assert rep.status == PASS, (
                f"d={d} instance {i}: |sic - gap| = "
                f"{abs(rep.value_lhs - rep.value_rhs):.3e}; {rep.details}"
            )


def test_criterion_3_two_qubit_closed_form_three_way_agreement():
    # 500 generic states exercise the nonvanishing-b branch, 200 Bell
    # diagonal mixtures the degenerate branch: closed form, numerical
    # steering value and trace-norm disturbance agree within 1e-5, and
    # every search converges
    rng = np.random.default_rng(3003)
    for i in range(500):
        rho = random_state_nondegenerate_b((2, 2), rng)
        rep = verify_theorem3(rho, BUDGET_CF, seed=i)
        assert rep.status == PASS, f"generic instance {i}: {rep.details}"
        assert rep.converged, f"generic instance {i}: search did not converge"
    for i in range(200):
        rho = _bell_diagonal(rng)
        rep = verify_theorem3(rho, BUDGET_PROPS, seed=i)
        assert rep.status == PASS, f"bell-diagonal instance {i}: {rep.details}"
        assert rep.converged, f"bell-diagonal instance {i}: search did not converge"


def test_criterion_4_gap_example_strict_separation():
    # the equal mixture of the Bell state with |01><01| separates steered
    # coherence from disturbance: Q_B^r = 0.5 exactly while sic^r stays
    # strictly below, and the entrywise value still meets the trace-norm
    # disturbance
    gap = gap_example()
    q_r = b_side_mid(gap, "r")
    assert abs(q_r - 0.5) <= 1e-9, f"Q_B^r = {q_r!r}"
    res = sic(gap, "r", SearchBudget(starts=16, max_evals=1200), seed=0)
    assert res.converged
    assert res.value < 0.5 - 1e-3, f"sic^r = {res.value!r}"
    assert abs(res.value - GAP_SIC_R) <= 1e-6, f"sic^r = {res.value!r}"
    res_l1 = sic(gap, "l1", SearchBudget(starts=16, max_evals=1200), seed=0)
    q_t = b_side_mid(gap, "t")
    assert abs(res_l1.value - q_t) <= 1e-5, (
        f"sic^l1 = {res_l1.value!r}, Q_B^t = {q_t!r}"
    )


def test_criterion_5_bell_state_reaches_unit_steered_coherence():
    # fully degenerate B marginal: the dedicated degenerate-spectrum search
    # must still certify sic = 1 for both kinds at the default budget
    bell = bell_state()
    res_l1 = sic(bell, "l1", seed=0)
    assert res_l1.converged
    assert abs(res_l1.value - 1.0) <= 1e-6, f"sic^l1 = {res_l1.value!r}"
    res_r = sic(bell, "r", seed=0)
    assert res_r.converged
    assert abs(res_r.value - 1.0) <= 1e-5, f"sic^r = {res_r.value!r}"


def test_criterion_6_steered_entanglement_without_bc_disturbance():
    # the two-Bell mixture has vanishing BC disturbance yet a full ebit of
    # average steering-induced entanglement; reported as a finding, not a
    # violation, because the BC disturbance is not its upper bound
    rep = rho_x_finding()
    assert rep.status == FINDING, f"status {rep.status}: {rep.details}"
    assert rep.value_rhs <= 1e-9, f"Q_BC = {rep.value_rhs!r}"
    assert abs(rep.value_lhs - 1.0) <= 1e-9, f"avg E = {rep.value_lhs!r}"


def test_criterion_7_protocol_entanglement_bounded_by_disturbance():
    # 200 copy-gate preparations from pure bipartite inputs: every steered
    # BC state is pure, its entanglement exact, and the average never
    # exceeds the B-side disturbance of the input
    rng = np.random.default_rng(7007)
    for i in range(200):
        rho = _pure_with_simple_b_marginal((2, 2), rng)
        rep = verify_corollary1(rho, budget=BUDGET_2Q, seed=i)
        assert rep.status == PASS, f"instance {i}: {rep.details}"
        assert rep.margin >= 0.0


def test_criterion_8_property_batteries_zero_violations():
    # identity of indiscernibles, data processing, joint/flagged convexity,
    # ancilla extension and unitary invariance for the distances; the
    # coherence conditions; and the steering-measure properties, each over
    # at least 200 seeded instances; every steering search converges
    rep_d = verify_distance_properties(n_instances=200, seed=0)
    assert rep_d.status == PASS, rep_d.details
    rep_c = verify_coherence_properties(n_instances=200, seed=1)
    assert rep_c.status == PASS, rep_c.details
    rng = np.random.default_rng(8008)
    for i in range(50):  # 4 samples per property per call: 200 instances
        rho = random_state_nondegenerate_b((2, 2), rng)
        rep = verify_sic_properties(rho, "r", BUDGET_PROPS, seed=i, samples=4)
        assert rep.status == PASS, f"call {i}: {rep.details}"
        assert rep.converged, f"call {i}: a sic search did not converge"


def test_criterion_9_verification_reruns_are_deterministic():
    # identical seeds reproduce identical margins to the last digit across
    # every verification entry point
    rng_a = np.random.default_rng(99)
    rng_b = np.random.default_rng(99)
    state_a = random_state_nondegenerate_b((2, 2), rng_a)
    state_b = random_state_nondegenerate_b((2, 2), rng_b)

    pairs = [
        (
            verify_theorem1(state_a, "r", BUDGET_2Q, seed=4),
            verify_theorem1(state_b, "r", BUDGET_2Q, seed=4),
        ),
        (
            verify_theorem2(2, BUDGET_MC, seed=5),
            verify_theorem2(2, BUDGET_MC, seed=5),
        ),
        (
            verify_theorem3(state_a, BUDGET_CF, seed=6),
            verify_theorem3(state_b, BUDGET_CF, seed=6),
        ),
        (
            verify_corollary1(state_a, budget=BUDGET_2Q, seed=7),
            verify_corollary1(state_b, budget=BUDGET_2Q, seed=7),
        ),
        (rho_x_finding(seed=8), rho_x_finding(seed=8)),
        (
            verify_distance_properties(n_instances=25, seed=9),
            verify_distance_properties(n_instances=25, seed=9),
        ),
        (
            verify_sic_properties(state_a, "r", BUDGET_PROPS, seed=10),
            verify_sic_properties(state_b, "r", BUDGET_PROPS, seed=10),
        ),
    ]
    for first, second in pairs:
        assert first.margin == second.margin, first.theorem
        assert first.value_lhs == second.value_lhs, first.theorem
        assert first.value_rhs == second.value_rhs, first.theorem
        assert first.status == second.status, first.theorem
