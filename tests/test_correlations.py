"""Basis search spaces, B-side disturbance and steered coherence."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from steercoh import (
    ComparabilityWarning,
    DensityMatrix,
    DistanceKind,
    EigenbasisFamily,
    PASS,
    ProjectiveBasis,
    SearchBudget,
    UnitaryPoint,
    avg_steered_coherence,
    b_side_mid,
    b_side_mid_detail,
    bell_state,
    coherence,
    dephase,
    fourier_basis,
    gap_example,
    mid,
    mid_detail,
    sic,
    tensor_product,
    verify_sic_properties,
    verify_theorem1,
    werner_state,
)
from steercoh.correlations import _alice_objective, _b_marginal_family
from steercoh.sampling import (
    haar_unitary,
    random_hs_state,
    random_state_nondegenerate_b,
)

# light search settings keep unit runs fast; the acceptance suite uses the
# heavier defaults
LIGHT = SearchBudget(starts=6, max_evals=500, outer_starts=4, outer_evals=300,
                     refine_evals=70)

GAP_SIC_R = 0.21040208776627728  # grid + local-search reference value


def test_search_budget_defaults():
    b = SearchBudget()
    assert (b.starts, b.max_evals) == (32, 2000)
    assert (b.outer_starts, b.outer_evals, b.refine_evals) == (8, 600, 140)


def test_fourier_basis_is_unbiased():
    for d in (2, 3, 4):
        f = fourier_basis(d)
        u = f.matrix
        assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)
        overlaps = np.abs(u) ** 2
        assert_allclose(overlaps, np.full((d, d), 1.0 / d), atol=1e-12)


def test_unitary_point_zero_params_is_identity():
    pt = UnitaryPoint(3, np.zeros(9))
    assert_allclose(pt.realize(), np.eye(3), atol=1e-12)


def test_unitary_point_realizes_unitaries():
    rng = np.random.default_rng(0)
    for d in (2, 3):
        pt = UnitaryPoint(d, rng.normal(size=d * d))
        u = pt.realize()
        assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-10)
    with pytest.raises(ValueError):
        UnitaryPoint(2, np.zeros(3))


def test_unitary_point_from_unitary_round_trip():
    rng = np.random.default_rng(1)
    for d in (2, 3, 4):
        u = haar_unitary(d, rng)
        v = UnitaryPoint.from_unitary(u).realize()
        m = u.conj().T @ v
        # equal up to a global phase
        off = m - np.diag(np.diagonal(m))
        assert np.abs(off).max() <= 1e-9
        assert_allclose(np.abs(np.diagonal(m)), 1.0, atol=1e-9)
        assert np.abs(np.diagonal(m) - m[0, 0]).max() <= 1e-9


def test_eigenbasis_family_trivial_for_simple_spectrum():
    fam = EigenbasisFamily.from_matrix(np.diag([0.1, 0.3, 0.6]))
    assert fam.is_trivial
    assert fam.n_params == 0
    assert fam.member(np.zeros(0)).dim == 3


def test_eigenbasis_family_block_parameters():
    fam = EigenbasisFamily.from_matrix(np.eye(2) / 2.0)
    assert fam.n_params == 4
    fam2 = EigenbasisFamily.from_matrix(np.diag([0.35, 0.35, 0.3]))
    assert fam2.n_params == 4


def test_eigenbasis_family_skips_null_space():
    # the kernel block carries no weight, so its rotations are irrelevant
    fam = EigenbasisFamily.from_matrix(np.diag([0.5, 0.5, 0.0, 0.0]))
    assert fam.n_params == 4
    assert len(fam.blocks) == 2


def test_eigenbasis_family_members_diagonalize():
    rng = np.random.default_rng(2)
    u = haar_unitary(4, rng)
    m = u @ np.diag([0.4, 0.4, 0.15, 0.05]) @ u.conj().T
    fam = EigenbasisFamily.from_matrix(m)
    assert fam.n_params == 4
    for _ in range(5):
        basis = fam.member(rng.normal(size=4))
        v = basis.matrix
        assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-10)
        rotated = v.conj().T @ m @ v
        off = rotated - np.diag(np.diagonal(rotated))
        assert np.abs(off).max() <= 1e-9
    with pytest.raises(ValueError):
        fam.member(np.zeros(3))


def test_avg_steered_coherence_of_bell_is_one_for_conjugate_bases():
    bell = bell_state()
    comp = ProjectiveBasis.computational(2)
    assert np.isclose(avg_steered_coherence(bell, fourier_basis(2), comp, "r"), 1.0,
                      atol=1e-12)
    assert np.isclose(avg_steered_coherence(bell, comp, comp, "r"), 0.0, atol=1e-12)


def test_avg_steered_coherence_matches_manual_sum():
    rng = np.random.default_rng(3)
    rho = random_hs_state((2, 2), rng)
    alice = ProjectiveBasis.from_columns(haar_unitary(2, rng))
    bob = ProjectiveBasis.from_columns(haar_unitary(2, rng))
    from steercoh import steer

    manual = 0.0
    for out in steer(rho, alice):
        if not out.negligible:
            manual += out.probability * coherence("r", out.state, bob)
    assert np.isclose(avg_steered_coherence(rho, alice, bob, "r"), manual, atol=1e-12)


KINDS = (DistanceKind.RELATIVE_ENTROPY, DistanceKind.L1)


def test_general_objective_matches_reference():
    rng = np.random.default_rng(13)
    for dims in ((2, 2), (3, 2), (2, 3), (3, 3)):
        rho = random_state_nondegenerate_b(dims, rng)
        bob = _b_marginal_family(rho).base
        for kind in KINDS:
            f = _alice_objective(rho, bob, kind, force_general=True)
            for _ in range(20):
                pt = UnitaryPoint(dims[0], rng.normal(scale=1.2, size=dims[0] ** 2))
                ref = avg_steered_coherence(rho, pt.basis(), bob, kind)
                assert abs(f(pt.params) - ref) <= 1e-12


def test_general_objective_skips_zero_probability_outcomes():
    rng = np.random.default_rng(14)
    for da in (2, 3):
        ket0 = np.zeros((da, da), dtype=complex)
        ket0[0, 0] = 1.0
        rho = tensor_product(DensityMatrix(ket0, (da,)), random_hs_state((2,), rng))
        bob = ProjectiveBasis.computational(2)
        # at zero params Alice measures in the computational basis, so every
        # outcome but the first has probability zero
        alice = UnitaryPoint(da, np.zeros(da * da)).basis()
        for kind in KINDS:
            f = _alice_objective(rho, bob, kind, force_general=True)
            ref = avg_steered_coherence(rho, alice, bob, kind)
            assert ref > 0.0
            assert abs(f(np.zeros(da * da)) - ref) <= 1e-12


def test_sic_general_path_matches_bloch_path():
    rng = np.random.default_rng(15)
    for kind in ("r", "l1"):
        for _ in range(3):
            rho = random_state_nondegenerate_b((2, 2), rng)
            bloch = sic(rho, kind, LIGHT, seed=0).value
            general = sic(rho, kind, LIGHT, seed=0, force_general=True).value
            assert abs(bloch - general) <= 1e-9


def test_b_side_mid_of_gap_example():
    gap = gap_example()
    assert np.isclose(b_side_mid(gap, "r"), 0.5, atol=1e-9)
    assert np.isclose(b_side_mid(gap, "t"), 0.5, atol=1e-9)


def test_b_side_mid_detail_returns_achieving_basis():
    rng = np.random.default_rng(4)
    rho = random_state_nondegenerate_b((2, 2), rng)
    res = b_side_mid_detail(rho, "r")
    assert res.converged
    from steercoh import distance

    deph = dephase(rho, res.basis, target=1)
    assert np.isclose(distance("r", rho, deph), res.value, atol=1e-9)


def test_b_side_mid_invariant_under_bob_rotation():
    rng = np.random.default_rng(5)
    rho = random_state_nondegenerate_b((2, 2), rng)
    u = np.kron(np.eye(2), haar_unitary(2, rng))
    rotated = DensityMatrix(u @ rho.data @ u.conj().T, (2, 2))
    assert np.isclose(b_side_mid(rho, "r"), b_side_mid(rotated, "r"), atol=1e-9)


def test_disturbance_rejects_entrywise_kind():
    with pytest.raises(ValueError):
        b_side_mid(bell_state(), "l1")
    with pytest.raises(ValueError):
        mid(bell_state(), "l1")


def test_mid_vanishes_on_classical_states():
    probs = np.array([0.4, 0.1, 0.3, 0.2])
    rho = DensityMatrix(np.diag(probs).astype(complex), (2, 2))
    assert abs(mid(rho, "r")) <= 1e-9
    assert abs(b_side_mid(rho, "r")) <= 1e-9


def test_mid_upper_bounds_one_sided_disturbance():
    rng = np.random.default_rng(6)
    for _ in range(3):
        rho = random_state_nondegenerate_b((2, 2), rng)
        assert mid(rho, "r", LIGHT) >= b_side_mid(rho, "r", LIGHT) - 1e-9


def test_mid_detail_witnesses_reproduce_value():
    rng = np.random.default_rng(7)
    rho = random_state_nondegenerate_b((2, 2), rng)
    res = mid_detail(rho, "r", LIGHT)
    deph = dephase(dephase(rho, res.basis_a, target=0), res.basis_b, target=1)
    from steercoh import distance

    assert np.isclose(distance("r", rho, deph), res.value, atol=1e-9)
    assert res.converged


def test_sic_rejects_trace_norm_kind():
    with pytest.raises(ValueError):
        sic(bell_state(), "t")


def test_sic_of_bell_state_reaches_unity():
    bell = bell_state()
    res_l1 = sic(bell, "l1", LIGHT, seed=0)
    assert np.isclose(res_l1.value, 1.0, atol=1e-6)
    assert res_l1.converged
    res_r = sic(bell, "r", LIGHT, seed=0)
    assert np.isclose(res_r.value, 1.0, atol=1e-5)
    assert res_r.converged


def test_sic_of_gap_example_matches_reference():
    res = sic(gap_example(), "r", SearchBudget(starts=16, max_evals=1200), seed=0)
    assert res.converged
    assert np.isclose(res.value, GAP_SIC_R, atol=1e-6)
    # strictly below the B-side disturbance of 0.5
    assert res.value < 0.5 - 1e-3


def test_sic_witness_bases_reproduce_value():
    res = sic(gap_example(), "r", SearchBudget(starts=12, max_evals=1000), seed=1)
    again = avg_steered_coherence(gap_example(), res.alice_basis, res.bob_basis, "r")
    assert np.isclose(again, res.value, atol=1e-9)


def test_sic_invariant_under_alice_rotation():
    rng = np.random.default_rng(8)
    rho = random_state_nondegenerate_b((2, 2), rng)
    u = np.kron(haar_unitary(2, rng), np.eye(2))
    rotated = DensityMatrix(u @ rho.data @ u.conj().T, (2, 2))
    v0 = sic(rho, "r", SearchBudget(starts=12, max_evals=1000), seed=0).value
    v1 = sic(rotated, "r", SearchBudget(starts=12, max_evals=1000), seed=0).value
    assert np.isclose(v0, v1, atol=2e-6)


def test_sic_entrywise_warns_beyond_qubit_bob():
    rng = np.random.default_rng(9)
    rho = random_state_nondegenerate_b((2, 3), rng)
    with pytest.warns(ComparabilityWarning):
        sic(rho, "l1", SearchBudget(starts=4, max_evals=200), seed=0)


def test_sic_on_werner_states_equals_mixing_weight():
    for p in (0.3, 0.7):
        res = sic(werner_state(p), "l1", LIGHT, seed=0)
        assert np.isclose(res.value, p, atol=1e-6)


def test_sic_deterministic_for_fixed_seed():
    a = sic(gap_example(), "r", LIGHT, seed=3)
    b = sic(gap_example(), "r", LIGHT, seed=3)
    assert a.value == b.value


def test_sic_of_b_classical_state_is_zero():
    from steercoh.sampling import random_b_classical

    rng = np.random.default_rng(10)
    rho = random_b_classical((2, 2), rng)
    res = sic(rho, "r", LIGHT, seed=0)
    assert abs(res.value) <= 1e-7


def test_verify_theorem1_passes_on_random_states():
    rng = np.random.default_rng(11)
    for seed in (0, 1):
        rho = random_state_nondegenerate_b((2, 2), rng)
        rep = verify_theorem1(rho, "r", SearchBudget(starts=8, max_evals=800),
                              seed=seed)
        assert rep.status == PASS
        assert rep.margin >= -1e-6
        assert rep.theorem == "sic_le_b_side_mid"


def test_verify_theorem1_rejects_entrywise_kind():
    with pytest.raises(ValueError):
        verify_theorem1(bell_state(), "l1")


def test_verify_sic_properties_passes():
    rng = np.random.default_rng(12)
    rho = random_state_nondegenerate_b((2, 2), rng)
    rep = verify_sic_properties(rho, "r", LIGHT, seed=0)
    assert rep.status == PASS
    assert rep.converged
    assert rep.margin > 0
