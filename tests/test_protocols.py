"""Named states, recipes, the copy-gate protocol and entanglement bounds."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from steercoh import (
    DensityMatrix,
    FINDING,
    PASS,
    ProjectiveBasis,
    SearchBudget,
    StateRecipe,
    apply_kraus,
    bell_state,
    dephase,
    fourier_basis,
    gap_example,
    incoherent_cnot,
    make_state,
    maximally_correlated,
    maximally_mixed,
    partial_trace,
    prepare_protocol_state,
    product_state,
    ree_numeric,
    regroup_dims,
    rho_x_finding,
    rho_x_state,
    steering_induced_entanglement,
    tensor_product,
    verify_corollary1,
    verify_theorem2,
    von_neumann_entropy,
    werner_state,
)
from steercoh.sampling import random_hs_state, random_pure

LIGHT = SearchBudget(starts=6, max_evals=500, outer_starts=4, outer_evals=300,
                     refine_evals=70)
REE_LIGHT = SearchBudget(starts=3, max_evals=3000)
REE_COARSE = SearchBudget(starts=2, max_evals=800)


def test_maximally_correlated_structure():
    m = np.array([[0.6, 0.2], [0.2, 0.4]], dtype=complex)
    rho = maximally_correlated(m)
    assert rho.dims == (2, 2)
    # only the |ii><jj| entries are populated
    mask = np.zeros((4, 4), dtype=bool)
    mask[np.ix_([0, 3], [0, 3])] = True
    assert np.abs(rho.data[~mask]).max() == 0.0
    assert_allclose(rho.data[np.ix_([0, 3], [0, 3])], m, atol=1e-12)
    # the embedding preserves the coefficient spectrum
    assert_allclose(
        np.linalg.eigvalsh(rho.data)[-2:], np.linalg.eigvalsh(m), atol=1e-12
    )


def test_maximally_correlated_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        maximally_correlated(np.eye(2))
    with pytest.raises(ValueError):
        maximally_correlated(np.array([[0.5, 0.3], [0.1, 0.5]]))
    with pytest.raises(ValueError):
        maximally_correlated(np.array([[1.2, 0.0], [0.0, -0.2]]))


def test_bell_and_gap_structure():
    bell = bell_state()
    assert np.isclose(bell.data[0, 3].real, 0.5, atol=1e-12)
    gap = gap_example()
    assert np.isclose(gap.data[1, 1].real, 0.5, atol=1e-12)
    assert np.isclose(gap.data[0, 3].real, 0.25, atol=1e-12)
    assert_allclose(
        partial_trace(gap, [1]).data, np.diag([0.25, 0.75]), atol=1e-12
    )


def test_rho_x_structure():
    rho = rho_x_state()
    assert rho.dims == (2, 2, 2)
    # BC marginal is an equal mixture of the two Bell-type projectors, which
    # is diagonal with weights (1/2, 0, 0, 1/2) in the computational basis
    bc = partial_trace(rho, [1, 2])
    assert_allclose(bc.data, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-12)
    assert_allclose(
        partial_trace(rho, [0]).data, np.diag([0.5, 0.5]), atol=1e-12
    )


def test_werner_state_family():
    assert werner_state(1.0).close_to(bell_state(), atol=1e-12)
    assert werner_state(0.0).close_to(maximally_mixed((2, 2)), atol=1e-12)
    werner_state(-1.0 / 3.0)
    with pytest.raises(ValueError):
        werner_state(1.01)
    with pytest.raises(ValueError):
        werner_state(-0.4)


def test_star_import_exposes_werner_state():
    namespace = {}
    exec("from steercoh import *", namespace)
    assert namespace["werner_state"] is werner_state


def test_product_state_builds_tensor():
    rng = np.random.default_rng(0)
    a = random_hs_state((2,), rng)
    b = random_hs_state((3,), rng)
    joint = product_state(a, b)
    assert joint.dims == (2, 3)
    assert_allclose(joint.data, np.kron(a.data, b.data), atol=1e-12)


def test_recipe_round_trip_for_every_kind():
    params = {
        "maximally_correlated": {"schmidt": [0.3, 0.7]},
        "bell": {},
        "gap_example": {},
        "rho_x": {},
        "b_classical": {"dims": [2, 2]},
        "random_hs": {"dims": [2, 3]},
        "random_pure": {"dims": [2, 2]},
        "product": {"dims": [2, 2]},
        "werner": {"p": 0.5},
    }
    for kind, p in params.items():
        recipe = StateRecipe(kind, p, seed=7)
        back = StateRecipe.from_json(recipe.to_json())
        assert back == recipe
        rho = make_state(back)
        assert make_state(recipe).close_to(rho, atol=1e-12)


def test_recipe_rejects_unknown_kind():
    with pytest.raises(ValueError):
        StateRecipe("ghz")
    with pytest.raises(ValueError):
        StateRecipe.from_json("[1, 2]")
    with pytest.raises(ValueError):
        StateRecipe.from_json('{"params": {}}')


def test_make_state_schmidt_weights_validated():
    with pytest.raises(ValueError):
        make_state(StateRecipe("maximally_correlated", {"schmidt": [0.5, 0.6]}))
    with pytest.raises(ValueError):
        make_state(StateRecipe("maximally_correlated", {"schmidt": [-0.1, 1.1]}))


def test_make_state_coefficient_matrix_input():
    rho = make_state(
        StateRecipe(
            "maximally_correlated",
            {"coeff_re": [[0.5, 0.1], [0.1, 0.5]], "coeff_im": [[0, 0.2], [-0.2, 0]]},
        )
    )
    assert np.isclose(rho.data[0, 3], 0.1 + 0.2j, atol=1e-12)


def test_make_state_dimension_validation():
    with pytest.raises(ValueError):
        make_state(StateRecipe("random_hs", {"dims": [1, 2]}))


def test_make_state_is_seed_deterministic():
    a = make_state(StateRecipe("random_hs", {"dims": [2, 2]}, seed=5))
    b = make_state(StateRecipe("random_hs", {"dims": [2, 2]}, seed=5))
    c = make_state(StateRecipe("random_hs", {"dims": [2, 2]}, seed=6))
    assert a.close_to(b, atol=0.0)
    assert not a.close_to(c, atol=1e-3)


def test_incoherent_cnot_is_a_permutation_unitary():
    for d_b, d_c in ((2, 2), (2, 3), (3, 3)):
        u = incoherent_cnot(d_b, d_c).operators[0]
        assert_allclose(u.conj().T @ u, np.eye(d_b * d_c), atol=1e-12)
        assert set(np.abs(u).sum(axis=0)) == {1.0}
        for j in range(d_b):
            for k in range(d_c):
                col = j * d_c + k
                row = j * d_c + (k + j) % d_c
                assert u[row, col] == 1.0
    with pytest.raises(ValueError):
        incoherent_cnot(3, 2)


def test_incoherent_cnot_preserves_incoherent_states():
    # the gate acts on the joined BC register (target subsystem 1)
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(12))
    rho = DensityMatrix(np.diag(probs).astype(complex), (2, 6))
    out = apply_kraus(rho, incoherent_cnot(2, 3))
    off = out.data - np.diag(np.diagonal(out.data))
    assert np.abs(off).max() <= 1e-12


def test_prepare_protocol_state_on_bell_gives_ghz():
    out = prepare_protocol_state(bell_state())
    assert out.dims == (2, 2, 2)
    w, v = np.linalg.eigh(out.data)
    assert np.isclose(w[-1], 1.0, atol=1e-12)
    vec = np.abs(v[:, -1])
    expect = np.zeros(8)
    expect[0] = expect[7] = 1.0 / math.sqrt(2.0)
    assert_allclose(vec, expect, atol=1e-12)


def test_prepare_protocol_state_dims_and_copy_action():
    rng = np.random.default_rng(2)
    rho = random_hs_state((2, 3), rng)
    out = prepare_protocol_state(rho)
    assert out.dims == (2, 3, 3)
    # tracing out the copy leaves the input with its B side dephased: the
    # copy register records which basis state B was in
    expect = dephase(rho, ProjectiveBasis.computational(3), target=1)
    assert partial_trace(out, [0, 1]).close_to(expect, atol=1e-10)
    with pytest.raises(ValueError):
        prepare_protocol_state(rho_x_state())


def test_protocol_copies_populations():
    # for an incoherent B the protocol only correlates classically:
    # BC populations sit on the doubled diagonal
    rho = DensityMatrix(np.diag([0.2, 0.3, 0.4, 0.1]).astype(complex), (2, 2))
    out = prepare_protocol_state(rho)
    bc = partial_trace(out, [1, 2])
    assert np.isclose(bc.data[0, 0].real, 0.6, atol=1e-12)  # |00>
    assert np.isclose(bc.data[3, 3].real, 0.4, atol=1e-12)  # |11>
    assert np.isclose(np.abs(np.diagonal(bc.data)).sum(), 1.0, atol=1e-12)


def test_ree_of_bell_state_is_one():
    res = ree_numeric(bell_state(), REE_LIGHT, seed=0)
    assert res.converged
    assert np.isclose(res.value, 1.0, atol=1e-3)


def test_ree_vanishes_on_separable_states():
    rng = np.random.default_rng(3)
    prod = product_state(random_hs_state((2,), rng), random_hs_state((2,), rng))
    assert ree_numeric(prod, REE_LIGHT, seed=0).value <= 1e-6
    cc = DensityMatrix(np.diag([0.4, 0.1, 0.2, 0.3]).astype(complex), (2, 2))
    assert ree_numeric(cc, REE_LIGHT, seed=0).value <= 1e-9


def test_ree_never_negative_and_requires_two_qubits():
    rng = np.random.default_rng(4)
    for _ in range(3):
        val = ree_numeric(random_hs_state((2, 2), rng), REE_COARSE, seed=0).value
        assert val >= 0.0
    with pytest.raises(ValueError):
        ree_numeric(maximally_mixed((2, 3)))


def test_steering_induced_entanglement_on_rho_x():
    rho = rho_x_state()
    avg, per = steering_induced_entanglement(rho, ProjectiveBasis.computational(2))
    assert np.isclose(avg, 1.0, atol=1e-9)
    assert len(per) == 2
    for rec in per:
        assert rec["exact"]
        assert np.isclose(rec["probability"], 0.5, atol=1e-12)
        assert np.isclose(rec["entanglement"], 1.0, atol=1e-9)


def test_steering_induced_entanglement_depends_on_alice_basis():
    # steering the same state along the conjugate direction leaves BC in a
    # separable mixture, so the numerical fallback is exercised
    rho = rho_x_state()
    avg, per = steering_induced_entanglement(
        rho, fourier_basis(2), REE_COARSE, seed=0
    )
    assert avg <= 1e-6
    assert any(not rec["exact"] for rec in per)
    with pytest.raises(ValueError):
        steering_induced_entanglement(bell_state(), ProjectiveBasis.computational(2))


def test_verify_theorem2_random_coefficients():
    for d in (2, 3):
        rep = verify_theorem2(d, LIGHT, seed=d)
        assert rep.status == PASS
        assert rep.converged
        assert rep.theorem == "maximally_correlated_equality"
        assert abs(rep.value_lhs - rep.value_rhs) <= 1e-5


def test_verify_theorem2_bell_coefficients():
    coeff = np.full((2, 2), 0.5)
    rep = verify_theorem2(2, LIGHT, seed=0, coeff=coeff)
    assert rep.status == PASS
    assert np.isclose(rep.value_rhs, 1.0, atol=1e-12)
    assert np.isclose(rep.value_lhs, 1.0, atol=1e-5)


def test_verify_corollary1_pure_inputs():
    rng = np.random.default_rng(5)
    for dims in ((2, 2), (3, 2)):
        rho = random_pure(dims, rng)
        if np.linalg.norm(
            np.diff(np.linalg.eigvalsh(partial_trace(rho, [1]).data))
        ) < 1e-4:
            continue
        rep = verify_corollary1(rho, budget=LIGHT, seed=0)
        assert rep.status == PASS
        assert rep.margin >= 0.0
        assert rep.theorem == "steered_entanglement_bound"


def test_verify_corollary1_mixed_input_uses_numeric_fallback():
    rng = np.random.default_rng(6)
    rho = random_hs_state((2, 2), rng)
    rep = verify_corollary1(rho, budget=SearchBudget(starts=4, max_evals=800), seed=0)
    assert rep.status == PASS
    assert any("informational" in line for line in rep.details)


def test_verify_corollary1_rejects_degenerate_b_marginal():
    with pytest.raises(ValueError):
        verify_corollary1(bell_state())
    with pytest.raises(ValueError):
        verify_corollary1(rho_x_state())


def test_rho_x_finding_report():
    rep = rho_x_finding()
    assert rep.status == FINDING
    assert rep.value_rhs <= 1e-9  # BC disturbance vanishes
    assert np.isclose(rep.value_lhs, 1.0, atol=1e-9)  # average entanglement
    assert rep.theorem == "steered_entanglement_exceeds_bc_disturbance"


def test_protocol_entropy_bookkeeping():
    # pure AB input: every steered BC state is pure, and its entanglement is
    # the entropy of the B side after the copy
    rng = np.random.default_rng(7)
    rho = random_pure((2, 2), rng)
    out = prepare_protocol_state(rho)
    flat = regroup_dims(out, (2, 4))
    from steercoh import steer

    for outcome in steer(flat, fourier_basis(2)):
        if outcome.negligible:
            continue
        bc = regroup_dims(outcome.state, (2, 2))
        lam = np.linalg.eigvalsh(bc.data)
        assert lam[-1] >= 1.0 - 1e-9
        ent = von_neumann_entropy(partial_trace(bc, [0]))
        assert 0.0 <= ent <= 1.0 + 1e-12


def test_tensor_and_protocol_round_trip_marginals():
    rng = np.random.default_rng(8)
    rho = random_hs_state((2, 2), rng)
    out = prepare_protocol_state(rho)
    assert partial_trace(out, [0]).close_to(partial_trace(rho, [0]), atol=1e-10)
    deph = dephase(rho, ProjectiveBasis.computational(2), target=1)
    assert partial_trace(out, [1]).close_to(
        partial_trace(deph, [1]), atol=1e-10
    )
