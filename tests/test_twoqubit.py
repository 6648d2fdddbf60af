"""Pauli expansion and the closed-form steering value."""

import ast

import numpy as np
import pytest
from numpy.testing import assert_allclose

from steercoh import (
    DensityMatrix,
    FAIL,
    InvalidStateError,
    PASS,
    PauliTheta,
    SearchBudget,
    bell_diagonal_state,
    bell_state,
    bloch_vector,
    gap_example,
    partial_trace,
    pauli_decompose,
    reconstruct,
    sic,
    sic_l1_closed,
    verify_theorem3,
    werner_state,
)
from steercoh import twoqubit
from steercoh.sampling import (
    haar_unitary,
    random_hs_state,
    random_pure,
    random_state_nondegenerate_b,
)

LIGHT = SearchBudget(starts=6, max_evals=500, outer_starts=4, outer_evals=300,
                     refine_evals=70)


def _pauli_reference(rho) -> np.ndarray:
    """Theta_ij = Re tr(rho sigma_i (x) sigma_j), one explicit trace per entry."""
    sig = (
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    )
    th = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            th[i, j] = np.trace(rho.data @ np.kron(sig[i], sig[j])).real
    return th


def test_pauli_decompose_of_bell_state():
    th = pauli_decompose(bell_state())
    assert np.isclose(th.theta[0, 0], 1.0, atol=1e-12)
    assert_allclose(th.a, np.zeros(3), atol=1e-12)
    assert_allclose(th.b, np.zeros(3), atol=1e-12)
    assert_allclose(th.tmat, np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def test_pauli_decompose_requires_two_qubits():
    with pytest.raises(ValueError):
        pauli_decompose(DensityMatrix(np.eye(4) / 4.0, (4,)))


def test_pauli_theta_shape_validation():
    with pytest.raises(ValueError):
        PauliTheta(np.zeros((3, 3)))


def test_pauli_decompose_matches_explicit_traces():
    rng = np.random.default_rng(2)
    states = [random_hs_state((2, 2), rng) for _ in range(20)]
    states += [werner_state(p) for p in (-1.0 / 3.0, 0.2, 0.6, 1.0)]
    states += [bell_diagonal_state(rng.dirichlet(np.ones(4))) for _ in range(5)]
    for rho in states:
        assert np.abs(pauli_decompose(rho).theta - _pauli_reference(rho)).max() <= 1e-15


def test_pauli_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(5):
        rho = random_hs_state((2, 2), rng)
        back = reconstruct(pauli_decompose(rho))
        assert back.close_to(rho, atol=1e-10)


def test_pauli_blocks_match_marginals():
    rng = np.random.default_rng(1)
    rho = random_hs_state((2, 2), rng)
    th = pauli_decompose(rho)
    assert_allclose(th.a, bloch_vector(partial_trace(rho, [0])), atol=1e-10)
    assert_allclose(th.b, bloch_vector(partial_trace(rho, [1])), atol=1e-10)


def test_reconstruct_rejects_unphysical_coefficients():
    th = np.zeros((4, 4))
    th[0, 0] = 1.0
    th[1:, 1:] = np.eye(3)  # T = +I has a -1/2 eigenvalue
    with pytest.raises(InvalidStateError):
        reconstruct(PauliTheta(th))


def test_closed_form_equals_the_radical_in_the_canonical_frame():
    # Theta already in the paper's frame (b along +z, T11 = T12 = T21 = 0),
    # entries small enough to keep the state positive
    rng = np.random.default_rng(7)
    for _ in range(20):
        th = np.zeros((4, 4))
        th[0, 0] = 1.0
        th[1:, 0] = rng.uniform(-0.15, 0.15, size=3)
        th[0, 3] = rng.uniform(0.01, 0.15)
        th[1:, 1:] = rng.uniform(-0.15, 0.15, size=(3, 3))
        th[1, 1] = th[1, 2] = th[2, 1] = 0.0
        t22, t31, t32 = th[2, 2], th[3, 1], th[3, 2]
        radical = np.sqrt((t22 ** 2 + t31 ** 2 + t32 ** 2) / 2
                          + np.sqrt((t32 ** 2 + t22 ** 2) ** 2
                                    + 2 * t31 ** 2 * (t32 ** 2 - t22 ** 2)
                                    + t31 ** 4) / 2)
        assert abs(sic_l1_closed(reconstruct(PauliTheta(th))) - radical) <= 1e-12


def test_closed_form_matches_the_search_on_pure_states():
    # pure states put the two singular values of T (1 - b b^t / |b|^2)
    # together, where the paper's nested radical amplifies rounding to ~3e-9
    rng = np.random.default_rng(31)
    budget = SearchBudget(starts=16, max_evals=4000)
    for i in range(20):
        rho = random_state_nondegenerate_b((2, 2), rng, pure=True)
        res = sic(rho, "l1", budget, seed=i)
        assert res.converged
        assert abs(sic_l1_closed(rho) - res.value) <= 1e-10


def test_closed_form_frozen_values():
    assert np.isclose(sic_l1_closed(bell_state()), 1.0, atol=1e-12)
    assert np.isclose(sic_l1_closed(gap_example()), 0.5, atol=1e-12)
    for p in (0.3, 0.7):
        assert np.isclose(sic_l1_closed(werner_state(p)), p, atol=1e-12)


def test_closed_form_invariant_under_local_unitaries():
    rng = np.random.default_rng(8)
    states = [random_hs_state((2, 2), rng), random_pure((2, 2), rng),
              bell_diagonal_state([0.45, 0.3, 0.15, 0.1]),
              random_hs_state((3, 2), rng), random_hs_state((4, 2), rng)]
    for rho in states:
        base = sic_l1_closed(rho)
        for _ in range(3):
            u = np.kron(haar_unitary(rho.dims[0], rng), haar_unitary(2, rng))
            rotated = DensityMatrix(u @ rho.data @ u.conj().T, rho.dims)
            assert np.isclose(sic_l1_closed(rotated), base, atol=1e-9)


def test_closed_form_is_the_bloch_singular_value_on_two_qubits():
    # sigma_max(T (1 - n n^t)) at Bob's Bloch axis n = b / |b|
    rng = np.random.default_rng(41)
    for i in range(40):
        rho = random_hs_state((2, 2), rng) if i % 2 else random_state_nondegenerate_b((2, 2), rng)
        th = pauli_decompose(rho)
        n = th.b / np.linalg.norm(th.b)
        ref = np.linalg.svd(th.tmat @ (np.eye(3) - np.outer(n, n)), compute_uv=False)[0]
        assert abs(sic_l1_closed(rho) - ref) <= 1e-14, i


def test_closed_form_matches_the_search_beyond_two_qubits():
    # 2 ||C||_1 at Bob's eigenbasis, for d_A x 2 states with a simple marginal
    rng = np.random.default_rng(42)
    budget = SearchBudget(starts=8, max_evals=2000)
    for da in (3, 4, 5):
        for i in range(3):
            rho = random_state_nondegenerate_b((da, 2), rng)
            res = sic(rho, "l1", budget, seed=i)
            assert res.converged, (da, i)
            assert abs(sic_l1_closed(rho) - res.value) <= 1e-10, (da, i)


def test_closed_form_rejects_states_it_does_not_cover():
    rng = np.random.default_rng(43)
    with pytest.raises(ValueError, match="Bob a qubit"):
        sic_l1_closed(random_state_nondegenerate_b((2, 3), rng))
    # rho_B = I/2 beyond two qubits: the minimum over Bob's bases has no
    # closed form here
    rho = DensityMatrix(np.kron(random_hs_state((3,), rng).data, np.eye(2) / 2.0), (3, 2))
    with pytest.raises(ValueError, match="simple B marginal"):
        sic_l1_closed(rho)


def test_branch_continuity_near_vanishing_b():
    # same correlation matrix with a shrinking local vector: both branches
    # must meet at the degenerate point
    t = np.diag([0.7, -0.5, 0.3])
    values = {}
    for eps in (0.0, 1e-6, 1e-3):
        th = np.zeros((4, 4))
        th[0, 0] = 1.0
        th[0, 1:] = [eps, 0.0, 0.0]
        th[1:, 1:] = t
        rho = reconstruct(PauliTheta(th))
        values[eps] = sic_l1_closed(rho)
    assert np.isclose(values[0.0], 0.5, atol=1e-12)
    assert np.isclose(values[1e-6], 0.5, atol=1e-4)
    assert np.isclose(values[1e-3], 0.5, atol=1e-2)


def test_verify_theorem3_on_generic_state():
    rng = np.random.default_rng(9)
    rho = random_hs_state((2, 2), rng)
    rep = verify_theorem3(rho, LIGHT, seed=0)
    assert rep.status == PASS
    assert rep.converged
    assert rep.theorem == "two_qubit_closed_form"
    assert abs(rep.value_lhs - rep.value_rhs) <= 1e-5


def test_verify_theorem3_on_bell_diagonal_state():
    rho = bell_diagonal_state([0.45, 0.3, 0.15, 0.1])
    rep = verify_theorem3(rho, LIGHT, seed=0)
    assert rep.status == PASS
    assert rep.converged


def test_verify_theorem3_on_a_qutrit_alice(monkeypatch):
    # the three-way check runs on d_A x 2 states, and a FAIL reports C's
    # singular values at Bob's eigenbasis, which need no Pauli expansion
    rho = random_state_nondegenerate_b((3, 2), np.random.default_rng(44))
    rep = verify_theorem3(rho, LIGHT, seed=0)
    assert rep.status == PASS and rep.converged
    closed = sic_l1_closed(rho)
    monkeypatch.setattr(twoqubit, "sic_l1_closed", lambda state: closed + 1e-3)
    rep = verify_theorem3(rho, LIGHT, seed=0)
    assert rep.status == FAIL
    svals = [d for d in rep.details if d.startswith("singular_values_C=")]
    assert len(svals) == 1
    values = ast.literal_eval(svals[0].split("=", 1)[1])
    assert len(values) == 3 and abs(2.0 * sum(values) - closed) <= 1e-10
