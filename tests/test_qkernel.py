"""State container, steering, dephasing, Kraus maps and state IO."""

import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from steercoh import (
    DensityMatrix,
    InvalidStateError,
    KrausMap,
    ProjectiveBasis,
    apply_kraus,
    bell_state,
    coherence,
    dephase,
    distance,
    eig_hermitian,
    entropy_of_probs,
    load_state,
    maximally_mixed,
    partial_trace,
    product_basis,
    regroup_dims,
    save_state,
    state_from_dict,
    state_to_dict,
    steer,
    tensor_product,
    von_neumann_entropy,
)
from steercoh.qkernel import atomic_write_text
from steercoh.sampling import haar_unitaries, haar_unitary, random_hs_state, random_pure

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


def test_density_matrix_rejects_non_hermitian():
    m = np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex)
    with pytest.raises(InvalidStateError):
        DensityMatrix(m, (2,))


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.eye(2), (2,))


def test_density_matrix_rejects_negative_eigenvalue():
    m = np.diag([1.2, -0.2]).astype(complex)
    with pytest.raises(InvalidStateError):
        DensityMatrix(m, (2,))


def test_density_matrix_rejects_dims_mismatch():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4.0, (2, 3))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 4.0, (2, 0))
    with pytest.raises(ValueError):
        DensityMatrix(np.ones((2, 3)) / 6.0, (2,))


def test_density_matrix_data_read_only():
    rho = maximally_mixed((2,))
    with pytest.raises(ValueError):
        rho.data[0, 0] = 0.9


def test_density_matrix_tolerance_is_respected():
    # validation runs at DEFAULT_TOL = 1e-9: a trace off by 2e-7 is rejected,
    # one off by 1e-10 is accepted
    with pytest.raises(InvalidStateError):
        DensityMatrix(np.diag([0.5, 0.5 + 2e-7]).astype(complex), (2,))
    DensityMatrix(np.diag([0.5, 0.5 + 1e-10]).astype(complex), (2,))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_validators_reject_non_finite_entries(bad):
    # comparisons with NaN are False, and inf - inf is NaN, so these slip
    # past the tolerance checks unless finiteness is tested first
    m = np.eye(2, dtype=complex) / 2.0
    m[0, 1] = m[1, 0] = bad
    with pytest.raises(InvalidStateError, match="non-finite"):
        DensityMatrix(m, (2,))
    u = np.eye(2, dtype=complex)
    u[0, 0] = bad
    with pytest.raises(InvalidStateError, match="non-finite"):
        ProjectiveBasis(u)
    with pytest.raises(InvalidStateError, match="non-finite"):
        KrausMap((u,), target=0)


def test_from_pure_normalizes():
    rho = DensityMatrix.from_pure([2.0, 0.0, 0.0, 2.0], (2, 2))
    assert np.isclose(rho.data.trace().real, 1.0)
    assert np.isclose((rho.data @ rho.data).trace().real, 1.0)
    assert rho.dims == (2, 2)


def test_close_to():
    a = maximally_mixed((2,))
    b = DensityMatrix(np.diag([0.5 + 5e-10, 0.5 - 5e-10]).astype(complex), (2,))
    assert a.close_to(b)
    assert not a.close_to(b, atol=1e-11)
    assert not a.close_to(maximally_mixed((2, 1)))


def test_maximally_mixed_entropy():
    rho = maximally_mixed((2, 3))
    assert rho.dims == (2, 3)
    assert np.isclose(von_neumann_entropy(rho), np.log2(6.0))


def test_projective_basis_rejects_non_orthonormal():
    with pytest.raises(InvalidStateError):
        ProjectiveBasis(np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(InvalidStateError):
        ProjectiveBasis(np.array([[0.5, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        ProjectiveBasis(np.ones((2, 3)))


def test_projective_basis_matrix_has_kets_as_columns():
    basis = ProjectiveBasis(HADAMARD)
    assert basis.dim == 2
    assert_allclose(basis.matrix[:, 0], basis.vectors[0])


def test_projective_basis_from_columns_round_trip():
    rng = np.random.default_rng(7)
    u = haar_unitary(3, rng)
    basis = ProjectiveBasis.from_columns(u)
    assert_allclose(basis.matrix, u, atol=1e-12)


def test_computational_basis_is_one_read_only_object():
    for d in (2, 3, 4):
        basis = ProjectiveBasis.computational(d)
        assert ProjectiveBasis.computational(d) is basis
        assert not basis.vectors.flags.writeable
        with pytest.raises(ValueError):
            basis.vectors[0, 0] = 0.0
        assert_allclose(basis.vectors, np.eye(d), atol=0)


def test_coherence_unchanged_by_the_cached_computational_basis():
    # coherence dephases in the (cached) computational basis of the rotated
    # state; a freshly built one gives the same value bit for bit
    rng = np.random.default_rng(41)
    for d in (2, 3, 4):
        rho = random_hs_state((d,), rng)
        ref = ProjectiveBasis.from_columns(haar_unitary(d, rng))
        u = ref.matrix
        rotated = DensityMatrix(u.conj().T @ rho.data @ u, (d,))
        fresh = ProjectiveBasis(np.eye(d))
        for kind in ("r", "l1", "t") if d == 2 else ("r", "l1"):
            expect = distance(kind, rotated, dephase(rotated, fresh, target=0))
            assert coherence(kind, rho, ref) == expect


def test_product_basis_row_major_order():
    e2 = ProjectiveBasis.computational(2)
    e3 = ProjectiveBasis.computational(3)
    joint = product_basis(e2, e3)
    assert joint.dim == 6
    for i in range(2):
        for j in range(3):
            expect = np.kron(e2.vectors[i], e3.vectors[j])
            assert_allclose(joint.vectors[i * 3 + j], expect, atol=1e-12)


def test_partial_trace_of_product_state():
    rng = np.random.default_rng(0)
    a = random_hs_state((2,), rng)
    b = random_hs_state((3,), rng)
    joint = tensor_product(a, b)
    assert_allclose(partial_trace(joint, [0]).data, a.data, atol=1e-12)
    assert_allclose(partial_trace(joint, [1]).data, b.data, atol=1e-12)


def test_partial_trace_of_bell_state_is_maximally_mixed():
    bell = bell_state()
    for side in (0, 1):
        red = partial_trace(bell, side)
        assert_allclose(red.data, np.eye(2) / 2.0, atol=1e-12)


def test_partial_trace_tripartite_keep_pair():
    rng = np.random.default_rng(1)
    a = random_hs_state((2,), rng)
    b = random_hs_state((3,), rng)
    c = random_hs_state((2,), rng)
    joint = tensor_product(tensor_product(a, b), c)
    kept = partial_trace(joint, [0, 2])
    assert kept.dims == (2, 2)
    assert_allclose(kept.data, np.kron(a.data, c.data), atol=1e-12)


def test_partial_trace_rejects_bad_subsystems():
    bell = bell_state()
    with pytest.raises(ValueError):
        partial_trace(bell, [2])
    with pytest.raises(ValueError):
        partial_trace(bell, [])


def test_regroup_dims():
    bell = bell_state()
    flat = regroup_dims(bell, (4,))
    assert flat.dims == (4,)
    assert_allclose(flat.data, bell.data)
    with pytest.raises(ValueError):
        regroup_dims(bell, (2, 3))


def test_tensor_product_dims_concatenate():
    joint = tensor_product(maximally_mixed((2,)), maximally_mixed((3, 2)))
    assert joint.dims == (2, 3, 2)
    assert joint.side == 12


def test_eig_hermitian_ascending_and_validated():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    h = (g + g.conj().T) / 2.0
    w, v = eig_hermitian(h)
    assert np.all(np.diff(w) >= 0)
    assert_allclose((v * w) @ v.conj().T, h, atol=1e-10)
    with pytest.raises(ValueError):
        eig_hermitian(g)


def test_entropy_frozen_values():
    assert np.isclose(entropy_of_probs([0.1, 0.9]), 0.4689955935892812, atol=1e-12)
    assert np.isclose(entropy_of_probs([0.5, 0.5]), 1.0, atol=1e-12)
    assert entropy_of_probs([1.0, 0.0]) == 0.0
    assert np.isclose(von_neumann_entropy(bell_state()), 0.0, atol=1e-9)
    assert np.isclose(von_neumann_entropy(maximally_mixed((2,))), 1.0, atol=1e-12)


def test_steer_bell_in_computational_basis():
    ens = steer(bell_state(), ProjectiveBasis.computational(2))
    assert len(ens) == 2
    probs = [out.probability for out in ens]
    assert_allclose(probs, [0.5, 0.5], atol=1e-12)
    assert_allclose(ens[0].state.data, np.diag([1.0, 0.0]), atol=1e-12)
    assert_allclose(ens[1].state.data, np.diag([0.0, 1.0]), atol=1e-12)


def test_steer_bell_in_hadamard_basis_gives_coherent_conditionals():
    ens = steer(bell_state(), ProjectiveBasis(HADAMARD))
    for out in ens:
        assert np.isclose(out.probability, 0.5, atol=1e-12)
        assert np.isclose(abs(out.state.data[0, 1]), 0.5, atol=1e-12)


def test_steer_average_recovers_marginal():
    rng = np.random.default_rng(5)
    rho = random_hs_state((2, 3), rng)
    basis = ProjectiveBasis.from_columns(haar_unitary(2, rng))
    ens = steer(rho, basis)
    assert np.isclose(sum(out.probability for out in ens), 1.0, atol=1e-12)
    average = sum(out.probability * out.state.data for out in ens)
    assert_allclose(average, partial_trace(rho, [1]).data, atol=1e-10)


def test_steer_drops_zero_probability_outcomes():
    rho = tensor_product(
        DensityMatrix.from_pure([1.0, 0.0], (2,)), maximally_mixed((2,))
    )
    ens = steer(rho, ProjectiveBasis.computational(2))
    assert len(ens) == 1
    assert ens[0].probability == 1.0
    assert ens[0].state.close_to(maximally_mixed((2,)), atol=1e-15)


def test_steer_rejects_bad_shapes():
    with pytest.raises(ValueError):
        steer(maximally_mixed((2, 2, 2)), ProjectiveBasis.computational(2))
    with pytest.raises(ValueError):
        steer(bell_state(), ProjectiveBasis.computational(3))


def test_dephase_kills_off_diagonal():
    plus = DensityMatrix.from_pure([1.0, 1.0], (2,))
    out = dephase(plus, ProjectiveBasis.computational(2))
    assert_allclose(out.data, np.eye(2) / 2.0, atol=1e-12)


def test_dephase_fixed_point_in_its_own_basis():
    plus = DensityMatrix.from_pure([1.0, 1.0], (2,))
    out = dephase(plus, ProjectiveBasis(HADAMARD))
    assert out.close_to(plus, atol=1e-12)


def test_dephase_target_selects_subsystem():
    bell = bell_state()
    out = dephase(bell, ProjectiveBasis.computational(2), target=1)
    expect = np.zeros((4, 4), dtype=complex)
    expect[0, 0] = expect[3, 3] = 0.5
    assert_allclose(out.data, expect, atol=1e-12)
    assert np.isclose(von_neumann_entropy(out), 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        dephase(bell, ProjectiveBasis.computational(2), target=2)


def test_dephase_idempotent():
    rng = np.random.default_rng(11)
    rho = random_hs_state((2, 2), rng)
    basis = ProjectiveBasis.from_columns(haar_unitary(2, rng))
    once = dephase(rho, basis, target=1)
    twice = dephase(once, basis, target=1)
    assert once.close_to(twice, atol=1e-12)


def test_dephase_matches_explicit_pinching_on_every_target():
    rng = np.random.default_rng(12)
    dims = (2, 3, 2)
    rho = random_hs_state(dims, rng)
    for target, dt in enumerate(dims):
        u = haar_unitary(dt, rng)
        pre, post = int(np.prod(dims[:target])), int(np.prod(dims[target + 1:]))
        expect = np.zeros_like(rho.data)
        for k in range(dt):
            proj = np.kron(np.kron(np.eye(pre), np.outer(u[:, k], u[:, k].conj())),
                           np.eye(post))
            expect += proj @ rho.data @ proj
        out = dephase(rho, ProjectiveBasis.from_columns(u), target=target)
        assert out.dims == dims
        assert_allclose(out.data, expect, atol=1e-14)


def test_kraus_map_requires_trace_preservation():
    with pytest.raises(InvalidStateError):
        KrausMap((np.diag([1.0, 0.5]),), target=0)
    with pytest.raises(ValueError):
        KrausMap((), target=0)
    with pytest.raises(ValueError):
        KrausMap((np.eye(2), np.eye(3)), target=0)


def test_apply_kraus_unitary_on_chosen_subsystem():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    rho = DensityMatrix.from_pure([1.0, 0.0, 0.0, 0.0], (2, 2))
    out = apply_kraus(rho, KrausMap((x,), target=1))
    expect = DensityMatrix.from_pure([0.0, 1.0, 0.0, 0.0], (2, 2))
    assert out.close_to(expect, atol=1e-12)


def test_apply_kraus_depolarizing_reaches_maximally_mixed():
    paulis = [
        np.eye(2, dtype=complex),
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]], dtype=complex),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    kmap = KrausMap(tuple(p / 2.0 for p in paulis), target=0)
    rng = np.random.default_rng(13)
    out = apply_kraus(random_hs_state((2,), rng), kmap)
    assert_allclose(out.data, np.eye(2) / 2.0, atol=1e-12)


def test_apply_kraus_selective_outcomes_sum_to_channel_output():
    rng = np.random.default_rng(17)
    rho = random_hs_state((2, 2), rng)
    p0 = np.diag([1.0, 0.0]).astype(complex)
    p1 = np.diag([0.0, 1.0]).astype(complex)
    kmap = KrausMap((p0, p1), target=1)
    summed = apply_kraus(rho, kmap)
    parts = apply_kraus(rho, kmap, selective=True)
    acc = sum(out.probability * out.state.data for out in parts)
    assert_allclose(acc, summed.data, atol=1e-12)
    assert np.isclose(sum(out.probability for out in parts), 1.0, atol=1e-12)


def test_apply_kraus_selective_keeps_surviving_outcomes_in_operator_order():
    # |0><0| on B survives only the first and third operators
    rho = tensor_product(maximally_mixed((2,)), DensityMatrix.from_pure([1.0, 0.0], (2,)))
    kraus = (np.diag([0.6, 0.0]), np.diag([0.0, 1.0]), np.diag([0.8, 0.0]))
    parts = apply_kraus(rho, KrausMap(kraus, target=1), selective=True)
    assert [out.probability for out in parts] == pytest.approx([0.36, 0.64], abs=1e-15)
    for out in parts:
        assert out.state.close_to(rho, atol=1e-15)


def test_derived_states_are_not_validated_again(monkeypatch, tmp_path):
    # measurement outcomes and partial traces of a validated state are taken
    # unvalidated and give the bits of the validated construction
    rng = np.random.default_rng(39)
    rho = random_hs_state((2, 3), rng)
    alice = ProjectiveBasis.from_columns(haar_unitary(2, rng))
    kmap = KrausMap((np.diag([0.6, 0.8]), np.diag([0.8, 0.6])), target=0)

    def derive():
        outs = steer(rho, alice) + apply_kraus(rho, kmap, selective=True)
        return [out.state for out in outs] + [partial_trace(rho, [0]), partial_trace(rho, 1)]

    with monkeypatch.context() as m:
        m.setattr(DensityMatrix, "_derived", classmethod(lambda cls, data, dims: cls(data, dims)))
        validated = derive()
    made = []
    post_init = DensityMatrix.__post_init__
    monkeypatch.setattr(DensityMatrix, "__post_init__",
                        lambda self: (made.append(self), post_init(self)))
    derived = derive()
    assert made == []
    for got, want in zip(derived, validated, strict=True):
        assert got.dims == want.dims
        assert got.data.tobytes() == want.data.tobytes()
        assert not got.data.flags.writeable
    # a state that enters from outside, and a map's summed output, are still
    # validated
    path = tmp_path / "state.json"
    save_state(rho, str(path))
    DensityMatrix(rho.data, rho.dims)
    load_state(str(path))
    apply_kraus(rho, kmap)
    tensor_product(rho, partial_trace(rho, [0]))
    assert len(made) == 4


def test_atomic_write_text(tmp_path):
    path = tmp_path / "note.txt"
    atomic_write_text(str(path), "alpha")
    atomic_write_text(str(path), "beta")
    assert path.read_text() == "beta"


def test_state_io_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    rho = random_hs_state((2, 3), rng)
    path = tmp_path / "state.json"
    save_state(rho, str(path))
    back = load_state(str(path))
    assert back.dims == (2, 3)
    assert_allclose(back.data, rho.data, atol=1e-12)


def test_state_dict_round_trip_and_malformed_payloads():
    rho = bell_state()
    d = state_to_dict(rho)
    back = state_from_dict(json.loads(json.dumps(d)))
    assert back.close_to(rho, atol=1e-12)
    with pytest.raises(ValueError):
        state_from_dict({})
    with pytest.raises(ValueError):
        state_from_dict({"dims": [2], "re": [[1.0, 0.0]], "im": [[0.0]]})
    with pytest.raises(ValueError):
        state_from_dict([1, 2, 3])


def test_load_state_error_modes(tmp_path):
    with pytest.raises(OSError):
        load_state(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(json.JSONDecodeError):
        load_state(str(bad))


def test_random_pure_has_unit_purity():
    rng = np.random.default_rng(23)
    for _ in range(5):
        rho = random_pure((2, 2), rng)
        assert np.isclose((rho.data @ rho.data).trace().real, 1.0, atol=1e-10)


def _reference_haar_unitary(d, rng):
    """One Haar draw as haar_unitary made it before the batched sampler."""
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    ph = np.diagonal(r).copy()
    ph /= np.abs(ph)
    return q * ph


def test_batched_haar_draws_equal_sequential_draws():
    # bit for bit, leaving the rng where k sequential draws would
    for d in (2, 3, 4):
        for k in range(1, 7):
            for seed in range(5):
                batch_rng, seq_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                batch = haar_unitaries(d, k, batch_rng)
                assert batch.shape == (k, d, d)
                for u in batch:
                    assert u.tobytes() == _reference_haar_unitary(d, seq_rng).tobytes()
                assert batch_rng.bit_generator.state == seq_rng.bit_generator.state
            single_rng, seq_rng = np.random.default_rng(d), np.random.default_rng(d)
            assert haar_unitary(d, single_rng).tobytes() == \
                _reference_haar_unitary(d, seq_rng).tobytes()
            assert_allclose(batch[0].conj().T @ batch[0], np.eye(d), atol=1e-12)
    assert haar_unitaries(2, 0, np.random.default_rng(0)).shape == (0, 2, 2)


def test_batched_gaussian_starts_equal_sequential_draws():
    for n in (2, 6, 12):
        for k in range(1, 8):
            for seed in range(5):
                batch_rng, seq_rng = np.random.default_rng(seed), np.random.default_rng(seed)
                batch = batch_rng.normal(scale=1.2, size=(k, n))
                for row in batch:
                    assert row.tobytes() == seq_rng.normal(scale=1.2, size=n).tobytes()
                assert batch_rng.bit_generator.state == seq_rng.bit_generator.state
