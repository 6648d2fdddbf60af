"""Basis search spaces, B-side disturbance and steered coherence."""

import importlib.util
import math
import operator
import sys
from collections import deque
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.optimize import OptimizeResult, minimize, rosen, rosen_der

from steercoh import (
    ComparabilityWarning,
    DensityMatrix,
    DistanceKind,
    EigenbasisFamily,
    PASS,
    ProjectiveBasis,
    SearchBudget,
    avg_steered_coherence,
    b_side_mid,
    b_side_mid_detail,
    bell_diagonal_state,
    bell_state,
    coherence,
    dephase,
    distance,
    fourier_basis,
    gap_example,
    mid,
    mid_detail,
    partial_trace,
    pauli_decompose,
    ree_numeric,
    sic,
    sic_l1_closed,
    steer,
    tensor_product,
    verify_sic_properties,
    verify_theorem1,
    von_neumann_entropy,
    werner_state,
)
from steercoh import correlations
from steercoh.correlations import (
    _b_marginal_family,
    _binary_entropy,
    _chart,
    _chart_unitary,
    _danskin_objective,
    _disturbance_objective,
    _lanes_of,
    _lbfgs_lanes,
    _maximize_alice,
    _objective_bloch_2q,
    _objective_general,
    _rotated,
)
from steercoh.sampling import (
    haar_unitaries,
    haar_unitary,
    min_eigengap,
    random_hs_state,
    random_pure,
    random_state_nondegenerate_b,
)
from steercoh.twoqubit import PAULI, _steered_l1_block, _steered_l1_witness, verify_theorem3

# light search settings keep unit runs fast; the acceptance suite uses the
# heavier defaults
LIGHT = SearchBudget(starts=6, max_evals=500, outer_starts=4, outer_evals=300,
                     refine_evals=70)

# the budget of acceptance criterion 1's 3x2 block
BUDGET_3X2 = SearchBudget(starts=6, max_evals=500)

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


def test_chart_origin_is_the_frame():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        frame = haar_unitary(d, rng)
        assert_allclose(frame @ _chart_unitary(d, np.zeros(d * d - d)), frame,
                        atol=1e-12)


def test_chart_realizes_unitaries():
    rng = np.random.default_rng(0)
    for d in (2, 3, 4):
        for _ in range(5):
            u = _chart_unitary(d, rng.normal(scale=1.2, size=d * d - d))
            assert_allclose(u.conj().T @ u, np.eye(d), atol=1e-12)


def test_stacked_chart_rows_are_the_single_point_charts():
    # the lockstep contract: a lane's bits do not depend on its batch
    rng = np.random.default_rng(32)
    for d in (2, 3, 4):
        xs = rng.normal(scale=1.2, size=(5, d * d - d))
        stacked = _chart(d, xs)
        for j, x in enumerate(xs):
            for many, one in zip(stacked, _chart(d, x)):
                assert np.array_equal(many[j], one), d


def _projectors(u: np.ndarray) -> np.ndarray:
    """The basis {|u_k><u_k|} of the columns of u, as one real vector."""
    p = np.einsum("ik,jk->kij", u, u.conj()).reshape(-1)
    return np.concatenate([p.real, p.imag])


def test_chart_has_no_dead_directions():
    # every chart coordinate moves the basis: the Jacobian of
    # x -> {|u_k><u_k|} has full column rank d*d - d at generic points
    rng = np.random.default_rng(1)
    h = 1e-6
    for d in (2, 3, 4):
        n = d * d - d
        for _ in range(3):
            frame = haar_unitary(d, rng)
            x = rng.normal(scale=1.2, size=n)
            jac = np.array([
                _projectors(frame @ _chart_unitary(d, x + h * e))
                - _projectors(frame @ _chart_unitary(d, x - h * e))
                for e in np.eye(n)
            ]).T / (2 * h)
            sv = np.linalg.svd(jac, compute_uv=False)
            assert np.sum(sv > 1e-6 * sv[0]) == n


def test_eigenbasis_family_trivial_for_simple_spectrum():
    fam = EigenbasisFamily.from_matrix(np.diag([0.1, 0.3, 0.6]))
    assert fam.is_trivial
    assert fam.n_params == 0
    assert fam.member(np.zeros(0)).dim == 3


def test_eigenbasis_family_block_parameters():
    fam = EigenbasisFamily.from_matrix(np.eye(2) / 2.0)
    assert fam.n_params == 2
    fam2 = EigenbasisFamily.from_matrix(np.diag([0.35, 0.35, 0.3]))
    assert fam2.n_params == 2


def test_eigenbasis_family_skips_null_space():
    # the kernel block carries no weight, so its rotations are irrelevant
    fam = EigenbasisFamily.from_matrix(np.diag([0.5, 0.5, 0.0, 0.0]))
    assert fam.n_params == 2
    assert len(fam.blocks) == 2


def test_b_marginal_family_is_built_once_per_state(monkeypatch):
    # the state keeps its B family, so theorem 1 (sic and b_side_mid) and
    # theorem 3 (the closed form, sic and b_side_mid) each build it once,
    # and they report what separate fresh copies of the state give
    built = []
    real = EigenbasisFamily.from_matrix.__func__

    def counting(cls, mat):
        built.append(1)
        return real(cls, mat)

    monkeypatch.setattr(EigenbasisFamily, "from_matrix", classmethod(counting))
    rng = np.random.default_rng(43)
    data = bell_diagonal_state(rng.dirichlet(np.ones(4))).data

    def fresh():
        return DensityMatrix(data, (2, 2))

    rep = verify_theorem1(fresh(), "r", LIGHT, seed=5)
    assert len(built) == 1
    sic_res, mid_res = sic(fresh(), "r", LIGHT, 5), b_side_mid_detail(fresh(), "r", LIGHT, 5)
    assert (rep.value_lhs.hex(), rep.value_rhs.hex(), rep.converged) == (
        sic_res.value.hex(), mid_res.value.hex(), sic_res.converged and mid_res.converged)
    built.clear()
    rep = verify_theorem3(fresh(), LIGHT, seed=5)
    assert len(built) == 1
    sic_res = sic(fresh(), "l1", LIGHT, 5)
    assert (rep.value_lhs.hex(), rep.value_rhs.hex(), rep.converged) == (
        sic_res.value.hex(), sic_l1_closed(fresh()).hex(), sic_res.converged)
    assert rep.details[2] == f"numeric_mid_t={b_side_mid(fresh(), 't', LIGHT, 5):.10f}"
    rho = fresh()
    _b_marginal_family(rho)
    assert repr(rho) == repr(fresh())


def test_eigenbasis_family_members_diagonalize():
    rng = np.random.default_rng(2)
    u = haar_unitary(4, rng)
    m = u @ np.diag([0.4, 0.4, 0.15, 0.05]) @ u.conj().T
    fam = EigenbasisFamily.from_matrix(m)
    assert fam.n_params == 2
    for _ in range(5):
        basis = fam.member(rng.normal(size=2))
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


def _per_outcome_average(rho, alice, bob, kind):
    """The average steered coherence as one steer and one coherence call per
    outcome."""
    manual = 0.0
    for out in steer(rho, alice):
        manual += out.probability * coherence(kind, out.state, bob)
    return manual


def test_avg_steered_coherence_matches_manual_sum():
    # the one-pass reference equals the per-outcome sum, for every kind it
    # takes, with a dropped zero-probability outcome, and with the same errors
    rng = np.random.default_rng(3)
    for dims in ((2, 2), (2, 3), (3, 2), (3, 3)):
        for _ in range(3):
            rho = random_hs_state(dims, rng)
            alice = ProjectiveBasis.from_columns(haar_unitary(dims[0], rng))
            bob = ProjectiveBasis.from_columns(haar_unitary(dims[1], rng))
            for kind in ("r", "l1", "t") if dims[1] == 2 else ("r", "l1"):
                assert abs(avg_steered_coherence(rho, alice, bob, kind)
                           - _per_outcome_average(rho, alice, bob, kind)) <= 1e-13
    rho = tensor_product(DensityMatrix.from_pure([1.0, 0.0, 0.0], (3,)),
                         random_hs_state((2,), rng))
    comp = ProjectiveBasis.computational(3)
    bob = ProjectiveBasis.from_columns(haar_unitary(2, rng))
    assert len(steer(rho, comp)) == 1
    for kind in ("r", "l1"):
        value = avg_steered_coherence(rho, comp, bob, kind)
        assert value > 0.0
        assert abs(value - _per_outcome_average(rho, comp, bob, kind)) <= 1e-13
    tri = random_hs_state((2, 2, 2), rng)
    two = ProjectiveBasis.computational(2)
    for args in ((tri, two, two, "r"), (rho, two, bob, "r"), (rho, comp, comp, "l1"),
                 (random_hs_state((2, 3), rng), two, comp, "t")):
        with pytest.raises(ValueError) as old:
            _per_outcome_average(*args)
        with pytest.raises(ValueError) as new:
            avg_steered_coherence(*args)
        assert (new.type, str(new.value)) == (old.type, str(old.value))


def test_avg_steered_coherence_keeps_outcomes_of_small_probability():
    # pure states of Schmidt weight w under local unitaries, measured in
    # rho_A's eigenbasis: one outcome has probability about w, and m / p
    # amplifies the rounding of m by 1 / p past the Hermiticity tolerance
    # of a validated state
    rng = np.random.default_rng(3939)
    for w in (1e-9, 1e-10, 1e-11, 3e-12):
        psi = np.array([math.sqrt(1.0 - w), 0.0, 0.0, math.sqrt(w)])
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rho = DensityMatrix.from_pure(u @ psi, (2, 2))
        alice = ProjectiveBasis.from_columns(np.linalg.eigh(partial_trace(rho, [0]).data)[1])
        outs = steer(rho, alice)
        assert len(outs) == 2
        assert abs(sum(out.probability for out in outs) - 1.0) <= 1e-12
        for kind in ("r", "l1"):
            value = avg_steered_coherence(rho, alice, ProjectiveBasis.computational(2), kind)
            assert math.isfinite(value) and value >= 0.0


KINDS = (DistanceKind.RELATIVE_ENTROPY, DistanceKind.L1)


def _frame_points(rng, da, n=20):
    """Seeded (frame, x) pairs and the Alice basis frame @ chart(x) of each."""
    for _ in range(n):
        frame = haar_unitary(da, rng)
        x = rng.normal(scale=1.2, size=da * da - da)
        yield frame, x, ProjectiveBasis.from_columns(frame @ _chart_unitary(da, x))


def test_general_objective_matches_reference():
    rng = np.random.default_rng(13)
    for dims in ((2, 2), (3, 2), (2, 3), (3, 3)):
        rho = random_state_nondegenerate_b(dims, rng)
        bob = _b_marginal_family(rho).base
        for kind in KINDS:
            for frame, x, alice in _frame_points(rng, dims[0]):
                f = _objective_general(_rotated(rho.data, frame, bob.matrix), *dims, kind)
                ref = avg_steered_coherence(rho, alice, bob, kind)
                assert abs(f(x)[0] - ref) <= 1e-12


def test_general_objective_skips_zero_probability_outcomes():
    rng = np.random.default_rng(14)
    for da in (2, 3):
        ket0 = np.zeros((da, da), dtype=complex)
        ket0[0, 0] = 1.0
        rho = tensor_product(DensityMatrix(ket0, (da,)), random_hs_state((2,), rng))
        bob = ProjectiveBasis.computational(2)
        # at the origin of the identity frame Alice measures in the
        # computational basis, so every outcome but the first has probability zero
        alice = ProjectiveBasis.computational(da)
        for kind in KINDS:
            f = _objective_general(_rotated(rho.data, np.eye(da), bob.matrix), da, 2, kind)
            ref = avg_steered_coherence(rho, alice, bob, kind)
            assert ref > 0.0
            assert abs(f(np.zeros(da * da - da))[0] - ref) <= 1e-12


def test_general_objective_gradient_matches_central_differences():
    rng = np.random.default_rng(17)
    h = 1e-6
    for dims in ((3, 2), (2, 3), (3, 3)):
        rho = random_state_nondegenerate_b(dims, rng)
        bob = _b_marginal_family(rho).base
        steps = np.eye(dims[0] * dims[0] - dims[0])
        for kind in KINDS:
            for frame, x, _ in _frame_points(rng, dims[0]):
                f = _objective_general(_rotated(rho.data, frame, bob.matrix), *dims, kind)
                central = [(f(x + h * e)[0] - f(x - h * e)[0]) / (2 * h) for e in steps]
                assert np.abs(f(x)[1] - central).max() <= 1e-8, (dims, kind)


def test_bloch_objective_matches_reference_and_general():
    rng = np.random.default_rng(15)
    rho = random_state_nondegenerate_b((2, 2), rng)
    bob = _b_marginal_family(rho).base
    for kind in KINDS:
        for frame, x, alice in _frame_points(rng, 2):
            sig = _rotated(rho.data, frame, bob.matrix)
            bloch = _objective_bloch_2q(sig, kind)
            ref = avg_steered_coherence(rho, alice, bob, kind)
            assert abs(bloch(x)[0] - ref) <= 1e-12
            assert abs(bloch(x)[0] - _objective_general(sig, 2, 2, kind)(x)[0]) <= 1e-12


def test_bloch_objective_gradient_matches_general():
    # the scalar chain rule through u(x), including its series at x = 0,
    # against the Daleckii-Krein gradient of the general objective
    rng = np.random.default_rng(18)
    for _ in range(5):
        rho = random_state_nondegenerate_b((2, 2), rng)
        bob = _b_marginal_family(rho).base
        for kind in KINDS:
            for frame, x, _ in _frame_points(rng, 2, n=10):
                sig = _rotated(rho.data, frame, bob.matrix)
                bloch = _objective_bloch_2q(sig, kind)
                general = _objective_general(sig, 2, 2, kind)
                for point in (x, np.zeros(2), np.array([3e-9, -2e-9])):
                    assert np.abs(bloch(point)[1] - general(point)[1]).max() <= 1e-12, kind


def test_steered_l1_witness_reaches_twice_the_trace_norm_of_c():
    # against any qubit basis of Bob's, Alice's best average steered l1
    # coherence is 2 ||C||_1, C = <b0|rho|b1>, reached on the eigenbasis of
    # W = V U^dag (C = U S V^dag), and it equals the B-side trace-norm
    # disturbance in that basis
    rng = np.random.default_rng(16)
    generous = SearchBudget(starts=8, max_evals=3000)

    def check(rho, bob):
        da = rho.dims[0]
        top = 2.0 * np.linalg.svd(_steered_l1_block(rho.data, da, bob), compute_uv=False).sum()
        alice = _steered_l1_witness(rho.data, da, bob)
        assert np.abs(alice.conj().T @ alice - np.eye(da)).max() <= 1e-12
        at = avg_steered_coherence(rho, ProjectiveBasis.from_columns(alice),
                                   ProjectiveBasis.from_columns(bob), "l1")
        assert abs(at - top) <= 1e-12
        f = _objective_general(_rotated(rho.data, haar_unitaries(da, 200, rng), bob), da, 2,
                               DistanceKind.L1)
        assert f(np.zeros((200, da * da - da)))[0].max() <= top + 1e-12
        best = _maximize_alice(rho, bob, DistanceKind.L1, generous, rng)
        assert abs(best.value - top) <= 1e-8
        fam = EigenbasisFamily(ProjectiveBasis.from_columns(bob), ((0,), (1,)), ())
        q_t = _disturbance_objective(rho, None, fam, DistanceKind.TRACE_NORM)(np.zeros(0))[0]
        assert abs(q_t - top) <= 1e-12

    for da in (2, 3, 4, 5):
        rho = random_hs_state((da, 2), rng)
        check(rho, _b_marginal_family(rho).base.matrix)
        check(rho, haar_unitary(2, rng))
    rho = bell_diagonal_state([0.45, 0.3, 0.15, 0.1])
    fam = _b_marginal_family(rho)
    for _ in range(3):
        check(rho, fam.member(rng.normal(scale=1.2, size=fam.n_params)).matrix)
    # a product state: C = 0 at Bob's eigenbasis, so every basis is a
    # witness; elsewhere C is a multiple of rho_A, and W of the identity
    plus = np.full((2, 2), 0.5)
    for sigma_a in (random_hs_state((3,), rng).data, np.eye(3) / 3.0):
        rho = DensityMatrix(np.kron(sigma_a, plus), (3, 2))
        check(rho, fourier_basis(2).matrix)
        # C = sigma_a / 2 is Hermitian PSD: W = I, and with sigma_a = I / 3
        # all of C's singular values repeat
        check(rho, np.eye(2, dtype=complex))
        check(rho, haar_unitary(2, rng))


def _alice_objective(rho, frame, bob, kind):
    """The objective of one Alice search start at frame, against Bob's
    reference basis bob: Bloch form for two qubits, general otherwise."""
    sig = _rotated(rho.data, frame, bob)
    if rho.dims == (2, 2):
        return _objective_bloch_2q(sig, kind)
    return _objective_general(sig, *rho.dims, kind)


def _negated(out):
    """-out for a (value, gradient) pair, the gradient a list or an array."""
    value, grad = out
    return -value, list(map(operator.neg, grad)) if grad.__class__ is list else -grad


def _one_lane(fun, x0, maxfun, **_):
    """The in-library L-BFGS from x0, as a custom method for minimize: one
    lane of _lbfgs_lanes, fun handed through the per-start adapter."""
    return _lbfgs_lanes(_lanes_of([fun]), x0, maxfun, 1)


def _run_lbfgs(fn, x0, maxfun=2000):
    return minimize(fn, np.asarray(x0, dtype=float), method=_one_lane,
                    options={"maxfun": maxfun})


def _quadratic(rng, n):
    """A strictly convex quadratic (condition number 100) as a
    (value, gradient) function, with its minimizer."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    a = (q * np.geomspace(0.1, 10.0, n)) @ q.T
    xmin = rng.normal(size=n)
    return (lambda x: (0.5 * (x - xmin) @ a @ (x - xmin), a @ (x - xmin))), xmin


def test_lbfgs_converges_on_convex_quadratics():
    rng = np.random.default_rng(21)
    for n in (2, 6):
        fn, xmin = _quadratic(rng, n)
        res = _run_lbfgs(fn, np.zeros(n))
        assert res.success
        assert np.abs(res.jac).max() <= correlations.GRAD_TOL
        assert np.abs(res.x - xmin).max() <= 1e-5


def test_lbfgs_stops_at_maxfun():
    res = _run_lbfgs(lambda x: (rosen(x), rosen_der(x)), [-1.2, 1.0], maxfun=10)
    assert res.nfev <= 10
    assert not res.success


def test_lbfgs_stops_at_a_stationary_start():
    fn, xmin = _quadratic(np.random.default_rng(22), 3)
    res = _run_lbfgs(fn, xmin)
    assert res.nfev == 1
    assert res.success


def test_lbfgs_trial_steps_stay_within_step_max(monkeypatch):
    # a flat quadratic whose minimizer is far away: quasi-Newton steps would
    # be tens of chart units long
    real = correlations._lbfgs_points
    lengths = []

    def checked(x, maxfun):
        # each point the run yields, against the iterate it searches from
        run = real(x, maxfun)
        point = next(run)
        try:
            while True:
                start = run.gi_frame.f_locals["x"]
                lengths.append(float(np.linalg.norm(np.subtract(point, start))))
                point = run.send((yield point))
        except StopIteration as stop:
            return stop.value

    monkeypatch.setattr(correlations, "_lbfgs_points", checked)
    scale = np.array([1e-3, 2e-3, 5e-3])
    xmin = np.array([40.0, -25.0, 60.0])
    res = _run_lbfgs(lambda x: (0.5 * scale @ (x - xmin) ** 2, scale * (x - xmin)),
                     np.zeros(3))
    assert res.success
    assert 1.0 - 1e-9 <= max(lengths) <= 1.0 + 1e-12


def _scipy_lbfgsb(fn, x0):
    """scipy's L-BFGS-B with the library's gradient test: the reference the
    in-library L-BFGS replaced."""
    res = minimize(fn, x0, method="L-BFGS-B", jac=True,
                   options={"maxfun": 2000, "ftol": 0.0, "gtol": correlations.GRAD_TOL})
    return res.fun, bool(np.abs(res.jac).max() <= correlations.GRAD_TOL)


def test_lbfgs_agrees_with_scipy_lbfgsb_on_alice_searches():
    rng = np.random.default_rng(24)
    for dims, n_states, kinds in (((2, 2), 12, KINDS),
                                  ((3, 2), 4, (DistanceKind.RELATIVE_ENTROPY,)),
                                  ((3, 3), 4, (DistanceKind.RELATIVE_ENTROPY,))):
        da = dims[0]
        origin = np.zeros(da * da - da)
        for _ in range(n_states):
            rho = random_state_nondegenerate_b(dims, rng)
            bob = _b_marginal_family(rho).base.matrix
            frames = [np.eye(da), fourier_basis(da).matrix,
                      *(haar_unitary(da, rng) for _ in range(6))]
            for kind in kinds:
                ours, ref = [], []
                for frame in frames:
                    f = _alice_objective(rho, frame, bob, kind)
                    fn = lambda x, f=f: _negated(f(x))  # noqa: E731
                    res = _run_lbfgs(fn, origin)
                    assert res.success, (dims, kind)
                    value, converged = _scipy_lbfgsb(fn, origin)
                    assert converged, (dims, kind)
                    ours.append(res.fun)
                    ref.append(value)
                assert abs(min(ours) - min(ref)) <= 1e-12, (dims, kind)


def test_lbfgs_step_cap_on_a_bell_diagonal_flat_axis():
    # Bob's basis is tilted off z, so the Bell-diagonal l1 objective at
    # Alice's z start is stationary along one chart axis (up to a rounding-
    # level asymmetry). Without STEP_MAX a later step jumps about 1e4 chart
    # units, where the chart is ill-conditioned, and the search spends all
    # 500 calls to stop unconverged at 0.892.
    rng = np.random.default_rng(130)
    rho = bell_diagonal_state(rng.dirichlet(np.ones(4)))
    tiny = 1e-9 * rng.normal(size=2)
    bob = _chart_unitary(2, np.array([rng.uniform(-0.05, 0.05), 0.0]) + tiny)
    f = _objective_bloch_2q(_rotated(rho.data, np.eye(2), bob), DistanceKind.L1)
    grad = np.abs(f(np.zeros(2))[1])
    assert grad.min() <= 1e-7 and grad.max() >= 1e-1
    fn = lambda x: _negated(f(x))  # noqa: E731
    res = _run_lbfgs(fn, np.zeros(2), maxfun=500)
    value, converged = _scipy_lbfgsb(fn, np.zeros(2))
    assert res.success and converged
    assert abs(res.fun - value) <= 1e-12
    assert -res.fun > 0.915


def _reference_wolfe_step(evaluate, start, d, a, amax, trials):
    """The strong-Wolfe line search as it was before the engine became a
    generator: it calls evaluate(x) for each trial point."""
    armijo = correlations.WOLFE_C1 * start.slope
    curvature = -correlations.WOLFE_C2 * start.slope
    lo, hi = start, None  # lo: the best point of sufficient decrease so far
    width = width1 = math.inf  # bracket lengths one and two steps back
    for _ in range(trials):
        if hi is not None:
            span = abs(hi.a - lo.a)
            a = correlations._cubic_step(lo, hi)
            if a is None or span >= 0.66 * width1:
                a = 0.5 * (lo.a + hi.a)
            width1, width = width, span
            if not min(lo.a, hi.a) < a < max(lo.a, hi.a):
                break
        x = [xi + a * di for xi, di in zip(start.x, d)]
        f, g = evaluate(x)
        cur = correlations._Point(a, f, g, sum(map(operator.mul, g, d)), x)
        if cur.f > start.f + armijo * a or cur.f >= lo.f:
            hi = cur
        elif abs(cur.slope) <= curvature:
            return cur
        elif hi is None and cur.slope < 0.0:
            if a >= amax:
                return cur
            lo, a = cur, min(2.0 * a, amax)
        else:
            if hi is None or cur.slope * (hi.a - lo.a) >= 0.0:
                hi = lo
            lo = cur
    return None if lo is start else lo


def _reference_lbfgs(fun, x0, maxfun, **_):
    """The L-BFGS loop as it was before the engine took float lists: it hands
    fun an array and keeps its pairs in a deque, and its line search calls
    the objective itself (_reference_wolfe_step). The one change is that it
    also accepts a list gradient."""
    def _dot(u, v):
        return sum(map(operator.mul, u, v))

    nfev = 0

    def evaluate(x):
        nonlocal nfev
        nfev += 1
        f, g = fun(np.array(x))
        return float(f), np.asarray(g, dtype=float).tolist()

    x = x0.tolist()
    f, g = evaluate(x)
    cur = correlations._Point(0.0, f, g, 0.0, x)
    pairs = deque(maxlen=correlations.LBFGS_MEMORY)  # (s, y, 1 / s.y)
    gamma = 1.0  # s.y / y.y of the newest pair
    while max(map(abs, cur.g), default=0.0) > correlations.GRAD_TOL and nfev < maxfun:
        # two-loop recursion for d = -H g
        d = [-gi for gi in cur.g]
        alphas = []
        for s, y, rho in reversed(pairs):
            alpha = rho * _dot(s, d)
            d = [di - alpha * yi for di, yi in zip(d, y)]
            alphas.append(alpha)
        d = [gamma * di for di in d]
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            beta = alpha - rho * _dot(y, d)
            d = [di + beta * si for di, si in zip(d, s)]
        slope = _dot(cur.g, d)
        norm = math.sqrt(_dot(d, d))
        amax = correlations.STEP_MAX / norm
        nxt = None
        if slope < 0.0:
            nxt = _reference_wolfe_step(
                evaluate, correlations._Point(0.0, cur.f, cur.g, slope, cur.x), d,
                min(1.0 if pairs else 1.0 / norm, amax), amax,
                min(correlations.LS_MAX_EVALS, maxfun - nfev))
        if nxt is None:
            if not pairs:
                break
            pairs.clear()
            gamma = 1.0
            continue
        s = [b - a for a, b in zip(cur.x, nxt.x)]
        y = [b - a for a, b in zip(cur.g, nxt.g)]
        sy = _dot(s, y)
        # L-BFGS-B's curvature test, with -g.s = -a g.d
        if sy > sys.float_info.epsilon * -nxt.a * slope:
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / _dot(y, y)
        cur = nxt
    return OptimizeResult(x=np.array(cur.x), fun=cur.f, jac=np.array(cur.g), nfev=nfev,
                          success=max(map(abs, cur.g), default=0.0) <= correlations.GRAD_TOL)


def _assert_same(ours, ref):
    """Two runs ended the same: the same x, value, call count, success and
    gradient, bit for bit."""
    assert ours.x.tobytes() == ref.x.tobytes()
    assert ours.fun.hex() == ref.fun.hex()
    assert (ours.nfev, ours.success) == (ref.nfev, ref.success)
    assert ours.jac.tobytes() == ref.jac.tobytes()


def _assert_same_run(fn, x0, maxfun, engine=_reference_lbfgs, other=None):
    """The in-library engine (one lane of _lbfgs_lanes) on fn and `engine`
    on `other` (default fn) make the same run, bit for bit."""
    x0 = np.asarray(x0, dtype=float)
    ours = minimize(fn, x0, method=_one_lane, options={"maxfun": maxfun})
    _assert_same(ours, minimize(other or fn, x0, method=engine, options={"maxfun": maxfun}))
    return ours


def test_lbfgs_runs_bit_identical_to_the_reference_loop_on_alice_searches():
    # the Alice objectives of test_lbfgs_agrees_with_scipy_lbfgsb_on_alice_searches
    rng = np.random.default_rng(24)
    for dims, n_states, kinds in (((2, 2), 12, KINDS),
                                  ((3, 2), 4, (DistanceKind.RELATIVE_ENTROPY,)),
                                  ((3, 3), 4, (DistanceKind.RELATIVE_ENTROPY,))):
        da = dims[0]
        origin = np.zeros(da * da - da)
        for _ in range(n_states):
            rho = random_state_nondegenerate_b(dims, rng)
            bob = _b_marginal_family(rho).base.matrix
            frames = [np.eye(da), fourier_basis(da).matrix,
                      *(haar_unitary(da, rng) for _ in range(6))]
            for kind in kinds:
                for frame in frames:
                    f = _alice_objective(rho, frame, bob, kind)
                    _assert_same_run(lambda x, f=f: _negated(f(x)), origin, 2000)


def test_lbfgs_runs_bit_identical_to_the_reference_loop_on_disturbance_searches():
    rho = bell_diagonal_state(np.random.default_rng(25).dirichlet(np.ones(4)))
    fam_a = EigenbasisFamily.from_matrix(partial_trace(rho, [0]).data)
    fam_b = _b_marginal_family(rho)
    rng = np.random.default_rng(26)
    for kind in (DistanceKind.RELATIVE_ENTROPY, DistanceKind.TRACE_NORM):
        for obj, n in ((_disturbance_objective(rho, None, fam_b, kind), fam_b.n_params),
                       (_disturbance_objective(rho, fam_a, fam_b, kind),
                        fam_a.n_params + fam_b.n_params)):
            for x0 in (np.zeros(n), *rng.normal(scale=1.2, size=(3, n))):
                _assert_same_run(obj, x0, 300)


def test_lbfgs_run_is_the_same_for_list_and_array_gradients():
    # the per-start adapter takes either form of gradient
    rng = np.random.default_rng(27)
    rho = random_state_nondegenerate_b((2, 2), rng)
    bob = _b_marginal_family(rho).base.matrix
    for kind in KINDS:
        f = _alice_objective(rho, haar_unitary(2, rng), bob, kind)
        as_list = lambda x: _negated(f(x))  # noqa: E731
        assert isinstance(as_list([0.1, -0.2])[1], list)

        def as_array(x):
            value, grad = as_list(x)
            return value, np.array(grad)

        ours = _assert_same_run(as_list, np.zeros(2), 2000, engine=_one_lane, other=as_array)
        assert ours.success


def _kernel_run(kernel, fn, x0, maxfun):
    """One run of an L-BFGS kernel generator on fn, driven as _lanes_of
    drives a lane, and what it did, read off its locals at each point it
    yields: steps accepted, pairs stored, steps whose pair the curvature
    test rejected, times the pairs were dropped, trial steps at the
    STEP_MAX cap and the most pairs held at once."""
    run = kernel(list(map(float, x0)), maxfun)
    point = next(run)
    seen = dict.fromkeys(("accepted", "stored", "rejected", "dropped", "capped", "held"), 0)
    x = newest = None
    held = 0
    try:
        while True:
            local = run.gi_frame.f_locals
            pairs = local.get("pairs", [])
            top = pairs[-1] if pairs else None
            if x is not None and local["x"] is not x:
                # one step is accepted between two points at most
                seen["accepted"] += 1
                seen["stored" if top is not None and top is not newest else "rejected"] += 1
            seen["dropped"] += held > 0 and not pairs
            x, newest, held = local["x"], top, len(pairs)
            seen["capped"] += abs(math.dist(point, x) - correlations.STEP_MAX) <= 1e-9
            seen["held"] = max(seen["held"], held)
            f, g = fn(np.array(point))
            point = run.send((float(f), np.asarray(g, dtype=float).tolist()))
    except StopIteration as stop:
        return stop.value, seen


def _biased_quadratic(x):
    """x0^2 + 3 x1^2 with 1e-3 added to the first gradient component: near
    the origin no step along the reported descent direction decreases the
    value, so line searches fail."""
    return x[0] ** 2 + 3.0 * x[1] ** 2, np.array([2.0 * x[0] + 1e-3, 6.0 * x[1]])


def _himmelblau(x):
    """Himmelblau's function, with regions of negative curvature."""
    u, v = x[0] ** 2 + x[1] - 11.0, x[0] + x[1] ** 2 - 7.0
    return u * u + v * v, [4.0 * x[0] * u + 2.0 * v, 2.0 * u + 4.0 * x[1] * v]


def _far_quadratic(x):
    """A flat quadratic whose minimizer is about 47 chart units away."""
    scale, xmin = np.array([1e-3, 2e-3]), np.array([40.0, -25.0])
    return 0.5 * scale @ (x - xmin) ** 2, scale * (x - xmin)


@pytest.mark.parametrize("case", ["stationary", "memory", "failed_search", "curvature",
                                  "step_cap", "maxfun"])
def test_two_coordinate_kernel_matches_the_general_kernel_on_every_branch(case):
    # the scalar kernel, the general kernel run on two coordinates and the
    # reference loop make the same run bit for bit, on an objective that
    # takes the branch named by the case
    square, xmin = _quadratic(np.random.default_rng(22), 2)
    fn, x0, maxfun = {
        "stationary": (square, xmin.tolist(), 2000),
        "memory": (lambda x: (rosen(x), rosen_der(x)), [-3.0, -4.0], 2000),
        "failed_search": (_biased_quadratic, [0.7, -0.4], 2000),
        # two pairs rejected, one while other pairs are held
        "curvature": (_himmelblau, [0.5, -0.4], 2000),
        "step_cap": (_far_quadratic, [0.0, 0.0], 2000),
        # the cut falls inside a line search
        "maxfun": (lambda x: (rosen(x), rosen_der(x)), [-1.2, 1.0], 16),
    }[case]
    ours, seen = _kernel_run(correlations._lbfgs_points_2, fn, x0, maxfun)
    general, general_seen = _kernel_run(correlations._lbfgs_points, fn, x0, maxfun)
    _assert_same(ours, general)
    assert seen == general_seen
    _assert_same(ours, minimize(fn, np.array(x0), method=_reference_lbfgs,
                                options={"maxfun": maxfun}))
    _assert_same(ours, _run_lbfgs(fn, x0, maxfun))
    if case == "stationary":
        assert ours.nfev == 1 and ours.success
    elif case == "memory":
        assert ours.success
        assert seen["stored"] > correlations.LBFGS_MEMORY == seen["held"]
    elif case == "failed_search":
        # the pairs are dropped, the search along -g fails too, and the run
        # stops unconverged inside its budget
        assert seen["dropped"] >= 1
        assert not ours.success and ours.nfev < maxfun
    elif case == "curvature":
        assert ours.success and seen["rejected"] >= 1
    elif case == "step_cap":
        assert ours.success and seen["capped"] >= 1
    else:
        assert ours.nfev == maxfun and not ours.success


def test_only_two_coordinate_searches_run_the_scalar_kernel(monkeypatch):
    # every search of two coordinates runs _lbfgs_points_2, every other
    # search _lbfgs_points: Alice on 2x2 and 3x2, one-sided and two-sided
    # disturbances, the Danskin lanes of a degenerate sic, and the REE search
    sizes = {"_lbfgs_points": [], "_lbfgs_points_2": []}

    def counted(name):
        real = getattr(correlations, name)

        def run(x, maxfun):
            sizes[name].append(len(x))
            return (yield from real(x, maxfun))

        return run

    for name in sizes:
        monkeypatch.setattr(correlations, name, counted(name))
    rng = np.random.default_rng(32)
    budget = SearchBudget(starts=3, max_evals=60, outer_starts=2, outer_evals=20,
                          refine_evals=20)
    sic(random_state_nondegenerate_b((2, 2), rng), "r", budget)
    sic(random_state_nondegenerate_b((3, 2), rng), "r", budget)
    bell = bell_diagonal_state([0.4, 0.3, 0.2, 0.1])
    b_side_mid(bell, "r", budget)
    mid(bell, "r", budget)
    sic(werner_state(0.6), "r", budget)
    entangled = DensityMatrix.from_pure(np.eye(3).reshape(-1) / np.sqrt(3.0), (3, 3))
    b_side_mid(entangled, "r", budget)
    ree_numeric(werner_state(0.6), SearchBudget(starts=1, max_evals=5))
    assert sizes["_lbfgs_points_2"] and set(sizes["_lbfgs_points_2"]) == {2}
    assert set(sizes["_lbfgs_points"]) == {4, 6, 64}


def _a_classical_state(dims, rng):
    """sum_i p_i |i><i| (x) rho_i: Alice's computational basis is stationary
    for every objective (a first-order basis change leaves each |u_k(i)|^2
    unchanged)."""
    da, db = dims
    p = rng.dirichlet(np.ones(da))
    blocks = [random_hs_state((db,), rng).data for _ in range(da)]
    data = np.zeros((da * db, da * db), dtype=complex)
    for i in range(da):
        data[i * db:(i + 1) * db, i * db:(i + 1) * db] = p[i] * blocks[i]
    return DensityMatrix(data, dims)


def _lane_frames(da, rng):
    """The identity, Fourier and 6 Haar frames, stacked."""
    return np.array([np.eye(da), fourier_basis(da).matrix,
                     *(haar_unitary(da, rng) for _ in range(6))], dtype=complex)


def test_lbfgs_lanes_make_the_sequential_runs(monkeypatch):
    lanes = []  # the result of each run of either kernel, in the order the runs start

    def recorded(real):
        def run(x, maxfun):
            slot = len(lanes)
            lanes.append(None)
            lanes[slot] = yield from real(x, maxfun)
            return lanes[slot]

        return run

    def kept(name):
        """The objectives the factory correlations.<name> makes from now
        on, in order."""
        made = []
        factory = getattr(correlations, name)

        def keep(*args):
            made.append(factory(*args))
            return made[-1]

        monkeypatch.setattr(correlations, name, keep)
        return made

    def reference(fn, n, maxfun):
        return minimize(fn, np.zeros(n), method=_reference_lbfgs, options={"maxfun": maxfun})

    for name in ("_lbfgs_points", "_lbfgs_points_2"):
        monkeypatch.setattr(correlations, name, recorded(getattr(correlations, name)))
    rng = np.random.default_rng(28)
    maxfun = 500
    for dims in ((3, 2), (2, 3), (3, 3)):
        da, db = dims
        n = da * da - da
        for stationary, rho in ((False, random_state_nondegenerate_b(dims, rng)),
                                (True, _a_classical_state(dims, rng))):
            bob = _b_marginal_family(rho).base.matrix
            frames = _lane_frames(da, rng)
            sigs = _rotated(rho.data, frames, bob)
            for kind in KINDS:
                batched = _objective_general(sigs, da, db, kind)

                def negated(xs, idx):
                    values, grads = batched(xs, idx)
                    return zip((-values).tolist(), (-grads).tolist())

                lanes.clear()
                res = minimize(negated, np.zeros(len(frames) * n), method=_lbfgs_lanes,
                               options={"maxfun": maxfun, "lanes": len(frames)})
                runs = lanes[:]
                seq = [reference(lambda x, f=_objective_general(sig, da, db, kind): _negated(f(x)),
                                 n, maxfun) for sig in sigs]
                assert len(runs) == len(seq)
                for lane, ref in zip(runs, seq):
                    assert abs(lane.fun - ref.fun) <= 1e-12, (dims, kind)
                    assert (lane.nfev, lane.success) == (ref.nfev, ref.success), (dims, kind)
                assert res.nfev == sum(ref.nfev for ref in seq)
                best = min(range(len(seq)), key=lambda j: seq[j].fun)
                assert abs(res.fun - seq[best].fun) <= 1e-12
                out = correlations._search_frames(rho, list(frames), bob, kind, maxfun, "t")
                assert out.evals == sum(ref.nfev for ref in seq)
                assert abs(out.value + seq[best].fun) <= 1e-12
                if stationary:
                    # the identity lane stops after one call, the others run on
                    assert runs[0].nfev == 1 and runs[0].success
                    assert max(lane.nfev for lane in runs) > 1

    def assert_lanes_are(seq, out, sign):
        # lanes on the per-start objectives make the sequential runs bit for
        # bit, and the search reports the first best of them
        assert len(lanes) == len(seq) > 1
        for lane, ref in zip(lanes, seq):
            _assert_same(lane, ref)
        best = min(range(len(seq)), key=lambda j: seq[j].fun)
        assert (out.value, out.converged) == (sign * seq[best].fun, seq[best].success)
        assert (out.evals, out.run) == (sum(ref.nfev for ref in seq), best)

    # two qubits: the Bloch objective of each frame, one lane after another
    made = kept("_objective_bloch_2q")
    for _ in range(3):
        rho = random_state_nondegenerate_b((2, 2), rng)
        bob = _b_marginal_family(rho).base.matrix
        frames = list(_lane_frames(2, rng))
        for kind in KINDS:
            made.clear()
            lanes.clear()
            out = correlations._search_frames(rho, frames, bob, kind, maxfun, "t")
            assert_lanes_are([reference(lambda x, f=f: _negated(f(x)), 2, maxfun)
                              for f in made], out, -1.0)
    # a Bell-diagonal mid (4 coordinates) and b_side_mid (2): one disturbance
    # objective stacked over the start frames, whose one-lane views make the
    # sequential runs
    made = kept("_disturbance_objective")
    rho = bell_diagonal_state(rng.dirichlet(np.ones(4)))
    fam_b = _b_marginal_family(rho)
    budget = SearchBudget(outer_starts=4, outer_evals=300)
    for fam_a in (EigenbasisFamily.from_matrix(partial_trace(rho, [0]).data), None):
        n = fam_b.n_params + (0 if fam_a is None else fam_a.n_params)
        for kind in (DistanceKind.RELATIVE_ENTROPY, DistanceKind.TRACE_NORM):
            made.clear()
            lanes.clear()
            out, _, _ = correlations._minimize_eigenbases(
                lambda fa, fb: correlations._disturbance_objective(rho, fa, fb, kind),
                fam_a, fam_b, budget, 31)
            (stacked,) = made
            views = [lambda x, j=j: next(iter(stacked([x], [j])))
                     for j in range(budget.outer_starts)]
            assert_lanes_are([reference(view, n, budget.outer_evals) for view in views],
                             out, 1.0)


def test_general_objective_lanes_match_single_lane_calls():
    rng = np.random.default_rng(29)
    for da, db in ((3, 2), (2, 3), (3, 3)):
        n = da * da - da
        ket0 = np.zeros((da, da), dtype=complex)
        ket0[0, 0] = 1.0
        # the identity lane of the first state has zero-probability outcomes
        # at its origin, as in test_general_objective_skips_zero_probability_outcomes
        for rho in (tensor_product(DensityMatrix(ket0, (da,)), random_hs_state((db,), rng)),
                    random_state_nondegenerate_b((da, db), rng)):
            bob = ProjectiveBasis.computational(db).matrix
            sigs = _rotated(rho.data, _lane_frames(da, rng), bob)
            points = rng.normal(scale=1.2, size=(len(sigs), n))
            points[0] = 0.0
            for kind in KINDS:
                batched = _objective_general(sigs, da, db, kind)
                for idx in (list(range(len(sigs))), [0, 3, 5]):
                    values, grads = batched(points[idx], idx)
                    assert values.shape == (len(idx),) and grads.shape == (len(idx), n)
                    for j, lane in enumerate(idx):
                        value, grad = _objective_general(sigs[lane], da, db, kind)(points[lane])
                        assert abs(values[j] - value) <= 1e-13
                        assert np.abs(grads[j] - grad).max() <= 1e-13


def _tracer_search_class():
    """search_class of perfbench/tracer.py, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.search_class


def _minimize_calls(monkeypatch):
    """Every call of correlations.minimize from now on, as (the tracer's
    search class, the objective's qualname, method, lanes, nfev, success)."""
    search_class = _tracer_search_class()
    real = correlations.minimize
    calls = []

    def counted(fn, *args, **kwargs):
        res = real(fn, *args, **kwargs)
        calls.append((search_class(fn), fn.__qualname__, kwargs["method"],
                      kwargs["options"].get("lanes"), res.nfev, res.success))
        return res

    monkeypatch.setattr(correlations, "minimize", counted)
    return calls


def _alice_search_calls(monkeypatch, dims, seed):
    calls = _minimize_calls(monkeypatch)
    rho = random_state_nondegenerate_b(dims, np.random.default_rng(seed))
    bob = _b_marginal_family(rho).base.matrix
    res = _maximize_alice(rho, bob, DistanceKind.RELATIVE_ENTROPY,
                          SearchBudget(starts=5, max_evals=200), np.random.default_rng(0))
    return calls, res


def test_maximize_alice_searches_through_minimize(monkeypatch):
    # perfbench's tracer counts searches by rebinding correlations.minimize;
    # a two-qubit Alice search enters it once, with one lane per start
    calls, res = _alice_search_calls(monkeypatch, (2, 2), 23)
    assert calls == [("alice", "_maximize_alice", _lbfgs_lanes, 5, res.evals, res.converged)]


def test_lockstep_alice_searches_enter_minimize_once(monkeypatch):
    # perfbench's tracer counts searches by rebinding correlations.minimize
    # and classifies them by the qualname of the objective handed to it
    calls, res = _alice_search_calls(monkeypatch, (3, 2), 30)
    assert calls == [("alice", "_maximize_alice", _lbfgs_lanes, 5, res.evals, res.converged)]
    # a degenerate B marginal adds one outer search, a lane per outer start,
    # with the light passes of its lanes inside it (recorded first, as they
    # return first); l1 with a qubit Bob runs the trace-norm disturbance
    # objective and needs none
    budget = SearchBudget(starts=3, max_evals=100, outer_starts=2, outer_evals=5,
                          refine_evals=20)
    for rho, kind in ((DensityMatrix.from_pure(np.eye(3).reshape(-1) / np.sqrt(3.0), (3, 3)),
                       "r"),
                      (werner_state(0.6), "r"),
                      (bell_diagonal_state([0.4, 0.3, 0.2, 0.1]), "l1")):
        calls.clear()
        sic(rho, kind, budget)
        light = [c for c in calls if c[0] == "refine"]
        assert (len(light) > 0) == (kind == "r")
        assert all(c[1].endswith(".inner_light") and c[2] is _lbfgs_lanes
                   and c[4] <= c[3] * 20 <= 3 * 20 for c in light)
        assert [c[:4] for c in calls if c not in light] == [
            ("eigenbasis", "_minimize_eigenbases.<locals>.obj", _lbfgs_lanes, 2),
            ("alice", "_maximize_alice", _lbfgs_lanes, 3)]


def test_disturbance_searches_enter_minimize_once(monkeypatch):
    # one lockstep search per b_side_mid or mid, with one lane per start,
    # which the tracer classes as an eigenbasis search
    calls = _minimize_calls(monkeypatch)
    rho = bell_diagonal_state([0.4, 0.3, 0.2, 0.1])
    budget = SearchBudget(outer_starts=3, outer_evals=100)
    for detail in (b_side_mid_detail, mid_detail):
        for kind in ("r", "t"):
            calls.clear()
            res = detail(rho, kind, budget)
            assert [(c[0], c[2], c[3], c[5]) for c in calls] == [
                ("eigenbasis", _lbfgs_lanes, 3, res.converged)], (detail, kind)
    # a simple marginal leaves nothing to search
    calls.clear()
    b_side_mid_detail(random_state_nondegenerate_b((2, 2), np.random.default_rng(31)), "r")
    assert calls == []


def test_b_side_mid_of_gap_example():
    gap = gap_example()
    assert np.isclose(b_side_mid(gap, "r"), 0.5, atol=1e-9)
    assert np.isclose(b_side_mid(gap, "t"), 0.5, atol=1e-9)


def test_b_side_mid_detail_returns_achieving_basis():
    rng = np.random.default_rng(4)
    rho = random_state_nondegenerate_b((2, 2), rng)
    res = b_side_mid_detail(rho, "r")
    assert res.converged
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
    assert np.isclose(distance("r", rho, deph), res.value, atol=1e-9)
    assert res.converged


def _schmidt_mixture(rng, dims, schmidt, noise) -> DensityMatrix:
    """0.7 |psi><psi| + 0.3 noise (x) I/d_B, |psi> with the given Schmidt
    coefficients in random local frames; rho_B is I/d_B when they are equal."""
    da, db = dims
    psi = np.zeros((da, db), dtype=complex)
    for i, lam in enumerate(schmidt):
        psi[i, i] = np.sqrt(lam)
    psi = (haar_unitary(da, rng) @ psi @ haar_unitary(db, rng).T).reshape(-1)
    data = 0.7 * np.outer(psi, psi.conj()) + 0.3 * np.kron(noise, np.eye(db) / db)
    return DensityMatrix(data, dims)


def _degenerate_states():
    rng = np.random.default_rng(21)
    sigma_a = random_hs_state((3,), rng).data
    return {
        "werner": (werner_state(0.6), False),
        "bell_diagonal": (bell_diagonal_state(rng.dirichlet(np.ones(4))), False),
        # two-fold degenerate rho_B = I/2, generic rho_A
        "3x2": (_schmidt_mixture(rng, (3, 2), (0.5, 0.5), sigma_a), False),
        # rho_A and rho_B both with a two-fold degenerate top eigenvalue
        "3x3": (_schmidt_mixture(rng, (3, 3), (0.4, 0.4, 0.2), np.eye(3) / 3), True),
    }


@pytest.mark.parametrize("kind", ["r", "t"])
@pytest.mark.parametrize("name", ["werner", "bell_diagonal", "3x2", "3x3"])
def test_disturbance_objective_matches_dephased_distance(name, kind):
    rho, joint_only = _degenerate_states()[name]
    kind = DistanceKind.parse(kind)
    fam_a = EigenbasisFamily.from_matrix(partial_trace(rho, [0]).data)
    fam_b = _b_marginal_family(rho)
    na, nb = fam_a.n_params, fam_b.n_params
    assert nb > 0 and (na > 0 or name == "3x2")
    b_side = _disturbance_objective(rho, None, fam_b, kind)
    joint = _disturbance_objective(rho, fam_a, fam_b, kind)
    rng = np.random.default_rng(22)
    for _ in range(20):
        phi = rng.normal(scale=1.2, size=na + nb)
        basis_a, basis_b = fam_a.member(phi[:na]), fam_b.member(phi[na:])
        both = dephase(dephase(rho, basis_a, target=0), basis_b, target=1)
        assert abs(joint(phi)[0] - distance(kind, rho, both)) <= 1e-12
        if not joint_only:
            ref = distance(kind, rho, dephase(rho, basis_b, target=1))
            assert abs(b_side(phi[na:])[0] - ref) <= 1e-12


@pytest.mark.parametrize("kind", ["r", "t"])
@pytest.mark.parametrize("name", ["werner", "bell_diagonal", "3x2", "3x3"])
def test_disturbance_objective_gradient_matches_central_differences(name, kind):
    rho, _ = _degenerate_states()[name]
    kind = DistanceKind.parse(kind)
    fam_a = EigenbasisFamily.from_matrix(partial_trace(rho, [0]).data)
    fam_b = _b_marginal_family(rho)
    rng = np.random.default_rng(23)
    for obj, n in ((_disturbance_objective(rho, None, fam_b, kind), fam_b.n_params),
                   (_disturbance_objective(rho, fam_a, fam_b, kind),
                    fam_a.n_params + fam_b.n_params)):
        for _ in range(3):
            phi = rng.normal(scale=1.2, size=n)
            _, grad = obj(phi)
            h = 1e-6
            fd = [(obj(phi + h * e)[0] - obj(phi - h * e)[0]) / (2 * h) for e in np.eye(n)]
            assert_allclose(grad, fd, rtol=0, atol=1e-7)


def _bits(value, grad):
    return float(value).hex(), np.asarray(grad, dtype=float).tobytes()


@pytest.mark.parametrize("kind", ["r", "t"])
def test_stacked_disturbance_objective_lanes_do_not_depend_on_the_batch(kind):
    # one lane's value and gradient are the same bits alone, in any subset
    # of lanes and in the full stack, and the objective of that lane's
    # families is the one-lane case. On rho_A (x) I/2 the r gap is rounding,
    # and lanes below zero clip to 0 with a zero gradient.
    kind = DistanceKind.parse(kind)
    rng = np.random.default_rng(41)
    states = _degenerate_states()
    clipped = tensor_product(random_hs_state((3,), rng), DensityMatrix(np.eye(2) / 2, (2,)))
    seen_clip = False
    for rho in (states["werner"][0], states["3x2"][0], states["3x3"][0], clipped):
        fam_a = EigenbasisFamily.from_matrix(partial_trace(rho, [0]).data)
        fam_b = _b_marginal_family(rho)
        for fa in (None, fam_a):
            na = 0 if fa is None else fa.n_params
            n = na + fam_b.n_params
            starts = rng.normal(scale=1.2, size=(5, n))
            fams_b = [fam_b.centred(x[na:]) for x in starts]
            fams_a = None if fa is None else [fa.centred(x[:na]) for x in starts]
            lanes = _disturbance_objective(rho, fams_a, fams_b, kind)
            points = rng.normal(scale=1.2, size=(5, n)).tolist()
            full = [_bits(*out) for out in lanes(points, list(range(5)))]
            for idx in ([0], [1], [2], [3], [4], [0, 2, 4], [3, 1]):
                got = lanes([points[j] for j in idx], idx)
                assert [_bits(*out) for out in got] == [full[j] for j in idx]
            for j in range(5):
                one = _disturbance_objective(rho, None if fa is None else fams_a[j], fams_b[j],
                                             kind)
                assert _bits(*one(points[j])) == full[j]
            seen_clip |= _bits(0.0, np.zeros(n)) in full
    assert seen_clip == (kind is DistanceKind.RELATIVE_ENTROPY)


def test_disturbance_searches_reach_bell_diagonal_closed_forms():
    # criterion 3's Bell-diagonal ensemble: the B-side and two-sided r
    # disturbances both equal 1 + H2((1 + c) / 2) - S(rho), c the largest
    # |T_ii|, and the B-side t disturbance equals the l1 closed form. A
    # search whose starts share one chart stops where that chart folds back
    # onto the saddle at the z axis on states 22 (b_side_mid r) and 38
    # (mid r), reporting converged.
    # LIGHT is criterion 3's BUDGET_PROPS.
    rng = np.random.default_rng(3003)
    for i in range(40):
        rho = bell_diagonal_state(rng.dirichlet(np.ones(4)))
        c = np.abs(np.diag(pauli_decompose(rho).theta[1:, 1:])).max()
        closed_r = 1.0 + _binary_entropy(0.5 * (1.0 + c)) - von_neumann_entropy(rho)
        for res in (b_side_mid_detail(rho, "r", LIGHT, seed=i),
                    mid_detail(rho, "r", LIGHT, seed=i)):
            assert res.converged, f"state {i}"
            assert abs(res.value - closed_r) <= 1e-9, f"state {i}: {res.value} vs {closed_r}"
        res = b_side_mid_detail(rho, "t", LIGHT, seed=i)
        assert res.converged, f"state {i}"
        assert abs(res.value - sic_l1_closed(rho)) <= 1e-9, f"state {i}"


def test_disturbance_search_without_parameters_makes_one_call(monkeypatch):
    calls = []
    factory = correlations._disturbance_objective

    def counting(*args):
        obj = factory(*args)

        def wrapped(phi):
            out = obj(phi)
            calls.append(out[1].size)
            return out

        return wrapped

    monkeypatch.setattr(correlations, "_disturbance_objective", counting)
    monkeypatch.setattr(correlations, "minimize", None)  # no search may run
    rng = np.random.default_rng(24)
    for dims in ((2, 2), (3, 2), (3, 3)):
        rho = random_state_nondegenerate_b(dims, rng)
        for kind in ("r", "t"):
            calls.clear()
            res = b_side_mid_detail(rho, kind, LIGHT)
            assert calls == [0] and res.converged
            assert np.isclose(res.value, distance(kind, rho, dephase(rho, res.basis, target=1)),
                              atol=1e-12)
            calls.clear()
            assert mid_detail(rho, kind, LIGHT).converged and calls == [0]


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
    qutrit_alice = random_state_nondegenerate_b((3, 2), np.random.default_rng(18))
    # the last two have degenerate marginals and run the eigenbasis search
    for rho, kind, budget in ((gap_example(), "r", LIGHT),
                              (qutrit_alice, "r", BUDGET_3X2),
                              (werner_state(0.6), "r", LIGHT),
                              (bell_diagonal_state([0.4, 0.3, 0.2, 0.1]), "l1", LIGHT)):
        a = sic(rho, kind, budget, seed=3)
        b = sic(rho, kind, budget, seed=3)
        assert a.value == b.value
        assert a.converged == b.converged
        assert np.array_equal(a.alice_basis.matrix, b.alice_basis.matrix)
        assert np.array_equal(a.bob_basis.matrix, b.bob_basis.matrix)


def test_outer_value_is_the_value_at_the_witness_handed_to_sic():
    # a lane can evaluate one point twice (a trial step that rounds to its
    # start), and its light pass depends on the lane's history, so each
    # evaluation can find another witness and value there: sic is handed
    # the witness behind the value the outer search returns (on the 3x2
    # state, the last witness at that point is 3.7e-4 off)
    budget = SearchBudget(outer_starts=3, outer_evals=15, refine_evals=10)
    for name, (rho, _) in _degenerate_states().items():
        fam = _b_marginal_family(rho)
        kinds = (DistanceKind.RELATIVE_ENTROPY, DistanceKind.L1) if rho.dims[1] == 2 else (
            DistanceKind.RELATIVE_ENTROPY,)
        for kind in kinds:
            warm = []
            outer = correlations._minimize_bob_basis(rho, kind, fam, budget,
                                                     np.random.default_rng(4), warm)
            bob = ProjectiveBasis.from_columns(outer.x)
            if kind is DistanceKind.L1:
                value = avg_steered_coherence(rho, ProjectiveBasis.from_columns(warm[0]), bob,
                                              kind)
            else:
                value, _ = _danskin_objective(rho, warm[0], replace(fam, base=bob), kind)(
                    np.zeros(fam.n_params))
            assert abs(value - outer.value) <= 1e-12, (name, kind)


def test_sic_unconverged_when_full_search_beats_outer_value(monkeypatch):
    # a light inner pass that undershot at the chosen eigenbasis leaves the
    # full Alice search above the outer value: reported, not retried
    real = correlations._minimize_bob_basis

    def lowered(*args):
        out = real(*args)
        return out._replace(value=out.value - 1e-3)

    rho = werner_state(0.6)
    ref = sic(rho, "r", LIGHT, seed=0)
    assert ref.converged
    monkeypatch.setattr(correlations, "_minimize_bob_basis", lowered)
    res = sic(rho, "r", LIGHT, seed=0)
    assert not res.converged
    assert res.value == ref.value
    again = avg_steered_coherence(rho, res.alice_basis, res.bob_basis, "r")
    assert res.value == again


def test_sic_unconverged_when_the_witness_fails_the_danskin_gradient_test(monkeypatch):
    # a full-search witness off the inner maximiser (as where that maximiser
    # is not unique) leaves the outer gradient there above GRAD_TOL; every
    # other condition of converged still holds
    real = correlations._maximize_alice

    def perturbed(*args):
        out = real(*args)
        return out._replace(x=out.x @ _chart_unitary(2, np.array([1e-5, 0.0])))

    rho = werner_state(0.6)
    ref = sic(rho, "r", LIGHT, seed=0)
    assert ref.converged
    monkeypatch.setattr(correlations, "_maximize_alice", perturbed)
    res = sic(rho, "r", LIGHT, seed=0)
    assert abs(res.value - ref.value) <= 1e-9
    assert not res.converged


@pytest.mark.parametrize("d", [3, 4])
def test_sic_of_large_maximally_entangled_states_is_log_d(d):
    # a fully degenerate B marginal, at criterion 3's BUDGET_PROPS (LIGHT):
    # theorem 2 gives sic^r = S(rho_B) = log2 d
    rho = DensityMatrix.from_pure(np.eye(d).reshape(-1) / np.sqrt(d), (d, d))
    res = sic(rho, "r", LIGHT, seed=0)
    assert res.converged
    assert abs(res.value - math.log2(d)) <= 1e-8


def test_danskin_gradient_matches_central_differences_at_a_fixed_witness():
    # at a fixed Alice basis the outer value is the average steered
    # coherence against Bob's eigenbasis member(phi); _danskin_objective
    # gives it, and its gradient, as a B-side disturbance
    rng = np.random.default_rng(26)
    cases = [(rho, "r") for rho, _ in _degenerate_states().values()]
    cases += [(bell_diagonal_state(rng.dirichlet(np.ones(4))), "l1") for _ in range(3)]
    for rho, kind in cases:
        fam = _b_marginal_family(rho)
        n = fam.n_params
        for _ in range(3):
            alice = haar_unitary(rho.dims[0], rng)
            basis = ProjectiveBasis.from_columns(alice)
            obj = _danskin_objective(rho, alice, fam, DistanceKind.parse(kind))

            def outer(phi):
                return avg_steered_coherence(rho, basis, fam.member(phi), kind)

            phi = rng.normal(scale=1.2, size=n)
            value, grad = obj(phi)
            assert abs(value - outer(phi)) <= 1e-12
            h = 1e-6
            fd = [(outer(phi + h * e) - outer(phi - h * e)) / (2 * h) for e in np.eye(n)]
            assert_allclose(grad, fd, rtol=0, atol=1e-8)


def test_danskin_objective_does_not_validate_the_state_alice_leaves(monkeypatch):
    # sigma, Alice's pinching of the validated rho, is taken unvalidated and
    # gives the bits of the validated sigma
    rng = np.random.default_rng(33)
    rho = werner_state(0.6)
    fam = _b_marginal_family(rho)
    alice = haar_unitary(2, rng)
    phi = rng.normal(scale=1.2, size=fam.n_params)
    rot = _rotated(rho.data, alice, np.eye(2))
    sigma = DensityMatrix(rot * np.kron(np.eye(2), np.ones((2, 2))), rho.dims)
    validated = _disturbance_objective(sigma, None, fam, DistanceKind.RELATIVE_ENTROPY)(phi)
    made = []
    monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: made.append(self))
    value, grad = _danskin_objective(rho, alice, fam, DistanceKind.RELATIVE_ENTROPY)(phi)
    assert made == []
    assert value.hex() == validated[0].hex()
    assert grad.tobytes() == validated[1].tobytes()


def test_outer_search_reaches_the_bell_diagonal_l1_minimum():
    # criterion 3's first 40 Bell-diagonal states, drawn after its 500
    # generic ones, at its BUDGET_PROPS (LIGHT) and seeds. The outer minimum
    # over Bob's axis n of sigma_max(T (1 - n n^t)) is sigma_2(T), reached at
    # T's top right singular vector v1. It is reached on a cap of the great
    # circle through v1 and the bottom one v3 as well, where sigma_max stays
    # the middle singular value, so the oracle for the axis is n . v2 = 0.
    # The search is never handed sigma_2(T) or v2.
    rng = np.random.default_rng(3003)
    for _ in range(500):
        random_state_nondegenerate_b((2, 2), rng)
    for i in range(40):
        rho = bell_diagonal_state(rng.dirichlet(np.ones(4)))
        out = correlations._minimize_bob_basis(rho, DistanceKind.L1, _b_marginal_family(rho),
                                               LIGHT, np.random.default_rng(i), [])
        _, sv, vh = np.linalg.svd(pauli_decompose(rho).tmat)
        assert out.converged, i
        assert abs(out.value - sv[1]) <= 1e-9, i
        v = out.x[:, 0]
        cross = v[0] * np.conj(v[1])
        axis = np.array([2.0 * cross.real, -2.0 * cross.imag, abs(v[0]) ** 2 - abs(v[1]) ** 2])
        assert abs(axis @ vh[1]) <= 1e-6, i


def _pauli_twirled(rng, da) -> DensityMatrix:
    """A random d_A x 2 state averaged over U_k (x) sigma_k, k = 0..3, with
    Haar-random U_k: rho_B = I/2 by construction, rho_A generic."""
    rho = random_hs_state((da, 2), rng).data
    us = [np.kron(haar_unitary(da, rng), p) for p in PAULI]
    return DensityMatrix(sum(u @ rho @ u.conj().T for u in us) / 4.0, (da, 2))


def test_degenerate_qubit_bob_sic_l1_is_the_trace_norm_disturbance():
    # rho_B = I/2 at d_A = 2, 3, 4, at criterion 3's BUDGET_PROPS (LIGHT):
    # both sides are the minimum over Bob's bases of 2 ||C||_1. That minimum
    # can sit where C's smallest singular value vanishes, a kink of the
    # trace norm, and the searches there end unconverged; no state may
    # report converged off the shared value
    rng = np.random.default_rng(1212)
    states = [_degenerate_states()["3x2"][0]]
    states += [_pauli_twirled(rng, da) for da in (2, 3, 4) for _ in range(4)]
    for i, rho in enumerate(states):
        assert _b_marginal_family(rho).n_params == 2
        res = sic(rho, "l1", LIGHT, seed=i)
        q_t = b_side_mid_detail(rho, "t", LIGHT, seed=i)
        # both minimize the same function: a side that reports converged is
        # never above the other, so the two agree wherever both converge
        if res.converged:
            assert res.value <= q_t.value + 1e-9, i
        if q_t.converged:
            assert q_t.value <= res.value + 1e-9, i
        # the Schmidt mixture's and the two-qubit minima stay off the kink
        assert res.converged or i > 4, i


def test_sic_of_pure_states_is_the_b_entropy():
    # every steered state of a pure input is pure, so log rho_i diverges on
    # its kernel; theorem 2 with S(rho) = 0 gives sic^r = S(rho_B)
    rng = np.random.default_rng(19)
    for dims in ((3, 2), (3, 3), (2, 3)):
        seen = 0
        while seen < 10:
            rho = random_pure(dims, rng)
            rho_b = partial_trace(rho, [1])
            if min_eigengap(rho_b.data) <= 1e-4:
                continue
            res = sic(rho, "r", BUDGET_3X2, seed=seen)
            assert res.converged, (dims, seen)
            assert abs(res.value - von_neumann_entropy(rho_b)) <= 1e-9, (dims, seen)
            seen += 1


def test_sic_of_pure_two_qubit_states_converges_to_closed_forms():
    # the Bloch gradient of a pure input meets |r| = 1 on every outcome,
    # where the floored log slope multiplies a zero first-order change
    rng = np.random.default_rng(20)
    budget = SearchBudget(8, 800)
    seen = 0
    while seen < 30:
        rho = random_pure((2, 2), rng)
        rho_b = partial_trace(rho, [1])
        if min_eigengap(rho_b.data) <= 1e-4:
            continue
        res_r = sic(rho, "r", budget, seed=seen)
        res_l1 = sic(rho, "l1", budget, seed=seen)
        assert res_r.converged and res_l1.converged, seen
        assert abs(res_r.value - von_neumann_entropy(rho_b)) <= 1e-9, seen
        assert abs(res_l1.value - sic_l1_closed(rho)) <= 1e-8, seen
        seen += 1


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


def test_verify_sic_properties_reports_an_unconverged_sic(monkeypatch):
    real = correlations.sic
    calls = []

    def one_unconverged(*args):
        res = real(*args)
        calls.append(res)
        return res._replace(converged=res.converged and len(calls) != 3)

    rho = random_state_nondegenerate_b((2, 2), np.random.default_rng(12))
    monkeypatch.setattr(correlations, "sic", one_unconverged)
    rep = verify_sic_properties(rho, "r", LIGHT, seed=0, samples=1)
    assert len(calls) > 3
    assert all(res.converged for res in calls)
    assert not rep.converged
