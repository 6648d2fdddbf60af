"""Measurement-induced disturbance and steering-induced coherence.

The two headline quantities for a bipartite state rho_AB:

* b_side_mid: smallest distance between rho and its B-side dephasing over
  the eigenbases of rho_B (a one-point set when rho_B is non-degenerate).
* sic: the B-side eigenbasis infimum of the best average coherence Alice can
  steer into Bob's lab by measuring her side projectively.

Both are optima over bases, and every search runs over bases directly.
Each start is a frame U0 (kets as columns), and a local search moves in
the chart U0 @ exp(i sum_k x_k G_k) (_chart) from x = 0, where the G_k are the
d*d - d off-diagonal generalized Gell-Mann matrices: one coordinate per
direction of the set of bases, none that only rephases a ket. Alice's
starts are the identity, the Fourier basis and Haar-random frames. Both
Alice objectives (the two-qubit Bloch form and the general one) and the
disturbance objective supply an analytic gradient in these coordinates and
are optimized by an L-BFGS on plain floats, written as a generator of the
points it evaluates, in two kernels that make the same run bit for bit:
_lbfgs_points_2 on scalar locals for a search of exactly two coordinates
(a 2x2 Alice search, an eigenbasis search or Danskin lane over one 2-fold
block), _lbfgs_points on float lists for every other size. The size of a
start alone picks one. One driver runs them: every gradient
search, full or light, runs all of its starts in lockstep (_lbfgs_lanes,
handed to scipy's minimize as a custom method, one minimize call per
search), and each start makes the run it would make alone. Each round
hands the objective the pending points of the running starts as lists of
floats. On dims other than 2x2 an Alice search evaluates them in one call
of the general objective over the stacked frames, and a search of the
disturbance over eigenbases in one call of _disturbance_objective over the
stacked start frames. The two-qubit Bloch objective and the Danskin
objective of the sic minimax are one function per start, called one after
another (the Danskin lanes through _lanes_of).
Every search over eigenbases is one lockstep search (_minimize_eigenbases)
whose starts re-centre the charts on their own frames; its callers differ
only in the objective. b_side_mid and mid minimize the disturbance. A
degenerate B marginal makes sic a minimax, whose outer search minimizes
Alice's best value: for l1 with a qubit Bob, that value itself, the B-side
trace-norm disturbance (twoqubit); otherwise the Danskin objective, the
average steered coherence at the witness of a light Alice pass, with the
B-side disturbance gradient of the state her measurement leaves
(_danskin_objective).
Each search draws all of its random starts in one call, which gives the
same starts as one draw per start.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import mul, neg, sub
from typing import NamedTuple

import numpy as np
from scipy.optimize import OptimizeResult, minimize

from .measures import DistanceKind
from .measures import coherence  # noqa: F401  (perfbench/tracer.py rebinds it)
from .qkernel import (
    EIG_FLOOR,
    ZERO_PROB,
    DensityMatrix,
    ProjectiveBasis,
    _entropy_rows,
    _steered_dims,
    dephase,  # noqa: F401  (perfbench/tracer.py rebinds it)
    eig_hermitian,
    partial_trace,
    steer,  # noqa: F401  (perfbench/tracer.py rebinds it)
    von_neumann_entropy,
)
from .report import FAIL, PASS, VerificationReport
from .sampling import (
    haar_unitaries,
    haar_unitary,
    random_b_classical,
    random_permutation_phase_kraus,
    random_state_nondegenerate_b,
    random_stinespring_kraus,
)
from .twoqubit import _pauli_coefficients, _steered_l1_witness

# Eigenvalues closer than this are treated as degenerate, activating the
# eigenbasis-family optimization.
EPS_DEG = 1e-8


class ComparabilityWarning(UserWarning):
    """The requested quantity is well defined but has no disturbance bound."""


@dataclass(frozen=True)
class SearchBudget:
    """Evaluation budgets for the multistart searches.

    starts / max_evals control the inner (Alice basis) maximization and
    protocols.ree_numeric; outer_starts / outer_evals the eigenbasis-family
    minimization; refine_evals the light warm-started inner passes used
    while the outer search explores. Every search runs the in-library
    L-BFGS with all starts of a search in lockstep (_lbfgs_lanes), so
    max_evals, refine_evals and outer_evals cap the value+gradient calls of
    each start.
    """

    starts: int = 32
    max_evals: int = 2000
    outer_starts: int = 8
    outer_evals: int = 600
    refine_evals: int = 140


DEFAULT_BUDGET = SearchBudget()


# ---------------------------------------------------------------------------
# basis chart


@lru_cache(maxsize=32)
def _offdiagonal_generators(d: int) -> np.ndarray:
    """The d*d - d off-diagonal generalized Gell-Mann matrices (orthonormal),
    each flattened to a row: shape (d*d - d, d*d); read-only."""
    s = 1.0 / math.sqrt(2.0)
    gens = np.zeros((d * d - d, d, d), dtype=complex)
    k = 0
    for i in range(d):
        for j in range(i + 1, d):
            gens[k, i, j] = gens[k, j, i] = s
            gens[k + 1, i, j], gens[k + 1, j, i] = -1j * s, 1j * s
            k += 2
    out = gens.reshape(d * d - d, d * d)
    out.flags.writeable = False
    return out


def _chart(d: int, x):
    """exp(i H), H = sum_k x_k G_k over the off-diagonal generators, as (u,
    w, v): the unitary and the eigh (w, v) of H that _chart_pullback
    differentiates; leading axes of x stack charts. A basis search centred
    on a frame U0 (kets as columns) visits U0 @ u from x = 0; the d*d - d
    coordinates leave no direction that only moves the phases of the
    kets."""
    x = np.asarray(x)
    w, v = np.linalg.eigh((x @ _offdiagonal_generators(d)).reshape(*x.shape[:-1], d, d))
    return (v * np.exp(1j * w)[..., None, :]) @ v.conj().swapaxes(-1, -2), w, v


def _chart_unitary(d: int, x) -> np.ndarray:
    """The unitary of _chart(d, x)."""
    return _chart(d, x)[0]


def _chart_pullback(hw: np.ndarray, hv: np.ndarray, grad_u: np.ndarray) -> np.ndarray:
    """Gradient in the chart coordinates x, given the chart's eigh (hw, hv)
    of _chart(d, x) and the gradient grad_u in the unitary u (df = Re
    tr(grad_u^dag du)); leading axes of all three are a stack of charts.

    Daleckii-Krein: d exp(iH) = V (phi o V^dag dH V) V^dag, where
    phi_jk = (e^{iw_j} - e^{iw_k}) / (w_j - w_k) (i e^{iw_j} when equal),
    written as i e^{i(w_j + w_k)/2} sin(h) / h with h = (w_j - w_k) / 2 so
    close eigenvalues do not cancel.
    """
    col, row = hw[..., :, None], hw[..., None, :]
    half = 0.5 * (col - row)
    ratio = np.divide(np.sin(half), half, out=np.ones_like(half), where=half != 0.0)
    phi_conj = -1j * np.exp(-0.5j * (col + row)) * ratio
    hvh = hv.conj().swapaxes(-1, -2)
    y = hv @ (phi_conj * (hvh @ grad_u @ hv)) @ hvh
    flat = y.conj().reshape(*hw.shape[:-1], -1, 1)
    return (_offdiagonal_generators(hw.shape[-1]) @ flat)[..., 0].real


@lru_cache(maxsize=32)
def fourier_basis(d: int) -> ProjectiveBasis:
    """Basis mutually unbiased to the computational one:
    |xi_k> = d**-0.5 * sum_j exp(-2 pi i k j / d) |j>."""
    k = np.arange(d)
    vecs = np.exp(-2j * np.pi * np.outer(k, k) / d) / math.sqrt(d)
    return ProjectiveBasis(vecs)


# ---------------------------------------------------------------------------
# eigenbasis families


@dataclass(frozen=True)
class EigenbasisFamily:
    """All eigenbases of a Hermitian matrix, up to irrelevant phases.

    Blocks group eigenvalue clusters (within EPS_DEG). Clusters of size
    m >= 2 carrying actual weight contribute m*m - m chart coordinates each
    (a rotation of the block, centred on the base eigenbasis); clusters at
    eigenvalue zero are skipped because their projectors annihilate the state.
    """

    base: ProjectiveBasis
    blocks: tuple
    active_blocks: tuple

    @classmethod
    def from_matrix(cls, mat) -> "EigenbasisFamily":
        w, v = eig_hermitian(mat)
        blocks = []
        current = [0]
        for i in range(1, w.size):
            if w[i] - w[i - 1] < EPS_DEG:
                current.append(i)
            else:
                blocks.append(tuple(current))
                current = [i]
        blocks.append(tuple(current))
        active = tuple(
            blk for blk in blocks if len(blk) >= 2 and w[blk[-1]] > EIG_FLOOR
        )
        return cls(ProjectiveBasis.from_columns(v), tuple(blocks), active)

    @property
    def n_params(self) -> int:
        return sum(len(blk) * (len(blk) - 1) for blk in self.active_blocks)

    @property
    def is_trivial(self) -> bool:
        return self.n_params == 0

    def member(self, params) -> ProjectiveBasis:
        if self.is_trivial:
            return self.base
        params = np.asarray(params, dtype=float).reshape(-1)
        if params.size != self.n_params:
            raise ValueError(f"expected {self.n_params} parameters, got {params.size}")
        return ProjectiveBasis.from_columns(self._columns(params))

    def centred(self, params) -> "EigenbasisFamily":
        """The same family with its chart centred on member(params)."""
        return replace(self, base=self.member(params))

    def _columns(self, params) -> np.ndarray:
        """Unchecked member(params) as a unitary with the kets as columns."""
        cols = np.array(self.base.matrix)
        _turn_blocks(_block_runs(self.active_blocks), [cols], np.asarray(params))
        return cols


def _block_runs(*sides) -> list:
    """The active blocks of one or more sides (families), whose chart
    coordinates follow each other in that order, as runs of consecutive
    blocks of one size: (size m, the run's coordinate slice, its blocks as
    (side, column slice) pairs)."""
    runs = []
    off = 0
    for side, blocks in enumerate(sides):
        for blk in blocks:
            m = len(blk)
            idx = slice(blk[0], blk[-1] + 1)  # clusters are runs of sorted eigenvalues
            if runs and runs[-1][0] == m:
                runs[-1][2].append((side, idx))
            else:
                runs.append((m, off, [(side, idx)]))
            off += m * m - m
    return [(m, slice(start, start + len(blocks) * (m * m - m)), blocks)
            for m, start, blocks in runs]


def _turn_blocks(runs: list, frames: list, x) -> list:
    """Turn the columns of each block of _block_runs' runs in its side's
    frame (kets as columns) by the _chart of the block's coordinates in x,
    in place; leading axes of the frames and of x stack lanes. Each run is
    one _chart call, its blocks stacked on a new axis when it has several.
    Returns, per run, what _pull_blocks needs: the blocks' columns before
    the turn and the chart's (hw, hv)."""
    charts = []
    for m, at, blocks in runs:
        k = len(blocks)
        xs = x[..., at] if k == 1 else x[..., at].reshape(*x.shape[:-1], k, m * m - m)
        u, hw, hv = _chart(m, xs)
        before = []
        for j, (side, idx) in enumerate(blocks):
            cols = frames[side]
            frame = cols[..., idx].copy()  # a view would see the turned columns
            cols[..., idx] = frame @ (u if k == 1 else u[..., j, :, :])
            before.append(frame)
        charts.append((before, hw, hv))
    return charts


def _pull_blocks(runs: list, charts: list, grads: list) -> np.ndarray:
    """The gradient in the coordinates of _turn_blocks' charts, given the
    gradient grads[side] in each side's turned frame (df = Re tr(grad^dag
    dframe)); each run is one _chart_pullback call."""
    parts = []
    for (_, _, blocks), (before, hw, hv) in zip(runs, charts):
        grad_u = [frame.conj().swapaxes(-1, -2) @ grads[side][..., idx]
                  for frame, (side, idx) in zip(before, blocks)]
        if len(blocks) == 1:
            parts.append(_chart_pullback(hw, hv, grad_u[0]))
        else:
            pulled = _chart_pullback(hw, hv, np.stack(grad_u, axis=-3))
            parts.append(pulled.reshape(*pulled.shape[:-2], -1))
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)


def _b_marginal_family(rho: DensityMatrix) -> EigenbasisFamily:
    """The eigenbasis family of rho_B, built once per state."""
    return rho._cached("b_family",
                       lambda r: EigenbasisFamily.from_matrix(partial_trace(r, [1]).data))


# ---------------------------------------------------------------------------
# objective machinery


# Scalar hot path of the Bloch objective: it runs twice per outcome of every
# evaluation, where one numpy call would cost more than a whole scalar
# evaluation.
def _binary_entropy(x: float) -> float:
    if x <= EIG_FLOOR or x >= 1.0 - EIG_FLOOR:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def _entropy_slope(t: float) -> float:
    """d/dt of _binary_entropy((1 + t) / 2), with both logs floored at
    EIG_FLOOR as in _objective_general; odd in t."""
    return 0.5 * (math.log2(max(0.5 * (1.0 - t), EIG_FLOOR))
                  - math.log2(max(0.5 * (1.0 + t), EIG_FLOOR)))


def _product_frame(ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """ua (x) ub, formed by broadcasting; leading axes of ua or ub stack
    frames."""
    n = ua.shape[-1] * ub.shape[-1]
    prod = ua[..., :, None, :, None] * ub[..., None, :, None, :]
    return prod.reshape(*prod.shape[:-4], n, n)


def _rotated(data: np.ndarray, ua: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """v^dag data v for v = ua (x) ub, a bipartite frame change; a stack of
    frames ua gives the stack of rotated matrices."""
    v = _product_frame(ua, ub)
    return v.conj().swapaxes(-1, -2) @ data @ v


def _objective_bloch_2q(sig: np.ndarray, kind: DistanceKind):
    """Two-qubit objective x -> (value, gradient) in Bloch form on the
    (already rotated) frame: Bob's reference basis is the z axis, and chart
    point x puts Alice's first ket at u = (-h_y s, h_x s, cos 2h), where
    (h_x, h_y) = x / sqrt(2), h = |(h_x, h_y)| and s = sin 2h / h.

    Outcome +-1 has p = (1 +- a.u) / 2 and unnormalised Bloch vector
    v = b +- T^t u, and adds p C(r) at r = v / (2p). That term is
    homogeneous of degree one in (p, v), so its derivatives are grad C / 2
    in v and C - r.grad C in p; the chain rule through u(x) gives the
    gradient. Outcomes below ZERO_PROB and terms clipped at zero add none.
    Scalar Python throughout, the gradient returned as a list: numpy calls
    on 3-vectors cost more than the arithmetic they do.
    """
    th = _pauli_coefficients(sig)
    a0, a1, a2 = th[1:, 0].tolist()
    b0, b1, b2 = th[0, 1:].tolist()
    # correlation matrix T[i][j] = theta_ij, Alice's axis i and Bob's j
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = th[1:, 1:].tolist()
    s2 = math.sqrt(2.0)
    is_l1 = kind is DistanceKind.L1

    def f(params):
        x0, x1 = params
        hx, hy = x0 / s2, x1 / s2
        h = math.sqrt(hx * hx + hy * hy)
        c = math.cos(2.0 * h)
        # s = sin 2h / h and q = s'(h) / h, by their series near h = 0
        if h < 1e-8:
            s, q = 2.0 - 4.0 * h * h / 3.0, -8.0 / 3.0
        else:
            s = math.sin(2.0 * h) / h
            q = (2.0 * c - s) / (h * h)
        u0, u1, u2 = -hy * s, hx * s, c
        au = a0 * u0 + a1 * u1 + a2 * u2
        tu0 = t00 * u0 + t10 * u1 + t20 * u2
        tu1 = t01 * u0 + t11 * u1 + t21 * u2
        tu2 = t02 * u0 + t12 * u1 + t22 * u2
        total = 0.0
        g0 = g1 = g2 = 0.0  # gradient in u
        for sign in (1.0, -1.0):
            p = 0.5 * (1.0 + sign * au)
            if p < ZERO_PROB:
                continue
            rx = (b0 + sign * tu0) / (2 * p)
            ry = (b1 + sign * tu1) / (2 * p)
            rz = (b2 + sign * tu2) / (2 * p)
            if is_l1:
                # the term is |v_xy| / 2, so it has no p derivative
                rxy = math.hypot(rx, ry)
                total += p * rxy
                if rxy == 0.0:
                    continue
                dvx, dvy, dvz, dp = 0.5 * rx / rxy, 0.5 * ry / rxy, 0.0, 0.0
            else:
                rr = math.sqrt(rx * rx + ry * ry + rz * rz)
                rn = min(rr, 1.0)
                cval = _binary_entropy(0.5 * (1 + abs(rz))) - _binary_entropy(0.5 * (1 + rn))
                if cval <= 0.0:
                    continue
                total += p * cval
                # grad C = H'(r_z) e_z - H'(|r|) r / |r|; cval > 0 needs |r| > 0
                dn = _entropy_slope(rn) / rr
                cx, cy, cz = -dn * rx, -dn * ry, _entropy_slope(rz) - dn * rz
                dvx, dvy, dvz = 0.5 * cx, 0.5 * cy, 0.5 * cz
                dp = cval - (rx * cx + ry * cy + rz * cz)
            # d/du of p and v: +-a / 2 and +-T
            dp *= 0.5
            g0 += sign * (t00 * dvx + t01 * dvy + t02 * dvz + dp * a0)
            g1 += sign * (t10 * dvx + t11 * dvy + t12 * dvz + dp * a1)
            g2 += sign * (t20 * dvx + t21 * dvy + t22 * dvz + dp * a2)
        # pull back through u(h): ds/dh_k = q h_k, d(cos 2h)/dh_k = -2 s h_k
        gx = -g0 * q * hx * hy + g1 * (s + q * hx * hx) - 2.0 * g2 * s * hx
        gy = -g0 * (s + q * hy * hy) + g1 * q * hx * hy - 2.0 * g2 * s * hy
        return total, [gx / s2, gy / s2]

    return f


def _objective_general(sig: np.ndarray, da: int, db: int, kind: DistanceKind):
    """Objective at Alice's basis _chart_unitary(da, x) on the (already
    rotated) frame, for any dims, with its gradient in x.

    sig is one rotated state, or k of them stacked as (k, n, n), one per
    lane. For one state it returns x -> (value, gradient). For a stack it
    returns (points, lanes) -> (values, gradients), an array each with one
    row per entry of lanes: the objective of lane lanes[j] at points[j].
    One lane is the one-state case; every lane runs the same stacked eigh
    and matmul calls.

    Each outcome's term F(m_i) of the unnormalised steered state m_i is
    homogeneous of degree one, so dF = tr(dm_i G_i) with G_i = log2 rho_i -
    log2 Delta(rho_i) for kind 'r' and the phases m_i / |m_i| off the
    diagonal for 'l1'. Since m_i is quadratic in Alice's ket u_i, the
    gradient in the kets is M[:, i] = 2 K_i u_i with K_i = tr_B(sig (1 x G_i)),
    pulled back to x by _chart_pullback.
    """
    # amats[l, (a,c), (b,d)] = sig[l, (a,b), (c,d)]: Alice's index pair on the rows
    amats = sig.reshape(-1, da, db, da, db).transpose(0, 1, 3, 2, 4).reshape(
        -1, da * da, db * db)
    diag = slice(None, None, db + 1)  # diagonal of a flattened db x db block
    is_l1 = kind is DistanceKind.L1

    def lanes_f(points, lanes=None):
        amat = amats if lanes is None else amats[lanes]
        u, hw, hv = _chart(da, points)
        w = (u.conj()[:, :, None, :] * u[:, None, :, :]).reshape(-1, da * da, da)
        # row i of a lane is outcome i's unnormalised steered state, flattened
        m = w.swapaxes(-1, -2) @ amat
        ps = m[..., diag].real.sum(axis=-1)
        # outcomes below ZERO_PROB keep a finite placeholder state and add
        # neither value nor gradient
        good = ps >= ZERO_PROB
        mn = m / np.where(good, ps, 1.0)[..., None]
        if is_l1:
            mag = np.abs(mn)
            per = mag.sum(axis=-1) - mag[..., diag].sum(axis=-1)
            g = np.divide(mn, mag, out=np.zeros_like(mn), where=mag > EIG_FLOOR)
            g[..., diag] = 0.0
        else:
            lam, vec = np.linalg.eigh(mn.reshape(-1, da, db, db))
            spectra = np.minimum(np.maximum(np.array([mn[..., diag].real, lam]), 0.0), 1.0)
            s_diag, s_full = _entropy_rows(spectra)
            per = np.maximum(s_diag - s_full, 0.0)
            # the derivative of x log x is continued below EIG_FLOOR, where
            # _entropy_rows drops the term
            logs = np.log2(np.maximum(spectra, EIG_FLOOR))
            g = ((vec * logs[1][..., None, :]) @ vec.conj().swapaxes(-1, -2)).reshape(
                -1, da, db * db)
            g[..., diag] -= logs[0]
        per *= good
        # K[(a,c), i] = tr_B(sig (1 x G_i))[a, c], using G_i^T = conj(G_i)
        kmat = (amat @ (g.conj().swapaxes(-1, -2) * good[:, None, :])).reshape(-1, da, da, da)
        grad_u = 2.0 * (kmat * u[:, None, :, :]).sum(axis=2)
        return (ps[:, None, :] @ per[:, :, None]).reshape(-1), _chart_pullback(hw, hv, grad_u)

    if sig.ndim == 3:
        return lanes_f

    def f(params):
        value, grad = lanes_f([params])
        return float(value[0]), grad[0]

    return f


def avg_steered_coherence(rho: DensityMatrix, alice: ProjectiveBasis,
                          bob_basis: ProjectiveBasis, kind) -> float:
    """Average coherence of Bob's steered states for one Alice basis.

    The reference behind sic's witness check and the cross-checks, sharing
    no code with the objectives or the charts. One contraction gives Bob's
    steered states rho_i in his basis (those below ZERO_PROB dropped, as
    steer drops them); each adds p_i times S(Delta rho_i) - S(rho_i),
    clipped at 0, for 'r' (one stacked eigvalsh), or the sum of its
    off-diagonal moduli for 'l1' and, on a qubit Bob only, 't'.
    """
    kind = DistanceKind.parse(kind)
    da, db = _steered_dims(rho, alice)
    if bob_basis.dim != db:
        raise ValueError(f"basis dim {bob_basis.dim} does not match state side {db}")
    if kind is DistanceKind.TRACE_NORM and db != 2:
        raise ValueError("trace-norm coherence is only defined here for dim 2")
    ua, ub = alice.matrix, bob_basis.matrix
    m = np.einsum("ai,abcd,ci->ibd", ua.conj(), rho.data.reshape(da, db, da, db), ua)
    m = ub.conj().T @ m @ ub
    ps = np.einsum("ibb->i", m).real
    good = ps >= ZERO_PROB
    ps, m = ps[good], m[good] / ps[good, None, None]
    diag = np.einsum("ibb->ib", m).real
    if kind is DistanceKind.RELATIVE_ENTROPY:
        per = np.maximum(_entropy_rows(diag) - _entropy_rows(np.linalg.eigvalsh(m)), 0.0)
    else:
        per = np.abs(m[:, ~np.eye(db, dtype=bool)]).sum(axis=1)
    return float(ps @ per)


# ---------------------------------------------------------------------------
# multi-start search engine


class _SearchOutcome(NamedTuple):
    value: float
    x: np.ndarray
    converged: bool
    evals: int
    run: int  # index of the run that reached the value


# A gradient search has converged when no component of the gradient at its
# returned point exceeds this.
GRAD_TOL = 1e-7

# The gradient search (_lbfgs_points; _lbfgs_points_2 for two coordinates):
# L-BFGS as in Nocedal & Wright, Numerical Optimization, ch. 3 and 7, with
# the curvature test and the restart after a failed line search of L-BFGS-B
# (Byrd, Lu, Nocedal & Zhu, SIAM J. Sci. Comput. 16, 1995). Its objectives
# have 2 to a few dozen coordinates, where arithmetic on Python floats costs
# less than numpy calls on short arrays.
LBFGS_MEMORY = 10  # (s, y) pairs kept
WOLFE_C1 = 1e-4  # sufficient decrease
WOLFE_C2 = 0.9  # curvature
# Longest trial step in chart coordinates. Far from the origin the chart is
# ill-conditioned (the Bloch chart's sin 2h / h is about 1 / h), and a
# quasi-Newton step along a nearly flat axis can land there.
STEP_MAX = 1.0
LS_MAX_EVALS = 20  # trial points in one line search


class _Point(NamedTuple):
    """A trial point of a line search: step length, value, gradient, the
    slope along the search direction and the point itself."""
    a: float
    f: float
    g: list
    slope: float
    x: list


def _cubic_step(p: _Point, q: _Point):
    """Minimizer of the cubic through the values and slopes at p and q, or
    None when it has no minimizer strictly between them (N&W eq. 3.59)."""
    d1 = p.slope + q.slope - 3.0 * (p.f - q.f) / (p.a - q.a)
    disc = d1 * d1 - p.slope * q.slope
    if disc < 0.0:
        return None
    d2 = math.copysign(math.sqrt(disc), q.a - p.a)
    den = q.slope - p.slope + 2.0 * d2
    if den == 0.0:
        return None
    a = q.a - (q.a - p.a) * (q.slope + d2 - d1) / den
    return a if min(p.a, q.a) < a < max(p.a, q.a) else None


def _lbfgs_points(x: list, maxfun: int):
    """One L-BFGS run from x (a list of floats), as a generator of the
    points it evaluates: it yields each point as a list of floats and is
    sent back (value, gradient list) there. It returns, as an OptimizeResult,
    its last iterate after at most maxfun points.

    Directions come from the two-loop recursion over the newest
    LBFGS_MEMORY pairs, scaled by s.y / y.y of the newest; a pair is stored
    only if s.y > eps * (-g.s). With no pairs the direction is -g and the
    first trial step has length one; no trial step is longer than STEP_MAX.
    The line search is strong-Wolfe with at most LS_MAX_EVALS trials (and
    no more than maxfun allows). It extrapolates by doubling up to the step
    cap; once it has a bracket it takes the cubic step inside it, bisecting
    when the cubic has no minimizer there or the bracket has not shrunk to
    2/3 over two steps (More-Thuente's rule). Out of trials, or when the
    bracket collapses, it takes its best point of sufficient decrease; with
    none the pairs are dropped and the search retried along -g. The run
    stops when that fails too, on the gradient test max|g| <= GRAD_TOL (its
    success), or after maxfun points.
    """
    f, g = yield x
    nfev = 1
    pairs = []  # (s, y, 1 / s.y), oldest first
    gamma = 1.0  # s.y / y.y of the newest pair
    while max(map(abs, g), default=0.0) > GRAD_TOL and nfev < maxfun:
        # two-loop recursion for d = -H g
        d = list(map(neg, g))
        alphas = []
        for s, y, rho in reversed(pairs):
            alpha = rho * sum(map(mul, s, d))
            d = [di - alpha * yi for di, yi in zip(d, y)]
            alphas.append(alpha)
        d = [gamma * di for di in d]
        for (s, y, rho), alpha in zip(pairs, reversed(alphas)):
            beta = alpha - rho * sum(map(mul, y, d))
            d = [di + beta * si for di, si in zip(d, s)]
        slope = sum(map(mul, g, d))
        norm = math.sqrt(sum(map(mul, d, d)))
        amax = STEP_MAX / norm
        nxt = None
        if slope < 0.0:
            # line search along d from start (step 0), first trying step a
            start = _Point(0.0, f, g, slope, x)
            a = min(1.0 if pairs else 1.0 / norm, amax)
            armijo = WOLFE_C1 * slope
            curvature = -WOLFE_C2 * slope
            lo, hi = start, None  # lo: the best point of sufficient decrease so far
            width = width1 = math.inf  # bracket lengths one and two steps back
            for _ in range(min(LS_MAX_EVALS, maxfun - nfev)):
                if hi is not None:
                    span = abs(hi.a - lo.a)
                    a = _cubic_step(lo, hi)
                    if a is None or span >= 0.66 * width1:
                        a = 0.5 * (lo.a + hi.a)
                    width1, width = width, span
                    if not min(lo.a, hi.a) < a < max(lo.a, hi.a):
                        break
                xt = [xi + a * di for xi, di in zip(x, d)]
                ft, gt = yield xt
                nfev += 1
                cur = _Point(a, ft, gt, sum(map(mul, gt, d)), xt)
                if cur.f > f + armijo * a or cur.f >= lo.f:
                    hi = cur
                elif abs(cur.slope) <= curvature:
                    nxt = cur
                    break
                elif hi is None and cur.slope < 0.0:
                    if a >= amax:
                        nxt = cur
                        break
                    lo, a = cur, min(2.0 * a, amax)
                else:
                    if hi is None or cur.slope * (hi.a - lo.a) >= 0.0:
                        hi = lo
                    lo = cur
            if nxt is None and lo is not start:
                nxt = lo
        if nxt is None:
            if not pairs:
                break
            pairs.clear()
            gamma = 1.0
            continue
        s = list(map(sub, nxt.x, x))
        y = list(map(sub, nxt.g, g))
        sy = sum(map(mul, s, y))
        # L-BFGS-B's curvature test, with -g.s = -a g.d
        if sy > sys.float_info.epsilon * -nxt.a * slope:
            if len(pairs) == LBFGS_MEMORY:
                del pairs[0]
            pairs.append((s, y, 1.0 / sy))
            gamma = sy / sum(map(mul, y, y))
        x, f, g = nxt.x, nxt.f, nxt.g
    return OptimizeResult(x=np.array(x), fun=f, jac=np.array(g), nfev=nfev,
                          success=max(map(abs, g), default=0.0) <= GRAD_TOL)


def _lbfgs_points_2(x: list, maxfun: int):
    """_lbfgs_points for two coordinates, on scalar locals: the same
    constants, control flow and float operations, so the same run bit for
    bit. Each dot product is written out as sum() forms it, starting from
    0.0 (so a -0.0 first product rounds as there), and the pairs are
    (s0, s1, y0, y1, 1 / s.y) tuples. A 2x2 Alice search and a search over
    one 2-fold eigenbasis block spend more on the list arithmetic of the
    general kernel than on their objective.
    """
    x0, x1 = x
    f, g = yield x
    g0, g1 = g
    nfev = 1
    pairs = []  # (s0, s1, y0, y1, 1 / s.y), oldest first
    gamma = 1.0  # s.y / y.y of the newest pair
    while max(abs(g0), abs(g1)) > GRAD_TOL and nfev < maxfun:
        # two-loop recursion for d = -H g
        d0, d1 = -g0, -g1
        alphas = []
        for s0, s1, y0, y1, rho in reversed(pairs):
            alpha = rho * (0.0 + s0 * d0 + s1 * d1)
            d0, d1 = d0 - alpha * y0, d1 - alpha * y1
            alphas.append(alpha)
        d0, d1 = gamma * d0, gamma * d1
        for (s0, s1, y0, y1, rho), alpha in zip(pairs, reversed(alphas)):
            beta = alpha - rho * (0.0 + y0 * d0 + y1 * d1)
            d0, d1 = d0 + beta * s0, d1 + beta * s1
        slope = 0.0 + g0 * d0 + g1 * d1
        norm = math.sqrt(0.0 + d0 * d0 + d1 * d1)
        amax = STEP_MAX / norm
        nxt = None
        if slope < 0.0:
            # line search along d from start (step 0), first trying step a
            start = _Point(0.0, f, g, slope, x)
            a = min(1.0 if pairs else 1.0 / norm, amax)
            armijo = WOLFE_C1 * slope
            curvature = -WOLFE_C2 * slope
            lo, hi = start, None  # lo: the best point of sufficient decrease so far
            width = width1 = math.inf  # bracket lengths one and two steps back
            for _ in range(min(LS_MAX_EVALS, maxfun - nfev)):
                if hi is not None:
                    span = abs(hi.a - lo.a)
                    a = _cubic_step(lo, hi)
                    if a is None or span >= 0.66 * width1:
                        a = 0.5 * (lo.a + hi.a)
                    width1, width = width, span
                    if not min(lo.a, hi.a) < a < max(lo.a, hi.a):
                        break
                xt = [x0 + a * d0, x1 + a * d1]
                ft, gt = yield xt
                nfev += 1
                gt0, gt1 = gt
                cur = _Point(a, ft, gt, 0.0 + gt0 * d0 + gt1 * d1, xt)
                if cur.f > f + armijo * a or cur.f >= lo.f:
                    hi = cur
                elif abs(cur.slope) <= curvature:
                    nxt = cur
                    break
                elif hi is None and cur.slope < 0.0:
                    if a >= amax:
                        nxt = cur
                        break
                    lo, a = cur, min(2.0 * a, amax)
                else:
                    if hi is None or cur.slope * (hi.a - lo.a) >= 0.0:
                        hi = lo
                    lo = cur
            if nxt is None and lo is not start:
                nxt = lo
        if nxt is None:
            if not pairs:
                break
            pairs.clear()
            gamma = 1.0
            continue
        x, f, g = nxt.x, nxt.f, nxt.g
        (n0, n1), (m0, m1) = x, g
        s0, s1, y0, y1 = n0 - x0, n1 - x1, m0 - g0, m1 - g1
        x0, x1, g0, g1 = n0, n1, m0, m1
        sy = 0.0 + s0 * y0 + s1 * y1
        # L-BFGS-B's curvature test, with -g.s = -a g.d
        if sy > sys.float_info.epsilon * -nxt.a * slope:
            if len(pairs) == LBFGS_MEMORY:
                del pairs[0]
            pairs.append((s0, s1, y0, y1, 1.0 / sy))
            gamma = sy / (0.0 + y0 * y0 + y1 * y1)
    return OptimizeResult(x=np.array(x), fun=f, jac=np.array(g), nfev=nfev,
                          success=max(abs(g0), abs(g1)) <= GRAD_TOL)


def _lbfgs_lanes(fun, x0, maxfun, lanes, **_):
    """L-BFGS runs from `lanes` start points in lockstep, as a custom method
    for scipy's minimize: x0 holds the starts back to back, and lane j runs
    from start j with at most maxfun calls, the run it would make alone.
    Every gradient search of the library is one call of it.

    Each lane is a generator of the points it evaluates: _lbfgs_points_2
    when the starts have exactly two coordinates, _lbfgs_points for any
    other count. The two kernels make the same run bit for bit; the choice
    depends on nothing but the size of a start.

    Each round hands fun(points, idx) the pending points (lists of floats)
    of the lanes idx still running, and fun returns one (value, gradient
    list) pair per lane, in order; a lane that stops leaves the batch. The
    result is the best lane's (the first on ties), with `run` its index and
    nfev summed over all lanes.
    """
    kernel = _lbfgs_points_2 if x0.size == 2 * lanes else _lbfgs_points
    runs = [kernel(x, maxfun) for x in x0.reshape(lanes, -1).tolist()]
    points = [next(run) for run in runs]
    idx = list(range(lanes))
    ends = [None] * lanes
    while idx:
        live, pending = [], []
        for j, out in zip(idx, fun(points, idx)):
            try:
                pending.append(runs[j].send(out))
                live.append(j)
            except StopIteration as stop:
                ends[j] = stop.value
        idx, points = live, pending
    best = min(range(lanes), key=lambda j: ends[j].fun)
    return OptimizeResult(ends[best], run=best, nfev=sum(end.nfev for end in ends))


def _lanes_of(fns):
    """A lanes objective for _lbfgs_lanes from one x -> (value, gradient)
    function per lane, called one after another; a gradient may be a list
    or an array, and arrays become lists here."""
    def lanes_f(points, idx):
        out = []
        for j, x in zip(idx, points):
            f, g = fns[j](x)
            out.append((float(f), g if g.__class__ is list else g.tolist()))
        return out

    return lanes_f


def _lanes_search(fun, lanes: int, n: int, max_evals: int) -> _SearchOutcome:
    """Minimum of the lanes objective fun over `lanes` charts of n
    coordinates, each searched from its origin with at most max_evals calls:
    one minimize call with method=_lbfgs_lanes. The outcome has converged
    when the best lane's gradient passes GRAD_TOL, and evals sums the
    lanes."""
    end = minimize(fun, np.zeros(lanes * n), method=_lbfgs_lanes,
                   options={"maxfun": int(max_evals), "lanes": lanes})
    return _SearchOutcome(float(end.fun), end.x, bool(end.success), end.nfev, end.run)


def _named(fn, qualname: str):
    """fn with __qualname__ set: perfbench/tracer.py tells the searches
    apart by the qualname of the objective handed to minimize."""
    fn.__qualname__ = qualname
    return fn


def _search_frames(rho: DensityMatrix, frames: list, bob: np.ndarray, kind: DistanceKind,
                   max_evals: int, caller: str) -> _SearchOutcome:
    """Alice's best basis against Bob's reference basis `bob`: the best of
    the gradient searches in the chart around each frame (unitaries, kets
    as columns), each with at most max_evals calls; x of the outcome is the
    achieving unitary. One batched _rotated call turns the state into every
    frame, and every start is a lane of one lockstep search (_lanes_search),
    whose objective carries the qualname `caller`. Two qubits run the scalar
    Bloch objective of each frame, one lane after another; other dims run
    the general objective over the stacked frames, one call per round."""
    da, db = rho.dims
    sigs = _rotated(rho.data, np.array(frames), bob)
    if rho.dims == (2, 2):
        fs = [_objective_bloch_2q(sig, kind) for sig in sigs]

        def fun(points, idx):
            out = []
            for j, x in zip(idx, points):
                value, grad = fs[j](x)
                grad[0], grad[1] = -grad[0], -grad[1]
                out.append((-value, grad))
            return out
    else:
        f = _objective_general(sigs, da, db, kind)

        def fun(points, idx):
            values, grads = f(points, idx)
            return zip((-values).tolist(), (-grads).tolist())

    res = _lanes_search(_named(fun, caller), len(frames), da * da - da, max_evals)
    return res._replace(value=-res.value, x=frames[res.run] @ _chart_unitary(da, res.x))


def _maximize_alice(rho: DensityMatrix, bob: np.ndarray, kind: DistanceKind,
                    budget: SearchBudget, rng: np.random.Generator,
                    warm=()) -> _SearchOutcome:
    """Best Alice basis against Bob's reference basis `bob`
    (_search_frames); x of the outcome is the achieving unitary (kets as
    columns). `warm` frames join the identity and Fourier frames before
    the Haar-random ones."""
    da = rho.dims[0]
    frames = [np.eye(da, dtype=complex), fourier_basis(da).matrix, *warm]
    frames.extend(haar_unitaries(da, max(budget.starts - len(frames), 0), rng))
    return _search_frames(rho, frames, bob, kind, budget.max_evals,
                          _maximize_alice.__qualname__)


# ---------------------------------------------------------------------------
# disturbance quantities


@lru_cache(maxsize=32)
def _keep_mask(da: int, db: int, on_a: bool, on_b: bool) -> np.ndarray:
    """0/1 mask of the entries that dephasing the marked sides keeps; read-only."""
    keep = np.kron(np.eye(da) if on_a else np.ones((da, da)),
                   np.eye(db) if on_b else np.ones((db, db)))
    keep.flags.writeable = False
    return keep


def _disturbance_objective(rho: DensityMatrix, fam_a, fam_b, kind: DistanceKind):
    """The distance from rho to its dephasing in the family members picked
    by phi = (fam_a params, fam_b params), with its gradient in phi; only B
    is dephased when fam_a is None.

    fam_a and fam_b are families, or sequences of families sharing one
    block structure, one per lane (the start frames of one search). For
    families it returns phi -> (value, gradient array). For sequences it
    returns (points, idx) -> one (value, gradient list) pair per lane idx[j]
    at points[j], in order: every lane runs the same stacked calls, so a
    lane's bits do not depend on the batch it runs in, and the function of
    families is the one-lane case.

    In the members' frame sigma = v^dag rho v, v = ua (x) ub, the dephasing
    (a pinching, so the relative entropy is an entropy gap) keeps the
    entries marked by `keep`, and df = tr(M dsigma) with M = -log2 of the
    kept part for kind 'r' (eigenvalues floored at EIG_FLOOR), M = S -
    Delta(S), S = sign(sigma - kept part), for 't', and for 'l1' (the sum of
    the moduli of the entries off the kept part) the phases sigma / |sigma|
    of those entries, zero where |sigma| <= EIG_FLOOR. The gradient in v is
    2 rho v M; contracting it with conj(ua) or conj(ub) splits it by side,
    and each side pulls its blocks back to its chart (_pull_blocks). With
    no parameters the gradient is empty and none of it is computed.
    """
    lanes = not isinstance(fam_b, EigenbasisFamily)
    fams_b = fam_b if lanes else (fam_b,)
    fams_a = fam_a if lanes or fam_a is None else (fam_a,)
    da, db = rho.dims
    data = rho.data
    bases_b = np.array([f.base.matrix for f in fams_b])
    # contract_b contracts the gradient in v with conj(ua) to B's side
    if fams_a is None:
        bases_a, na = None, 0
        eye_a = np.eye(da)
        keep = _keep_mask(da, db, False, True)
        runs = _block_runs(fams_b[0].active_blocks)
        contract_b = "...abcd,ac->...bd"
    else:
        bases_a, na = np.array([f.base.matrix for f in fams_a]), fams_a[0].n_params
        keep = _keep_mask(da, db, True, True)
        runs = _block_runs(fams_a[0].active_blocks, fams_b[0].active_blocks)
        contract_b = "...abcd,...ac->...bd"
    n = na + fams_b[0].n_params
    is_r = kind is DistanceKind.RELATIVE_ENTROPY
    is_l1 = kind is DistanceKind.L1
    s_rho = von_neumann_entropy(rho) if is_r else 0.0

    def evaluate(x, ub, ua):
        """Values and gradients at x of the lanes whose frames are ub and ua
        (None when A is not dephased): without leading axes for one lane,
        with one lane axis for several."""
        if ua is None:
            frames, ua = [ub], eye_a
        else:
            frames = [ua, ub]
        charts = _turn_blocks(runs, frames, x)
        v = _product_frame(ua, ub)
        rot = v.conj().swapaxes(-1, -2) @ data @ v
        if n == 0:
            if is_r:
                values = _entropy_rows(np.linalg.eigvalsh(rot * keep)) - s_rho
            else:
                off = rot - rot * keep
                mag = np.abs(off) if is_l1 else np.abs(np.linalg.eigvalsh(off))
                values = mag.reshape(*x.shape[:-1], -1).sum(axis=-1)
            return values, np.zeros(x.shape)
        if is_r:
            lam, vec = np.linalg.eigh(rot * keep)
            values = _entropy_rows(lam) - s_rho
            logs = -np.log2(np.maximum(lam, EIG_FLOOR))
            mmat = (vec * logs[..., None, :]) @ vec.conj().swapaxes(-1, -2)
        elif is_l1:
            off = rot - rot * keep
            mag = np.abs(off)
            values = mag.reshape(*x.shape[:-1], -1).sum(axis=-1)
            mmat = np.divide(off, mag, out=np.zeros_like(off), where=mag > EIG_FLOOR)
        else:
            lam, vec = np.linalg.eigh(rot - rot * keep)
            values = np.abs(lam).sum(axis=-1)
            sgn = (vec * np.sign(lam)[..., None, :]) @ vec.conj().swapaxes(-1, -2)
            mmat = sgn - sgn * keep
        g = (2.0 * (data @ v @ mmat)).reshape(*x.shape[:-1], da, db, da, db)
        grad_b = np.einsum(contract_b, g, ua.conj())
        side_grads = [grad_b] if bases_a is None else [
            np.einsum("...abcd,...bd->...ac", g, ub.conj()) if na else None, grad_b]
        return values, _pull_blocks(runs, charts, side_grads)

    # The entropy gap is nonnegative: a lane below zero reads 0 with a zero
    # gradient, clipped on the floats each wrapper returns.
    def lanes_f(points, idx):
        values, grads = evaluate(
            np.array(points, dtype=float), bases_b.take(idx, axis=0),
            None if bases_a is None else bases_a.take(idx, axis=0))
        out = zip(values.tolist(), grads.tolist())
        return [(0.0, [0.0] * n) if v <= 0.0 else (v, g) for v, g in out] if is_r else out

    if lanes:
        return lanes_f

    def f(phi):
        value, grad = evaluate(np.asarray(phi, dtype=float), bases_b[0].copy(),
                               None if bases_a is None else bases_a[0].copy())
        value = float(value)
        return (0.0, np.zeros(n)) if is_r and value <= 0.0 else (value, grad)

    return f


def _minimize_eigenbases(objective, fam_a: EigenbasisFamily | None, fam_b: EigenbasisFamily,
                         budget: SearchBudget, seed):
    """Minimum over the families' charts of objective(fams_a, fams_b), the
    lanes objective of the start frames' families (one list per side,
    fams_a None when fam_a is), as (outcome, fa, fb) with the families of
    the winning start, in whose charts the outcome's x lies. seed is an int
    or a Generator. With no parameters there is one start, and
    objective(fam_a, fam_b), on the families themselves, is a function of
    phi as _disturbance_objective's is.

    Each start is a frame: the families re-centred on their members at the
    start point (the origin, then seeded Gaussian draws), searched by the
    L-BFGS from phi = 0, every start a lane of one lockstep search, built in
    frame order. A chart maps the whole sphere |x| = pi / sqrt(2) of each
    2-fold block back onto its centre with the kets swapped; when the centre
    is a saddle that sphere attracts, so every start sharing one chart can
    stop there, stationary but not minimal.
    """
    na = 0 if fam_a is None else fam_a.n_params
    n = na + fam_b.n_params
    if n == 0:
        value, _ = objective(fam_a, fam_b)(np.zeros(0))
        return _SearchOutcome(value, np.zeros(0), True, 1, 0), fam_a, fam_b
    rng = np.random.default_rng(seed)
    xs = rng.normal(scale=1.2, size=(max(budget.outer_starts - 1, 0), n))
    fams_b = [fam_b, *(fam_b.centred(x[na:]) for x in xs)]
    fams_a = None if fam_a is None else [fam_a, *(fam_a.centred(x[:na]) for x in xs)]
    # perfbench/tracer.py classes a search whose objective's qualname ends in
    # .obj as an eigenbasis search
    res = _lanes_search(_named(objective(fams_a, fams_b),
                               f"{_minimize_eigenbases.__qualname__}.<locals>.obj"),
                        len(fams_b), n, budget.outer_evals)
    return res, None if fam_a is None else fams_a[res.run], fams_b[res.run]


def _check_mid_args(rho: DensityMatrix, kind, name: str) -> DistanceKind:
    kind = DistanceKind.parse(kind)
    if kind is DistanceKind.L1:
        raise ValueError(
            "l1 distance is basis dependent and does not define a disturbance "
            "measure; use 'r' or 't'"
        )
    if rho.n_subsystems != 2:
        raise ValueError(f"{name} expects a bipartite state (regroup dims first)")
    return kind


class MidResult(NamedTuple):
    value: float
    basis: ProjectiveBasis
    converged: bool


def b_side_mid_detail(rho: DensityMatrix, kind, budget: SearchBudget | None = None,
                       seed: int = 0) -> MidResult:
    kind = _check_mid_args(rho, kind, "b_side_mid")
    res, _, fam = _minimize_eigenbases(
        lambda fa, fb: _disturbance_objective(rho, fa, fb, kind),
        None, _b_marginal_family(rho), budget or DEFAULT_BUDGET, seed)
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
    kind = _check_mid_args(rho, kind, "mid")
    res, fam_a, fam_b = _minimize_eigenbases(
        lambda fa, fb: _disturbance_objective(rho, fa, fb, kind),
        EigenbasisFamily.from_matrix(partial_trace(rho, [0]).data),
        _b_marginal_family(rho), budget or DEFAULT_BUDGET, seed)
    na = fam_a.n_params
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
        seed: int = 0) -> SicResult:
    """Steering-induced coherence of a bipartite state.

    The infimum over eigenbases of rho_B of Alice's best average steered
    coherence. One pipeline serves every marginal: when rho_B is degenerate
    an outer search first picks Bob's eigenbasis against light Alice passes
    (_minimize_bob_basis); then a full Alice search runs against that basis,
    warm-started from the outer search's witness, and the reported value is
    re-evaluated at the returned witness bases. converged holds only when
    the outer search converged (a simple marginal has none to run), the
    full Alice search converged, the full search did not beat the outer
    value by more than 1e-6 (a light pass undershot at the chosen basis),
    the re-evaluated value agrees with the search's to 1e-7 and, for a
    degenerate marginal, the outer gradient at the full search's witness
    (_danskin_objective, at the chart centred on Bob's basis) passes
    GRAD_TOL: where the inner maximiser is not unique, the gradient the
    outer search followed need not be the one at the reported witness.
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
    warm = []
    outer = _minimize_bob_basis(rho, kind, fam, budget, rng, warm)
    res = _maximize_alice(rho, outer.x, kind, budget, rng, warm)
    alice = ProjectiveBasis.from_columns(res.x)
    bob = fam.base if fam.is_trivial else ProjectiveBasis.from_columns(outer.x)
    value = avg_steered_coherence(rho, alice, bob, kind)
    converged = (outer.converged and res.converged and res.value <= outer.value + 1e-6
                 and abs(value - res.value) <= 1e-7)
    if converged and not fam.is_trivial:
        _, grad = _danskin_objective(rho, res.x, replace(fam, base=bob), kind)(
            np.zeros(fam.n_params))
        converged = bool(np.abs(grad).max() <= GRAD_TOL)
    return SicResult(value, alice, bob, converged)


def _danskin_objective(rho: DensityMatrix, alice: np.ndarray, fam: EigenbasisFamily,
                       kind: DistanceKind):
    """phi -> (value, gradient): the average steered coherence at Alice's
    fixed basis `alice` (kets as columns) against Bob's basis
    fam.member(phi), with its gradient in phi.

    Alice's measurement leaves the classical-quantum state sigma = sum_i
    |i><i| (x) p_i rho_i, rho in her frame dephased on her side. Its B-side
    disturbance in Bob's basis is sum_i p_i C(rho_i), the average steered
    coherence there, so this is _disturbance_objective on sigma. At Alice's
    best basis for Bob's basis at phi, its gradient is the gradient of the
    outer function of the sic minimax (Danskin's theorem), when that best
    basis is unique.
    """
    da, db = rho.dims
    rot = _rotated(rho.data, alice, np.eye(db))
    # Alice's pinching of the validated rho in her frame is a state
    sigma = DensityMatrix._derived(rot * _keep_mask(da, db, True, False), rho.dims)
    return _disturbance_objective(sigma, None, fam, kind)


def _minimize_bob_basis(rho: DensityMatrix, kind: DistanceKind, fam: EigenbasisFamily,
                        budget: SearchBudget, rng: np.random.Generator,
                        warm: list) -> _SearchOutcome:
    """Outer search of the sic minimax: the eigenbasis of rho_B (a member of
    `fam`) minimizing Alice's best average steered coherence against it. x
    of the outcome is Bob's unitary (kets as columns), and `warm` receives
    Alice's witness there. A simple marginal has nothing to search: its
    outcome is the base eigenbasis with value +inf, converged.

    It is the eigenbasis search of b_side_mid (_minimize_eigenbases, drawing
    its starts from rng), on another objective. For l1 with a qubit Bob that
    objective is Alice's best value itself, the B-side trace-norm
    disturbance 2 ||C||_1 (twoqubit), stacked over the start frames, and
    `warm` gets W's eigenbasis. Otherwise it is the Danskin objective, one
    function per lane: at each point Alice's best basis comes from a light
    pass (the lane's witness at the last point it evaluated, the identity
    and one fixed Haar frame, refine_evals calls each), and value and
    gradient are those of _danskin_objective at that witness. Each lane
    keeps the witness of every point it evaluates.
    """
    if fam.is_trivial:
        return _SearchOutcome(math.inf, fam.base.matrix, True, 0, 0)
    da = rho.dims[0]
    # drawn on every path, so sic's later Alice starts do not depend on it
    frames = [np.eye(da, dtype=complex), haar_unitary(da, rng)]
    if kind is DistanceKind.L1 and rho.dims[1] == 2:
        res, _, f = _minimize_eigenbases(
            lambda _, fb: _disturbance_objective(rho, None, fb, DistanceKind.TRACE_NORM),
            None, fam, budget, rng)
        bob = f._columns(res.x)
        warm[:] = [_steered_l1_witness(rho.data, da, bob)]
        return res._replace(x=bob)
    light = f"{_minimize_bob_basis.__qualname__}.<locals>.inner_light"
    # per lane, in frame order: (point, value) -> Alice's witness there; a
    # point evaluated twice can get another witness and value
    witnesses = []

    def lane(f):
        seen, last = {}, []
        witnesses.append(seen)

        def obj(phi):
            alice = _search_frames(rho, [*last, *frames], f._columns(phi), kind,
                                   budget.refine_evals, light).x
            last[:] = [alice]
            value, grad = _danskin_objective(rho, alice, f, kind)(phi)
            seen[tuple(phi), value] = alice
            return value, grad

        return obj

    res, _, f = _minimize_eigenbases(lambda _, fams: _lanes_of([lane(f) for f in fams]),
                                     None, fam, budget, rng)
    warm[:] = [witnesses[res.run][tuple(res.x.tolist()), res.value]]
    return res._replace(x=f._columns(res.x))


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
    """Rotate Bob's side so rho_B is diagonal (sic, b_side_mid and the other
    quantities with basis-covariant definitions are invariant under this)."""
    sig = _rotated(rho.data, np.eye(rho.dims[0]), _b_marginal_family(rho).base.matrix)
    return DensityMatrix(sig, rho.dims)


def verify_sic_properties(rho: DensityMatrix, kind="r",
                          budget: SearchBudget | None = None, seed: int = 0,
                          samples: int = 4) -> VerificationReport:
    """Spot-check the resource-style properties of steered coherence around a
    given state: vanishing on B-classical states, monotonicity under local
    channels on A, monotonicity on average under incoherent selective maps on
    B, and convexity across mixtures sharing Bob's reference eigenbasis.
    The report has converged only when every sic it ran did."""
    kind = DistanceKind.parse(kind)
    budget = budget or DEFAULT_BUDGET
    rng = np.random.default_rng(seed)
    details = []
    worst = np.inf
    converged = []

    def sic_value(state: DensityMatrix) -> float:
        res = sic(state, kind, budget, seed)
        converged.append(res.converged)
        return res.value

    # E1: B-classical states carry no steerable coherence
    tol_e1 = 1e-7
    for _ in range(samples):
        cls_state = random_b_classical(rho.dims, rng)
        v = sic_value(cls_state)
        worst = min(worst, tol_e1 - v)
        details.append(f"E1 classical sic={v:.3e}")

    # E2: channels on Alice's side cannot increase it
    base = sic_value(rho)
    tol_mono = 1e-6
    from .qkernel import apply_kraus

    for _ in range(samples):
        ch = random_stinespring_kraus(rho.dims[0], 2, rng, target=0)
        after = sic_value(apply_kraus(rho, ch))
        worst = min(worst, base + tol_mono - after)
        details.append(f"E2 before={base:.6f} after={after:.6f}")

    # E3: selective incoherent maps on Bob's side do not increase it on
    # average (tested in the frame where rho_B is diagonal, so every branch
    # shares the same reference eigenbasis)
    aligned = _aligned_to_b_eigenbasis(rho)
    base_aligned = sic_value(aligned)
    for _ in range(samples):
        kmap = random_permutation_phase_kraus(rho.dims[1], 2, rng, target=1)
        avg = 0.0
        for out in apply_kraus(aligned, kmap, selective=True):
            avg += out.probability * sic_value(out.state)
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
        vp = sic_value(partner)
        vm = sic_value(mix)
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
        converged=all(converged),
        status=status,
        details=tuple(details),
    )
