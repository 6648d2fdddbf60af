"""Dense density-matrix primitives: states, projective bases, measurements, channels.

Everything here works on explicit complex matrices for small multipartite
systems. Subsystem structure is carried as a tuple of local dimensions, with
subsystem 0 as the leftmost tensor factor (row-major Kronecker convention).
States, bases and Kraus maps are validated to DEFAULT_TOL and must have
finite entries; a state the library derives from a validated one by a map
that keeps states states (dephase, coherence's change of frame, the
normalized outcomes of steer and selective apply_kraus, partial_trace, and
the state sigma that Alice's measurement leaves in correlations'
_danskin_objective) is not validated again. Measurements (steer, selective
apply_kraus) return only the outcomes of probability at least ZERO_PROB.
"""

from __future__ import annotations

import json
import math
import os
import tempfile
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

DEFAULT_TOL = 1e-9

# Eigenvalues below this floor are treated as exact zeros (entropy terms,
# support projections); outcomes of probability below ZERO_PROB are dropped.
EIG_FLOOR = 1e-12
ZERO_PROB = 1e-12


class InvalidStateError(ValueError):
    """A matrix failed a physicality check (hermiticity, trace, positivity)."""


def _as_square_complex(m) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _number(value, what: str, cast):
    """cast(value) for a JSON field; a value of the wrong JSON type, or a
    fractional or non-finite number cast to int, raises ValueError."""
    if cast is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{what} must be an integer, got {value!r}")
    try:
        return cast(value)
    except TypeError as exc:
        raise ValueError(f"{what} must be a number, got {value!r}") from exc


def _require_finite(a: np.ndarray, what: str) -> None:
    # every later check compares with `>`, which is False for NaN
    if not np.isfinite(a).all():
        raise InvalidStateError(f"{what} has non-finite entries")


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density matrix with a declared subsystem factorization.

    Args:
        data: square complex matrix, side = prod(dims).
        dims: local dimensions, leftmost factor first.

    Hermiticity, unit trace and positivity are checked to DEFAULT_TOL.
    """

    data: np.ndarray
    dims: tuple

    def __post_init__(self):
        a = _as_square_complex(self.data).copy()
        dims = tuple(int(d) for d in (self.dims if np.iterable(self.dims) else (self.dims,)))
        if not dims or any(d < 1 for d in dims):
            raise ValueError(f"invalid dims {dims}")
        side = math.prod(dims)
        if a.shape[0] != side:
            raise ValueError(f"matrix side {a.shape[0]} does not match prod(dims) = {side}")
        _require_finite(a, "matrix")
        if np.abs(a - a.conj().T).max() > DEFAULT_TOL:
            raise InvalidStateError("matrix is not Hermitian within tolerance")
        tr = a.trace()
        if abs(tr - 1.0) > DEFAULT_TOL:
            raise InvalidStateError(f"trace {tr} is not 1 within tolerance")
        if np.linalg.eigvalsh(a).min() < -DEFAULT_TOL:
            raise InvalidStateError("matrix has a negative eigenvalue beyond tolerance")
        a.flags.writeable = False
        object.__setattr__(self, "data", a)
        object.__setattr__(self, "dims", dims)

    @property
    def side(self) -> int:
        return self.data.shape[0]

    @property
    def n_subsystems(self) -> int:
        return len(self.dims)

    @classmethod
    def from_pure(cls, vec, dims) -> "DensityMatrix":
        v = np.asarray(vec, dtype=complex).reshape(-1)
        v = v / np.linalg.norm(v)
        return cls(np.outer(v, v.conj()), dims)

    def close_to(self, other: "DensityMatrix", atol: float = 1e-9) -> bool:
        return self.dims == other.dims and np.abs(self.data - other.data).max() <= atol

    @classmethod
    def _derived(cls, data: np.ndarray, dims: tuple) -> "DensityMatrix":
        """A state the library derives from a validated one by a map that
        keeps states states (a frame change, a pinching), taken without
        validating it again; data is a fresh array, made read-only here."""
        out = object.__new__(cls)
        data = np.ascontiguousarray(data, dtype=complex)
        data.flags.writeable = False
        object.__setattr__(out, "data", data)
        object.__setattr__(out, "dims", dims)
        return out

    def _cached(self, key: str, build):
        """build(self), computed once per state and kept on it: a
        DensityMatrix is immutable. The memo is not a field, so equality and
        repr ignore it."""
        memo = self.__dict__.setdefault("_memo", {})
        if key not in memo:
            memo[key] = build(self)
        return memo[key]


def maximally_mixed(dims) -> DensityMatrix:
    dims = tuple(int(d) for d in (dims if np.iterable(dims) else (dims,)))
    side = math.prod(dims)
    return DensityMatrix(np.eye(side) / side, dims)


@dataclass(frozen=True)
class ProjectiveBasis:
    """Orthonormal, complete basis of a d-dimensional space.

    vectors[i] is the i-th basis ket (shape (d, d) overall).
    """

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex).copy()
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"basis must be d vectors of length d, got shape {v.shape}")
        _require_finite(v, "basis")
        d = v.shape[0]
        gram = v.conj() @ v.T
        if np.abs(gram - np.eye(d)).max() > DEFAULT_TOL:
            raise InvalidStateError("basis vectors are not orthonormal within tolerance")
        completeness = v.T @ v.conj()
        if np.abs(completeness - np.eye(d)).max() > DEFAULT_TOL:
            raise InvalidStateError("basis is not complete within tolerance")
        v.flags.writeable = False
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """Unitary with basis kets as columns."""
        return self.vectors.T

    @classmethod
    @lru_cache(maxsize=32)
    def computational(cls, d: int) -> "ProjectiveBasis":
        """The standard basis; cached, since a ProjectiveBasis is read-only."""
        return cls(np.eye(d))

    @classmethod
    def from_columns(cls, u) -> "ProjectiveBasis":
        return cls(np.asarray(u, dtype=complex).T)


def product_basis(first: ProjectiveBasis, second: ProjectiveBasis) -> ProjectiveBasis:
    """Tensor-product basis ordered row-major: (i, j) -> i * dim2 + j."""
    return ProjectiveBasis.from_columns(np.kron(first.matrix, second.matrix))


@dataclass(frozen=True)
class SteeringOutcome:
    """One measurement outcome of probability at least ZERO_PROB and its
    normalized conditional state."""

    probability: float
    state: DensityMatrix


@dataclass(frozen=True)
class KrausMap:
    """Trace-preserving Kraus map acting on one subsystem.

    operators: square matrices of a common shape; sum of K'K equals identity.
    target: index of the subsystem the operators act on.
    """

    operators: tuple
    target: int

    def __post_init__(self):
        ops = tuple(_as_square_complex(k) for k in self.operators)
        if not ops:
            raise ValueError("Kraus map needs at least one operator")
        d = ops[0].shape[0]
        if any(k.shape != (d, d) for k in ops):
            raise ValueError("Kraus operators must share a common shape")
        _require_finite(np.stack(ops), "Kraus map")
        acc = sum(k.conj().T @ k for k in ops)
        if np.abs(acc - np.eye(d)).max() > DEFAULT_TOL:
            raise InvalidStateError("Kraus map is not trace preserving within tolerance")
        object.__setattr__(self, "operators", ops)

    @property
    def dim(self) -> int:
        return self.operators[0].shape[0]


def tensor_product(a: DensityMatrix, b: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(np.kron(a.data, b.data), a.dims + b.dims)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every subsystem not listed in keep (original order preserved)."""
    if isinstance(keep, (int, np.integer)):
        keep = (int(keep),)
    keep = sorted(set(int(k) for k in keep))
    n = rho.n_subsystems
    if not keep or any(k < 0 or k >= n for k in keep):
        raise ValueError(f"invalid subsystem index set {keep} for {n} subsystems")
    t = rho.data.reshape(rho.dims + rho.dims)
    bra = list(range(n))
    ket = [i + n if i in keep else i for i in range(n)]
    out = [i for i in keep] + [i + n for i in keep]
    reduced = np.einsum(t, bra + ket, out)
    side = math.prod(rho.dims[k] for k in keep)
    return DensityMatrix._derived(reduced.reshape(side, side), tuple(rho.dims[k] for k in keep))


def regroup_dims(rho: DensityMatrix, dims) -> DensityMatrix:
    """Re-declare the subsystem factorization (merge or split adjacent factors)."""
    dims = tuple(int(d) for d in dims)
    if math.prod(dims) != rho.side:
        raise ValueError(f"dims {dims} incompatible with side {rho.side}")
    return DensityMatrix(rho.data, dims)


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix, ascending eigenvalues.

    Returns (eigenvalues, eigenvectors) with eigenvectors as columns.
    """
    a = _as_square_complex(m)
    if np.abs(a - a.conj().T).max() > DEFAULT_TOL:
        raise InvalidStateError("eig_hermitian requires a Hermitian matrix")
    w, v = np.linalg.eigh(a)
    recon = (v * w) @ v.conj().T
    if np.abs(recon - a).max() > DEFAULT_TOL:
        raise InvalidStateError("eigendecomposition failed reconstruction check")
    return w, v


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """Shannon entropy in bits along the last axis; entries at or below
    EIG_FLOOR contribute zero."""
    return -(x * np.log2(np.where(x > EIG_FLOOR, x, 1.0))).sum(axis=-1)


def entropy_of_probs(p) -> float:
    """Shannon entropy in bits; values below EIG_FLOOR contribute zero."""
    return float(max(0.0, _entropy_rows(np.asarray(p, dtype=float).reshape(-1))))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Von Neumann entropy in bits."""
    return entropy_of_probs(np.linalg.eigvalsh(rho.data))


def _outcomes(unnormalized, dims) -> tuple:
    """SteeringOutcome records of unnormalized conditional states, in order,
    without those of probability below ZERO_PROB; not validated again, as
    m / p scales m's rounding by 1 / p."""
    outcomes = []
    for m in unnormalized:
        p = float(m.trace().real)
        if p >= ZERO_PROB:
            outcomes.append(SteeringOutcome(p, DensityMatrix._derived(m / p, dims)))
    return tuple(outcomes)


def _steered_dims(rho: DensityMatrix, basis: ProjectiveBasis) -> tuple:
    """(d_A, d_B) of a bipartite state to be measured on A in basis."""
    if rho.n_subsystems != 2:
        raise ValueError("steer expects a bipartite state (regroup dims first)")
    da, db = rho.dims
    if basis.dim != da:
        raise ValueError(f"basis dim {basis.dim} does not match subsystem A dim {da}")
    return da, db


def steer(rho: DensityMatrix, basis: ProjectiveBasis) -> tuple:
    """Measure subsystem A of a bipartite state projectively; return the
    outcomes of B's conditional states, in basis order, without those of
    probability below ZERO_PROB."""
    da, db = _steered_dims(rho, basis)
    t = rho.data.reshape(da, db, da, db)
    return _outcomes((np.einsum("a,abcd,c->bd", v.conj(), t, v) for v in basis.vectors),
                     (db,))


def dephase(rho: DensityMatrix, basis: ProjectiveBasis, target: int = 0) -> DensityMatrix:
    """Remove coherences on one subsystem with respect to a projective basis."""
    n = rho.n_subsystems
    if target < 0 or target >= n:
        raise ValueError(f"invalid target {target} for {n} subsystems")
    dt = rho.dims[target]
    if basis.dim != dt:
        raise ValueError(f"basis dim {basis.dim} does not match subsystem dim {dt}")
    pre = math.prod(rho.dims[:target])
    post = math.prod(rho.dims[target + 1:])
    u = basis.matrix
    # With the target's index pair last, each (dt, dt) block x is a row; x @ w
    # is its diagonal in the basis and @ w^H rotates that back: sum_k P_k x P_k.
    w = (u.conj()[:, None, :] * u[None, :, :]).reshape(dt * dt, dt)
    t = rho.data.reshape(pre, dt, post, pre, dt, post).transpose(0, 2, 3, 5, 1, 4)
    blocks = (t.reshape(-1, dt * dt) @ w) @ w.conj().T
    out = blocks.reshape(pre, post, pre, post, dt, dt).transpose(0, 4, 1, 2, 5, 3)
    # a pinching of a validated state is a state
    return DensityMatrix._derived(out.reshape(rho.side, rho.side), rho.dims)


def _embed_on_subsystem(op: np.ndarray, dims, target: int) -> np.ndarray:
    pre = math.prod(dims[:target])
    post = math.prod(dims[target + 1:])
    out = op
    if pre > 1:
        out = np.kron(np.eye(pre), out)
    if post > 1:
        out = np.kron(out, np.eye(post))
    return out


def apply_kraus(rho: DensityMatrix, kmap: KrausMap, selective: bool = False):
    """Apply a Kraus map to its target subsystem.

    Non-selective mode returns the summed output state. Selective mode returns
    a tuple of SteeringOutcome records in operator order, without those of
    probability below ZERO_PROB, as steer does.
    """
    n = rho.n_subsystems
    if kmap.target < 0 or kmap.target >= n:
        raise ValueError(f"invalid target {kmap.target} for {n} subsystems")
    if kmap.dim != rho.dims[kmap.target]:
        raise ValueError(
            f"Kraus dim {kmap.dim} does not match subsystem dim {rho.dims[kmap.target]}"
        )
    embedded = [_embed_on_subsystem(k, rho.dims, kmap.target) for k in kmap.operators]
    if not selective:
        acc = np.zeros_like(rho.data)
        for k in embedded:
            acc = acc + k @ rho.data @ k.conj().T
        return DensityMatrix(acc, rho.dims)
    return _outcomes((k @ rho.data @ k.conj().T for k in embedded), rho.dims)


def atomic_write_text(path: str, text: str) -> None:
    """Write text to path via a temp file and rename, so readers never see
    a partially written file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def state_to_dict(rho: DensityMatrix) -> dict:
    return {
        "dims": list(rho.dims),
        "re": rho.data.real.tolist(),
        "im": rho.data.imag.tolist(),
    }


def state_from_dict(payload: dict) -> DensityMatrix:
    try:
        dims = payload["dims"]
        re = np.asarray(payload["re"], dtype=float)
        im = np.asarray(payload["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state payload: {exc}") from exc
    if re.shape != im.shape:
        raise ValueError("re and im parts have different shapes")
    dims = [_number(d, "a subsystem dimension", int)
            for d in (dims if np.iterable(dims) else (dims,))]
    return DensityMatrix(re + 1j * im, dims)


def save_state(rho: DensityMatrix, path: str) -> None:
    """Serialize a state to JSON ({dims, re, im}, row-major), atomically."""
    atomic_write_text(path, json.dumps(state_to_dict(rho), indent=1))


def load_state(path: str) -> DensityMatrix:
    """Load and re-validate a JSON state file."""
    with open(path) as fh:
        payload = json.load(fh)
    return state_from_dict(payload)
