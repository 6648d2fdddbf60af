"""Outside-in tracer for steercoh.

The tracer changes no library file. While installed it rebinds, in each
importing module's namespace, the functions one layer calls from the next
(``dephase`` as seen from ``correlations`` and ``measures``, ``sic`` as seen
from ``protocols``, ``minimize`` as seen from ``correlations``, ...), and
wraps ``DensityMatrix.__post_init__`` so every validated construction is a
span. Spans live in flat in-memory arrays with parent links; self time is
a span's duration minus the durations of its direct children.

Search runs are classified by the objective ``minimize`` is handed:
``alice`` (the inner maximization over Alice's basis), ``refine`` (the
light warm-started inner passes of the degenerate minimax) and
``eigenbasis`` (outer searches over eigenbases of a degenerate marginal).
"""

from __future__ import annotations

import contextlib
import functools
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

from steercoh import correlations, measures, protocols, qkernel, twoqubit

# (module, attribute, span name): the calls from one layer into the next
BINDINGS = (
    (correlations, "dephase", "qkernel.dephase"),
    (correlations, "steer", "qkernel.steer"),
    (correlations, "partial_trace", "qkernel.partial_trace"),
    (correlations, "eig_hermitian", "qkernel.entropy"),
    (correlations, "von_neumann_entropy", "qkernel.entropy"),
    (correlations, "coherence", "measures.coherence"),
    (correlations, "sic", "correlations.sic"),
    # b_side_mid delegates to b_side_mid_detail, so one span covers both
    (correlations, "b_side_mid_detail", "correlations.b_side_mid"),
    (correlations, "mid_detail", "correlations.mid"),
    (correlations, "verify_theorem1", "correlations.verify_theorem1"),
    (measures, "dephase", "qkernel.dephase"),
    (twoqubit, "sic_l1_closed", "twoqubit.sic_l1_closed"),
    (twoqubit, "verify_theorem3", "twoqubit.verify_theorem3"),
    (protocols, "sic", "correlations.sic"),
    (protocols, "partial_trace", "qkernel.partial_trace"),
    (protocols, "eig_hermitian", "qkernel.entropy"),
    (protocols, "von_neumann_entropy", "qkernel.entropy"),
    (protocols, "verify_theorem2", "protocols.verify_theorem2"),
)

OBJECTIVE_FACTORIES = (
    ("_objective_bloch_2q", "correlations.objective.bloch"),
    ("_objective_general", "correlations.objective.general"),
)

SEARCH_CLASSES = ("alice", "refine", "eigenbasis", "other")


def search_class(fn) -> str:
    """Which search a ``minimize`` call runs, from the objective's qualname."""
    q = getattr(fn, "__qualname__", "")
    if "inner_light" in q:
        return "refine"
    if q.startswith("_maximize_alice"):
        return "alice"
    if q.endswith((".obj", ".outer_obj")):
        return "eigenbasis"
    return "other"


class Tracer:
    """Span recorder. Use ``with tracer.installed(): ...`` around traced work."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack: list[int] = []
        # search class -> [runs, evals, converged runs]
        self.searches = defaultdict(lambda: [0, 0, 0])
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.t0)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.t1.append(0.0)
        self._stack.append(idx)
        self.t0.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.t1[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, fn, name: str):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def _wrap_factory(self, factory, name: str):
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return self.wrap(factory(*args, **kwargs), name)

        return traced_factory

    def _traced_minimize(self, minimize):
        nids = {c: self._intern(f"correlations.search.{c}") for c in SEARCH_CLASSES}

        @functools.wraps(minimize)
        def traced(fn, x0, *args, **kwargs):
            cls = search_class(fn)
            if cls == "eigenbasis":
                fn = self.wrap(fn, "correlations.objective.eigenbasis")
            idx = self._open(nids[cls])
            try:
                res = minimize(fn, x0, *args, **kwargs)
            finally:
                self._close(idx)
            counts = self.searches[cls]
            counts[0] += 1
            counts[1] += int(res.nfev)
            counts[2] += int(bool(res.success))
            return res

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, attr, name in BINDINGS:
            self._rebind(module, attr, self.wrap(getattr(module, attr), name))
        for attr, name in OBJECTIVE_FACTORIES:
            self._rebind(correlations, attr,
                         self._wrap_factory(getattr(correlations, attr), name))
        self._rebind(correlations, "minimize",
                     self._traced_minimize(correlations.minimize))
        dm = qkernel.DensityMatrix
        self._rebind(dm, "__post_init__",
                     self.wrap(dm.__post_init__, "qkernel.density_matrix"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        """(name_id, parent, t0, t1) as numpy arrays."""
        return (np.array(self.name_id, dtype=np.int64),
                np.array(self.parent, dtype=np.int64),
                np.array(self.t0, dtype=np.float64),
                np.array(self.t1, dtype=np.float64))

    def layers(self) -> dict:
        """name -> {calls, self_s, total_s, p50_ms} over every recorded span."""
        if self._stack:
            raise RuntimeError("spans still open")
        name_id, parent, t0, t1 = self.arrays()
        dur = t1 - t0
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        own = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            n = int(sel.sum())
            out[name] = {
                "calls": n,
                "self_s": float(own[sel].sum()),
                "total_s": float(dur[sel].sum()),
                "p50_ms": float(np.median(dur[sel]) * 1e3) if n else 0.0,
            }
        return out

    def covered_s(self) -> float:
        """Wall time covered by top-level spans."""
        _, parent, t0, t1 = self.arrays()
        top = parent < 0
        return float((t1[top] - t0[top]).sum())

    def save(self, path) -> None:
        name_id, parent, t0, t1 = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, t0=t0, t1=t1)
