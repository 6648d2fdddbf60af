"""Command-line front end.

Four subcommands:

* compute  -- load or generate one state, evaluate requested quantities
* verify   -- run a theorem/property verification ensemble
* sweep    -- evaluate a one-parameter family and emit a plot-ready table
* sample   -- write a corpus of random state files with a replayable manifest

Exit codes: 0 success, 1 validation error (bad arguments, malformed or
unphysical state, failed verification), 2 optimizer non-convergence,
3 I/O error (missing file, refusing to overwrite without --force).
Reports carry no timestamps, so identical invocations produce identical
bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys

import numpy as np

from .correlations import (
    SearchBudget,
    b_side_mid_detail,
    mid_detail,
    sic,
    verify_sic_properties,
    verify_theorem1,
)
from .measures import (
    DistanceKind,
    coherence,
    verify_coherence_properties,
    verify_distance_properties,
)
from .protocols import (
    StateRecipe,
    bell_diagonal_state,
    make_state,
    recipe_side,
    rho_x_finding,
    steering_induced_entanglement,
    verify_corollary1,
    verify_theorem2,
)
from .qkernel import (
    DensityMatrix,
    InvalidStateError,
    ProjectiveBasis,
    _number,
    atomic_write_text,
    load_state,
    save_state,
)
from .report import FAIL, FINDING, PASS
from .sampling import random_state_nondegenerate_b
from .twoqubit import pauli_decompose, verify_theorem3

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NO_CONVERGENCE = 2
EXIT_IO = 3

DIM_CAP = 64
QUANTITIES = ("sic", "mid", "bsmid", "coherence", "theta", "sie")
SUITES = ("thm1", "thm2", "thm3", "cor1", "props", "distances")
COMPUTE_COLUMNS = ("quantity", "kind", "value", "tolerance", "converged")
VERIFY_COLUMNS = ("index", "theorem", "kind", "status", "value_lhs", "value_rhs",
                  "margin", "converged")
SWEEP_COLUMNS = ("parameter", "sic", "q_b", "margin", "converged")

# Reported tolerance for direct (non-iterative) evaluations vs quantities
# behind a numerical search.
EXACT_TOL = 1e-12
SEARCH_TOL = 1e-6

# Ensemble budgets tuned so the verify examples finish in minutes; --budget
# overrides the evaluation caps.
_MINIMAX_BUDGET = SearchBudget(starts=6, max_evals=500, outer_starts=4,
                               outer_evals=300, refine_evals=70)
SUITE_BUDGETS = {
    "thm1": SearchBudget(starts=8, max_evals=800),
    "thm2": SearchBudget(starts=6, max_evals=600),
    "thm3": _MINIMAX_BUDGET,
    "cor1": SearchBudget(starts=8, max_evals=800),
    "props": _MINIMAX_BUDGET,
    "sweep": _MINIMAX_BUDGET,
}


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    """argparse variant whose usage errors map to the validation exit code."""

    def error(self, message):
        raise CliError(EXIT_VALIDATION, f"{self.prog}: {message}")


def _budget_from(args) -> SearchBudget | None:
    if getattr(args, "budget", None) is None:
        return None
    b = int(args.budget)
    if b <= 0:
        raise CliError(EXIT_VALIDATION, "--budget must be positive")
    return SearchBudget(
        starts=8,
        max_evals=b,
        outer_starts=4,
        outer_evals=max(60, b // 2),
        refine_evals=max(30, b // 8),
    )


def _basis_payload(basis: ProjectiveBasis) -> dict:
    """Basis kets as the columns of a unitary."""
    m = np.asarray(basis.matrix)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _json_error(what: str, exc: json.JSONDecodeError) -> CliError:
    return CliError(
        EXIT_VALIDATION,
        f"{what} is not valid JSON: line {exc.lineno} column {exc.colno}: {exc.msg}",
    )


@contextlib.contextmanager
def _invalid_recipe():
    """Report a ValueError raised in the block as an invalid recipe."""
    try:
        yield
    except ValueError as exc:
        raise CliError(EXIT_VALIDATION, f"invalid recipe: {exc}") from exc


def _parse_recipe(text: str) -> StateRecipe:
    with _invalid_recipe():
        try:
            return StateRecipe.from_json(text)
        except json.JSONDecodeError as exc:
            raise _json_error("recipe", exc) from exc


def _check_side(side: int) -> None:
    if side > DIM_CAP:
        raise CliError(
            EXIT_VALIDATION, f"total dimension {side} exceeds the cap of {DIM_CAP}"
        )


def _load_source(args) -> tuple[DensityMatrix, dict]:
    has_state = getattr(args, "state", None) is not None
    has_recipe = getattr(args, "recipe", None) is not None
    if has_state == has_recipe:
        raise CliError(
            EXIT_VALIDATION, "exactly one of --state FILE or --recipe JSON is required"
        )
    if has_state:
        try:
            rho = load_state(args.state)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot read state file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise _json_error("state file", exc) from exc
        except ValueError as exc:
            raise CliError(EXIT_VALIDATION, f"invalid state file: {exc}") from exc
        source = {"state": args.state}
    else:
        recipe = _parse_recipe(args.recipe)
        with _invalid_recipe():
            _check_side(recipe_side(recipe))  # rejects early, before anything is built
            rho = make_state(recipe)
        source = {"recipe": json.loads(recipe.to_json())}
    _check_side(rho.side)
    return rho, source


def _emit(text: str, out: str | None, force: bool) -> None:
    if out is None:
        print(text)
        return
    if os.path.exists(out) and not force:
        raise CliError(EXIT_IO, f"refusing to overwrite {out} (pass --force)")
    try:
        atomic_write_text(out, text)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {out}: {exc}") from exc


def _dump_json(payload) -> str:
    return json.dumps(payload, indent=1, sort_keys=True)


def _csv(columns, rows, *preamble) -> str:
    """Preamble lines as they are, then a header and one line per row dict
    through csv.writer, which quotes a cell holding a comma, a quote or a
    line break. Floats are written with repr, anything else with str; a
    missing column is empty."""
    def cell(row, col):
        v = row.get(col, "")
        return repr(v) if isinstance(v, float) else str(v)

    buf = io.StringIO()
    buf.writelines(f"{line}\n" for line in preamble)
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cell(row, col) for col in columns] for row in rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# compute


def _entry(quantity, value, tolerance, converged=True, **fields) -> dict:
    return {"quantity": quantity, "value": value, "tolerance": tolerance,
            "converged": converged, **fields}


def _entry_sic(rho, kind, budget, seed) -> dict:
    res = sic(rho, kind, budget, seed)
    return _entry("sic", res.value, SEARCH_TOL, res.converged, kind=kind.value,
                  alice_basis=_basis_payload(res.alice_basis),
                  bob_basis=_basis_payload(res.bob_basis))


def _entry_mid(rho, kind, budget, seed) -> dict:
    res = mid_detail(rho, kind, budget, seed)
    return _entry("mid", res.value, SEARCH_TOL, res.converged, kind=kind.value,
                  a_basis=_basis_payload(res.basis_a),
                  b_basis=_basis_payload(res.basis_b))


def _entry_bsmid(rho, kind, budget, seed) -> dict:
    res = b_side_mid_detail(rho, kind, budget, seed)
    return _entry("bsmid", res.value, SEARCH_TOL, res.converged, kind=kind.value,
                  b_basis=_basis_payload(res.basis))


def _entry_coherence(rho, kind, budget, seed) -> dict:
    value = coherence(kind, rho, ProjectiveBasis.computational(rho.side))
    return _entry("coherence", value, EXACT_TOL, kind=kind.value,
                  basis="computational")


def _entry_theta(rho, kind, budget, seed) -> dict:
    if rho.dims != (2, 2):
        raise CliError(EXIT_VALIDATION, "theta requires a two-qubit state")
    th = pauli_decompose(rho)
    value = {k: np.asarray(getattr(th, k)).tolist()
             for k in ("theta", "a", "b", "tmat")}
    return _entry("theta", value, EXACT_TOL)


def _entry_sie(rho, kind, budget, seed) -> dict:
    if rho.n_subsystems != 3:
        raise CliError(
            EXIT_VALIDATION, "sie requires a tripartite state (dims of length 3)"
        )
    alice = ProjectiveBasis.computational(rho.dims[0])
    avg, per_outcome = steering_induced_entanglement(rho, alice, budget, seed)
    per_outcome = [{k: v for k, v in rec.items() if k != "state"} for rec in per_outcome]
    exact = all(rec["exact"] for rec in per_outcome)
    return _entry("sie", avg, EXACT_TOL if exact else SEARCH_TOL,
                  all(rec["converged"] for rec in per_outcome),
                  alice_basis="computational", per_outcome=per_outcome)


_ENTRY_FN = {
    "sic": _entry_sic,
    "mid": _entry_mid,
    "bsmid": _entry_bsmid,
    "coherence": _entry_coherence,
    "theta": _entry_theta,
    "sie": _entry_sie,
}


def _selected_quantities(args) -> list:
    names = list(args.quantities or [])
    if args.quantity:
        names.extend(tok.strip() for tok in args.quantity.split(",") if tok.strip())
    seen, ordered = set(), []
    for name in names:
        if name not in QUANTITIES:
            raise CliError(
                EXIT_VALIDATION,
                f"unknown quantity {name!r} (choose from {', '.join(QUANTITIES)})",
            )
        if name not in seen:
            seen.add(name)
            ordered.append(name)
    if not ordered:
        raise CliError(EXIT_VALIDATION, "no quantities requested")
    return ordered


def cmd_compute(args) -> int:
    rho, source = _load_source(args)
    kind = DistanceKind.parse(args.kind)
    budget = _budget_from(args)
    names = _selected_quantities(args)
    entries = []
    for name in names:
        try:
            entries.append(_ENTRY_FN[name](rho, kind, budget, args.seed))
        except ValueError as exc:
            raise CliError(EXIT_VALIDATION, f"{name}: {exc}") from exc
    payload = {
        "command": "compute",
        "source": source,
        "dims": list(rho.dims),
        "seed": args.seed,
        "results": entries,
    }
    if args.format == "csv":
        text = _csv(COMPUTE_COLUMNS, [e for e in entries if e["quantity"] != "theta"])
    else:
        text = _dump_json(payload)
    _emit(text, args.out, args.force)
    if not all(e["converged"] for e in entries):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _suite_thm1(args, budget) -> list:
    rng = np.random.default_rng(args.seed)
    reports = []
    for i in range(args.n):
        rho = random_state_nondegenerate_b((2, 2), rng)
        reports.append(verify_theorem1(rho, args.kind, budget, seed=args.seed + i))
    return reports


def _suite_thm2(args, budget) -> list:
    return [
        verify_theorem2(2 + (i % 2), budget, seed=args.seed + i)
        for i in range(args.n)
    ]


def _suite_thm3(args, budget) -> list:
    rng = np.random.default_rng(args.seed)
    reports = []
    for i in range(args.n):
        if i % 3 == 2:
            rho = bell_diagonal_state(rng.dirichlet(np.ones(4)))
        else:
            rho = random_state_nondegenerate_b((2, 2), rng)
        reports.append(verify_theorem3(rho, budget, seed=args.seed + i))
    return reports


def _suite_cor1(args, budget) -> list:
    if args.suite is not None:
        if args.suite.lower() != "rhox":
            raise CliError(EXIT_VALIDATION, f"unknown cor1 variant {args.suite!r}")
        return [rho_x_finding(budget, seed=args.seed)]
    rng = np.random.default_rng(args.seed)
    reports = []
    for i in range(args.n):
        psi = random_state_nondegenerate_b((2, 2), rng, pure=True)
        reports.append(verify_corollary1(psi, budget=budget, seed=args.seed + i))
    return reports


def _suite_props(args, budget) -> list:
    rng = np.random.default_rng(args.seed)
    calls = max(1, math.ceil(args.n / 4))
    reports = []
    for i in range(calls):
        rho = random_state_nondegenerate_b((2, 2), rng)
        reports.append(verify_sic_properties(rho, args.kind, budget, seed=args.seed + i))
    return reports


def _suite_distances(args, budget) -> list:
    return [
        verify_distance_properties(args.n, seed=args.seed),
        verify_coherence_properties(args.n, seed=args.seed),
    ]


_SUITE_FN = {
    "thm1": _suite_thm1,
    "thm2": _suite_thm2,
    "thm3": _suite_thm3,
    "cor1": _suite_cor1,
    "props": _suite_props,
    "distances": _suite_distances,
}


def cmd_verify(args) -> int:
    if args.suite is not None and args.name != "cor1":
        raise CliError(EXIT_VALIDATION, "--suite is only meaningful with cor1")
    if args.n <= 0:
        raise CliError(EXIT_VALIDATION, "--n must be positive")
    budget = _budget_from(args) or SUITE_BUDGETS.get(args.name)
    try:
        reports = _SUITE_FN[args.name](args, budget)
    except ValueError as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc

    rows = []
    for rep in reports:
        row = rep.as_dict()
        if rep.status == PASS:
            del row["details"]
        rows.append(row)

    statuses = [r.status for r in reports]
    if FAIL in statuses:
        aggregate = FAIL
    elif FINDING in statuses:
        aggregate = FINDING
    else:
        aggregate = PASS
    all_converged = all(r.converged for r in reports)
    min_margin = min(r.margin for r in reports)
    payload = {
        "command": "verify",
        "suite": args.name,
        "variant": args.suite,
        "kind": args.kind,
        "n": args.n,
        "seed": args.seed,
        "status": aggregate,
        "min_margin": min_margin,
        "all_converged": all_converged,
        "instances": rows,
    }
    if args.format == "csv":
        text = _csv(VERIFY_COLUMNS, [{"index": i, **r} for i, r in enumerate(rows)])
    else:
        text = _dump_json(payload)
    _emit(text, args.out, args.force)
    print(
        f"{args.name}: {aggregate} ({len(reports)} checks, min margin "
        f"{min_margin:+.3e}, {'all converged' if all_converged else 'NOT CONVERGED'})",
        file=sys.stderr,
    )
    if aggregate == FAIL:
        return EXIT_VALIDATION
    if not all_converged:
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# sweep


# each sweepable recipe kind: its grid parameter, and the params at a grid value
_SWEEPS = {
    "werner": ("p", lambda v: {"p": v}),
    "maximally_correlated": ("lambda0", lambda v: {"schmidt": [v, 1.0 - v]}),
}


def _sweep_rows(recipe: StateRecipe, grid, kind: DistanceKind,
                qb_kind: DistanceKind, budget, seed: int) -> list:
    rows = []
    for v in grid:
        state = make_state(StateRecipe(recipe.kind, _SWEEPS[recipe.kind][1](v)))
        sic_res = sic(state, kind, budget, seed)
        qb_res = b_side_mid_detail(state, qb_kind, budget, seed)
        rows.append(
            {
                "parameter": v,
                "sic": sic_res.value,
                "q_b": qb_res.value,
                "margin": qb_res.value - sic_res.value,
                "converged": sic_res.converged and qb_res.converged,
            }
        )
    return rows


def cmd_sweep(args) -> int:
    if args.recipe is None:
        raise CliError(EXIT_VALIDATION, "sweep requires --recipe JSON")
    recipe = _parse_recipe(args.recipe)
    grids = {k: v for k, v in recipe.params.items() if isinstance(v, (list, tuple))}
    if len(grids) != 1:
        raise CliError(
            EXIT_VALIDATION,
            "sweep recipe must declare exactly one grid parameter (a list value)",
        )
    (grid_name, grid), = grids.items()
    if len(grid) == 0:
        raise CliError(EXIT_VALIDATION, "sweep grid is empty")
    if recipe.kind not in _SWEEPS:
        raise CliError(EXIT_VALIDATION, f"recipe kind {recipe.kind!r} is not sweepable")
    swept = _SWEEPS[recipe.kind][0]
    if grid_name != swept:
        raise CliError(
            EXIT_VALIDATION,
            f"recipe kind {recipe.kind!r} sweeps over {swept!r}, not {grid_name!r}",
        )
    with _invalid_recipe():
        grid = [_number(v, f"{grid_name} grid value", float) for v in grid]
    if grid_name == "lambda0" and not all(0.0 <= v <= 1.0 for v in grid):
        raise CliError(EXIT_VALIDATION, "lambda0 grid values must lie in [0, 1]")
    kind = DistanceKind.parse(args.kind)
    if kind is DistanceKind.TRACE_NORM:
        raise CliError(EXIT_VALIDATION, "sweep kinds are 'r' or 'l1'")
    qb_kind = (kind if kind is DistanceKind.RELATIVE_ENTROPY
               else DistanceKind.TRACE_NORM)
    budget = _budget_from(args) or SUITE_BUDGETS["sweep"]
    try:
        rows = _sweep_rows(recipe, grid, kind, qb_kind, budget, args.seed)
    except ValueError as exc:
        raise CliError(EXIT_VALIDATION, str(exc)) from exc
    if args.format == "json":
        payload = {
            "command": "sweep",
            "recipe": json.loads(recipe.to_json()),
            "parameter": grid_name,
            "kind": kind.value,
            "q_b_kind": qb_kind.value,
            "tolerance": SEARCH_TOL,
            "seed": args.seed,
            "rows": rows,
        }
        text = _dump_json(payload)
    else:
        text = _csv(SWEEP_COLUMNS, rows,
                    f"# sic kind={kind.value} disturbance kind={qb_kind.value} "
                    f"tolerance={SEARCH_TOL!r} seed={args.seed}")
    _emit(text, args.out, args.force)
    if not all(r["converged"] for r in rows):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


# ---------------------------------------------------------------------------
# sample


def cmd_sample(args) -> int:
    if args.recipe is None:
        raise CliError(EXIT_VALIDATION, "sample requires --recipe JSON")
    recipe = _parse_recipe(args.recipe)
    if recipe.kind not in ("random_hs", "random_pure"):
        raise CliError(
            EXIT_VALIDATION, "sample supports recipe kinds random_hs and random_pure"
        )
    if args.n < 0:
        raise CliError(EXIT_VALIDATION, "--n must be nonnegative")
    seed = args.seed if args.seed is not None else recipe.seed
    try:
        child_seeds = np.random.SeedSequence(seed).generate_state(args.n, np.uint32)
    except ValueError as exc:
        raise CliError(EXIT_VALIDATION, f"invalid seed {seed}: {exc}") from exc
    out_dir = args.out
    if out_dir is None:
        raise CliError(EXIT_VALIDATION, "sample requires --out DIRECTORY")
    with _invalid_recipe():
        # a malformed or oversized recipe is rejected before --out is made
        _check_side(recipe_side(recipe))
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot create {out_dir}: {exc}") from exc

    names = [f"state_{i:04d}.json" for i in range(args.n)]
    manifest_path = os.path.join(out_dir, "manifest.json")
    if not args.force:
        for p in [manifest_path] + [os.path.join(out_dir, n) for n in names]:
            if os.path.exists(p):
                raise CliError(
                    EXIT_IO, f"refusing to overwrite {p} (pass --force)"
                )

    files = []
    for name, child in zip(names, map(int, child_seeds)):
        with _invalid_recipe():
            state = make_state(StateRecipe(recipe.kind, recipe.params, child))
        path = os.path.join(out_dir, name)
        try:
            save_state(state, path)
        except OSError as exc:
            raise CliError(EXIT_IO, f"cannot write {path}: {exc}") from exc
        with open(path, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        files.append({"path": name, "seed": child, "sha256": digest})
    manifest = {
        "command": "sample",
        "recipe": json.loads(recipe.to_json()),
        "n": args.n,
        "seed": seed,
        "files": files,
    }
    try:
        atomic_write_text(manifest_path, _dump_json(manifest))
    except OSError as exc:
        raise CliError(EXIT_IO, f"cannot write {manifest_path}: {exc}") from exc
    print(f"wrote {len(files)} states + manifest to {out_dir}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    parser = _Parser(
        prog="steercoh",
        description="Coherence, disturbance and steered-coherence numerics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, format_default="json"):
        p.add_argument("--kind", default="r", choices=["r", "l1", "t"],
                       help="distance kind (default r)")
        p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
        p.add_argument("--budget", type=int, default=None,
                       help="optimizer evaluation cap per search")
        p.add_argument("--out", default=None, help="output file path")
        p.add_argument("--format", default=format_default, choices=["json", "csv"])
        p.add_argument("--force", action="store_true",
                       help="overwrite existing output files")

    pc = sub.add_parser("compute", help="evaluate quantities of one state")
    pc.add_argument("quantities", nargs="*", metavar="QUANTITY",
                    help=f"any of {', '.join(QUANTITIES)}")
    pc.add_argument("--quantity", default=None,
                    help="comma-separated quantity list (alternative spelling)")
    pc.add_argument("--state", default=None, help="state JSON file")
    pc.add_argument("--recipe", default=None, help="state recipe JSON string")
    add_common(pc)
    pc.set_defaults(func=cmd_compute)

    pv = sub.add_parser("verify", help="run a verification ensemble")
    pv.add_argument("name", choices=list(SUITES), metavar="SUITE",
                    help=f"one of {', '.join(SUITES)}")
    pv.add_argument("--n", type=int, default=100, help="ensemble size (default 100)")
    pv.add_argument("--suite", default=None,
                    help="named variant (cor1 only: rhoX)")
    add_common(pv)
    pv.set_defaults(func=cmd_verify)

    ps = sub.add_parser("sweep", help="tabulate a one-parameter family")
    ps.add_argument("--recipe", default=None,
                    help="recipe JSON with one list-valued grid parameter")
    add_common(ps, format_default="csv")
    ps.set_defaults(func=cmd_sweep)

    pm = sub.add_parser("sample", help="write a corpus of random states")
    pm.add_argument("--recipe", default=None,
                    help="recipe JSON (kinds random_hs / random_pure)")
    pm.add_argument("--n", type=int, default=0, help="number of states")
    pm.add_argument("--seed", type=int, default=None,
                    help="RNG seed (defaults to the recipe's seed)")
    pm.add_argument("--out", default=None, help="output directory")
    pm.add_argument("--force", action="store_true")
    pm.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InvalidStateError as exc:
        print(f"error: invalid state: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
