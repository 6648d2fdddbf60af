"""Tests of the benchmark itself.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from scipy.optimize import minimize  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from steercoh import correlations, qkernel, sic, werner_state  # noqa: E402
from tracer import Tracer  # noqa: E402


def _traced(instances):
    tracer = Tracer()
    with tracer.installed():
        records, outcomes = run.run_pass(workloads, instances, float("inf"),
                                         run.SpeedProbe(np), sampled=False)
    return tracer, sum(t1 - t0 for t0, t1, _ in records), outcomes


def _generic_cycle(seed):
    wl = workloads.WORKLOADS["generic-2q"]
    return workloads.make_inputs(wl, seed, 1)[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_digest(name):
    wl = workloads.WORKLOADS[name]
    first = workloads.make_inputs(wl, 7, 2)
    second = workloads.make_inputs(wl, 7, 2)
    assert (workloads.input_digest(wl, [first[0]] + first[1])
            == workloads.input_digest(wl, [second[0]] + second[1]))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_different_seed_different_digest(name):
    wl = workloads.WORKLOADS[name]
    assert (workloads.input_digest(wl, workloads.make_inputs(wl, 7, 1)[1])
            != workloads.input_digest(wl, workloads.make_inputs(wl, 8, 1)[1]))


def test_same_seed_identical_counts():
    first, _, out_a = _traced(_generic_cycle(3))
    second, _, out_b = _traced(_generic_cycle(3))
    calls = {name: rec["calls"] for name, rec in first.layers().items()}
    assert calls == {name: rec["calls"] for name, rec in second.layers().items()}
    assert calls["correlations.objective.bloch"] > 0
    assert dict(first.searches) == dict(second.searches)
    assert [o.detail for o in out_a] == [o.detail for o in out_b]
    assert all(o.passed for o in out_a)


@pytest.mark.parametrize("p", [0.3, 0.6, 0.9])
def test_werner_reference_matches_sic(p):
    np.testing.assert_allclose(workloads.werner(p), werner_state(p).data, atol=1e-15)
    value = sic(werner_state(p), "r", workloads.BUDGET_PROPS, seed=0).value
    assert abs(value - workloads.werner_sic_r(p)) <= 1e-6


def test_self_times_and_unattributed_sum_to_traced_wall():
    tracer, wall, _ = _traced(_generic_cycle(4))
    metrics = run.layer_metrics(tracer, wall)
    total_self = sum(rec["self_s"] for rec in tracer.layers().values())
    assert total_self + metrics["trace.unattributed_s"] == pytest.approx(wall, rel=1e-9)
    assert 0.0 <= metrics["trace.unattributed_s"] < 0.05 * wall


def test_tracer_restores_library_bindings():
    post_init = qkernel.DensityMatrix.__post_init__
    _traced(_generic_cycle(5)[:1])
    assert correlations.minimize is minimize
    assert qkernel.DensityMatrix.__post_init__ is post_init
    assert correlations.sic.__module__ == "steercoh.correlations"
    assert not hasattr(correlations.sic, "__wrapped__")


def test_search_classes_follow_the_objective_handed_to_minimize():
    wl = workloads.WORKLOADS["degenerate-b"]
    cycle = workloads.make_inputs(wl, 6, 1)[1]
    picked = [next(i for i in cycle if i.kind == k) for k in ("werner", "mid_t_bell_diag")]
    tracer, _, outcomes = _traced(picked)
    assert all(o.passed for o in outcomes)
    runs = {cls: counts[0] for cls, counts in tracer.searches.items()}
    assert runs["alice"] > 0 and runs["refine"] > 0 and runs["eigenbasis"] > 0
    assert runs.get("other", 0) == 0
    layers = tracer.layers()
    assert layers["correlations.objective.eigenbasis"]["calls"] > 0
    assert layers["correlations.mid"]["calls"] == 1


def test_benchmark_json_lists_what_the_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "generic-2q", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
