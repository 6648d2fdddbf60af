"""steercoh benchmark: checked verification instances in a closed loop.

One caller runs one instance at a time; each starts when the previous one
returns. Inputs come from the seed (see workloads.py). The amount of work is
a whole number of workload cycles sized so a run takes about ``--seconds``
on the reference machine, so every count repeats exactly for a fixed seed.

    python3 perfbench/run.py --workload generic-2q --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics of an untraced pass.
``--trace 1`` repeats the untraced pass, then traces the first half of the
cycles and reports the per-layer metrics, with the tracing overhead. The
last line of standard output is one JSON object; everything above it is a
human-readable report.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

# Pin BLAS/OpenMP to one thread before numpy is imported, so the numbers
# measure the numerics and not the scheduler.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 3
# Fixed scale of the speed correction: a typical SpeedProbe tick time on the
# reference machine.
REF_TICK_S = 3.0e-4
PROBE_INTERVAL_S = 0.05
PROBE_WINDOW_S = 0.25
# A pass stops after LOOP_CAP times its planned length (on a host more than
# that much slower than the reference, or after a severe regression), and in
# any case early enough to exit within 180 s.
LOOP_CAP = 2.5
UNTRACED_DEADLINE_S = 100.0
TRACED_DEADLINE_S = 150.0
PROBE_TIMEOUT_S = 20.0

END_TO_END = {
    "instances_per_s": "1/s",
    "instance_p50_ms": "ms",
    "instance_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

OBJECTIVES = ("bloch", "general", "eigenbasis")
SEARCH_FIELDS = {
    "alice": ("runs", "evals", "evals_per_run", "converged_share", "self_s"),
    "refine": ("runs", "evals", "converged_share"),
    "eigenbasis": ("runs", "evals", "converged_share", "self_s"),
}
LAYER_FIELDS = {
    "qkernel.density_matrix": ("calls", "self_s"),
    "qkernel.dephase": ("calls", "self_s", "us_per_call"),
    "qkernel.steer": ("calls", "self_s"),
    "qkernel.partial_trace": ("self_s",),
    "qkernel.entropy": ("self_s",),
    "measures.coherence": ("calls", "self_s"),
    "correlations.sic": ("calls", "self_s", "p50_ms"),
    "correlations.b_side_mid": ("calls", "self_s", "p50_ms"),
    "correlations.mid": ("calls", "self_s", "p50_ms"),
    "twoqubit.sic_l1_closed": ("calls", "self_s"),
    "protocols.verify_theorem2": ("self_s",),
}
UNITS = {
    "calls": "count", "runs": "count", "evals": "count", "evals_per_run": "count",
    "self_s": "s", "p50_ms": "ms", "us_per_call": "us", "us_per_eval": "us",
    "converged_share": "share",
}
RUN_METRICS = {
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead": "share",
    "trace.instances": "count",
    "verify.failed_share": "share",
    "verify.unconverged_share": "share",
    "verify.ref_miss_share": "share",
}


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for layer, fields in LAYER_FIELDS.items():
        for f in fields:
            units[f"{layer}.{f}"] = UNITS[f]
    for obj in OBJECTIVES:
        for f in ("evals", "self_s", "us_per_eval"):
            units[f"correlations.objective.{obj}.{f}"] = UNITS[f]
    for cls, fields in SEARCH_FIELDS.items():
        for f in fields:
            units[f"correlations.search.{cls}.{f}"] = UNITS[f]
    units.update(RUN_METRICS)
    return units


# ---------------------------------------------------------------------------
# running


class SpeedProbe:
    """Samples the host's speed with fixed work that does not touch steercoh.

    The shared host this benchmark was defined on runs identical code up to
    1.8 times slower for seconds to minutes at a time; wall and CPU time
    slow alike. While sampling, a timer signal runs a short fixed tick every
    PROBE_INTERVAL_S. An instance's latency is its wall time minus the ticks
    inside it, times REF_TICK_S over the median tick around it: the time it
    would take at the reference speed.
    """

    def __init__(self, np):
        self._np = np
        self._a = np.random.default_rng(0).normal(size=(6, 6))
        self.stamps: list[float] = []  # end time of each tick
        self.ticks: list[float] = []  # duration of each tick
        self.spent = 0.0  # total time inside ticks

    def tick(self, *_signal) -> None:
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(300):
            acc += i * 0.5
        for _ in range(10):
            self._np.linalg.eigh(self._a @ self._a.T)
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.ticks.append(t1 - t0)
        self.spent += t1 - t0

    @contextlib.contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self, t0: float, t1: float) -> float:
        """Speed correction for work done between t0 and t1."""
        lo = bisect.bisect_left(self.stamps, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.stamps, t1 + PROBE_WINDOW_S)
        return REF_TICK_S / statistics.median(self.ticks[lo:hi] or self.ticks[-5:])

    def corrected(self, records) -> list:
        """Speed-corrected latencies of run_pass records."""
        return [(t1 - t0 - ticks) * self.factor(t0, t1) for t0, t1, ticks in records]


def run_pass(workloads, instances, deadline, probe, sampled=True):
    """Run instances in order until done or past the deadline.

    Returns (records, outcomes). A record is (start, end, tick time inside);
    an instance that raised counts as a failed outcome. With ``sampled``
    the probe ticks on a timer; otherwise it ticks only between instances,
    outside any span a tracer records.
    """
    records, outcomes = [], []
    with probe.sampling() if sampled else contextlib.nullcontext():
        for inst in instances:
            if time.perf_counter() > deadline:
                break
            if not sampled:
                probe.tick()
            spent = probe.spent
            t0 = time.perf_counter()
            try:
                out = workloads.run_instance(inst)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                out = workloads.Outcome(False, False, None, "raised")
            t1 = time.perf_counter()
            records.append((t0, t1, probe.spent - spent))
            outcomes.append(out)
        if not sampled:
            probe.tick()
    return records, outcomes


def shares(workloads, outcomes) -> dict:
    n = max(1, len(outcomes))
    refs = [o.ref_dev for o in outcomes if o.ref_dev is not None]
    return {
        "verify.failed_share": sum(not o.passed for o in outcomes) / n,
        "verify.unconverged_share": sum(not o.converged for o in outcomes) / n,
        "verify.ref_miss_share": (sum(d > workloads.REF_MISS_TOL for d in refs) / len(refs)
                                  if refs else 0.0),
    }


def setup_samples(args, first: float) -> list:
    """Set-up time of this process plus fresh-interpreter repeats."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-probe"]
    for _ in range(SETUP_SAMPLES - 1):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=PROBE_TIMEOUT_S, check=True)
            samples.append(float(proc.stdout.strip().splitlines()[-1]))
        except (subprocess.SubprocessError, ValueError, IndexError) as exc:
            print(f"warning: set-up probe failed: {exc}", file=sys.stderr)
    return samples


def layer_metrics(tracer, traced_wall: float) -> dict:
    layers = tracer.layers()
    empty = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "p50_ms": 0.0}
    out = {}
    for layer, fields in LAYER_FIELDS.items():
        rec = layers.get(layer, empty)
        for f in fields:
            if f == "us_per_call":
                out[f"{layer}.{f}"] = rec["total_s"] / rec["calls"] * 1e6 if rec["calls"] else 0.0
            else:
                out[f"{layer}.{f}"] = rec[f]
    for obj in OBJECTIVES:
        rec = layers.get(f"correlations.objective.{obj}", empty)
        out[f"correlations.objective.{obj}.evals"] = rec["calls"]
        out[f"correlations.objective.{obj}.self_s"] = rec["self_s"]
        out[f"correlations.objective.{obj}.us_per_eval"] = (
            rec["total_s"] / rec["calls"] * 1e6 if rec["calls"] else 0.0)
    for cls, fields in SEARCH_FIELDS.items():
        runs, evals, converged = tracer.searches.get(cls, (0, 0, 0))
        values = {
            "runs": runs,
            "evals": evals,
            "evals_per_run": evals / runs if runs else 0.0,
            "converged_share": converged / runs if runs else 0.0,
            "self_s": layers.get(f"correlations.search.{cls}", empty)["self_s"],
        }
        for f in fields:
            out[f"correlations.search.{cls}.{f}"] = values[f]
    out["trace.wall_s"] = traced_wall
    out["trace.unattributed_s"] = traced_wall - tracer.covered_s()
    return out


# ---------------------------------------------------------------------------
# reporting


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def print_environment(np, scipy) -> None:
    pins = " ".join(f"{v}={os.environ[v]}" for v in BLAS_VARS)
    print(f"env git_sha={git_sha()} python={platform.python_version()} "
          f"numpy={np.__version__} scipy={scipy.__version__} "
          f"cpu_count={os.cpu_count()} blas_pin='{pins}'")


def print_metrics(metrics: dict, units: dict, notes: dict | None = None) -> None:
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if notes and name in notes else ""
        print(f"metric {name} = {value:.6g} {units[name]}{note}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the set-up time and exit (used internally)")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "steercoh" / "__init__.py").is_file():
        print(f"error: steercoh sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import steercoh
    if not Path(steercoh.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported steercoh from {steercoh.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    cycles = workloads.cycles_for(wl, args.seconds)
    warmup, instances = workloads.make_inputs(wl, args.seed, cycles)
    warm_ok = workloads.run_instance(warmup).passed
    setup_raw = time.perf_counter() - T_START
    probe = SpeedProbe(np)
    for _ in range(5):
        probe.tick()
    setup_first = setup_raw * REF_TICK_S / statistics.median(probe.ticks)
    if args.setup_probe:
        print(repr(setup_first))
        return 0

    print(f"workload {wl.name} seed={args.seed} cycles={cycles} instances={len(instances)} "
          f"cycle=({', '.join(wl.cycle)})")
    print(f"input_sha256 {workloads.input_digest(wl, [warmup] + instances)}")
    print_environment(np, scipy)

    t0 = time.perf_counter()
    planned = cycles * wl.cycle_seconds
    deadline = min(t0 + LOOP_CAP * planned, T_START + UNTRACED_DEADLINE_S)
    records, outcomes = run_pass(workloads, instances, deadline, probe)
    latencies = probe.corrected(records)
    wall = time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failed = sum(not o.passed for o in outcomes)
    for inst, out in zip(instances, outcomes):
        if not out.passed:
            print(f"FAILED {inst.kind} seed={inst.seed} {out.detail}", file=sys.stderr)
    if len(outcomes) < len(instances):
        print(f"warning: pass stopped after {len(outcomes)} of {len(instances)} instances",
              file=sys.stderr)
    correct = warm_ok and failed == 0 and len(outcomes) > 0
    run_shares = shares(workloads, outcomes)

    if not args.trace:
        samples = setup_samples(args, setup_first)
        lat_ms = [1e3 * x for x in latencies]
        p50, p90 = np.percentile(lat_ms, [50, 90])
        busy = sum(latencies)
        metrics = {
            "instances_per_s": len(latencies) / busy,
            "instance_p50_ms": float(p50),
            "instance_p90_ms": float(p90),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(samples),
        }
        n = len(lat_ms)
        print_metrics(metrics, END_TO_END, {
            "instances_per_s": f"{n} instances in {busy:.3f} s speed-corrected, "
                               f"{wall:.3f} s as measured, median tick "
                               f"{1e6 * statistics.median(probe.ticks):.1f} us",
            "instance_p50_ms": f"n={n}, {sum(x > p50 for x in lat_ms)} beyond",
            "instance_p90_ms": f"n={n}, {sum(x > p90 for x in lat_ms)} beyond",
            "setup_s": f"median of {len(samples)}: "
                       + ", ".join(f"{s:.3f}" for s in samples),
        })
        for kind in dict.fromkeys(wl.cycle):
            ks = [x for inst, x in zip(instances, lat_ms) if inst.kind == kind]
            if ks:
                print(f"kind {kind} n={len(ks)} p50_ms={np.median(ks):.3f} "
                      f"min_ms={min(ks):.3f} max_ms={max(ks):.3f}")
        print_metrics(run_shares, RUN_METRICS, {
            "verify.ref_miss_share": f"tolerance {workloads.REF_MISS_TOL:g}"})
    else:
        from tracer import Tracer

        # the first half of the cycles, so a traced run costs about as
        # much as an untraced one
        subset = instances[:max(1, cycles // 2) * len(wl.cycle)]
        tracer = Tracer()
        deadline = min(time.perf_counter() + LOOP_CAP * planned,
                       T_START + TRACED_DEADLINE_S)
        with tracer.installed():
            traced_records, traced_out = run_pass(workloads, subset, deadline, probe,
                                                  sampled=False)
        done = len(traced_records)
        if [o.detail for o in traced_out] != [o.detail for o in outcomes[:done]]:
            print("error: traced results differ from untraced ones", file=sys.stderr)
            correct = False
        metrics = layer_metrics(tracer, sum(t1 - t0 for t0, t1, _ in traced_records))
        metrics["trace.overhead"] = (sum(probe.corrected(traced_records))
                                     / sum(latencies[:done]) - 1.0)
        metrics["trace.instances"] = done
        metrics.update(run_shares)
        units = per_layer_units()
        metrics = {name: metrics[name] for name in units}
        for name, rec in tracer.layers().items():
            print(f"layer {name} calls={rec['calls']} self_s={rec['self_s']:.6f} "
                  f"total_s={rec['total_s']:.6f}")
        print_metrics(metrics, units)
        OUT.mkdir(exist_ok=True)
        spans = OUT / f"spans-{wl.name}-seed{args.seed}.npz"
        tracer.save(spans)
        print(f"spans {len(tracer.t0)} written to {spans.relative_to(ROOT)}")
    units_out = END_TO_END if not args.trace else per_layer_units()

    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(outcomes),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units_out[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
