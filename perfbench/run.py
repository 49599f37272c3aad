"""Benchmark of the bison pipeline, one closed-loop workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: train-blocks, eval-bilevel, hl-scale, plan-replan (see
perfbench/README.md).  The run sets up the workload five times, each time
with a fresh interpreter's import of the program, then repeats its cycle
until S seconds have passed.  It prints a stamp line (commit,
Python, numpy, BLAS threads, CPU, load) and, as the last line, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are BENCHMARK.json's end-to-end metrics, measured without tracing.
With --trace 1 every cycle is paired with a traced replay of the same inputs,
and the metrics are the per-layer ones, with the tracing overhead; the spans
are written to .perfbench_out/.  Exit status: 0 ok, 1 an output check
failed, 2 the program, its fixtures or BENCHMARK.json cannot be loaded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time as clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUPS = 5
# per-layer figures computed from the untraced cycles of a traced run
UNTRACED_KEYS = ("loop.decision_us_p95", "trace.overhead_s", "trace.overhead_pct")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="train-blocks, eval-bilevel, hl-scale or plan-replan")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def import_s():
    """CPU seconds a fresh interpreter takes to start and import the workloads,
    which import numpy and the program, scaled by its own pace factor.

    The child measures the reference computation itself: the speed of the core
    can differ from one process to the next.
    """
    code = ("import sys, time; sys.path[:0] = %r; import workloads as w; "
            "t = time.process_time(); w.reference_s(); "
            "print(t, sorted(w.reference_s() for _ in range(5))[2])"
            % [str(HERE), str(ROOT / "src")])
    out = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                         capture_output=True, text=True).stdout
    import workloads
    cpu_s, ref_s = map(float, out.split())
    return cpu_s * workloads.REF_NOMINAL_S / ref_s


def run_cycle(wl, k, traced=False):
    """One cycle; an exception fails the cycle instead of ending the run."""
    from workloads import Cycle
    wl.traced = traced
    try:
        return wl.cycle(k)
    except Exception:  # the run reports the failure and goes on measuring
        return Cycle(raised="cycle %d raised:\n%s" % (k, traceback.format_exc()))


def weighted_percentile(weighted, q):
    """q-th percentile of (value, weight) pairs."""
    pooled = sorted(weighted)
    target, acc = q / 100 * sum(w for _, w in pooled), 0.0
    for v, w in pooled:
        acc += w
        if acc >= target * (1 - 1e-9):
            return v
    return pooled[-1][0] if pooled else 0.0


def op_groups(cycles) -> list:
    """The cycles' operations, one list per group."""
    groups = {}
    for c in cycles:
        for op in c.ops:
            groups.setdefault(op.group, []).append(op)
    return list(groups.values())


def deciding_groups(cycles) -> list:
    """Per group, the operations that made decisions; groups without any left out."""
    return [g for g in ([op for op in g if op.decisions] for g in op_groups(cycles)) if g]


def decision_latency_us(cycles, q) -> float:
    """The q-th percentile of the decision latency, averaged over the groups.

    Within a group every operation weighs the same, however many steps it took.
    """
    per_group = [weighted_percentile([(gap, 1.0 / len(op.gaps_ns))
                                      for op in g for gap in op.gaps_ns], q)
                 for g in deciding_groups(cycles)]
    return statistics.fmean(per_group) / 1e3 if per_group else 0.0


def end_to_end(cycles, setup_s):
    """The end-to-end metrics, with every group of operations weighing the same.

    A group holds operations of one shape (one instance size, kind and
    strategy).  Which operations of a group a run draws depends on the seed,
    and their lengths differ: a step-capped episode takes 30 times the steps
    of the others of its size.  So a group's time is taken per step of work,
    as a median over its operations, and scaled to the group's nominal work;
    its latency percentile weighs each operation the same, and the metrics
    average it over the groups.  Both keep the mix a seed happens to draw
    from moving the figures.
    """
    ops = [op for c in cycles for op in c.ops]
    med = statistics.median
    s_per_decision = [med(op.decision_s / op.decisions for op in g)
                      for g in deciding_groups(cycles)]
    tried = sum(op.tried for op in ops)
    return {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": sum(op.reached for op in ops) / tried if tried else 0.0,
        "cycle_s": sum(g[0].nominal * med(op.seconds / op.work for op in g)
                       for g in op_groups(cycles)),
        "decisions_per_s": (len(s_per_decision) / sum(s_per_decision)
                            if s_per_decision else 0.0),
        "decision_us_p50": decision_latency_us(cycles, 50),
    }


def per_layer(tracer, untraced, traced, layer_keys):
    import tracing
    m = dict.fromkeys(layer_keys, 0.0)
    m.update(tracing.layer_metrics(tracer, len(traced)))
    for key in {k for c in untraced for k in c.layer}:
        m[key] = statistics.median(c.layer[key] for c in untraced if key in c.layer)
    m["loop.decision_us_p95"] = decision_latency_us(untraced, 95)
    # the cycles' operation times, scaled by the pace factor, so that a change
    # of the core's speed between the two replays does not count as overhead
    pairs = [(u, t) for u, t in ((sum(op.seconds for op in c.ops) for c in pair)
                                 for pair in zip(untraced, traced)) if u > 0 and t > 0]
    if pairs:
        m["trace.overhead_s"] = statistics.median(t - u for u, t in pairs)
        m["trace.overhead_pct"] = statistics.median((t - u) / u * 100 for u, t in pairs)
    return m


def main(argv=None):
    args = parse_args(argv)
    load1 = os.getloadavg()[0]
    # one BLAS thread: the matrices are small, and a fixed count keeps runs
    # comparable on a shared machine
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import bison
        import numpy
        import tracing
        import workloads
    except ImportError as e:
        print("perfbench: cannot import the program: %s" % e, file=sys.stderr)
        return 2
    if not Path(bison.__file__).resolve().is_relative_to(ROOT / "src"):
        print("perfbench: bison was imported from %s, not from this checkout's src/"
              % bison.__file__, file=sys.stderr)
        return 2
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        print("perfbench: cannot read BENCHMARK.json: %s" % e, file=sys.stderr)
        return 2
    declared = bench["per_layer" if args.trace else "end_to_end"]

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r" % args.workload, file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    # a set-up: a fresh import, then fixtures and instances
    setups = []
    for _ in range(SETUPS):
        imported_s = import_s()
        wl.pace.factor()  # a reference run just before the set-up
        t = clock()
        try:
            wl.setup(args.seed)
        except workloads.FixtureError as e:
            print("perfbench: %s" % e, file=sys.stderr)
            return 2
        setups.append(imported_s + (clock() - t) * wl.pace.factor())

    tracer = tracing.Tracer() if args.trace else None
    untraced, traced = [], []
    start, cpu_start, k = perf_counter(), clock(), 0
    while k == 0 or perf_counter() - start < args.seconds:
        if tracer is None or k % 2 == 0:
            untraced.append(run_cycle(wl, k))
        if tracer is not None:
            with tracer.installed():
                traced.append(run_cycle(wl, k, traced=True))
            if k % 2 == 1:  # alternate which replay runs first
                untraced.append(run_cycle(wl, k))
        k += 1
    wall_s, cpu_s = perf_counter() - start, clock() - cpu_start

    if tracer is None:
        metrics = end_to_end(untraced, statistics.median(setups))
    else:
        metrics = per_layer(tracer, untraced, traced,
                            workloads.LAYER_KEYS + UNTRACED_KEYS)
        OUT.mkdir(exist_ok=True)
        tracer.dump(OUT / ("%s-seed%d.spans.jsonl" % (args.workload, args.seed)))
    names = [d["name"] for d in declared]
    if set(names) != set(metrics):
        raise RuntimeError("metrics %s differ from BENCHMARK.json's %s"
                           % (sorted(metrics), sorted(names)))

    cycles = untraced + traced
    errors = [c.raised for c in cycles if c.raised] \
        + [op.error for c in cycles for op in c.ops if op.error]
    for e in errors[:20]:
        print("perfbench: check failed: %s" % e, file=sys.stderr)
    print(json.dumps({"stamp": {
        "commit": git_commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(), "cpu": cpu_model(), "load1_at_start": load1,
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cycles": len(untraced),
        "measured_wall_s": wall_s, "measured_cpu_s": cpu_s,
        "ops_cpu_s": sum(op.cpu_s for c in cycles for op in c.ops),
        "ref_s_median": statistics.median(wl.pace.times), "ref_calls": len(wl.pace.times)}}))
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(len(c.ops) or 1 for c in cycles),
        "failed": len(errors),
        "metrics": {d["name"]: {"value": metrics[d["name"]], "unit": d["unit"]}
                    for d in declared},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
