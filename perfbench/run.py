"""jsalearn benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

Run from the root of a jsalearn checkout; the package is imported from its
src/ directory. Workloads: train-linear, train-categorical, eval-nll, oracle
(see workloads.py and RATIONALE.md).

--trace 0 measures the end-to-end metrics with no instrumentation. --trace 1
measures the same operations once untraced and once with every jsalearn
module wrapped (tracer.py), and reports the per-layer metrics (layers.py)
plus the tracing overhead, the difference between the two passes.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The lines before it give each metric with
its unit and sample count, the error rate and the machine; the same record,
with the spans of a traced run, is written under .perfbench_out/.

--self-check runs every workload briefly with tracing and fails unless each
per-layer metric is non-zero on every workload that claims to exercise it,
no wrapped name is absent, and the metric names match BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
BLAS_THREADS = 1  # one thread matches the baselines quoted in ROADMAP.md
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "items_per_s": "1/s", "op_ms_p50": "ms",
                    "peak_rss_mb": "MB"}


def _pin_threads():
    n = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS"):
        os.environ[var] = n
    return int(n)


def environment(seed, threads):
    import platform

    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": threads, "seed": seed}


def _percentile(xs, q):
    import numpy as np
    return float(np.percentile(xs, q)) if xs else 0.0


def _peak_rss_mb():
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Pass:
    """Totals of one pass over the measured operations."""

    def __init__(self):
        self.spans = []
        self.items = 0
        self.attempted = 0
        self.failed = 0
        self.ops = 0

    def add(self, op):
        self.spans.extend(op.latencies)
        self.items += op.items
        self.attempted += op.attempted
        self.failed += op.failed
        self.ops += 1

    def latencies(self):
        return [end - start for start, end in self.spans]


def _timed_setup(wl, setups):
    t = wl.speed.clock()
    wl.setup()
    setups.append((t, wl.speed.clock()))


def run_pass(wl, setups, seconds=None, n_ops=None):
    """Runs operations in a closed loop, for `seconds` (at least one
    operation) or exactly `n_ops` of them."""
    p = Pass()
    start = time.perf_counter()
    j = 0
    while (j < n_ops) if n_ops is not None else (
            j == 0 or time.perf_counter() - start < seconds):
        if wl.fresh_setup and j > 0:
            _timed_setup(wl, setups)
        p.add(wl.op(j))
        j += 1
    return p


def measure(name, seed, seconds, trace, workdir):
    """Runs one workload; returns the result record."""
    import probe
    import workloads

    wl = workloads.make(name, seed, workdir)
    wl.prepare()
    setups = []
    # The speed probe runs only in untraced runs: its interruptions would
    # land inside whatever span is open. A traced run splits its time
    # between an untraced and a traced pass over the same operations, so it
    # costs about as much as an untraced one.
    wl.speed = probe.SpeedTrace()
    with contextlib.nullcontext() if trace else wl.speed:
        for _ in range(SETUP_REPEATS):
            _timed_setup(wl, setups)
        untraced = run_pass(wl, setups,
                            seconds=seconds / 2 if trace else seconds)
    record = {"workload": name, "seconds": seconds, "trace": trace}

    if trace:
        import layers
        from tracer import Instrumented, Tracer

        tracer = Tracer()
        with Instrumented(tracer) as inst:
            wl.tracer = tracer
            wl.prepare()
            _timed_setup(wl, [])
            traced = run_pass(wl, [], n_ops=untraced.ops)
            wl.tracer = None
        base = sum(untraced.latencies())
        overhead = sum(traced.latencies()) - base
        spans = tracer.spans()
        metrics = layers.compute(spans, wl.extras(), overhead, base)
        record["absent"] = inst.absent
        record["coverage_gaps"] = layers.coverage_gaps(name, metrics)
        record["traced_ops"] = traced.ops
        units = layers.UNITS
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{name}-s{seed}.npz"))
        attempted = untraced.attempted + traced.attempted
        failed = untraced.failed + traced.failed
    else:
        raw = _end_to_end(untraced.latencies(), untraced.items,
                          [e - s for s, e in setups])
        f = wl.speed.factor()
        metrics = dict(raw)
        for k in ("setup_s", "op_ms_p50", "op_ms_p90"):
            metrics[k] *= f
        metrics["items_per_s"] /= f
        # p90 is printed but not bounded: eval-nll and oracle runs hold too
        # few operations for ten samples beyond it.
        record["op_ms_p90"] = metrics.pop("op_ms_p90")
        record["raw_wall_clock"] = raw
        record["speed"] = {"factor": f, "probes": len(wl.speed.probes),
                           "probe_ms_mean": 1e3 * probe.REFERENCE_S / f}
        record["samples"] = {"setup_s": len(setups),
                             "op_ms": len(untraced.spans), "ops": untraced.ops}
        units = END_TO_END_UNITS
        attempted, failed = untraced.attempted, untraced.failed

    problems = wl.verify()
    if problems:
        failed = attempted
    record.update(problems=problems, quality=wl.quality(),
                  attempted=attempted, failed=failed,
                  error_rate=failed / attempted if attempted else 1.0)
    record["metrics"] = {k: {"value": v, "unit": units[k]}
                         for k, v in metrics.items()}
    return record


def _end_to_end(latencies, items, setups):
    """Unscaled end-to-end figures; 0 where every operation failed."""
    lat_ms = [x * 1e3 for x in latencies]
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": items / sum(latencies) if latencies else 0.0,
        "op_ms_p50": _percentile(lat_ms, 50),
        "op_ms_p90": _percentile(lat_ms, 90),
        "peak_rss_mb": _peak_rss_mb(),
    }


def report(record, env):
    samples = record.get("samples", {})
    counts = {"setup_s": samples.get("setup_s"),
              "op_ms_p50": samples.get("op_ms")}
    for k, m in record["metrics"].items():
        n = counts.get(k)
        extra = f"  (n={n})" if n is not None else ""
        print(f"{record['workload']}  {k} = {m['value']:.6g} {m['unit']}{extra}")
    if "op_ms_p90" in record:
        print(f"{record['workload']}  op_ms_p90 = {record['op_ms_p90']:.6g} ms"
              f"  (n={samples['op_ms']}; reported, not bounded)")
    print(f"{record['workload']}  error_rate = {record['error_rate']:.6g} "
          f"({record['failed']} failed of {record['attempted']})")
    for p in record["problems"]:
        print(f"{record['workload']}  check failed: {p}")
    for key in ("absent", "coverage_gaps"):
        if record.get(key):
            print(f"{record['workload']}  {key}: {', '.join(record[key])}")
    print("quality: " + json.dumps(record["quality"], sort_keys=True))
    print("env: " + json.dumps(env, sort_keys=True))


def self_check(seconds):
    """Traced run of every workload; see the module docstring."""
    import layers
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    ok = True
    want = [m["name"] for m in declared["per_layer"]]
    have = [name for name, _, _, _ in layers.PER_LAYER]
    if want != have:
        print("per_layer metrics differ from BENCHMARK.json")
        ok = False
    if [m["name"] for m in declared["end_to_end"]] != list(END_TO_END_UNITS):
        print("end_to_end metrics differ from BENCHMARK.json")
        ok = False
    if [w["name"] for w in declared["workloads"]] != list(workloads.NAMES):
        print("workloads differ from BENCHMARK.json")
        ok = False
    workdir = _workdir()
    for name in workloads.NAMES:
        rec = measure(name, 0, seconds, True, workdir)
        bad = rec["absent"] + rec["coverage_gaps"] + rec["problems"]
        v = {k: m["value"] for k, m in rec["metrics"].items()}
        # Direct children plus self time must make up each update.
        phases = sum(v[f"jsa.phase.{p}_ms"] for p in
                     ("propose", "score", "accept", "gradient", "cache",
                      "other")) * v["jsa.update.calls"] / 1e3
        if abs(phases - v["jsa.update.s"]) > 1e-6 * max(v["jsa.update.s"], 1):
            bad.append("update phases do not add up to jsa.update.s")
        print(f"{name}: {'ok' if not bad else 'FAILED: ' + ', '.join(bad)}")
        ok &= not bad
    return 0 if ok else 1


def _workdir():
    path = os.path.join(OUT, "work")
    os.makedirs(path, exist_ok=True)
    return path


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "jsalearn")):
        print(f"no jsalearn sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    threads = _pin_threads()
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p])

    if args.self_check:
        return self_check(min(args.seconds, 2.0))
    import workloads
    if args.workload not in workloads.NAMES:
        ap.error(f"--workload must be one of {', '.join(workloads.NAMES)}")

    env = environment(args.seed, threads)
    record = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     _workdir())
    record["env"] = env
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(
            OUT, f"{args.workload}-s{args.seed}-t{args.trace}.json"), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    report(record, env)
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
