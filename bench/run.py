"""Closed-loop benchmark of the matmom library.

One client runs one workload's ops back to back, each op starting when
the previous one has returned, against the library in ``src/`` of the
checkout this file sits in.  Run from the checkout root:

    python3 bench/run.py --workload solve-ladder --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

A run sets up the workload several times, makes one untimed census pass
over every op, the known failures included, then times passes over
realisations 1 to 8 of the ops that do not fail today, in a seeded order,
until the ops have used ``--seconds`` seconds.  Outputs are checked
between ops, outside the timed region.  Times are rescaled to
a reference machine speed (speed.py).  The last line of stdout is one
JSON object: end-to-end metrics with ``--trace 0``, per-layer metrics from
in-memory spans with ``--trace 1``.  See bench/README.md.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy loads: default threading added outliers
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 9
MIN_TIMED_OPS = 100   # so that latency_p90_ms has ten ops beyond it
TIMED_REALISATIONS = 8
REFERENCE_EVERY_NS = 20_000_000   # op time between two timings of the speed reference
WORKLOAD_NAMES = ("solve-ladder", "transform-sweep", "gap-search")


def load_library():
    """Import matmom from this checkout's src/, never from anywhere else."""
    if not (SRC / "matmom" / "__init__.py").is_file():
        sys.exit(f"error: no matmom package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import matmom
    if Path(matmom.__file__).resolve().parent != (SRC / "matmom").resolve():
        sys.exit(f"error: imported matmom from {matmom.__file__}, not from {SRC}")


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count()}


class Record:
    __slots__ = ("label", "rep", "golden", "ns", "failure", "reason", "traced", "info",
                 "ref", "scaled_ns")

    def __init__(self, op, rep, ns, failure, reason, traced, info):
        import workloads as wl
        self.label = wl.op_label(op.desc)
        self.rep, self.golden = rep, op.desc["key"] == "golden"
        self.ns, self.failure, self.reason = ns, failure, reason
        self.traced, self.info = traced, info
        self.ref, self.scaled_ns = None, None   # set for timed ops


def execute(op, rep: int, tr, op_id) -> Record:
    """Run one op (timed), then check its output and, when traced, its stages."""
    import workloads as wl
    out: dict = {}
    tr.op_id = op_id
    error = None
    start = perf_counter_ns()
    try:
        tr.call("op", op.run, tr, out)
    except wl.LIBRARY_ERRORS as exc:
        error = exc
    ns = perf_counter_ns() - start
    if error is not None:
        failure = wl.failure_of_exception(tr.last, error)
        reason = f"{type(error).__name__} in {tr.last}: {error}"
    else:
        failure = op.check(out)
        reason = failure
    if tr.enabled and hasattr(op, "moments"):
        if "state" in out:
            wl.check_stage_sequence(op.moments(), out["state"])
        elif error is not None and tr.last in wl.ANALYSIS_STAGES:
            wl.check_stage_sequence(op.moments(), None)
    info = {key: out[key] for key in ("points", "grid_points", "coeff", "status") if key in out}
    return Record(op, rep, ns, failure, reason, tr.enabled, info)


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(records, setup_times, scaled=True) -> dict:
    """The end-to-end metrics; scaled=False gives the raw wall-clock figures."""
    lat_ms = [(r.scaled_ns if scaled else r.ns) / 1e6 for r in records]
    return {
        "latency_p50_ms": percentile(lat_ms, 50),
        "latency_p90_ms": percentile(lat_ms, 90),
        "throughput_ops_s": len(records) / (sum(lat_ms) / 1e3),
        "setup_s": statistics.median(t[1 if scaled else 0] for t in setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(census, records, tr, names) -> dict:
    """Times: self time per traced op over the timed phase.  Counts: the census pass."""
    import workloads as wl
    traced = [r for r in records if r.traced]
    metrics = dict.fromkeys(names, 0.0)
    self_ns = tr.self_times({i: r.scaled_ns / r.ns for i, r in enumerate(records) if r.traced})
    for span, ns in self_ns.items():
        if span in wl.LAYER_OF:
            metrics[wl.LAYER_OF[span]] += ns / 1e6 / len(traced)
    for r in census:
        if r.failure is not None:
            metrics[r.failure] += 1
        if r.info.get("status") == "found":
            metrics["gap.found"] += 1
        metrics["nevanlinna.evaluate_points"] += r.info.get("points", 0)
        metrics["gap.grid_points"] += r.info.get("grid_points", 0)
    points = sum(r.info.get("points", 0) for r in traced)
    grid = sum(r.info.get("grid_points", 0) for r in traced)
    if points:
        metrics["nevanlinna.evaluate_ns_per_point"] = \
            self_ns.get("nevanlinna.evaluate_transform", 0) / points
    if grid:
        metrics["gap.us_per_grid_point"] = self_ns.get("gap.analyze_gap", 0) / 1e3 / grid
    coeffs = [r.info["coeff"] for r in census if "coeff" in r.info]
    if coeffs:
        metrics["matpoly.coeff_bytes"] = statistics.mean(c["coeff_bytes"] for c in coeffs)
        metrics["matpoly.max_degree"] = max(c["max_degree"] for c in coeffs)
    evals = [r.info["coeff"] for r in census if "points" in r.info]
    if evals:
        metrics["matpoly.bytes_per_point"] = statistics.mean(c["bytes_per_point"] for c in evals)
    # records come in pairs, the same op traced and untraced back to back
    paired = [(a, b) if a.traced else (b, a) for a, b in zip(records[::2], records[1::2])]
    metrics["trace.overhead_p50_ms"] = statistics.median(
        (t.scaled_ns - u.scaled_ns) / 1e6 for t, u in paired)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    import numpy as np
    import workloads as wl
    from speed import SpeedReference
    from tracer import Tracer

    build = wl.WORKLOADS[name]
    speed = SpeedReference()
    builds: list = []   # (ns, reference index)

    def timed_build(rep):
        start = perf_counter_ns()
        ops = build(seed, rep)
        builds.append((perf_counter_ns() - start, speed.sample()))
        return ops

    # set-up is timed SETUP_REPEATS times up front and once per timed realisation
    for _ in range(SETUP_REPEATS):
        ops = timed_build(0)

    # the census runs every op of realisation 0 once, untimed: it warms up the
    # timed ops and gives the per-layer counts, known failures included
    tr = Tracer()
    census = [execute(op, 0, tr, None) for op in ops]
    failing = [dict(op.desc, failure=r.failure, reason=r.reason, known=r.label in wl.KNOWN_FAILING)
               for op, r in zip(ops, census) if r.failure is not None]

    # timed passes cycle through realisations 1..TIMED_REALISATIONS of every
    # instance, each built on first use, so one run samples several instances and
    # its figures depend little on the seed; passes run whole, so every run
    # measures the workload's exact mix of ops
    order_rng = np.random.default_rng([seed, 1])
    realisations: dict = {}
    records: list = []
    busy_ns, limit_ns, passes = 0, int(seconds * 1e9), 0
    ref, since_ref_ns = speed.sample(), 0
    while busy_ns < limit_ns or len(records) < MIN_TIMED_OPS:
        rep = 1 + passes % TIMED_REALISATIONS
        passes += 1
        if rep not in realisations:
            realisations[rep] = [op for op in timed_build(rep)
                                 if wl.op_label(op.desc) not in wl.KNOWN_FAILING]
        ops = realisations[rep]
        for i in order_rng.permutation(len(ops)):
            # a traced run runs each op twice, traced and untraced, alternating which
            # goes first; both sets then hold the same ops and differ by the tracing
            modes = ((True, False) if len(records) % 4 == 0 else (False, True)) \
                if trace else (False,)
            for tr.enabled in modes:
                record = execute(ops[i], rep, tr, len(records))
                since_ref_ns += record.ns
                if since_ref_ns >= REFERENCE_EVERY_NS:
                    ref, since_ref_ns = speed.sample(), 0
                record.ref = ref
                records.append(record)
                busy_ns += record.ns
    tr.enabled = False

    factor = speed.factors()
    for r in records:
        r.scaled_ns = r.ns * factor[r.ref]
    setup_times = [(ns / 1e9, ns * factor[ref] / 1e9) for ns, ref in builds]
    raw = end_to_end(records, setup_times, scaled=False)
    raw["reference_ms"] = statistics.median(speed.samples) / 1e6

    if trace:
        metrics = per_layer(census, records, tr, [m["name"] for m in spec["per_layer"]])
    else:
        metrics = end_to_end(records, setup_times)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {
        # the golden instance's answers are pinned by the acceptance suite
        "correct": all(r.failure is None for r in census + records if r.golden),
        "attempted": len(records),
        "failed": sum(r.failure is not None for r in records),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "_failing": failing,
        "_records": records,
        "_tracer": tr,
        "_setup": setup_times,
        "_raw": raw,
        "_passes": passes,
    }


def write_outputs(name, seed, trace, env, result) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    if trace:
        # spans carry the index of the timed record as their op id
        result["_tracer"].dump(OUT_DIR / f"{stem}-spans.json")
    doc = {"workload": name, "seed": seed, "trace": trace, "environment": env,
           "setup_s_raw_scaled": result["_setup"], "passes": result["_passes"],
           "raw": result["_raw"], "failing_ops": result["_failing"],
           "records": [[r.label, r.rep, r.ns, r.scaled_ns, r.failure, r.traced]
                       for r in result["_records"]]}
    path = OUT_DIR / f"{stem}.json"
    path.write_text(json.dumps(doc, default=str))
    return path


def run_all(args) -> int:
    """Run every workload in its own process and print their metrics side by side."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        sys.exit(f"error: {spec_path} not found")
    spec = json.loads(spec_path.read_text())
    if args.workload == "all":
        return run_all(args)

    load_library()
    # inversion warns at every run that its values oscillate at atoms, as documented;
    # every other warning, the library's own included, still reaches stderr
    warnings.filterwarnings("ignore", message="extrapolated distribution is not monotone",
                            category=RuntimeWarning)
    import workloads as wl

    env = environment()
    print("environment " + json.dumps(env))
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), spec)
    except wl.StageMismatch as exc:
        sys.exit(f"error: traced stage sequence no longer matches analyze(): {exc}")
    path = write_outputs(args.workload, args.seed, bool(args.trace), env, result)
    for fail in result["_failing"]:
        print("census failing-op " + json.dumps(fail, default=str))
    for r in result["_records"]:
        if r.failure is not None:
            print(f"timed failing-op {r.label} realisation {r.rep}: {r.reason}")
    print(f"workload {args.workload}: census {len(result['_failing'])} failing ops; timed "
          f"{result['attempted']} ops in {result['_passes']} passes, {result['failed']} failed; "
          f"records in {path.relative_to(ROOT)}")
    for key, metric in result["metrics"].items():
        print(f"  {key:40s} {metric['value']:.6g} {metric['unit']}")
    print("unscaled wall-clock figures: " + json.dumps(result["_raw"]))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
