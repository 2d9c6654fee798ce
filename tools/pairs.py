"""Alternating pairs of benchmark runs of two checkouts, summarised per end-to-end metric.

usage: python3 tools/pairs.py PARENT CHANGE [--pairs 10]

For each workload of CHANGE's BENCHMARK.json, pair k = 1 .. pairs runs
``python3 bench/run.py --workload W --seed k --seconds 30 --trace 0`` once in each
checkout, one run after the other: both runs of a pair share their seed, and every pair
has its own.  30 s is the run length of bench/baseline.json.  PARENT runs first in odd pairs and CHANGE in
even ones, so a drift of the machine's speed falls on both sides alike.  A run that exits
non-zero, or whose result has "correct" other than true or "failed" above 0, stops the
script with exit status 1 and the run named on stderr.

For each end-to-end metric of CHANGE's BENCHMARK.json the script prints the median and
quartiles of both sides, the shift of CHANGE's median relative to PARENT's, the metric's
bound, and in how many pairs CHANGE did better than PARENT in the metric's ``better``
direction.  A shift for the worse beyond the bound is marked WORSE.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


SECONDS = 30


class RunRefused(Exception):
    """A benchmark run that failed, or whose result is not correct or has failed ops."""


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    """The end-to-end metric values of one ``bench/run.py --trace 0`` run in checkout."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    label = f"{checkout} {workload} seed {seed}"
    if proc.returncode != 0:
        raise RunRefused(f"{label}: exit status {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result.get("correct") is not True or result.get("failed", 1) > 0:
        raise RunRefused(f"{label}: correct {result.get('correct')}, "
                         f"failed {result.get('failed')}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def quartiles(values: list) -> tuple:
    """(q1, median, q3) of the values, by statistics.quantiles' inclusive method."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(metric: dict, parent: list, change: list) -> dict:
    """Both sides' quartiles, the relative shift of the medians, the pairs CHANGE won
    and whether the shift is for the worse by more than the metric's bound."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    q_parent, q_change = quartiles(parent), quartiles(change)
    shift = (q_change[1] - q_parent[1]) / q_parent[1]
    return {"parent": q_parent, "change": q_change, "shift": shift,
            "won": sum(sign * (c - p) < 0.0 for p, c in zip(parent, change)),
            "worse": sign * shift > metric["bound"]}


def report(workload: str, seeds: list, metrics: list, runs: dict) -> None:
    print(f"workload {workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, "
          f"{SECONDS} s per run")
    print(f"  {'metric':18s} {'better':6s} {'parent median [q1, q3]':33s} "
          f"{'change median [q1, q3]':33s} {'shift':>7s} {'bound':>6s}  change won")
    for metric in metrics:
        name = metric["name"]
        row = summary(metric, runs["parent"][name], runs["change"][name])
        sides = ["{1:.5g} [{0:.5g}, {2:.5g}]".format(*row[side]) for side in ("parent", "change")]
        print(f"  {name:18s} {metric['better']:6s} {sides[0]:33s} {sides[1]:33s} "
              f"{row['shift']:+7.2%} {metric['bound']:6.0%}  {row['won']}/{len(seeds)}"
              + ("  WORSE" if row["worse"] else ""))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout with the change")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seeds = list(range(1, args.pairs + 1))
    sides = {"parent": args.parent, "change": args.change}
    try:
        for workload in (w["name"] for w in spec["workloads"]):
            runs = {side: {m["name"]: [] for m in spec["end_to_end"]} for side in sides}
            for seed in seeds:
                for side in (("parent", "change") if seed % 2 else ("change", "parent")):
                    values = bench_run(sides[side], workload, seed)
                    for name, series in runs[side].items():
                        series.append(values[name])
            report(workload, seeds, spec["end_to_end"], runs)
            sys.stdout.flush()
    except RunRefused as exc:
        sys.stderr.write(f"refused run: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
