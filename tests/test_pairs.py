"""tools/pairs.py, alternating benchmark pairs of two checkouts."""

import json
import subprocess
import sys
from pathlib import Path

PAIRS = Path(__file__).resolve().parents[1] / "tools" / "pairs.py"

SPEC = {"workloads": [{"name": "w"}],
        "end_to_end": [{"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
                       {"name": "throughput_ops_s", "unit": "1/s", "better": "higher",
                        "bound": 0.2}]}

# a stand-in for bench/run.py: appends its side and seed to the log beside both
# checkouts, and prints one result line
FAKE_RUN = """import json, sys
from pathlib import Path
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open(Path(__file__).parents[2] / "runs.log", "a") as fh:
    fh.write(f"{SIDE} {seed}\\n")
latency = BASE + seed / 100
print(json.dumps({"correct": True, "attempted": 100, "failed": FAILED, "metrics": {
    "latency_p50_ms": {"value": latency, "unit": "ms"},
    "throughput_ops_s": {"value": 1000 / latency, "unit": "1/s"}}}))
"""


def checkout(tmp_path, side, base, failed=0):
    root = tmp_path / side
    (root / "bench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC))
    (root / "bench" / "run.py").write_text(
        FAKE_RUN.replace("SIDE", repr(side)).replace("BASE", repr(base))
        .replace("FAILED", str(failed)))
    return root


def run_pairs(*args):
    return subprocess.run([sys.executable, str(PAIRS), *map(str, args)],
                          capture_output=True, text=True)


def test_pairs_alternate_and_summarise(tmp_path):
    parent, change = checkout(tmp_path, "parent", 2.0), checkout(tmp_path, "change", 1.0)
    proc = run_pairs(parent, change, "--pairs", 3)
    assert proc.returncode == 0, proc.stderr
    # one seed per pair, both sides on it, the side that goes first alternating
    assert (tmp_path / "runs.log").read_text().split("\n") == [
        "parent 1", "change 1", "change 2", "parent 2", "parent 3", "change 3", ""]
    lines = proc.stdout.splitlines()
    assert lines[0] == "workload w: 3 pairs, seeds 1-3, 30 s per run"
    latency, throughput = lines[2].split(), lines[3].split()
    assert latency[:9] == ["latency_p50_ms", "lower", "2.02", "[2.015,", "2.025]",
                           "1.02", "[1.015,", "1.025]", "-49.50%"]
    assert latency[-1] == "3/3" and throughput[-1] == "3/3"
    # the other way round, every pair is lost and both shifts exceed their bounds
    proc = run_pairs(change, parent, "--pairs", 3)
    assert proc.stdout.splitlines()[2].endswith("0/3  WORSE")
    assert proc.stdout.splitlines()[3].endswith("0/3  WORSE")


def test_pairs_refuse_a_run_with_failed_ops(tmp_path):
    parent, change = checkout(tmp_path, "parent", 2.0), checkout(tmp_path, "change", 1.0, 1)
    proc = run_pairs(parent, change, "--pairs", 2)
    assert proc.returncode == 1 and "failed 1" in proc.stderr and proc.stdout == ""
