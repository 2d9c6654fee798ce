"""tools/census_gate.py, the CI gate over the census lines of bench/run.py."""

import json
import subprocess
import sys
from pathlib import Path

GATE = Path(__file__).resolve().parents[1] / "tools" / "census_gate.py"


def census_line(key, failure, known=True):
    op = {"key": key, "failure": failure, "reason": failure, "known": known}
    return "census failing-op " + json.dumps(op) + "\n"


def run_gate(tmp_path, lines, *args):
    log = tmp_path / "run.log"
    log.write_text("".join(lines))
    return subprocess.run([sys.executable, str(GATE), str(log), *args],
                          capture_output=True, text=True)


def test_gate_refuses_named_classes_known_or_not(tmp_path):
    wrong = ("hilbert_space.wrong_determinacy", "determinate.measure_mismatches")
    today = [census_line("N4d6s4a7", "hilbert_space.rank_errors"),
             census_line("N6d8s4a8", "solvability.false_unsolvable"),
             census_line("N4d6s4a6", "moment_model.verify_failures"),
             '{"correct": true, "failed": 0}\n']
    assert run_gate(tmp_path, today, *wrong).returncode == 0
    for known in (True, False):
        bad = census_line("N1d3s1a5", wrong[0], known)
        proc = run_gate(tmp_path, today + [bad], *wrong)
        assert (proc.returncode, proc.stdout) == (1, bad)


def test_gate_refuses_unknown_lines_only_when_asked(tmp_path):
    lines = [census_line("N1d1s1a2", "hilbert_space.rank_errors", known=False)]
    assert run_gate(tmp_path, lines).returncode == 0
    proc = run_gate(tmp_path, lines, "--unknown")
    assert (proc.returncode, proc.stdout) == (1, lines[0])
