"""tools/payload_digest.py, the byte-identity digest of the CLI payloads."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_digest_is_reproducible_on_one_realisation():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    cmd = [sys.executable, str(ROOT / "tools" / "payload_digest.py"), "--seeds", "1", "--reps", "0"]
    runs = [subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
            for _ in range(2)]  # the two runs side by side
    outputs = [proc.communicate() + (proc.returncode,) for proc in runs]
    for stdout, stderr, status in outputs:
        assert status == 0, stderr
        assert re.fullmatch(r"\d+ payloads, sha256 [0-9a-f]{64}\n"
                            r"([a-z-]+: \d+ payloads, sha256 [0-9a-f]{64}\n)+", stdout)
    assert outputs[0][0] == outputs[1][0]
