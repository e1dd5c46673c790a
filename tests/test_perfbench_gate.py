"""The benchmark's desk gate, run as the benchmark runs it.

perfbench/worker.py runs the CLI on a desk instance, then replays every
traced stage through simharness and checks the replay against the trace
CSVs token for token. A change to the harness or to the trace writer that
breaks bit-identity fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_desk_worker_replay_matches_traces(tmp_path):
    workload = {"name": "tiny-desk", "why": "", "graph": "er", "n": 30, "p": 0.2, "desk": True}
    workload_file = tmp_path / "workload.json"
    workload_file.write_text(json.dumps(workload))
    result_file = tmp_path / "result.json"
    pythonpath = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload-file", str(workload_file), "--seed", "3",
            "--dir", str(tmp_path / "run"), "--result", str(result_file),
        ],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(result_file.read_text())
    assert result["rc"] == 0, result
    assert result["replay_ok"] and result["pairs_ok"]
