"""Re-record ``expected.json``: the outputs the benchmark checks against.

    python3 perfbench/record.py

Runs each workload once (about two minutes) and writes the Synth-split
digests, the Table-5 cordis cells and digests of the offline
``predict_batch`` SQL for every served question.
Re-record only when a change is *meant* to alter those outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORK_DIR = HERE.parent / ".perfbench" / "record"


def record(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0", "--work-dir", str(WORK_DIR), "--record",
        ],
        stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"{workload} seed={seed}: wall {result['wall_s']:.1f}s", file=sys.stderr)
    return result["record"]


def main() -> int:
    try:
        expected = {name: record(name, 0) for name in ("augment", "table5", "serve")}
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
