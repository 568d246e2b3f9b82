#!/usr/bin/env python3
"""Record the sha256 and line count of each workload's trace.jsonl per seed
into pins.json, which run.py checks every synth against.

    PYTHONPATH=src python3 chainbench/pin_digests.py 0 128

Re-pin only in a change that alters the benchmark's inputs on purpose: a
changed digest means the parent and the change no longer analyse the same
bytes.
"""

import json
import shutil
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from chainbench.run import PINS, WORK, WORKLOADS, synth_argv  # noqa: E402
from launderscan import cli  # noqa: E402


def main() -> int:
    lo, hi = int(sys.argv[1]), int(sys.argv[2])
    pins = json.loads(PINS.read_text("utf-8")) if PINS.exists() else {}
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="pin-", dir=WORK))
    try:
        for seed in range(lo, hi):
            for workload in WORKLOADS:
                with redirect_stdout(StringIO()):
                    if cli.main(synth_argv(workload, seed, tmp)) != 0:
                        raise SystemExit(f"synth failed for {workload} seed {seed}")
                trace = json.loads((tmp / "manifest.json").read_text("utf-8"))["files"]["trace.jsonl"]
                pins.setdefault(workload, {})[str(seed)] = [trace["sha256"], trace["lines"]]
            print(f"seed {seed} pinned", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
