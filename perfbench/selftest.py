#!/usr/bin/env python3
"""Check that the benchmark's inputs and verdicts do not depend on hash order.

    python3 perfbench/selftest.py

Runs each workload with seed 1 (untraced, with --seconds 0: the minimum of
three passes) under two PYTHONHASHSEED values and compares the printed input,
order and verdict digests. Exits 1 on any difference or failed run. Run from
the repository root; takes about five minutes.
"""

import os
import pathlib
import re
import subprocess
import sys

from run import WORKLOAD_NAMES

HERE = pathlib.Path(__file__).resolve().parent
HASH_SEEDS = ("1", "2")
DIGESTS = re.compile(
    r"^input_digest=(\w+) order_digest=(\w+) verdict_digest=(\w+)$", re.M)


def digests(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, env=env, capture_output=True, text=True, timeout=600)
    found = DIGESTS.search(proc.stdout)
    if proc.returncode != 0 or found is None or '"correct": true' not in proc.stdout:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return found.groups()


def main():
    ok = True
    for workload in WORKLOAD_NAMES:
        runs = [digests(workload, h) for h in HASH_SEEDS]
        same = runs[0] is not None and all(r == runs[0] for r in runs)
        ok &= same
        print(f"{workload}: {'PASS' if same else 'FAIL'} "
              + " ".join(f"PYTHONHASHSEED={h}: {r}" for h, r in zip(HASH_SEEDS, runs)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
