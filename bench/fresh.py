"""One fresh interpreter: time ``import brightlab.cli``, then optionally run a cold pass.

``run.py`` starts this with ``PYTHONPATH=src`` from the root of a checkout:

    python3 bench/fresh.py --workload curvature --seed 1 [--cold-pass]

It prints one JSON object: ``imported``, the ``time.perf_counter()`` reading
right after the import (CLOCK_MONOTONIC, so the parent can subtract its own
reading taken before the start), and ``ops``, the outcome of each report of
the cold pass.
"""

if __name__ == "__main__":
    import time

    import brightlab.cli

    imported = time.perf_counter()

    import argparse
    import json
    import shutil
    import tempfile
    from pathlib import Path

    from run import OUT_DIR, Runner
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--cold-pass", action="store_true")
    args = parser.parse_args()

    ops = []
    if args.cold_pass:
        root = Path.cwd()
        workdir = Path(tempfile.mkdtemp(prefix="reports-", dir=root / OUT_DIR))
        try:
            runner = Runner(brightlab.cli, root, WORKLOADS[args.workload], args.seed, workdir)
            ops = [
                {"name": op.report.name, "seconds": op.seconds, "exit": op.exit, "problems": op.problems,
                 "hard": op.hard, "ref_s": op.ref_s}
                for op in runner.run_pass(0)
            ]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"imported": imported, "ops": ops}))
