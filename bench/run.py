#!/usr/bin/env python3
"""Benchmark of brightlab's CLI scenario reports.

Run from the root of a checkout:

    python3 bench/run.py --workload shadows --seed 1 --seconds 15 --trace 0

Load is one closed-loop client in one process: each report is an in-process
``brightlab.cli.main(argv)`` call that starts after the previous one ends,
with ``--out`` in a scratch directory under ``.bench_out/``.  A pass runs
every report of the workload once.

``--trace 0`` measures set-up time as the median over fresh interpreters
(``bench/fresh.py``) importing ``brightlab.cli``; on a workload with a short
pass they also run a cold pass.  Then this process, which has not imported
brightlab yet, runs its own cold pass and steady passes for ``--seconds``.
``cold_pass_s`` is the median of the cold passes.
``--trace 1`` runs a cold pass and one untraced pass, then two traced passes
whose spans give per-layer counts and self times; the counts of the two must
be identical.  Every report is verified in every pass.  Every time is scaled
to a reference speed (``Reference``); the unscaled times are printed too.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give every metric by name with its unit, and the run's provenance.  The same
result, with every report's outcome, is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import LAYERS, Tracer
from workloads import WORKLOADS, Report, derive_seed

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC
SETUP_PROBES = 5
OUT_DIR = ".bench_out"
BENCH_DIR = Path(__file__).resolve().parent
# Every time is scaled to a reference speed: it is divided by the time of a
# fixed reference workload measured next to it and multiplied by this value.
# A shared host's speed drifts (by 1.6x within two minutes on a 2-vCPU VM),
# and the scaled times drift about a third as much as the raw ones.
REF_NOMINAL_S = 0.015

# per-layer metrics of a traced pass: name -> (unit, totals field, key)
PER_LAYER = {
    "body.jet.calls": ("count", "calls", "body.jet"),
    "body.jet.self_s": ("s", "self_s", "body.jet"),
    "body.support.calls": ("count", "calls", "body.support"),
    "body.support.self_s": ("s", "self_s", "body.support"),
    "weingarten.tangent_frame.calls": ("count", "calls", "weingarten.tangent_frame"),
    "weingarten.tangent_frame.self_s": ("s", "self_s", "weingarten.tangent_frame"),
    "weingarten.relative_map.calls": ("count", "calls", "weingarten.relative_map"),
    "weingarten.relative_map.self_s": ("s", "self_s", "weingarten.relative_map"),
    "weingarten.antipodal_search.evaluations": ("count", "counts", "weingarten.antipodal_search.evaluations"),
    "weingarten.wedge_identity_defect.calls": ("count", "calls", "weingarten.wedge_identity_defect"),
    "weingarten.wedge_identity_defect.self_s": ("s", "self_s", "weingarten.wedge_identity_defect"),
    "multilinear.wedge_power.calls": ("count", "calls", "multilinear.wedge_power"),
    "multilinear.wedge_power.self_s": ("s", "self_s", "multilinear.wedge_power"),
    "multilinear.wedge_power.minors": ("count", "counts", "multilinear.wedge_power.minors"),
    "tomography.volume_from_support.calls": ("count", "calls", "tomography.volume_from_support"),
    "tomography.volume_from_support.self_s": ("s", "self_s", "tomography.volume_from_support"),
    "tomography.projected_jet.self_s": ("s", "self_s", "tomography.projected_jet"),
    "tomography.nodes": ("count", "counts", "tomography.nodes"),
    "sampling.hemisphere_grid.calls": ("count", "calls", "sampling.hemisphere_grid"),
    "sampling.hemisphere_grid.self_s": ("s", "self_s", "sampling.hemisphere_grid"),
    "lemma_lab.antipodal_falsification.self_s": ("s", "self_s", "lemma_lab.antipodal_falsification"),
    "lemma_lab.find_hypothesis_solutions.self_s": ("s", "self_s", "lemma_lab.find_hypothesis_solutions"),
    "lemma_lab.solutions": ("count", "counts", "lemma_lab.solutions"),
    "lemma_lab.enumerate_candidates.self_s": ("s", "self_s", "lemma_lab.enumerate_candidates"),
    "cli.self_s": ("s", "self_s", "cli.main"),
    "cli.report_bytes": ("bytes", "counts", "cli.report_bytes"),
    "cli.csv_bytes": ("bytes", "counts", "cli.csv_bytes"),
    **{f"{layer}.errors": ("count", "errors", layer) for layer in LAYERS},
}


class Reference:
    """A fixed mix of interpreter, small-matrix and array work; brightlab plays no part."""

    def __init__(self):
        import numpy

        self._np = numpy
        self._matrix = numpy.arange(16.0).reshape(4, 4) + 5.0 * numpy.eye(4)
        self._array = numpy.linspace(0.0, 1.0, 1_000_000)
        self.seconds()  # the first call pays numpy's one-time costs

    def seconds(self) -> float:
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        for _ in range(1000):
            self._np.linalg.det(self._matrix)
        for _ in range(3):
            (self._array * 1.5).sum()
        return perf_counter() - start


@dataclass
class Op:
    """One report: its time, exit status, and what verification found."""

    report: Report
    pass_no: int
    seconds: float = 0.0
    exit: object = None
    problems: list = field(default_factory=list)
    # problems no known defect can explain: crashes, unreadable reports, drift
    hard: bool = False
    report_bytes: int = 0
    csv_bytes: int = 0
    ref_s: float = REF_NOMINAL_S  # the reference time around this report

    @property
    def scaled_s(self) -> float:
        return self.seconds * REF_NOMINAL_S / self.ref_s

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def unexpected(self) -> bool:
        return self.failed and (self.hard or self.report.known_defect is None)


class Runner:
    def __init__(self, cli, root: Path, workload, seed: int, workdir: Path):
        self.cli = cli
        self.root = root
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.tracer = None
        self.reference = Reference()
        self.ops: list[Op] = []
        self.first: dict[str, str] = {}  # report name -> canonical report of the first pass

    def run_pass(self, pass_no: int) -> list[Op]:
        ops = []
        before = self.reference.seconds()
        for report in self.workload.reports:
            op = self._run_report(report, pass_no)
            after = self.reference.seconds()
            op.ref_s = (before + after) / 2
            before = after
            ops.append(op)
        return ops

    def _run_report(self, report: Report, pass_no: int) -> Op:
        op = Op(report, pass_no)
        out = self.workdir / f"{report.name}.json"
        argv = report.argv(self.root, self.workdir, self.seed)
        if self.tracer is not None:
            self.tracer.report = len(self.ops)
        gc.collect()
        sink = io.StringIO()
        start = perf_counter()
        try:
            with redirect_stdout(sink), redirect_stderr(sink):
                op.exit = self.cli.main(argv)
        except SystemExit as exc:
            op.exit = exc.code
        except Exception as exc:  # a crash is a failed operation, not a benchmark abort
            op.problems.append(f"raised {type(exc).__name__}: {exc}")
            op.hard = True
        op.seconds = perf_counter() - start
        self._verify(op, out)
        if self.tracer is not None:
            self.tracer.counts.update(
                {"cli.report_bytes": op.report_bytes, "cli.csv_bytes": op.csv_bytes}
            )
        self.ops.append(op)
        return op

    def _verify(self, op: Op, out: Path) -> None:
        report = op.report
        if op.exit != 0:
            op.problems.append(f"exit status {op.exit}")
            op.hard = op.hard or op.exit != 1
        csv_path = out.with_suffix(".csv")
        try:
            text = out.read_text()
            doc = json.loads(text)
            op.report_bytes = len(text.encode())
            op.problems += [
                f"check {c['name']} failed: {c['value']!r} > {c['tol']!r}"
                for c in doc["checks"]
                if not c["pass"]
            ]
            if report.verify is not None:
                op.problems += report.verify(doc, out)
            if report.csv and csv_path.exists():
                op.csv_bytes = csv_path.stat().st_size
        except (OSError, ValueError, KeyError, TypeError) as exc:
            op.problems.append(f"unreadable report: {type(exc).__name__}: {exc}")
            op.hard = True
            return
        finally:
            # never let a later pass read this pass's files
            out.unlink(missing_ok=True)
            csv_path.unlink(missing_ok=True)
        doc.pop("wall_time_s", None)
        canonical = json.dumps(doc, sort_keys=True)
        if canonical != self.first.setdefault(report.name, canonical):
            op.problems.append("report differs from the first pass with the same seed")
            op.hard = True


def pass_seconds(ops: list[Op]) -> float:
    return sum(op.scaled_s for op in ops)


def tail_percentile(values: list[float]):
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def describe(ops: list[Op]) -> str:
    values = [op.scaled_s for op in ops]
    tail = tail_percentile(values)
    extra = f", p{tail[0]} {tail[1]:.6f} s" if tail else ", no percentile has 10 samples beyond it"
    raw = statistics.median(op.seconds for op in ops)
    return f"median {statistics.median(values):.6f} s (unscaled {raw:.6f} s), n={len(values)}{extra}"


def fresh_process(root: Path, env: dict, workload, seed: int, cold_pass: bool, reference) -> tuple:
    """Set-up time of a fresh interpreter, raw and scaled, and its cold pass if asked."""
    cmd = [sys.executable, str(BENCH_DIR / "fresh.py"), "--workload", workload.name, "--seed", str(seed)]
    if cold_pass:
        cmd.append("--cold-pass")
    before = reference.seconds()
    start = perf_counter()  # CLOCK_MONOTONIC: comparable across processes
    done = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=170)
    after = reference.seconds()
    if done.returncode != 0:
        raise RuntimeError(f"fresh interpreter failed: {done.stderr.strip()}")
    out = json.loads(done.stdout.splitlines()[-1])
    reports = {report.name: report for report in workload.reports}
    ops = [
        Op(reports[o["name"]], 0, o["seconds"], o["exit"], o["problems"], o["hard"], ref_s=o["ref_s"])
        for o in out["ops"]
    ]
    setup = out["imported"] - start
    return setup, setup * REF_NOMINAL_S / ((before + after) / 2), ops


def provenance(root: Path) -> dict:
    import numpy
    import scipy

    commit = None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
        commit = done.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": NPROC,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def end_to_end(workload, setup: list, cold: list, steady: list, lines: list) -> dict:
    """Medians of scaled set-up, cold pass and steady pass times; appends the lines per report."""
    passes = [pass_seconds(p) for p in steady]
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in setup),
        "cold_pass_s": statistics.median(pass_seconds(p) for p in cold),
        "pass_s": statistics.median(passes),
    }
    raw_setup = statistics.median(raw for raw, _ in setup)
    raw_cold = statistics.median(sum(op.seconds for op in p) for p in cold)
    raw_pass = statistics.median(sum(op.seconds for op in p) for p in steady)
    lines.append(
        f"setup_s: median {metrics['setup_s']:.6f} s (unscaled {raw_setup:.6f} s) "
        f"over {len(setup)} fresh interpreters"
    )
    lines.append(
        f"cold_pass_s: median {metrics['cold_pass_s']:.6f} s (unscaled {raw_cold:.6f} s) "
        f"over {len(cold)} fresh processes"
    )
    lines.append(f"pass_s: median {metrics['pass_s']:.6f} s (unscaled {raw_pass:.6f} s), n={len(passes)}")
    for report in workload.reports:
        lines.append(f"{report.name}_s: {describe([op for p in steady for op in p if op.report is report])}")
    return {name: {"value": value, "unit": "s"} for name, value in metrics.items()}


def per_layer(totals: list, untraced: list, traced: list, lines: list) -> dict:
    """Counts of the first traced pass and mean self times of both."""
    metrics = {}
    for name, (unit, source, key) in PER_LAYER.items():
        values = [t[source].get(key, 0) for t in totals]
        metrics[name] = {"value": statistics.mean(values) if unit == "s" else values[0], "unit": unit}
    trials = totals[0]["counts"].get("lemma_lab.trials", 0)
    campaign_s = statistics.mean(t["total_s"].get("lemma_lab.antipodal_falsification", 0.0) for t in totals)
    metrics["lemma_lab.trials_per_s"] = {"value": trials / campaign_s if trials else 0.0, "unit": "1/s"}
    overhead = statistics.mean(pass_seconds(p) for p in traced) - pass_seconds(untraced)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    lines.append(
        f"scaled times: untraced pass {pass_seconds(untraced):.6f} s, traced passes "
        + ", ".join(f"{pass_seconds(p):.6f} s" for p in traced)
        + f", tracing overhead {overhead:.6f} s"
    )
    lines.extend(f"{name}: {m['value']} {m['unit']}" for name, m in metrics.items())
    return metrics


def counts_repeat(totals: list) -> bool:
    # a report holds its own wall time, so its size is not a repeatable count
    repeatable = [{**t["calls"], **t["counts"], **t["errors"], "cli.report_bytes": 0} for t in totals]
    return repeatable[0] == repeatable[1]


def failure_lines(workload, ops: list) -> list:
    lines = []
    for report in workload.reports:
        mine = [op for op in ops if op.report is report]
        bad = [op for op in mine if op.failed]
        if bad:
            known = report.known_defect and not any(op.unexpected for op in bad)
            note = f" [known defect: {report.known_defect}]" if known else ""
            lines.append(
                f"  {report.name} failed in {len(bad)} of {len(mine)} reports, first: "
                f"{'; '.join(bad[0].problems)}{note}"
            )
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # pin BLAS threads before numpy is imported, here and in every child process
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)

    root = Path.cwd()
    src = root / "src"
    if not (src / "brightlab" / "cli.py").is_file():
        print(f"error: {src / 'brightlab'} not found; run from the root of a checkout", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    keys = sorted({r.seed_key or r.name for r in workload.reports})
    seeds = {key: derive_seed(args.seed, key) for key in keys}
    seeds_change = all(seeds[key] != derive_seed(args.seed + 1, key) for key in keys)

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    setup, fresh_cold = [], []
    if args.trace == 0:
        reference = Reference()
        for i in range(SETUP_PROBES):
            cold_pass = i < workload.fresh_cold_passes
            raw, scaled, ops = fresh_process(root, env, workload, args.seed, cold_pass, reference)
            setup.append((raw, scaled))
            if ops:
                fresh_cold.append(ops)

    # this process has not imported brightlab yet, so its first pass is cold too
    sys.path.insert(0, str(src))
    import brightlab
    import brightlab.cli

    workdir = Path(tempfile.mkdtemp(prefix="reports-", dir=out_dir))
    try:
        runner = Runner(brightlab.cli, root, workload, args.seed, workdir)
        cold = runner.run_pass(0)
        steady, traced, totals = [], [], []
        if args.trace == 0:
            start = perf_counter()
            while not steady or perf_counter() - start < args.seconds:
                steady.append(runner.run_pass(len(steady) + 1))
        else:
            steady.append(runner.run_pass(1))
            runner.tracer = Tracer()
            runner.tracer.install(brightlab)
            for pass_no in (2, 3):
                runner.tracer.reset_totals()
                traced.append(runner.run_pass(pass_no))
                totals.append(runner.tracer.totals())
            runner.tracer.write_spans(
                out_dir / f"{workload.name}-spans.csv",
                [f"pass{op.pass_no}:{op.report.name}" for op in runner.ops],
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = [op for p in fresh_cold for op in p] + runner.ops
    failed = [op for op in ops if op.failed]
    correct = seeds_change and not any(op.unexpected for op in ops)
    info = provenance(root)
    lines = [
        f"workload {workload.name}: {workload.why}",
        "scenario seeds: " + ", ".join(f"{k}={v}" for k, v in seeds.items()),
        "provenance: " + json.dumps(info, sort_keys=True),
    ]
    if args.trace == 0:
        metrics = end_to_end(workload, setup, [cold] + fresh_cold, steady, lines)
    else:
        repeat = counts_repeat(totals)
        correct = correct and repeat
        lines.append(f"counts repeat between the two traced passes: {repeat}")
        metrics = per_layer(totals, steady[0], traced, lines)
    fail_ratio = len(failed) / len(ops)
    lines.append(f"fail_ratio: {fail_ratio:.6f} ({len(failed)} of {len(ops)} reports failed)")
    lines += failure_lines(workload, ops)
    if not seeds_change:
        lines.append("error: the next workload seed gives the same scenario seeds")

    result = {"correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics}
    record = {
        **result,
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scenario_seeds": seeds,
        "fail_ratio": fail_ratio,
        "provenance": info,
        "reports": [
            {"pass": op.pass_no, "name": op.report.name, "seconds": op.seconds, "scaled_s": op.scaled_s,
             "exit": op.exit, "problems": op.problems}
            for op in ops
        ],
    }
    record_path = out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
