"""Batch driver: run verification scenarios and emit machine-readable reports.

Each subcommand assembles a scenario from built-in defaults merged with an
optional JSON config, runs the library routines with an explicit seed, and
writes a schema-versioned JSON report atomically.  Every check is the pair
(value, tolerance) with pass defined uniformly as value <= tolerance.

Exit status: 0 when every check passes, 1 when some check fails (the report
is still written), 2 for configuration or validation errors.

Config schema (JSON object, all keys optional; a scenario takes exactly the
keys its runner reads, and ``lemma-campaign``'s "mode", "antipodal" by default
or "solver", picks its runner and keys).  Each check's tolerance is a constant
of its scenario, and the seed and report path are the flags ``--seed`` and
``--out`` only:

    {"schema": 1, "scenario": "verify-wedge", ...scenario keys...}

Report schema ("inputs" echoes the resolved scenario parameters):

    {"schema": 1, "scenario": str, "seed": int, "inputs": {...},
     "checks": [{"name": str, "value": float, "tol": float, "pass": bool}],
     "extras": {...}, "wall_time_s": float, "version": str}

Reports are strict JSON: a non-finite number (say, the best residual of a
campaign in which no trial was eligible) is written as null, and a check
whose value is null has failed.

Body documents are {"family": str, "params": {...}} as accepted by
``body_from_dict``; ``brightlab gallery`` lists the families.

The shadow scenarios read ``tomography.shadow_volumes`` and its one statistic
``proportionality_test``; ``ratio-e48`` compares the exponents ratio^(-1/g)
of its two grades, one report per grade, each on its own child seed and its
grade's default rule: ``nodes`` (by default null, the grade's own rule) is a
key only of the scenarios that run one grade.
"""

from __future__ import annotations

import argparse
import copy
import csv
import inspect
import io
import json
import math
import os
import sys
import time
from dataclasses import dataclass, fields
from functools import lru_cache
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import __version__
from .body import FAMILIES, _is_number, body_from_dict
from .lemma_lab import (
    _candidate_distances,
    _start_thread,
    antipodal_falsification,
    enumerate_candidates,
    find_hypothesis_solutions,
    hypothesis_residual,
)
from .sampling import haar_directions, median
from .tomography import proportionality_test, shadow_volumes
from .weingarten import antipodal_search, wedge_identity_defects

__all__ = ["main", "ConfigError", "Check"]


class ConfigError(ValueError):
    """Invalid configuration or scenario inputs (exit status 2)."""


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    tol: float

    @property
    def passed(self) -> bool:
        return bool(self.value <= self.tol)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "value": float(self.value),
            "tol": float(self.tol),
            "pass": self.passed,
        }


# ---------------------------------------------------------------------------
# defaults


_ELLIPSOID_4D = {
    "family": "ellipsoid",
    "params": {
        "shape": [
            [1.0, 0.0, 0.0, 0.0],
            [0.0, 1.69, 0.0, 0.0],
            [0.0, 0.0, 0.64, 0.0],
            [0.0, 0.0, 0.0, 1.21],
        ]
    },
}
_HOMOTHET_4D = {
    "family": "homothet",
    "params": {"base": _ELLIPSOID_4D, "scale": 0.7, "shift": [0.1, 0.0, -0.2, 0.0]},
}
_SPHEROID_5D = {
    "family": "spheroid",
    "params": {"axis": [0.0, 0.0, 0.0, 0.0, 1.0], "equatorial": 1.0, "polar": 1.4},
}
_BALL_5D = {"family": "ball", "params": {"dim": 5, "radius": 1.0}}
_BALL_3D = {"family": "ball", "params": {"dim": 3, "radius": 1.0}}


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    return doc


def _spec(scenario: str, doc: dict) -> Scenario:
    """The scenario's entry, or in a mode table the entry of the config's "mode"."""
    spec = _SCENARIOS[scenario]
    if isinstance(spec, Scenario):
        return spec
    mode = doc.get("mode", next(iter(spec)))
    if isinstance(mode, str) and mode in spec:
        return spec[mode]
    raise ConfigError(f"unknown {scenario} mode {mode!r} (expected {' or '.join(map(repr, spec))})")


def _resolve_params(scenario: str, args: argparse.Namespace):
    """Merge defaults <- config; returns (spec, params), where spec is the
    entry of the scenario, or of its config's mode.  The seed and the report
    path are flags only, checked here against the scenario."""
    doc = {} if args.config is None else _load_config(args.config)
    if doc.get("schema", 1) != 1:
        raise ConfigError(f"unsupported config schema {doc.get('schema')!r}; expected 1")
    if "scenario" in doc and doc["scenario"] != scenario:
        raise ConfigError(
            f"config is for scenario {doc['scenario']!r} but subcommand is {scenario!r}"
        )
    spec = _spec(scenario, doc)
    params = copy.deepcopy(spec.defaults)
    label = f"{scenario!r}" + (f" in mode {params['mode']!r}" if "mode" in params else "")
    for key, value in doc.items():
        if key in params:
            params[key] = value
        elif key not in ("schema", "scenario"):
            raise ConfigError(f"unknown config key {key!r} for scenario {label}")
    if args.csv and scenario == "gallery":
        raise ConfigError("scenario 'gallery' runs no check, so --csv has nothing to write")
    if args.csv and args.out is not None and Path(args.out).suffix == ".csv":
        # the CSV goes to the report path with the suffix .csv, here the report itself
        raise ConfigError(f"--csv would write its CSV over the report {args.out!r}")
    if args.seed is not None and not spec.seeded:
        raise ConfigError(f"scenario {label} draws nothing at random and takes no seed")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"'seed' must be a nonnegative integer, got {args.seed!r}")
    if spec.seeded and args.seed is None:
        raise ConfigError(
            f"scenario {scenario!r} is randomized and requires an explicit --seed; "
            "implicit wall-clock entropy is refused"
        )
    _check_floats(params)
    _check_integers(params, scenario)
    return spec, params


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_floats(params: dict) -> None:
    """The float keys must be finite numbers.

    A string, a bool (which Python counts as the integer 0 or 1), null or a
    non-finite value is refused, not cast: a NaN ``residual_tol`` would run
    a campaign that can never find a violation.
    """
    for key in ("scale", "residual_tol", "min_spread", "a", "b"):
        if key in params and not _is_number(params[key]):
            raise ConfigError(f"{key!r} must be a finite number, got {params[key]!r}")


def _check_integers(params: dict, scenario: str) -> None:
    """Count keys must be integers >= 1, and the other integer keys integers.

    A config that checks nothing is refused: ``grades`` must not be empty
    nor repeat a grade, and ``brightness`` and ``proportionality``, which
    compare their frames with one another, need ``num_frames`` >= 2
    (``ratio-e48`` compares two grades, so one frame each is a check).
    ``nodes`` may be null (the rule's default); floats, bools and strings
    are refused.  The library checks the ranges of the keys that are not
    counts.
    """
    for key in ("samples", "num_frames", "trials", "solutions", "budget"):
        least = 2 if key == "num_frames" and scenario in ("brightness", "proportionality") else 1
        if key in params and not (_is_int(params[key]) and params[key] >= least):
            raise ConfigError(f"{key!r} must be an integer >= {least}, got {params[key]!r}")
    for key in ("k", "i", "j", "m_len", "m", "n", "nodes"):
        if key in params and not (_is_int(params[key]) or key == "nodes" and params[key] is None):
            raise ConfigError(f"{key!r} must be an integer, got {params[key]!r}")
    if "grades" in params:
        grades = params["grades"]
        if not (isinstance(grades, list) and grades and all(map(_is_int, grades))):
            raise ConfigError(f"'grades' must be a non-empty list of integers, got {grades!r}")
        if len(set(grades)) < len(grades):
            raise ConfigError(f"'grades' must not repeat a grade, got {grades!r}")


def _body(params: dict, key: str):
    try:
        return body_from_dict(params[key])
    except ValueError as exc:
        raise ConfigError(f"invalid {key!r} body document: {exc}") from exc


def _pair(params: dict):
    """The "body" and "base" bodies, which must share one dimension."""
    body, base = _body(params, "body"), _body(params, "base")
    if body.dim != base.dim:
        raise ConfigError(
            f"'body' is {body.dim}-dimensional but 'base' is {base.dim}-dimensional"
        )
    return body, base


# ---------------------------------------------------------------------------
# scenario runners: params, seed -> (checks, extras[, csv]), where csv() returns
# the scenario's own CSV as byte chunks; without it --csv writes the checks


_WEDGE_TOL = 1e-8


def _run_verify_wedge(params: dict, seed: int):
    body, base = _pair(params)
    grades, scale = params["grades"], float(params["scale"])
    if scale <= 0:
        raise ConfigError(f"'scale' must be positive, as K = scale K0 + t needs, got {scale!r}")
    betas = [scale**k for k in grades]  # K = scale K0 + t: beta_k = scale^k
    dirs = haar_directions(body.dim, params["samples"], seed)
    worst, solved = wedge_identity_defects(body, base, grades, betas, dirs)
    checks = [Check(f"wedge_defect_k{k}", float(d), _WEDGE_TOL) for k, d in zip(grades, worst)]
    return checks, {"exact_norms": solved}


def _proper_grade(params: dict, key: str, dim: int) -> int:
    """``params[key]``, refused outside 1 ... dim - 1: a grade-n shadow is the body itself."""
    k = params[key]
    if k == dim:
        raise ConfigError(
            f"{key!r} = {dim} is the bodies' dimension, where every shadow is the body itself "
            f"and the check measures only quadrature noise; use {key} < n"
        )
    if not 1 <= k < dim:
        raise ConfigError(f"{key!r} must be a grade 1 ... n - 1 = {dim - 1}, got {k}")
    return k


_BRIGHTNESS_TOL = 1e-6


def _run_brightness(params: dict, seed: int):
    body = _body(params, "body")
    k = _proper_grade(params, "k", body.dim)
    frames, nodes = params["num_frames"], params["nodes"]
    vols = shadow_volumes([body], k, frames, seed, nodes, ("body",))[1][:, 0]
    mid = median(vols)
    spread = float((vols.max() - vols.min()) / mid)
    checks = [Check("brightness_spread_rel", spread, _BRIGHTNESS_TOL)]
    extras = {
        "volume_median": mid,
        "volume_min": float(vols.min()),
        "volume_max": float(vols.max()),
    }
    return checks, extras


_PROPORTIONALITY_TOL = 1e-5


def _run_proportionality(params: dict, seed: int):
    body, base = _pair(params)
    k = _proper_grade(params, "k", body.dim)
    report = proportionality_test(body, base, k, params["num_frames"], seed, params["nodes"])
    checks = [
        Check("proportionality_max_rel_deviation", report.max_rel_deviation, _PROPORTIONALITY_TOL)
    ]
    return checks, {"constant": report.constant}


_SEARCH_TOL = 1e-6


def _run_umbilic_search(params: dict, seed: int):
    body, base = _pair(params)
    objective = str(params["objective"])
    result = antipodal_search(
        body, base, seed=seed, budget=params["budget"], objective=objective, tol=_SEARCH_TOL
    )
    value = result.r_defect if objective == "antipodal" else result.umbilic.defect
    checks = [Check("search_defect", value, _SEARCH_TOL)]
    extras = {
        "u0": [float(v) for v in result.umbilic.u0],
        "r0": result.umbilic.r0,
        "umbilic_defect": result.umbilic.defect,
        "r_defect": result.r_defect,
        "converged": result.converged,
        "evaluations": result.evaluations,
        "gauss_newton_steps": result.gauss_newton_steps,
        "objective": objective,
    }
    return checks, extras


def _run_antipodal(params: dict, seed: int):
    trials = params["trials"]
    tol, min_spread = float(params["residual_tol"]), float(params["min_spread"])
    report = antipodal_falsification(params["m_len"], params["k"], trials, seed, tol, min_spread)
    checks = [Check("violations_found", 1.0 if report.found_violation else 0.0, 0.0)]
    if report.best_x is None:
        # every trial fell below min_spread, so the campaign tested nothing
        checks.append(Check("no_eligible_trial", 1.0, 0.0))
    extras = {
        "best_residual": report.best_residual,
        "best_gamma": report.best_gamma,
        "best_x": [float(v) for v in report.best_x] if report.best_x is not None else None,
        "trials": trials,
        "eligible_trials": report.eligible_trials,
        "violations": report.violations,
    }
    return checks, extras, lambda: _campaign_csv(report)


_SOLVER_TOL = 1e-6


def _run_solver(params: dict, seed: int):
    a, b = float(params["a"]), float(params["b"])
    k, m, n = params["k"], params["m"], params["n"]
    wanted = params["solutions"]
    cands = enumerate_candidates(a, b, k, m, n)
    found = find_hypothesis_solutions(a, b, k, m, n, wanted, seed=seed)
    ys = np.array([inst.y for inst in found]).reshape(len(found), n)
    dists = _candidate_distances(ys, cands).max(axis=1)
    checks = [
        Check("candidate_match_worst", float(dists.max(initial=0.0)), _SOLVER_TOL),
        Check("solution_shortfall", float(wanted - len(found)), 0.0),
    ]
    extras = {
        "solutions_found": len(found),
        "candidate_values": sorted({round(float(v), 12) for v in cands}),
        "restarts": found.restarts,
        "gauss_newton_steps": found.gauss_newton_steps,
    }

    def solver_csv():
        rows = [("solution", "residual", "worst_candidate_distance")]
        for idx, (inst, dist) in enumerate(zip(found, dists.tolist())):
            rows.append((idx, f"{hypothesis_residual(inst).max():.3e}", f"{dist:.3e}"))
        return [_csv(rows)]

    return checks, extras, solver_csv


def _run_gallery(params: dict, seed):
    for name, cls in FAMILIES.items():
        print(f"{name:22s} {cls.__name__}({', '.join(f.name for f in fields(cls))})")
        print(f"{'':22s} {inspect.getdoc(cls).splitlines()[0]}")
    return [], {"families": list(FAMILIES)}


_RATIO_E48_TOL = 1e-6


def _run_ratio_e48(params: dict, seed: int):
    body, base = _pair(params)
    grades = _proper_grade(params, "i", body.dim), _proper_grade(params, "j", body.dim)
    if grades[0] == grades[1]:
        raise ConfigError(f"grades must differ, got i = j = {grades[0]}")
    reports = [
        proportionality_test(body, base, g, params["num_frames"], kid)
        for g, kid in zip(grades, np.random.SeedSequence(seed).spawn(2))
    ]
    s_i, s_j = (r.ratios ** (-1.0 / g) for r, g in zip(reports, grades))
    defect = float(np.abs(s_j[:, None] - s_i[None, :]).max())
    extras = {"constants": [r.constant for r in reports]}
    return [Check("cross_grade_ratio_defect", defect, _RATIO_E48_TOL)], extras


@dataclass(frozen=True)
class Scenario:
    run: Callable  # params, seed -> (checks, extras[, csv]); csv() -> CSV byte chunks
    defaults: dict  # the keys a config may set: exactly those run reads, and "mode"
    help: str
    seeded: bool = True  # a seed is required; without randomness, refused


# a scenario's entry, or its entries by the config's "mode" (the first by default)
_SCENARIOS: dict[str, Scenario | dict[str, Scenario]] = {
    "verify-wedge": Scenario(
        _run_verify_wedge,
        {"body": _HOMOTHET_4D, "base": _ELLIPSOID_4D, "grades": [1, 2, 3], "scale": 0.7,
         "samples": 100},
        "exterior-power identity defects for a body pair over random directions",
    ),
    "brightness": Scenario(
        _run_brightness,
        {"body": _BALL_3D, "k": 2, "num_frames": 20, "nodes": None},
        "constancy of the k-th projection function over random subspaces",
    ),
    "proportionality": Scenario(
        _run_proportionality,
        {"body": _HOMOTHET_4D, "base": _ELLIPSOID_4D, "k": 2, "num_frames": 50, "nodes": None},
        "ratios V_k(K|U)/V_k(K0|U) over random subspaces",
    ),
    "umbilic-search": Scenario(
        _run_umbilic_search,
        {"body": _SPHEROID_5D, "base": _BALL_5D, "objective": "umbilic", "budget": 4000},
        "antipodal search for a common relative umbilic direction",
    ),
    "lemma-campaign": {
        "antipodal": Scenario(
            _run_antipodal,
            {"mode": "antipodal", "m_len": 6, "k": 2, "trials": 100000, "residual_tol": 1e-9,
             "min_spread": 1e-3},
            "randomized campaigns for the subset-product relation lemmas",
        ),
        "solver": Scenario(
            _run_solver,
            # k = 1 is the smallest instance with known roots
            {"mode": "solver", "k": 1, "a": 1.0, "b": 2.0, "m": 3, "n": 4, "solutions": 25},
            "hypothesis solutions matched against the candidate values",
        ),
    },
    "gallery": Scenario(
        _run_gallery,
        {},
        "print the built-in body families and their closed-form properties",
        seeded=False,
    ),
    "ratio-e48": Scenario(
        _run_ratio_e48,
        {"body": _HOMOTHET_4D, "base": _ELLIPSOID_4D, "i": 1, "j": 2, "num_frames": 20},
        "cross-grade consistency of projection-volume ratio exponents",
    ),
}


# ---------------------------------------------------------------------------
# report assembly and output


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Write a fresh file beside ``path``, created 0666 less the umask as ``open``
    would (not ``mkstemp``'s 0600, which the rename would keep), and rename it.

    Renaming over an existing file is slower on ext4, which then starts
    writeback of the new file: writing 36 MB and renaming it over an existing
    file took a median 46 ms on a 2-vCPU VM, against 30-33 ms with the target
    unlinked first or the file preallocated by ``posix_fallocate``.  That
    writeback is what orders the new data before the rename, so the rename
    over the old file stays: unlinking first leaves no file at ``path`` for a
    moment, and preallocation can leave a zero-filled file after a crash.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _csv(rows: list[tuple]) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue().encode()


@lru_cache(maxsize=None)
def _csv_words() -> tuple[np.ndarray, ...]:
    """The lookup tables (scale, head, tail, exponent, four) of the campaign CSV
    encoder, built on first use: scale[e + 99] = 10**(6 - e) for e = -99 ... 99,
    and as little-endian ASCII words, head[q] = "d.ddd" (q = 1000 ... 9999) in
    bytes 0-4 of a "<u8" word, tail[r] = "ddd" (r < 1000) in its bytes 5-7,
    exponent[e + 99] = "e±XX" and four[n] = n < 10**4 as four digits."""
    four = np.frombuffer(("%04d" * 10**4 % tuple(range(10**4))).encode(), "<u4")
    wide = four.astype(np.uint64)
    exponent = "".join(f"e{e:+03d}" for e in range(-99, 100))
    return (
        10.0 ** (6 - np.arange(-99, 100)),
        wide & 0xFF | ord(".") << 8 | wide >> 8 << 16,
        wide[:1000] >> 8 << 40,
        np.frombuffer(exponent.encode(), "<u4"),
        four,
    )


_SCI6_WORK = ("f8", "f8", "intp", "intp", "<u8", "<u8", "<u4", "?", "?")


def _sci6_words(x: np.ndarray, work: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``'%.6e' % v`` for every value of ``x`` as two words, and whether they are sure.

    With e = floor(log10 x) and the 7-digit mantissa m = rint(x * 10**(6 - e)),
    "d.dddddd" is the "<u8" word head[m // 1000] | tail[m % 1000] and "e±XX"
    the "<u4" word exponent[e + 99].  Zero, negative and non-finite values,
    three-digit exponents, decade edges (m not 7 digits) and near .5 ties
    (where the rint of a scaled value a few ulps off may err) are not sure,
    and their table indices are clipped.  Every step writes into ``work``, one
    reused array of each ``_SCI6_WORK`` dtype, len(x) or longer, whose views are returned."""
    scale, head, tail, exponent, _ = _csv_words()
    f, g, e, m, mantissa, low, expo, sure, ok = (a[: len(x)] for a in work)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.floor(np.log10(x, out=f), out=f)
        np.less(np.abs(f, out=g), 99, out=sure)  # false for 0, negatives, inf and nan
        np.add(f, 99, out=e, casting="unsafe")
        np.multiply(np.take(scale, e, out=g, mode="clip"), x, out=g)
        np.rint(g, out=f)
        sure &= np.greater_equal(g, 10**6, out=ok)  # false if e is too large
        sure &= np.less(f, 10**7, out=ok)  # false if e is too small, or on a carry
        np.subtract(0.5, np.abs(np.subtract(g, f, out=g), out=g), out=g)
        sure &= np.greater_equal(g, 1e-6, out=ok)  # false near a .5 tie
        np.copyto(m, f, casting="unsafe")
    np.take(exponent, e, out=expo, mode="clip")
    np.take(head, np.floor_divide(m, 1000, out=e), out=mantissa, mode="clip")
    m -= np.multiply(e, 1000, out=e)
    mantissa |= np.take(tail, m, out=low, mode="clip")
    return mantissa, expo, sure


def _index_words(start: int, out: np.ndarray) -> None:
    """Write the trial indices start, start + 1, ... into the rows of ``out``,
    (rows, w) "<u4", as w words of four ASCII digits, zero-padded, by slices:
    the last word runs through the table of words, and word j > 0 from the
    right is constant over runs of 10**(4 j) trials."""
    four, stop = _csv_words()[4], start + len(out)
    for j in range(out.shape[1]):
        run = 10 ** (4 * max(j, 1))
        for lo in range(start - start % run, stop, run):
            words = four[lo // run % 10**4] if j else four[max(start - lo, 0) : stop - lo]
            out[max(lo - start, 0) : lo + run - start, -1 - j] = words


# Rows per chunk of the campaign CSV.  Each of the two sides that format
# chunks in pairs has a byte table (38 bytes a row below 10**8 trials) and a
# formatting workspace (108 bytes a row); the export's peak for 10**6 rows
# is 14.5 MB at 2**15, and 27.7 MB at 2**16.
_CSV_CHUNK = 1 << 15


def _campaign_csv(report) -> Iterator[bytes]:
    """Per-trial CSV of a falsification campaign, as byte chunks: the bytes
    ``csv.writer`` gives for the rows ``%d,%.6e,%.6e,%d`` (trial, residual,
    spread, violation) under the header ``trial,residual,spread,violation``,
    CRLF line ends included.  A violation is a row with spread >=
    ``report.min_spread`` and residual < ``report.residual_tol``.

    Rows are formatted in fixed chunks of ``_CSV_CHUNK`` (2**15) rows, taken
    in pairs: the even chunk by the caller and the odd one by a worker
    thread, each side in its own reused byte table and ``_SCI6_WORK``
    workspace, so memory does not grow with the number of trials.  The
    caller yields its chunk's pieces before it joins the worker, so writing
    them overlaps the worker's formatting; the worker's pieces follow.
    """
    rows = report.rows
    width = len(str(max(len(rows) - 1, 0)))
    lead = 4 * -(-width // 4)
    sides = []
    for _ in range(2):
        table = np.empty((min(len(rows), _CSV_CHUNK), lead + 30), np.uint8)
        table[:, lead:] = np.frombuffer(b",d.dddddde+XX,d.dddddde+XX,0\r\n", np.uint8)
        sides.append((table, [np.empty(2 * len(table), dtype) for dtype in _SCI6_WORK]))
    _csv_words()  # built once, before two threads need it
    yield b"trial,residual,spread,violation\r\n"
    for start in range(0, len(rows), 2 * _CSV_CHUNK):
        odd = min(start + _CSV_CHUNK, len(rows))
        join = _start_thread(lambda: list(_campaign_csv_chunk(report, odd, width, *sides[1])))
        try:
            yield from _campaign_csv_chunk(report, start, width, *sides[0])
        finally:
            pieces = join()
        yield from pieces


def _campaign_csv_chunk(report, start: int, width: int, table: np.ndarray, work: list) -> Iterator[bytes]:
    """The CSV rows of trials ``start`` ... (at most ``_CSV_CHUNK`` of them, none
    from ``len(report.rows)`` on), formatted into ``table`` as words
    (``_index_words``, and ``_sci6_words`` on both fields at once in ``work``).
    Each decade of the index is one slab of the table, trimmed to the index's
    width; a row with a field that is not sure is formatted by Python and
    yielded between slabs."""
    rows, lead = report.rows, table.shape[1] - 30
    stop = min(start + _CSV_CHUNK, len(rows))
    block = table[: stop - start]
    _index_words(start, block[:, :lead].view("<u4"))
    record = block[:, lead:]
    chunk = rows[start:stop]
    violation = (chunk[:, 1] >= report.min_spread) & (chunk[:, 0] < report.residual_tol)
    record[:, 27] = ord("0") + violation
    mantissa, exponent, sure = _sci6_words(chunk.ravel(), work)
    fields = record[:, 1:27].reshape(-1, 2, 13)  # "d.dddddde+XX," twice
    fields[..., :8].view("<u8")[..., 0] = mantissa.reshape(-1, 2)
    fields[..., 8:12].view("<u4")[..., 0] = exponent.reshape(-1, 2)
    sure = sure[0::2] & sure[1::2]
    python = start + np.flatnonzero(~sure)
    edges = [[start, stop], 10 ** np.arange(1, width), python, python + 1]
    edges = np.unique(np.clip(np.concatenate(edges), start, stop)).tolist()
    for lo, hi in zip(edges[:-1], edges[1:]):
        if sure[lo - start]:
            yield block[lo - start : hi - start, lead - len(str(lo)) :].tobytes()
        else:
            yield b"%d,%.6e,%.6e,%d\r\n" % (lo, *rows[lo].tolist(), violation[lo - start])


def _strict(obj):
    """``obj`` with every non-finite float as None, so it dumps as strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brightlab",
        description="verification scenarios for projection functions of smooth convex bodies",
    )
    sub = parser.add_subparsers(dest="command", metavar="scenario")
    for name, spec in _SCENARIOS.items():
        p = sub.add_parser(name, help=_spec(name, {}).help)
        p.add_argument("--config", help="JSON config path (merged over scenario defaults)")
        p.add_argument("--seed", type=int, help="PRNG seed (required for randomized scenarios)")
        p.add_argument("--out", help="report path (default: <scenario>-report.json)")
        p.add_argument("--csv", action="store_true", help="also export CSV next to the report")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2

    try:
        spec, params = _resolve_params(args.command, args)
        start = time.perf_counter()
        checks, extras, *own_csv = spec.run(params, args.seed)
        wall = time.perf_counter() - start
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, TypeError, OverflowError, MemoryError) as exc:
        # a mistyped value, or a size or magnitude no run could reach
        print(f"error: invalid scenario inputs: {exc}", file=sys.stderr)
        return 2

    csv_chunks = own_csv[0] if own_csv else lambda: [_csv([("name", "value", "tol", "pass")] + [
        (c.name, f"{c.value:.12e}", f"{c.tol:.6e}", int(c.passed)) for c in checks
    ])]

    report = {
        "schema": 1,
        "scenario": args.command,
        "seed": args.seed if args.seed is not None else 0,
        "inputs": params,
        "checks": [c.to_dict() for c in checks],
        "extras": extras,
        "wall_time_s": wall,
        "version": __version__,
    }
    out_path = Path(args.out if args.out is not None else f"{args.command}-report.json")
    _write_atomic(out_path, [(json.dumps(_strict(report), indent=2, allow_nan=False) + "\n").encode()])
    if args.csv:
        _write_atomic(out_path.with_suffix(".csv"), csv_chunks())

    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"[{status}] {check.name}  value={check.value:.6e}  tol={check.tol:.6e}")
    print(f"report: {out_path}")
    return 0 if all(c.passed for c in checks) else 1


if __name__ == "__main__":
    raise SystemExit(main())
