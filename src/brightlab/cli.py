"""Batch driver: run verification scenarios and emit machine-readable reports.

Each subcommand assembles a scenario from built-in defaults merged with an
optional JSON config, runs the library routines with an explicit seed, and
writes a schema-versioned JSON report atomically.  Every check is the pair
(value, tolerance) with pass defined uniformly as value <= tolerance.

Exit status: 0 when every check passes, 1 when some check fails (the report
is still written), 2 for configuration or validation errors.

Config schema (JSON object, all keys optional unless a scenario needs them):

    {"schema": 1, "scenario": "verify-wedge", "seed": 7, "tolerance": 1e-8,
     "out": "report.json", ...scenario keys...}

Report schema ("inputs" echoes the resolved scenario parameters):

    {"schema": 1, "scenario": str, "seed": int, "inputs": {...},
     "checks": [{"name": str, "value": float, "tol": float, "pass": bool}],
     "extras": {...}, "wall_time_s": float, "version": str}

Reports are strict JSON: a non-finite number (say, the best residual of a
campaign in which no trial was eligible) is written as null, and a check
whose value is null has failed.

Body documents are {"family": str, "params": {...}} as accepted by
``body_from_dict``; ``brightlab gallery`` lists the families.
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
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from . import __version__
from .body import FAMILIES, _is_number, body_from_dict
from .errors import PreconditionError
from .lemma_lab import (
    antipodal_falsification,
    enumerate_candidates,
    find_hypothesis_solutions,
    hypothesis_residual,
    match_candidates,
)
from .sampling import as_rng, haar_directions, median
from .tomography import projection_function, proportionality_test, ratio_consistency_check
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


def _resolve_params(scenario: str, args: argparse.Namespace) -> tuple[dict, Optional[int], Optional[str]]:
    """Merge defaults <- config <- CLI flags; returns (params, seed, out)."""
    spec = _SCENARIOS[scenario]
    params = copy.deepcopy(spec.defaults)
    seed = None
    out = None
    if args.config is not None:
        doc = _load_config(args.config)
        if doc.get("schema", 1) != 1:
            raise ConfigError(f"unsupported config schema {doc.get('schema')!r}; expected 1")
        if "scenario" in doc and doc["scenario"] != scenario:
            raise ConfigError(
                f"config is for scenario {doc['scenario']!r} but subcommand is {scenario!r}"
            )
        for key, value in doc.items():
            if key in ("schema", "scenario"):
                continue
            if key == "seed":
                seed = value
            elif key == "out":
                out = value
            elif key in spec.defaults:
                params[key] = value
            else:
                raise ConfigError(f"unknown config key {key!r} for scenario {scenario!r}")
    if args.seed is not None:
        seed = args.seed
    if args.out is not None:
        out = args.out
    if args.tolerance is not None:
        params["tolerance"] = args.tolerance
    if seed is not None and not (_is_int(seed) and seed >= 0):
        raise ConfigError(f"'seed' must be a nonnegative integer, got {seed!r}")
    if spec.needs_seed and seed is None:
        raise ConfigError(
            f"scenario {scenario!r} is randomized and requires an explicit --seed "
            "(or a \"seed\" config key); implicit wall-clock entropy is refused"
        )
    _check_floats(params)
    _check_integers(params, scenario)
    params["tolerance"] = float(params["tolerance"])
    return params, seed, out


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_floats(params: dict) -> None:
    """The float keys must be finite numbers, and ``betas`` null or a list of them.

    A string, a bool (which Python counts as the integer 0 or 1), null or a
    non-finite value is refused, not cast: a NaN ``residual_tol`` would run
    a campaign that can never find a violation.
    """
    for key in ("tolerance", "scale", "residual_tol", "min_spread", "a", "b"):
        if key in params and not _is_number(params[key]):
            raise ConfigError(f"{key!r} must be a finite number, got {params[key]!r}")
    betas = params.get("betas")
    if betas is not None and not (isinstance(betas, list) and all(map(_is_number, betas))):
        raise ConfigError(f"'betas' must be null or a list of finite numbers, got {betas!r}")


def _check_integers(params: dict, scenario: str) -> None:
    """Count keys must be integers >= 1, and the other integer keys integers.

    A config that checks nothing is refused: ``grades`` must not be empty,
    and ``brightness`` and ``proportionality``, which compare their frames
    with one another, need ``num_frames`` >= 2 (``ratio-e48`` compares two
    grades, so one frame each is a check).  ``nodes`` may be null (the
    rule's default), and so may ``k`` in ``lemma-campaign``, whose default
    depends on the mode; floats, bools and strings are refused.  The
    library checks the ranges of the keys that are not counts.
    """
    for key in ("samples", "num_frames", "trials", "solutions", "budget"):
        least = 2 if key == "num_frames" and scenario in ("brightness", "proportionality") else 1
        if key in params and not (_is_int(params[key]) and params[key] >= least):
            raise ConfigError(f"{key!r} must be an integer >= {least}, got {params[key]!r}")
    nullable = ("nodes", "k") if scenario == "lemma-campaign" else ("nodes",)
    for key in ("k", "i", "j", "m_len", "m", "n", "nodes"):
        if key in params and not (_is_int(params[key]) or key in nullable and params[key] is None):
            raise ConfigError(f"{key!r} must be an integer, got {params[key]!r}")
    if "grades" in params:
        grades = params["grades"]
        if not (isinstance(grades, list) and grades and all(map(_is_int, grades))):
            raise ConfigError(f"'grades' must be a non-empty list of integers, got {grades!r}")


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


def _run_verify_wedge(params: dict, seed: int):
    body, base = _pair(params)
    grades = params["grades"]
    if params["betas"] is not None:
        betas = [float(b) for b in params["betas"]]
        if len(betas) != len(grades):
            raise ConfigError("betas must align with grades")
    else:
        betas = [float(params["scale"]) ** k for k in grades]
    tol = params["tolerance"]
    dirs = haar_directions(body.dim, params["samples"], as_rng(seed))
    defects = wedge_identity_defects(body, base, grades, betas, dirs)
    checks = [Check(f"wedge_defect_k{k}", float(d.max()), tol) for k, d in zip(grades, defects)]
    return checks, {}


def _run_brightness(params: dict, seed: int):
    body = _body(params, "body")
    samples = projection_function(
        body, params["k"], params["num_frames"], seed, nodes=params["nodes"]
    )
    vols = np.asarray([v for _, v in samples])
    mid = median(vols)
    spread = float((vols.max() - vols.min()) / max(abs(mid), 1e-300))
    checks = [Check("brightness_spread_rel", spread, params["tolerance"])]
    extras = {
        "volume_median": mid,
        "volume_min": float(vols.min()),
        "volume_max": float(vols.max()),
    }
    return checks, extras


def _run_proportionality(params: dict, seed: int):
    body, base = _pair(params)
    report = proportionality_test(
        body, base, params["k"], params["num_frames"], seed, nodes=params["nodes"]
    )
    tol = params["tolerance"]
    checks = [Check("proportionality_max_rel_deviation", report.max_rel_deviation, tol)]
    return checks, {"constant": report.constant, "excluded": report.excluded}


def _run_umbilic_search(params: dict, seed: int):
    body, base = _pair(params)
    objective = str(params["objective"])
    tol = params["tolerance"]
    result = antipodal_search(
        body, base, seed=seed, budget=params["budget"], objective=objective, tol=tol
    )
    value = result.r_defect if objective == "antipodal" else result.umbilic.defect
    checks = [Check("search_defect", value, tol)]
    extras = {
        "u0": [float(v) for v in result.umbilic.u0],
        "r0": result.umbilic.r0,
        "umbilic_defect": result.umbilic.defect,
        "r_defect": result.r_defect,
        "converged": result.converged,
        "evaluations": result.evaluations,
        "objective_calls": result.objective_calls,
        "objective_rows": result.objective_rows,
        "objective": objective,
    }
    return checks, extras


def _run_lemma_campaign(params: dict, seed: int):
    mode = str(params["mode"])
    if mode == "antipodal":
        trials = params["trials"]
        report = antipodal_falsification(
            params["m_len"],
            2 if params["k"] is None else params["k"],
            trials,
            seed=seed,
            tol=float(params["residual_tol"]),
            min_spread=float(params["min_spread"]),
        )
        checks = [Check("violations_found", 1.0 if report.found_violation else 0.0, 0.0)]
        if report.best_x is None:
            # every trial fell below min_spread, so the campaign tested nothing
            checks.append(Check("no_eligible_trial", 1.0, 0.0))
        eligible, violation = _campaign_masks(report)
        extras = {
            "best_residual": report.best_residual,
            "best_gamma": report.best_gamma,
            "best_x": [float(v) for v in report.best_x] if report.best_x is not None else None,
            "trials": trials,
            "eligible_trials": int(eligible.sum()),
            "violations": int(violation.sum()),
        }
        return checks, extras, lambda: _campaign_csv(report, violation)
    if mode == "solver":
        a, b = float(params["a"]), float(params["b"])
        k = 1 if params["k"] is None else params["k"]
        m, n = params["m"], params["n"]
        wanted = params["solutions"]
        cands = enumerate_candidates(a, b, k, m, n)
        found = find_hypothesis_solutions(a, b, k, m, n, wanted, seed=seed)
        worst = 0.0
        rows = [("solution", "residual", "worst_candidate_distance")]
        for idx, inst in enumerate(found):
            dist = match_candidates(inst.y, cands)
            worst = max(worst, dist)
            rows.append((idx, f"{hypothesis_residual(inst).max():.3e}", f"{dist:.3e}"))
        checks = [
            Check("candidate_match_worst", worst, params["tolerance"]),
            Check("solution_shortfall", float(wanted - len(found)), 0.0),
        ]
        extras = {
            "solutions_found": len(found),
            "candidate_values": sorted({round(float(v), 12) for v in cands}),
            "restarts": found.restarts,
            "gauss_newton_steps": found.gauss_newton_steps,
        }
        return checks, extras, lambda: [_csv(rows)]
    raise ConfigError(f"unknown lemma-campaign mode {mode!r} (expected 'antipodal' or 'solver')")


def _campaign_masks(report):
    """Eligible trials (spread >= min_spread) and violations among them (residual < tol)."""
    eligible = report.rows[:, 1] >= report.min_spread
    return eligible, eligible & (report.rows[:, 0] < report.residual_tol)


def _run_gallery(params: dict, seed):
    for name, cls in FAMILIES.items():
        print(f"{name:22s} {cls.__name__}({', '.join(f.name for f in fields(cls))})")
        print(f"{'':22s} {inspect.getdoc(cls).splitlines()[0]}")
    return [], {"families": list(FAMILIES)}


def _run_ratio_e48(params: dict, seed: int):
    body, base = _pair(params)
    defect = ratio_consistency_check(
        body, base, params["i"], params["j"], params["num_frames"], seed, nodes=params["nodes"]
    )
    return [Check("cross_grade_ratio_defect", defect, params["tolerance"])], {}


@dataclass(frozen=True)
class Scenario:
    run: Callable  # params, seed -> (checks, extras[, csv]); csv() -> CSV byte chunks
    defaults: dict  # every key a config may set, "tolerance" included
    help: str
    needs_seed: bool = True


_SCENARIOS: dict[str, Scenario] = {
    "verify-wedge": Scenario(
        _run_verify_wedge,
        {
            "body": _HOMOTHET_4D,
            "base": _ELLIPSOID_4D,
            "grades": [1, 2, 3],
            "scale": 0.7,
            "betas": None,
            "samples": 100,
            "tolerance": 1e-8,
        },
        "exterior-power identity defects for a body pair over random directions",
    ),
    "brightness": Scenario(
        _run_brightness,
        {"body": _BALL_3D, "k": 2, "num_frames": 20, "nodes": None, "tolerance": 1e-6},
        "constancy of the k-th projection function over random subspaces",
    ),
    "proportionality": Scenario(
        _run_proportionality,
        {
            "body": _HOMOTHET_4D,
            "base": _ELLIPSOID_4D,
            "k": 2,
            "num_frames": 50,
            "nodes": 256,
            "tolerance": 1e-5,
        },
        "ratios V_k(K|U)/V_k(K0|U) over random subspaces",
    ),
    "umbilic-search": Scenario(
        _run_umbilic_search,
        {
            "body": _SPHEROID_5D,
            "base": _BALL_5D,
            "objective": "umbilic",
            "budget": 4000,
            "tolerance": 1e-6,
        },
        "antipodal search for a common relative umbilic direction",
    ),
    "lemma-campaign": Scenario(
        _run_lemma_campaign,
        {
            "mode": "antipodal",
            "m_len": 6,
            # grade default depends on the mode: 2 for the antipodal sweep,
            # 1 for the solver (the smallest instance with known roots).
            "k": None,
            "trials": 100000,
            "residual_tol": 1e-9,
            "min_spread": 1e-3,
            # solver mode
            "a": 1.0,
            "b": 2.0,
            "m": 3,
            "n": 4,
            "solutions": 25,
            "tolerance": 1e-6,
        },
        "randomized campaigns for the subset-product relation lemmas",
    ),
    "gallery": Scenario(
        _run_gallery,
        {"tolerance": 0.0},
        "print the built-in body families and their closed-form properties",
        needs_seed=False,
    ),
    "ratio-e48": Scenario(
        _run_ratio_e48,
        {
            "body": _HOMOTHET_4D,
            "base": _ELLIPSOID_4D,
            "i": 1,
            "j": 2,
            "num_frames": 20,
            "nodes": 256,
            "tolerance": 1e-6,
        },
        "cross-grade consistency of projection-volume ratio exponents",
    ),
}


# ---------------------------------------------------------------------------
# report assembly and output


def _write_atomic(path: Path, chunks: Iterable[bytes]) -> None:
    """Write a fresh file beside ``path``, created 0666 less the umask as ``open``
    would (not ``mkstemp``'s 0600, which the rename would keep), and rename it."""
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


def _round7(x: np.ndarray, e: np.ndarray):
    """rint(x * 10**(6 - e)), and whether the scaled value is too near a .5 tie.

    The scaled value is below about 1e7 and off by a few ulps (< 1e-8), so
    away from a tie its rint is that of the exact product.
    """
    scaled = x * _csv_words()[0][e + 99]
    return np.rint(scaled).astype(np.uint32), np.abs(scaled - np.floor(scaled) - 0.5) < 1e-6


def _sci6_words(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``'%.6e' % v`` for every value of ``x`` as two words, and whether they are sure.

    With e = floor(log10 x) and the 7-digit mantissa m = rint(x * 10**(6 - e)),
    renormalized once when m has 6 or 8 digits, "d.dddddd" is the "<u8" word
    head[m // 1000] | tail[m % 1000] and "e±XX" the "<u4" word exponent[e + 99].
    Zero, negative and non-finite values, three-digit exponents and near ties
    are not sure."""
    _, head, tail, exponent, _ = _csv_words()
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(x))
    sure = (x > 0) & (np.abs(e) < 99)  # false for 0, negatives, inf and nan
    e = np.where(sure, e, 0).astype(np.int64)
    positive = np.where(sure, x, 1.0)
    m, tie = _round7(positive, e)
    step = (m >= 10**7).astype(np.int64) - (m < 10**6)
    moved = np.flatnonzero(step)
    e[moved] += step[moved]
    m[moved], tie_moved = _round7(positive[moved], e[moved])
    tie[moved] |= tie_moved
    high, low = np.divmod(m, np.uint32(1000))
    return head[high] | tail[low], exponent[e + 99], sure & ~tie


def _index_words(trial: np.ndarray, out: np.ndarray) -> None:
    """Write each trial index into its row of ``out``, (len(trial), w) "<u4",
    as w words of four ASCII digits, zero-padded."""
    for col in range(out.shape[1] - 1, -1, -1):
        trial, low = np.divmod(trial, 10**4)
        out[:, col] = _csv_words()[4][low]


# Rows per chunk of the campaign CSV: the chunk's byte table (38 bytes a row
# below 10**8 trials) and the kernels' temporaries stay near the L2 cache.
_CSV_CHUNK = 1 << 16


def _campaign_csv(report, violation: np.ndarray) -> Iterator[bytes]:
    """Per-trial CSV of a falsification campaign, as byte chunks: the bytes
    ``csv.writer`` gives for the rows ``%d,%.6e,%.6e,%d`` (trial, residual,
    spread, violation) under the header ``trial,residual,spread,violation``,
    CRLF line ends included.  ``violation`` is the per-trial mask of
    ``_campaign_masks``.

    Rows are formatted in fixed chunks of ``_CSV_CHUNK`` (2**16) rows, each
    into one reused fixed-width byte table as words (``_index_words``,
    ``_sci6_words``), so memory does not grow with the number of trials.
    Each decade of the index is one slab of the table, trimmed to the
    index's width; a row with a field that is not sure is formatted by
    Python and yielded between slabs.
    """
    rows = report.rows
    width = len(str(max(len(rows) - 1, 0)))
    lead = 4 * -(-width // 4)
    table = np.empty((min(len(rows), _CSV_CHUNK), lead + 30), np.uint8)
    table[:, lead:] = np.frombuffer(b",d.dddddde+XX,d.dddddde+XX,0\r\n", np.uint8)
    yield b"trial,residual,spread,violation\r\n"
    for start in range(0, len(rows), _CSV_CHUNK):
        stop = min(start + _CSV_CHUNK, len(rows))
        block = table[: stop - start]
        _index_words(np.arange(start, stop), block[:, :lead].view("<u4"))
        record = block[:, lead:]
        record[:, 27] = ord("0") + violation[start:stop]
        sure = np.ones(stop - start, bool)
        for col, values in ((1, rows[start:stop, 0]), (14, rows[start:stop, 1])):
            mantissa, exponent, ok = _sci6_words(values)
            record[:, col : col + 8].view("<u8")[:, 0] = mantissa
            record[:, col + 8 : col + 12].view("<u4")[:, 0] = exponent
            sure &= ok
        python = start + np.flatnonzero(~sure)
        edges = [[start, stop], 10 ** np.arange(1, width), python, python + 1]
        edges = np.unique(np.clip(np.concatenate(edges), start, stop)).tolist()
        for lo, hi in zip(edges[:-1], edges[1:]):
            if sure[lo - start]:
                yield block[lo - start : hi - start, lead - len(str(lo)) :].tobytes()
            else:
                yield b"%d,%.6e,%.6e,%d\r\n" % (lo, *rows[lo].tolist(), violation[lo])


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
        p = sub.add_parser(name, help=spec.help)
        p.add_argument("--config", help="JSON config path (merged over scenario defaults)")
        p.add_argument("--seed", type=int, help="PRNG seed (required for randomized scenarios)")
        p.add_argument("--out", help="report path (default: <scenario>-report.json)")
        p.add_argument("--csv", action="store_true", help="also export CSV next to the report")
        p.add_argument("--tolerance", type=float, help="override the scenario check tolerance")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help(sys.stderr)
        return 2

    try:
        params, seed, out = _resolve_params(args.command, args)
        start = time.perf_counter()
        checks, extras, *own_csv = _SCENARIOS[args.command].run(params, seed)
        wall = time.perf_counter() - start
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, ValueError, TypeError, OverflowError, MemoryError) as exc:
        # a mistyped value, or a size or magnitude no run could reach
        print(f"error: invalid scenario inputs: {exc}", file=sys.stderr)
        return 2

    csv_chunks = own_csv[0] if own_csv else lambda: [_csv([("name", "value", "tol", "pass")] + [
        (c.name, f"{c.value:.12e}", f"{c.tol:.6e}", int(c.passed)) for c in checks
    ])]

    report = {
        "schema": 1,
        "scenario": args.command,
        "seed": seed if seed is not None else 0,
        "inputs": params,
        "checks": [c.to_dict() for c in checks],
        "extras": extras,
        "wall_time_s": wall,
        "version": __version__,
    }
    out_path = Path(out) if out is not None else Path(f"{args.command}-report.json")
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
