"""The benchmark's workloads: CLI scenario reports and their independent checks.

A report is one in-process ``brightlab.cli.main(argv)`` call.  It fails when
the exit status is not 0, when a check in the report has ``"pass": false``,
or when the report disagrees with a closed form the benchmark knows on its
own (``verify``).  Every randomized scenario gets a seed derived from the
workload seed, so the same workload seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

# relative tolerance for closed-form references: quadrature of these bodies is
# exact up to rounding (about 1e-15), so anything larger is a real defect
REL_TOL = 1e-9


def derive_seed(seed: int, key: str) -> int:
    """Scenario seed from the workload seed; stable across Python versions."""
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _rel(value: float, exact: float) -> float:
    return abs(value - exact) / abs(exact)


def _ellipsoid(diag):
    n = len(diag)
    return {
        "family": "ellipsoid",
        "params": {"shape": [[diag[i] if i == j else 0.0 for j in range(n)] for i in range(n)]},
    }


_SHIFTED_BALL_5D = {
    "family": "homothet",
    "params": {
        "base": {"family": "ball", "params": {"dim": 5, "radius": 1.0}},
        "scale": 1.0,
        "shift": [0.3, 0.0, 0.0, 0.0, 0.0],
    },
}
_ELLIPSOID_6D = _ellipsoid([1.0, 1.69, 0.64, 1.21, 0.81, 1.44])
_HOMOTHET_6D = {
    "family": "homothet",
    "params": {"base": _ELLIPSOID_6D, "scale": 0.7, "shift": [0.1, 0.0, -0.2, 0.0, 0.05, 0.0]},
}


# ---------------------------------------------------------------------------
# independent references: report dict, report path -> list of mismatches


def _ball_volume(k: int):
    kappa = math.pi ** (k / 2) / math.gamma(k / 2 + 1)  # volume of the unit k-ball

    def verify(doc: dict, out: Path) -> list[str]:
        extras = doc["extras"]
        return [
            f"{key} = {extras[key]!r}, closed form {kappa!r}"
            for key in ("volume_min", "volume_max")
            if _rel(extras[key], kappa) > REL_TOL
        ]

    return verify


def _proportionality_constant(doc: dict, out: Path) -> list[str]:
    # Homothet(base, 0.7) against base at k = 2: ratio 0.7^2
    constant = doc["extras"]["constant"]
    return [] if _rel(constant, 0.49) <= REL_TOL else [f"constant {constant!r}, closed form 0.49"]


def _spheroid_pole(doc: dict, out: Path) -> list[str]:
    # spheroid (a = 1, b = 1.4, axis e5) against the unit ball: the relative
    # umbilics are the poles +-e5 with radius a^2 / b
    extras = doc["extras"]
    problems = []
    if _rel(extras["r0"], 1.0 / 1.4) > 1e-6:
        problems.append(f"r0 = {extras['r0']!r}, closed form {1.0 / 1.4!r}")
    u0 = extras["u0"]
    angle = math.acos(min(1.0, abs(u0[-1]) / math.sqrt(sum(v * v for v in u0))))
    if angle > 1e-3:
        problems.append(f"u0 is {angle:.3e} rad from the pole")
    return problems


def _campaign(csv: bool):
    def verify(doc: dict, out: Path) -> list[str]:
        problems = []
        trials = doc["inputs"]["trials"]
        if doc["extras"]["trials"] != trials:
            problems.append(f"campaign ran {doc['extras']['trials']} of {trials} trials")
        if csv:
            path = out.with_suffix(".csv")
            lines = path.read_bytes().count(b"\n") if path.exists() else -1
            if lines != trials + 1:
                problems.append(f"CSV has {lines} lines, expected {trials + 1}")
        return problems

    return verify


def _solver_roots(doc: dict, out: Path) -> list[str]:
    # a = 1, b = 2, k = 1, m = 3, n = 4 has the closed-form roots 1 +- 1/sqrt(3)
    values = doc["extras"]["candidate_values"]
    problems = [
        f"closed-form root {root!r} is not a candidate"
        for root in (1.0 + 1.0 / math.sqrt(3.0), 1.0 - 1.0 / math.sqrt(3.0))
        if min(abs(v - root) for v in values) > REL_TOL
    ]
    if doc["extras"]["solutions_found"] != doc["inputs"]["solutions"]:
        problems.append(f"found {doc['extras']['solutions_found']} solutions")
    return problems


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Report:
    name: str  # the end-to-end metric is f"{name}_s"
    scenario: str
    config: Optional[object] = None  # path under the checkout, or a config dict
    csv: bool = False
    seed_key: Optional[str] = None  # reports sharing a key get the same seed
    verify: Optional[Callable[[dict, Path], list]] = None
    # a failure this report shows on the parent code, counted as failed
    # operations but not as a benchmark error, with the reason
    known_defect: Optional[str] = None

    def argv(self, root: Path, workdir: Path, seed: int) -> list[str]:
        """CLI arguments; a config given as a dict is written to ``workdir``."""
        if isinstance(self.config, dict):
            config = workdir / f"{self.name}.config.json"
            config.write_text(json.dumps({"schema": 1, "scenario": self.scenario, **self.config}))
        else:
            config = root / self.config if self.config else None
        argv = [self.scenario]
        if config is not None:
            argv += ["--config", str(config)]
        argv += ["--seed", str(derive_seed(seed, self.seed_key or self.name))]
        argv += ["--out", str(workdir / f"{self.name}.json")]
        if self.csv:
            argv.append("--csv")
        return argv


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    reports: tuple
    # set-up probes that also run a cold pass, besides the measuring process;
    # a short pass is noisy alone, and a long one does not fit the run time twice
    fresh_cold_passes: int = 0


SHADOWS = Workload(
    name="shadows",
    why=(
        "Most time is per-node jet -> tangent_frame -> det inside volume_from_support. "
        "Exercises the batched-jet engine, the shared shadow loop and the k>=4 fix, "
        "and all three quadrature rules."
    ),
    reports=(
        Report(
            "proportionality",
            "proportionality",
            "scripts/configs/proportionality.json",
            verify=_proportionality_constant,
        ),
        Report("ratio_e48", "ratio-e48"),
        Report(
            "brightness_k3",
            "brightness",
            {"k": 3, "num_frames": 4, "nodes": 32, "body": _SHIFTED_BALL_5D},
            seed_key="brightness",
            verify=_ball_volume(3),
        ),
        Report(
            "brightness_k4",
            "brightness",
            {"k": 4, "num_frames": 4, "nodes": 4096, "body": _SHIFTED_BALL_5D},
            seed_key="brightness",
            verify=_ball_volume(4),
            known_defect=(
                "k>=4 quadrature samples a hemisphere only, which is biased for a "
                "translated body (ROADMAP item 4)"
            ),
        ),
    ),
    fresh_cold_passes=2,
)

CURVATURE = Workload(
    name="curvature",
    why=(
        "No shadow volumes: time goes to frames, relative maps, eigh, compound matrices, "
        "the compass search and the per-direction central-symmetry check."
    ),
    reports=(
        Report("verify_wedge", "verify-wedge", "scripts/configs/verify_wedge.json"),
        Report(
            "verify_wedge_6d",
            "verify-wedge",
            {
                "body": _HOMOTHET_6D,
                "base": _ELLIPSOID_6D,
                "grades": [2, 3, 4],
                "scale": 0.7,
                "samples": 200,
            },
        ),
        Report("umbilic_search", "umbilic-search", verify=_spheroid_pole),
    ),
    fresh_cold_passes=5,
)

LEMMA = Workload(
    name="lemma",
    why=(
        "No body, weingarten or tomography code. The campaign with and without CSV export "
        "shows a CSV change that helps one path and costs the other; the solver is a "
        "Python np.prod loop."
    ),
    reports=(
        Report(
            "campaign",
            "lemma-campaign",
            "scripts/configs/lemma_antipodal.json",
            seed_key="campaign",
            verify=_campaign(csv=False),
        ),
        Report(
            "campaign_csv",
            "lemma-campaign",
            "scripts/configs/lemma_antipodal.json",
            csv=True,
            seed_key="campaign",
            verify=_campaign(csv=True),
        ),
        Report("solver", "lemma-campaign", "scripts/configs/lemma_solver.json", verify=_solver_roots),
    ),
)

WORKLOADS = {w.name: w for w in (SHADOWS, CURVATURE, LEMMA)}
