"""Scenario controls: the runs whose outcome the theorem fixes, in one table.

The source paper's theorem needs two projection functions because one is not
enough, and the scenarios show it through controls whose outcome is known:
positive pairs pass (exit 0), negative controls fail (exit 1) — a wrong scale,
and an odd perturbation of the ball that keeps every width (k = 1) but not
every shadow area (k = 2) — and a degenerate or asymmetric base, or a pair
with a shadow volume that is not positive, is refused (exit 2).  This table is
the one place a control is declared: a new one is a config file under
``scripts/configs/`` plus one row.  Each row runs ``cli.main`` in-process.

Besides the standard library it imports only pytest and brightlab, so the
table also runs on an install without the ``test`` extra (no hypothesis, no
scipy).
"""

import json
import math
import re
import shlex
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import pytest

from brightlab import cli

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "scripts" / "configs"
PASS, FAIL, REFUSED = 0, 1, 2


class Control(NamedTuple):
    name: str
    scenario: str
    config: Optional[str]  # a file name under scripts/configs/, or None for the defaults
    seed: Optional[int] = 1
    exit: int = PASS
    extras: Optional[Callable[[dict], bool]] = None  # must hold for the report's extras
    stderr: Optional[str] = None  # must appear in what the run prints to stderr


def spheroid_pole(x):
    """The default pair's umbilics are the poles +-e5, with relative radius a^2/b = 1/1.4."""
    return x["converged"] and abs(x["r0"] - 1.0 / 1.4) <= 1e-6 and abs(x["u0"][-1]) > 0.999


def polished_to_rounding(x):
    # the spheroid's pole is a double root: doubled steps reach it in 4 iterations, unit
    # steps in 20; a grid of max(8, 4000 // 20) = 200 directions, then 2n - 1 = 9 per iteration
    steps = x["gauss_newton_steps"]
    return x["umbilic_defect"] <= 1e-13 and steps <= 6 and x["evaluations"] == 200 + 9 * steps


def ball_of_radius_085(x):
    # a ball of radius 0.5 plus a shifted ball of radius 0.6 eroded by 0.25
    exact = 4 * math.pi / 3 * 0.85**3
    return abs(x["volume_median"] - exact) <= 1e-12 * exact


CONTROLS = [
    # every scenario at its defaults
    Control("verify_wedge_default", "verify-wedge", None),
    # shadows of the unit 3-ball on 2-planes are unit discs
    Control(
        "brightness_default", "brightness", None,
        extras=lambda x: abs(x["volume_median"] - math.pi) <= 1e-3,
    ),
    # the pair is a homothety of ratio 0.7, so its shadow areas are in ratio 0.7^2
    Control(
        "proportionality_default", "proportionality", None,
        extras=lambda x: abs(x["constant"] - 0.49) <= 1e-6,
    ),
    Control("umbilic_search_default", "umbilic-search", None, extras=spheroid_pole),
    # the check keeps its 1e-6; the defect itself reaches rounding (1.6e-16 to 1.0e-15 at seeds 1-3)
    Control("umbilic_search_to_rounding", "umbilic-search", None, extras=polished_to_rounding),
    Control("lemma_campaign_default", "lemma-campaign", None),
    Control("gallery_default", "gallery", None, seed=None),
    Control("ratio_e48_default", "ratio-e48", None),
    # the shipped configs
    Control("brightness_k4", "brightness", "brightness_k4.json"),
    Control("lemma_antipodal", "lemma-campaign", "lemma_antipodal.json"),
    Control("lemma_solver", "lemma-campaign", "lemma_solver.json"),
    Control("proportionality", "proportionality", "proportionality.json"),
    # the shipped search certifies to rounding too (2.2e-16 to 1.3e-15 at seeds 1-3)
    Control(
        "umbilic_antipodal", "umbilic-search", "umbilic_antipodal.json",
        extras=lambda x: x["r_defect"] <= 1e-13,
    ),
    Control("verify_wedge", "verify-wedge", "verify_wedge.json"),
    # 5 x 5 maps at grades 2-4: minors below the top grade
    # eigenvalues are solved for 3, 1 and 2 of the 200 defect matrices of grades 2, 3, 4
    Control(
        "verify_wedge_6d", "verify-wedge", "verify_wedge_6d.json",
        extras=lambda x: x["exact_norms"] == [3, 1, 2],
    ),
    # K = scale K0 + t needs scale > 0: at -0.7 grade 2 passed at 8.9e-16, as 0.49 = (-0.7)^2
    Control(
        "verify_wedge_negative_scale", "verify-wedge", "verify_wedge_negative_scale.json",
        exit=REFUSED, stderr="'scale' must be positive",
    ),
    # scale 0.701 against the pair's 0.7: defects 4.1e-3, 8.1e-3 and 1.0e-2
    Control("verify_wedge_wrong_beta", "verify-wedge", "verify_wedge_wrong_beta.json", exit=FAIL),
    # the 6-D pair at scale 0.7007, 0.1% above its 0.7: defects 6.5e-3, 9.7e-3 and 1.0e-2
    Control(
        "verify_wedge_6d_betas_off", "verify-wedge", "verify_wedge_6d_betas_off.json", exit=FAIL
    ),
    # grades 1 and 3 of the batched shadow kernel; at k = 1 the lifted tangent
    # frames have no column
    Control("proportionality_k1", "proportionality", "proportionality_k1.json"),
    Control("proportionality_k3", "proportionality", "proportionality_k3.json"),
    # grade 6 of a 7-D ball pair on its own default rule (p = 5 of the 4096
    # budget); a 256-node rule, sized for k = 2, has too few polar nodes here
    Control(
        "proportionality_k6_7d", "proportionality", "proportionality_k6_7d.json",
        extras=lambda x: abs(x["constant"] - 0.7**6) <= 1e-12,
    ),
    # an odd harmonic perturbation of a ball keeps every width (k = 1) but not
    # every shadow area (k = 2, spread 9.9e-5)
    Control(
        "brightness_odd_perturbation_widths", "brightness",
        "brightness_odd_perturbation_widths.json",
    ),
    Control(
        "brightness_odd_perturbation_areas", "brightness",
        "brightness_odd_perturbation_areas.json", exit=FAIL,
    ),
    Control(
        "brightness_minkowski_ball", "brightness", "brightness_minkowski_ball.json",
        extras=ball_of_radius_085,
    ),
    # a non-square solver: 15 equations in 10 unknowns take the SVD step
    Control(
        "lemma_solver_nonsquare", "lemma-campaign", "lemma_solver_nonsquare.json",
        extras=lambda x: x["solutions_found"] == 25,
    ),
    # m_len 8, k 3: chunks of 4,681 rows put the campaign's seams elsewhere
    Control("lemma_antipodal_m8_k3", "lemma-campaign", "lemma_antipodal_m8_k3.json"),
    # a base with a 1e-14 semiaxis is refused with the smallest eigenvalue of
    # the first base map relative_maps meets when it scores the grid
    Control(
        "umbilic_flat_base", "umbilic-search", "umbilic_flat_base.json", exit=REFUSED,
        stderr="not positive definite: smallest eigenvalue 1.504352e-14",
    ),
    # an odd cubic perturbation of the base: h0(v) != h0(-v)
    Control(
        "umbilic_asymmetric_base", "umbilic-search", "umbilic_asymmetric_base.json",
        exit=REFUSED, stderr="base body is not centrally symmetric",
    ),
    # k = n projects onto the whole space: every ratio is V(K)/V(K0), so only
    # quadrature noise is measured (3.9e-10 here; the same pair at k = 2 reads 0.53)
    Control(
        "proportionality_full_dimension", "proportionality",
        "proportionality_full_dimension.json", exit=REFUSED,
        stderr="'k' = 3 is the bodies' dimension",
    ),
    # a 1-D ellipsoid (a segment) has no proper subspace to project onto
    Control(
        "brightness_one_dimensional", "brightness", "brightness_one_dimensional.json",
        exit=REFUSED, stderr="dimension must be at least 2",
    ),
    # the same k = n refusal for one body: an ellipsoid that does not have
    # constant brightness read a spread of 5.0e-10, quadrature noise
    Control(
        "brightness_full_dimension", "brightness", "brightness_full_dimension.json",
        exit=REFUSED, stderr="'k' = 3 is the bodies' dimension",
    ),
    # grade j = n: the 4-D pair's grade-4 "shadows" are the bodies themselves,
    # whose volume ratio passed the cross-grade check at 2.2e-16
    Control(
        "ratio_e48_full_dimension", "ratio-e48", "ratio_e48_full_dimension.json", exit=REFUSED,
        stderr="'j' = 4 is the bodies' dimension",
    ),
    # the odd perturbation's widths match the ball's exactly (lambda_1 = 1), but
    # its shadow areas differ by O(eps^2), so the exponents part by 5.0e-5
    Control(
        "ratio_e48_odd_perturbation", "ratio-e48", "ratio_e48_odd_perturbation.json", exit=FAIL,
        extras=lambda x: abs(x["constants"][0] - 1.0) <= 1e-15,
    ),
    # an ellipsoid eroded by more than its least radius of curvature, 0.125, is not convex:
    # some of its shadows have negative "volume" (to -0.78 in 4-D), and a shadow
    # scenario refuses the first such frame where it used to return the pair as data
    Control(
        "proportionality_over_eroded", "proportionality", "proportionality_over_eroded.json",
        exit=REFUSED, stderr="the grade-2 shadow volume of 'base' on frame 10 is not positive",
    ),
    Control(
        "ratio_e48_over_eroded", "ratio-e48", "ratio_e48_over_eroded.json",
        exit=REFUSED, stderr="the grade-2 shadow volume of 'base' on frame 7 is not positive",
    ),
    Control(
        "brightness_over_eroded", "brightness", "brightness_over_eroded.json",
        exit=REFUSED, stderr="the grade-2 shadow volume of 'body' on frame 10 is not positive",
    ),
]


def strict_json(text: str) -> dict:
    def refuse(token):
        raise ValueError(f"report is not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("row", CONTROLS, ids=[row.name for row in CONTROLS])
def test_control(row, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = [row.scenario, "--out", str(out)]
    if row.config is not None:
        argv += ["--config", str(CONFIGS / row.config)]
    if row.seed is not None:
        argv += ["--seed", str(row.seed)]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == row.exit, err
    if row.stderr is not None:
        assert row.stderr in err
    # a refused run writes no report
    assert out.exists() == (row.exit != REFUSED)
    if out.exists():
        extras = strict_json(out.read_text())["extras"]
        assert row.extras is None or row.extras(extras), extras


SHADOW_ROWS = [
    row for row in CONTROLS if row.scenario in ("brightness", "proportionality", "ratio-e48")
]


@pytest.mark.parametrize("scale", [1e-3, 1e3])
@pytest.mark.parametrize("row", SHADOW_ROWS, ids=[row.name for row in SHADOW_ROWS])
def test_shadow_rows_do_not_depend_on_the_scale(row, scale, tmp_path, capsys):
    # every body of the row, the config's or the scenario's default, scaled by the
    # same c: shadow volumes scale by c^k, so no exit may change with c
    doc = json.loads((CONFIGS / row.config).read_text()) if row.config is not None else {}
    defaults = cli._spec(row.scenario, doc).defaults
    for key in ("body", "base"):
        if key in defaults:
            body = doc.get(key, defaults[key])
            doc[key] = {"family": "homothet", "params": {"base": body, "scale": scale}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    argv = [row.scenario, "--config", str(config), "--seed", str(row.seed)]
    code = cli.main(argv + ["--out", str(tmp_path / "report.json")])
    err = capsys.readouterr().err
    assert code == row.exit, err
    if row.stderr is not None:
        assert row.stderr in err


def test_every_scenario_default_and_config_is_a_row():
    assert len({row.name for row in CONTROLS}) == len(CONTROLS)
    defaults = {row.scenario for row in CONTROLS if row.config is None}
    assert defaults == set(cli._SCENARIOS)
    configs = {row.config for row in CONTROLS if row.config is not None}
    assert configs == {path.name for path in CONFIGS.glob("*.json")}


class ReadRecorder(dict):
    """Scenario params that record which keys a runner reads."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# counts small enough that each runner takes milliseconds
SMALL_COUNTS = {"samples": 2, "num_frames": 2, "trials": 20, "solutions": 1, "budget": 20}
RUNNERS = [
    pytest.param(spec, id=name if mode is None else f"{name}-{mode}")
    for name, entry in cli._SCENARIOS.items()
    for mode, spec in (entry.items() if isinstance(entry, dict) else [(None, entry)])
]


@pytest.mark.parametrize("spec", RUNNERS)
def test_every_key_a_scenario_accepts_is_read(spec, capsys):
    # a key no runner reads would be accepted and echoed in "inputs" for nothing;
    # "mode" is read by the parser, which picks the runner with it
    small = {key: count for key, count in SMALL_COUNTS.items() if key in spec.defaults}
    params = ReadRecorder({**spec.defaults, **small})
    spec.run(params, 1)
    assert set(params) - {"mode"} <= params.read, sorted(set(params) - params.read - {"mode"})


SHIPPED = [row for row in CONTROLS if row.config is not None and row.exit != REFUSED]


@pytest.mark.parametrize("row", SHIPPED, ids=[row.name for row in SHIPPED])
def test_every_key_a_shipped_config_sets_is_read(row, capsys):
    # a key that the run ignores (say a "scale" that another key overrides) reads
    # as a setting of the check but changes nothing
    doc = json.loads((CONFIGS / row.config).read_text())
    spec = cli._spec(row.scenario, doc)
    keys = set(doc) - {"schema", "scenario", "mode"}
    small = {key: count for key, count in SMALL_COUNTS.items() if key in spec.defaults}
    params = ReadRecorder({**spec.defaults, **{key: doc[key] for key in keys}, **small})
    spec.run(params, 1)
    assert keys <= params.read, sorted(keys - params.read)


def readme_section(title: str) -> str:
    text = (ROOT / "README.md").read_text()
    start = text.index(f"\n## {title}\n")
    return text[start : text.find("\n## ", start + 1)]


def test_readme_names_shipped_configs_with_their_exits():
    # (config, exit or None) for each config README's Controls table and
    # Command line block name; no scenario is run
    stated = []
    for line in readme_section("Controls").splitlines():
        if line.startswith("| `"):
            cells = line.split("|")
            stated += [(name, int(cells[-2])) for name in re.findall(r"`(\w+\.json)`", cells[1])]
    for line in readme_section("Command line").split("```")[1].splitlines():
        code = re.search(r"# exits (\d)", line)
        for name in re.findall(r"scripts/configs/(\w+\.json)", line):
            stated.append((name, int(code[1]) if code else None))
    exits = {row.config: row.exit for row in CONTROLS if row.config is not None}
    assert stated
    for name, code in stated:
        assert (CONFIGS / name).is_file(), f"README names {name}, which is not shipped"
        assert code in (None, exits[name]), f"README says {name} exits {code}"


def test_readme_command_line_block_runs_as_written(tmp_path, monkeypatch, capsys):
    # each `brightlab ...` line of the block, run in an empty working directory
    # with its scripts/configs/ paths taken from the checkout, exits as its
    # "# exits N" comment says, or 0; a flag the CLI no longer has exits 2
    monkeypatch.chdir(tmp_path)
    block = readme_section("Command line").split("```")[1]
    lines = [line for line in block.splitlines() if line.startswith("brightlab ")]
    assert lines
    for line in lines:
        argv = [
            str(ROOT / arg) if arg.startswith("scripts/configs/") else arg
            for arg in shlex.split(line, comments=True)[1:]
        ]
        try:
            code = cli.main(argv)
        except SystemExit as usage:  # argparse refuses an unknown flag
            code = usage.code
        stated = re.search(r"# exits (\d)", line)
        assert code == (int(stated[1]) if stated else 0), (line, capsys.readouterr().err)
