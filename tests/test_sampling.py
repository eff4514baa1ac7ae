"""Seeded samplers: the scrambled Sobol sequence, the inverse normal CDF, grids, the median."""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from brightlab.sampling import MAX_GRID_DIM, _ndtri, _sobol, hemisphere_grid, median

ROOT = Path(__file__).resolve().parents[1]

# 2**30 times the first four points of _sobol(d, 2, seed)
SOBOL_D3_SEED0 = [
    [440180019, 1035216202, 920899910],
    [841105081, 186593514, 304032759],
    [764874433, 628882517, 684669873],
    [92908875, 332458485, 204718336],
]
SOBOL_D5_SEED1 = [
    [307271798, 174628328, 631746294, 307996591, 549404812],
    [688642576, 957392158, 504480622, 912742096, 492477055],
    [1037501433, 474090157, 1066879367, 234857581, 15435173],
    [109855135, 792343131, 69280799, 700667154, 1024352086],
]
# hemisphere_grid(n, 3, seed)
GRIDS = {
    (3, 0): [
        [-0.10806537404343763, 0.8546708365359521, 0.5077988145986435],
        [-0.5799634700729788, 0.6952967619550806, 0.4245053429530529],
        [0.804658649801584, 0.31091778550912225, 0.5058207073198916],
    ],
    (3, 1): [
        [-0.4884251762224373, -0.8509509342860321, 0.1931925326450536],
        [-0.8565963830921819, -0.1420296886086228, 0.4960546381469783],
        [0.24347932308910386, -0.13938412377116136, 0.9598384683209031],
    ],
    (5, 0): [
        [0.10140079990601336, -0.801961842525542, -0.47648200404072605,
         -0.18828482886627917, 0.28998069583264985],
        [0.5658823253096913, -0.5144818096295741, -0.5941076623016369,
         -0.24313744398997186, 0.054826365800433464],
        [0.0926766269222038, 0.3110807962076272, 0.30554368250988656,
         0.3775215988795207, 0.811640487846004],
    ],
    (5, 1): [
        [-0.43905678872967036, -0.7649396525046999, 0.173665275909241,
         -0.4375145348000665, 0.022756715018373244],
        [-0.21840214001939554, -0.7451490281398082, 0.04565510946710838,
         -0.6253374152027215, 0.06262714446925627],
        [-0.4728754970995123, 0.03804321777517432, -0.6439577407609135,
         0.20083341510720354, 0.5656198770505486],
    ],
}


class TestSobol:
    @pytest.mark.parametrize(
        "d, seed, expected", [(3, 0, SOBOL_D3_SEED0), (5, 1, SOBOL_D5_SEED1)]
    )
    def test_pinned_points(self, d, seed, expected):
        assert np.array_equal(_sobol(d, 2, seed), np.array(expected) * 2.0**-30)

    @pytest.mark.parametrize("d", [1, 5, 64])
    def test_each_coordinate_is_stratified(self, d):
        # every coordinate of 2**m Sobol points puts exactly one point in each
        # interval [i / 2**m, (i + 1) / 2**m); scrambling keeps that
        cells = np.floor(_sobol(d, 6, 3) * 64).astype(int)
        assert all(sorted(column) == list(range(64)) for column in cells.T)

    def test_matches_scipy_bit_for_bit(self):
        qmc = pytest.importorskip("scipy.stats.qmc")
        for d in [1, 2, 3, 4, 5, 6, 8, 20, 64]:
            for m in [0, 1, 3, 10, 12]:
                for seed in [0, 1, 7, 12345]:
                    engine = qmc.Sobol(d, scramble=True, seed=np.random.default_rng(seed))
                    assert np.array_equal(_sobol(d, m, seed), engine.random_base2(m)), (d, m, seed)


class TestNdtri:
    def test_central_region_equals_statistics_exactly(self):
        rng = np.random.default_rng(0)
        p = np.concatenate([rng.uniform(0.075, 0.925, 20000), [0.075, 0.5, 0.925]])
        inv_cdf = statistics.NormalDist().inv_cdf
        assert np.array_equal(_ndtri(p), [inv_cdf(v) for v in p])

    def test_tails_within_four_ulp_of_statistics(self):
        # np.log and math.log may round differently, and the tail polynomials
        # amplify a one-ulp difference in log(p) by up to a few ulp
        rng = np.random.default_rng(1)
        low = 10.0 ** rng.uniform(-12, np.log10(0.075), 20000)
        p = np.concatenate([low, 1.0 - low, [1e-12, 1 - 1e-12]])
        expected = np.array([statistics.NormalDist().inv_cdf(v) for v in p])
        assert np.all(np.abs(_ndtri(p) - expected) <= 4 * np.spacing(np.abs(expected)))

    def test_antisymmetric_in_the_tails(self):
        p = 2.0 ** -np.arange(4, 40)
        assert np.array_equal(_ndtri(p), -_ndtri(1.0 - p))


class TestHemisphereGrid:
    @pytest.mark.parametrize("n, seed", sorted(GRIDS))
    def test_pinned_grid(self, n, seed):
        # the tails of the inverse CDF use np.log, whose last bit may vary by platform
        np.testing.assert_allclose(hemisphere_grid(n, 3, seed), GRIDS[n, seed], rtol=0, atol=1e-15)

    def test_unit_rows_on_the_upper_hemisphere(self):
        grid = hemisphere_grid(6, 100, 2)
        assert grid.shape == (100, 6)
        np.testing.assert_allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-15)
        assert np.all(grid[:, -1] >= 0.0)

    def test_dimension_cap_is_named(self):
        assert hemisphere_grid(MAX_GRID_DIM, 8, 0).shape == (8, 64)
        with pytest.raises(ValueError, match="64"):
            hemisphere_grid(65, 8, 0)


class TestMedian:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 101])
    def test_equals_numpy_median_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for values in (rng.standard_normal(n), np.round(rng.uniform(-3, 3, n)), np.full(n, 0.1)):
            assert median(values) == float(np.median(values))

    def test_infinities_and_nan(self):
        assert median([np.inf, 1.0, np.inf]) == np.inf
        with np.errstate(invalid="ignore"):
            assert np.isnan(median([-np.inf, np.inf]))
        for values in ([np.nan], [1.0, np.nan, 2.0], [np.nan, -np.inf, 3.0, 4.0]):
            assert np.isnan(median(values)) and np.isnan(np.median(values))

    def test_empty_sample_refused(self):
        with pytest.raises(ValueError, match="empty"):
            median([])


def run_python(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy():
    code = "import brightlab.cli, sys; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    assert run_python(code) == "False"


def test_brightness_run_loads_no_numpy_ma(tmp_path):
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"num_frames": 3, "nodes": 16}))
    argv = ["brightness", "--config", str(config), "--seed", "1", "--out", str(tmp_path / "b.json")]
    code = f"import sys, brightlab.cli as c; c.main({argv!r}); print('numpy.ma' in sys.modules)"
    assert run_python(code) == "False"
    assert json.loads((tmp_path / "b.json").read_text())["checks"][0]["pass"]
