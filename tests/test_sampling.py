"""Seeded samplers: Haar directions, the hemisphere grid, the median."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from brightlab.sampling import haar_directions, hemisphere_grid, median

ROOT = Path(__file__).resolve().parents[1]

# hemisphere_grid(n, 3, seed)
GRIDS = {
    (3, 0): [
        [0.18881711923692265, -0.19839032737660414, 0.9617636786063786],
        [0.16021416297716448, -0.818128926665578, 0.5522648652001644],
        [-0.7415052042025201, -0.5385471155343273, 0.4001712589507583],
    ],
    (3, 1): [
        [0.3635365676813111, 0.8642994867575062, 0.3476025908263671],
        [-0.7905711255738863, 0.5492416334746546, 0.2707968306072497],
        [-0.616361617317075, 0.6670578943701971, 0.4184878997733128],
    ],
    (5, 0): [
        [-0.14602560347382917, 0.1534292409269749, -0.743799726080363,
         -0.12183310248352787, 0.6221371663714453],
        [-0.16462240240818687, -0.5936685727724992, -0.43117498790027203,
         0.3203876369571453, 0.5761050097177057],
        [0.22918048087055135, -0.01519572578136902, 0.8549229962051034,
         0.08045055872560139, 0.4581263747770343],
    ],
    (5, 1): [
        [0.18682788364280709, 0.4441788207837846, 0.17863913060261133,
         -0.7045059155623068, 0.4894486622884318],
        [0.43672177466800965, -0.5253416847164021, 0.5685514934515166,
         0.35668856094139934, 0.2877719159642935],
        [-0.027086665688665204, -0.5210226643101704, 0.7018477335416321,
         0.15525472638194543, 0.45946428008665025],
    ],
}


class TestHemisphereGrid:
    @pytest.mark.parametrize("n, seed", sorted(GRIDS))
    def test_pinned_grid(self, n, seed):
        # the umbilic search's pinned results rest on this stream
        np.testing.assert_allclose(hemisphere_grid(n, 3, seed), GRIDS[n, seed], rtol=0, atol=1e-15)

    def test_unit_rows_on_the_upper_hemisphere(self):
        grid = hemisphere_grid(6, 100, 2)
        assert grid.shape == (100, 6)
        np.testing.assert_allclose(np.linalg.norm(grid, axis=1), 1.0, atol=1e-15)
        assert np.all(grid[:, -1] >= 0.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 70])
    def test_haar_directions_up_to_sign(self, n):
        grid = hemisphere_grid(n, 50, 7)
        haar = haar_directions(n, 50, 7)
        assert np.all(grid[:, -1] >= 0.0)
        signs = np.where(haar[:, -1] < 0.0, -1.0, 1.0)
        assert np.array_equal(grid, haar * signs[:, None])

    def test_deterministic_per_seed(self):
        assert np.array_equal(hemisphere_grid(4, 64, 3), hemisphere_grid(4, 64, 3))
        assert not np.array_equal(hemisphere_grid(4, 64, 3), hemisphere_grid(4, 64, 4))
        # a Generator seeded alike gives the same grid
        assert np.array_equal(hemisphere_grid(4, 64, np.random.default_rng(3)), hemisphere_grid(4, 64, 3))

    def test_empty_grid_refused(self):
        with pytest.raises(ValueError, match="positive"):
            hemisphere_grid(3, 0, 0)


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
