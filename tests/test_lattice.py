import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlwalk import LatticeMeasure, Window, mean_position, total_variation
from nlwalk.equilibrium import discrete_gaussian
from nlwalk.lattice import write_measure_csv


class TestWindow:
    def test_symmetric(self):
        w = Window.symmetric(3)
        assert w.n_min == -3 and w.n_max == 3 and w.size == 7
        assert list(w.sites()) == [-3, -2, -1, 0, 1, 2, 3]

    def test_index(self):
        w = Window.symmetric(3)
        assert w.index(-3) == 0 and w.index(3) == 6
        with pytest.raises(IndexError):
            w.index(4)

    def test_min_size(self):
        with pytest.raises(ValueError):
            Window(0, 2)


class TestMeanAndTV:
    def test_mean_delta(self):
        assert mean_position(LatticeMeasure.delta(5, Window.symmetric(6))) == 5.0

    def test_mean_half_half(self):
        w = Window.symmetric(2)
        vals = np.zeros(w.size)
        vals[w.index(0)] = 0.5
        vals[w.index(1)] = 0.5
        assert mean_position(LatticeMeasure(w, vals)) == pytest.approx(0.5)

    def test_mean_gaussian_half_integer(self):
        # invariant under n -> 1 - n, so the mean sits at 1/2
        m = discrete_gaussian(1.0, 0.5, Window.symmetric(12))
        assert mean_position(m) == pytest.approx(0.5, abs=1e-13)

    def test_tv_examples(self):
        w = Window.symmetric(3)
        d0 = LatticeMeasure.delta(0, w)
        d1 = LatticeMeasure.delta(1, w)
        assert total_variation(d0, d0) == 0.0
        assert total_variation(d0, d1) == pytest.approx(1.0)
        vals = np.zeros(w.size)
        vals[w.index(0)] = 0.5
        vals[w.index(1)] = 0.5
        u = LatticeMeasure(w, vals)
        assert total_variation(d0, u) == pytest.approx(0.5)

    def test_tv_different_windows(self):
        a = LatticeMeasure.delta(0, Window.symmetric(3))
        b = LatticeMeasure.delta(5, Window(3, 5))
        assert total_variation(a, b) == pytest.approx(1.0)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_tv_metric(self, seed):
        w = Window.symmetric(5)
        r = np.random.default_rng(seed)
        mk = lambda: LatticeMeasure.normalized(w, r.random(w.size))
        a, b, c = mk(), mk(), mk()
        ab, bc, ac = (
            total_variation(a, b),
            total_variation(b, c),
            total_variation(a, c),
        )
        assert 0 <= ab <= 1
        assert ac <= ab + bc + 1e-12
        assert total_variation(a, b) == total_variation(b, a)


class TestSerialization:
    def test_csv_roundtrip_values(self):
        w = Window.symmetric(2)
        m = LatticeMeasure.normalized(w, np.array([0.1, 0.2, 0.3, 0.25, 0.15]))
        fh = io.StringIO()
        write_measure_csv(m, fh)
        lines = fh.getvalue().strip().splitlines()
        assert lines[0] == "n,value"
        parsed = {int(r.split(",")[0]): float(r.split(",")[1]) for r in lines[1:]}
        for n in w.sites():
            assert parsed[int(n)] == m[int(n)]  # repr() round-trips exactly


class TestProbabilityValidation:
    def test_rejects_bad_mass(self):
        w = Window.symmetric(2)
        with pytest.raises(ValueError):
            LatticeMeasure(w, np.full(w.size, 1.0))

    def test_normalized_clips_tiny_negatives(self):
        w = Window.symmetric(2)
        vals = np.array([0.5, 0.5, -1e-14, 0.0, 0.0])
        m = LatticeMeasure.normalized(w, vals)
        assert (m.values >= 0).all()
        assert m.values.sum() == pytest.approx(1.0, abs=1e-12)
