import io
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nlwalk
from nlwalk import (
    LatticeFunction,
    LatticeMeasure,
    Window,
    mean_position,
    norm_minus,
    norm_plus,
    pairing,
    total_variation,
)
from nlwalk.equilibrium import discrete_gaussian
from nlwalk.errors import NumericalError
from nlwalk.lattice import (
    measure_from_json,
    measure_to_json,
    with_values,
    write_measure_csv,
)


def _signed(window, values):
    return LatticeMeasure(window, values, is_probability=False)


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


class TestNorms:
    def test_point_mass_at_zero(self):
        m = LatticeMeasure.delta(0, Window.symmetric(5))
        for alpha in (-1.0, 0.0, 2.0):
            assert norm_plus(m, alpha) == pytest.approx(1.0, rel=1e-15)

    def test_point_mass_at_two(self):
        m = LatticeMeasure.delta(2, Window.symmetric(5))
        assert norm_plus(m, 0.0) == pytest.approx(math.exp(2.0), rel=1e-13)

    def test_symmetric_pair(self):
        w = Window.symmetric(3)
        vals = np.zeros(w.size)
        vals[w.index(-1)] = 0.5
        vals[w.index(1)] = 0.5
        m = LatticeMeasure(w, vals)
        assert norm_plus(m, 1.0) == pytest.approx(math.exp(1.5), rel=1e-13)

    def test_norm_minus_indicator(self):
        w = Window.symmetric(5)
        f = LatticeFunction.from_callable(w, lambda n: 1.0 if n == 0 else 0.0)
        assert norm_minus(f, 3.0) == pytest.approx(1.0, rel=1e-15)

    def test_norm_minus_all_ones(self):
        w = Window.symmetric(2)
        f = LatticeFunction.from_callable(w, lambda n: 1.0)
        expected = 1 + 2 * math.exp(-0.5) + 2 * math.exp(-2.0)
        assert norm_minus(f, 0.0) == pytest.approx(expected, rel=1e-13)

    def test_norm_minus_cancelling_weights(self):
        w = Window.symmetric(3)
        f = LatticeFunction.from_callable(w, lambda n: math.exp(n * n / 2.0))
        assert norm_minus(f, 0.0) == pytest.approx(7.0, rel=1e-12)

    @given(
        scale=st.floats(-5, 5),
        alpha=st.floats(-2, 2),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_homogeneity_and_triangle(self, scale, alpha, seed):
        w = Window.symmetric(6)
        r = np.random.default_rng(seed)
        a = _signed(w, r.normal(size=w.size))
        b = _signed(w, r.normal(size=w.size))
        na, nb = norm_plus(a, alpha), norm_plus(b, alpha)
        scaled = norm_plus(with_values(a, scale * a.values), alpha)
        assert scaled == pytest.approx(abs(scale) * na, rel=1e-10, abs=1e-12)
        nsum = norm_plus(with_values(a, a.values + b.values), alpha)
        assert nsum <= na + nb + 1e-10 * (na + nb)


class TestPairing:
    def test_delta_extracts_value(self):
        w = Window.symmetric(4)
        m = LatticeMeasure.delta(0, w)
        f = LatticeFunction.from_callable(w, lambda n: n * n + 1.0)
        assert pairing(m, f) == pytest.approx(1.0, rel=1e-15)

    def test_uniform_odd_function(self):
        w = Window.symmetric(1)
        m = LatticeMeasure(w, np.full(3, 1 / 3))
        f = LatticeFunction.from_callable(w, float)
        assert pairing(m, f) == pytest.approx(0.0, abs=1e-15)

    def test_gaussian_odd_function(self):
        w = Window.symmetric(10)
        m = discrete_gaussian(1.0, 0.0, w)
        f = LatticeFunction.from_callable(w, float)
        assert pairing(m, f) == pytest.approx(0.0, abs=1e-14)

    @given(alpha=st.floats(-2, 2), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_duality_bound(self, alpha, seed):
        w = Window.symmetric(6)
        r = np.random.default_rng(seed)
        m = _signed(w, r.normal(size=w.size))
        f = LatticeFunction(w, r.normal(size=w.size))
        assert abs(pairing(m, f, alpha)) <= norm_plus(m, alpha) * norm_minus(
            f, alpha
        ) * (1 + 1e-12)

    def test_unconfirmable_bound_raises(self):
        # exp(-40^2/2) underflows, so norm_minus(f) = 0 < |<m, f>|
        w = Window(40, 3)
        m = _signed(w, np.array([1e-250, 0.0, 0.0]))
        f = LatticeFunction(w, np.array([1.0, 0.0, 0.0]))
        with pytest.raises(NumericalError, match="duality bound"):
            pairing(m, f, 0.0)

    def test_bound_check_survives_optimize_flag(self):
        code = textwrap.dedent(
            """
            import numpy as np
            from nlwalk import LatticeFunction, LatticeMeasure, Window, pairing
            from nlwalk.errors import NumericalError

            w = Window(40, 3)
            m = LatticeMeasure(w, np.array([1e-250, 0.0, 0.0]), is_probability=False)
            f = LatticeFunction(w, np.array([1.0, 0.0, 0.0]))
            try:
                pairing(m, f, 0.0)
            except NumericalError:
                raise SystemExit(0)
            raise SystemExit(1)
            """
        )
        src = str(Path(nlwalk.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", code], env=env, capture_output=True,
            text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr


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

    def test_json_roundtrip(self):
        w = Window(-3, 7)
        m = LatticeMeasure.normalized(w, np.arange(1.0, 8.0))
        back = measure_from_json(measure_to_json(m))
        assert back.window == m.window
        assert np.array_equal(back.values, m.values)


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
        assert m.mass() == pytest.approx(1.0, abs=1e-12)
