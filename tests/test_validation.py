"""Unit tests for the shared validation helpers."""

import numpy as np
import pytest

from repro._validation import (
    as_float_array,
    as_int_array,
    require_array_shape,
    require_at_least,
    require_in_range,
    require_integer,
    require_non_negative,
    require_non_negative_array,
    require_positive,
)


class TestRequirePositive:
    def test_accepts_positive(self):
        assert require_positive(2.5, "x") == 2.5

    def test_rejects_zero(self):
        with pytest.raises(ValueError, match="x"):
            require_positive(0.0, "x")

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_positive(-1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            require_positive(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            require_positive(float("inf"), "x")


class TestRequireNonNegative:
    def test_accepts_zero(self):
        assert require_non_negative(0.0, "x") == 0.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            require_non_negative(-0.1, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            require_non_negative(float("nan"), "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            require_non_negative(float("inf"), "x")

    def test_returns_builtin_float(self):
        out = require_non_negative(np.float64(1.5), "x")
        assert type(out) is float and out == 1.5


class TestRequireAtLeast:
    def test_accepts_equal_to_minimum(self):
        assert require_at_least(1.0, 1.0, "x") == 1.0

    def test_accepts_above_minimum(self):
        assert require_at_least(2.5, 1.0, "x") == 2.5

    def test_rejects_below_minimum(self):
        with pytest.raises(ValueError, match="x must be a finite number >= 1.0"):
            require_at_least(0.999, 1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            require_at_least(float("nan"), 1.0, "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            require_at_least(float("inf"), 1.0, "x")

    def test_negative_minimum(self):
        assert require_at_least(-1.0, -2.0, "x") == -1.0


class TestRequireInRange:
    def test_accepts_boundaries(self):
        assert require_in_range(0.0, 0.0, 1.0, "x") == 0.0
        assert require_in_range(1.0, 0.0, 1.0, "x") == 1.0

    def test_rejects_outside(self):
        with pytest.raises(ValueError):
            require_in_range(1.5, 0.0, 1.0, "x")
        with pytest.raises(ValueError):
            require_in_range(-0.5, 0.0, 1.0, "x")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            require_in_range(float("nan"), 0.0, 1.0, "x")

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            require_in_range(float("inf"), 0.0, 1.0, "x")


class TestRequireInteger:
    def test_accepts_int(self):
        assert require_integer(3, "x") == 3

    def test_accepts_numpy_int(self):
        assert require_integer(np.int64(5), "x") == 5

    def test_rejects_bool(self):
        with pytest.raises(TypeError):
            require_integer(True, "x")

    def test_rejects_numpy_bool(self):
        with pytest.raises(TypeError):
            require_integer(np.bool_(True), "x")

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            require_integer(3.0, "x")

    def test_enforces_minimum(self):
        with pytest.raises(ValueError):
            require_integer(1, "x", minimum=2)


class TestArrayHelpers:
    def test_require_array_shape(self):
        arr = np.zeros((2, 3))
        assert require_array_shape(arr, (2, 3), "x") is arr
        with pytest.raises(ValueError):
            require_array_shape(arr, (3, 2), "x")

    def test_require_non_negative_array(self):
        arr = np.array([0.0, 1.0])
        assert require_non_negative_array(arr, "x") is arr
        with pytest.raises(ValueError):
            require_non_negative_array(np.array([-1.0]), "x")
        with pytest.raises(ValueError):
            require_non_negative_array(np.array([np.nan]), "x")
        with pytest.raises(ValueError):
            require_non_negative_array(np.array([np.inf]), "x")

    def test_as_float_array(self):
        out = as_float_array([1, 2, 3], "x")
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_as_float_array_rejects_strings(self):
        with pytest.raises(TypeError):
            as_float_array(["a"], "x")

    def test_as_float_array_keeps_nan(self):
        # Conversion is lossless; range checks are a separate concern.
        out = as_float_array([1.0, float("nan")], "x")
        assert np.isnan(out[1])

    def test_as_int_array(self):
        out = as_int_array([1, 2], "x")
        assert out.dtype == np.int64

    def test_as_int_array_rejects_lossy(self):
        with pytest.raises(ValueError):
            as_int_array(np.array([1.5]), "x")

    def test_as_int_array_accepts_integral_floats(self):
        np.testing.assert_array_equal(as_int_array(np.array([2.0, 3.0]), "x"), [2, 3])

    def test_as_int_array_bools_become_ints(self):
        out = as_int_array([True, False], "x")
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [1, 0])


def _result_fields():
    from repro.experiments.fig1_trace import Fig1Result
    from repro.experiments.fig5_snapshot import Fig5Result
    from repro.experiments.tradeoff_surface import SurfaceResult
    from repro.schedulers.lookahead import LookaheadSolution

    grid = np.arange(6.0).reshape(2, 3)
    return {
        LookaheadSolution: dict(
            frame_costs=np.array([1.0, 2.0]), frame_gaps=np.zeros(2), mean_cost=1.5,
            service=np.ones((2, 2, 2)), busy=np.zeros((2, 2, 1)),
        ),
        Fig1Result: dict(
            prices=grid, org_work=grid.T, price_means=(1.0, 2.0), price_cv=(0.1, 0.2),
            org_peak_to_mean=(3.0,), org_silent_fraction=(0.0,),
        ),
        Fig5Result: dict(
            prices_dc1=np.arange(3.0), grefar_work_dc1=np.ones(3),
            always_work_dc1=np.zeros(3), grefar_price_correlation=-0.5,
            always_price_correlation=0.1,
        ),
        SurfaceResult: dict(
            v_grid=(1.0, 2.0), beta_grid=(0.0, 1.0, 2.0),
            energy=grid, fairness=-grid, delay=grid + 1.0,
        ),
    }


@pytest.mark.parametrize("kind", ["LookaheadSolution", "Fig1Result", "Fig5Result", "SurfaceResult"])
def test_result_types_compare_and_hash_by_value(kind):
    cls, fields = next((c, f) for c, f in _result_fields().items() if c.__name__ == kind)
    first = cls(**fields)
    copied = cls(**{k: v.copy() if isinstance(v, np.ndarray) else v for k, v in fields.items()})
    assert first == copied
    assert hash(first) == hash(copied)
    name, value = next((k, v) for k, v in fields.items() if isinstance(v, np.ndarray))
    assert first != cls(**{**fields, name: value + 1.0})
