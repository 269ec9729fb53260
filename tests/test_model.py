import math

import numpy as np
import pytest

from polariton2dcs import grids
from polariton2dcs.errors import ParameterError
from polariton2dcs.model import RAD_PER_CM_FS, validate_params


def raw_reference(**overrides):
    raw = {
        "n_molecules": 10,
        "g": 1800.0 / math.sqrt(10),
        "delta_x": 0.0,
        "delta_c": 0.0,
        "gamma_x": 1.0,
        "gamma_c": 0.9,
        "omega_v": 1200.0,
        "gamma_v": 20.0,
        "lambda_hr": 1.0,
        "omega_ref": 16113.0,
    }
    raw.update(overrides)
    return raw


class TestValidateParams:
    def test_reference_set_accepted(self):
        sys = validate_params(raw_reference())
        assert sys.n_molecules == 10
        assert sys.dipole == 1.0 and sys.phase == 0.0
        assert sys.collective_coupling == pytest.approx(1800.0)

    def test_zero_rate_rejected(self):
        with pytest.raises(ParameterError) as err:
            validate_params(raw_reference(gamma_x=0.0))
        assert "NonPositiveRate" in {v.kind for v in err.value.violations}
        assert "gamma_x" in {v.field for v in err.value.violations}

    def test_zero_count_rejected(self):
        with pytest.raises(ParameterError) as err:
            validate_params(raw_reference(n_molecules=0))
        assert "NegativeCount" in {v.kind for v in err.value.violations}

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ParameterError) as err:
            validate_params(raw_reference(gamma_x=-1.0, gamma_c=0.0, omega_v=-5.0, n_molecules=-2))
        fields = {v.field for v in err.value.violations}
        assert fields >= {"gamma_x", "gamma_c", "omega_v", "n_molecules"}

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError) as err:
            validate_params(raw_reference(g=float("nan")))
        assert "NonFinite" in {v.kind for v in err.value.violations}

    def test_numpy_scalars_give_the_same_params(self):
        plain = validate_params(raw_reference())
        scalars = validate_params(raw_reference(n_molecules=np.int64(10),
                                                g=np.float64(1800.0 / math.sqrt(10))))
        assert scalars == plain
        assert type(scalars.n_molecules) is int and type(scalars.g) is float

    @pytest.mark.parametrize("n", [2 ** 53 + 1, 10 ** 17 + 1, 10 ** 70],
                             ids=["2^53+1", "10^17+1", "10^70"])
    def test_integral_n_past_float_precision_is_kept_exactly(self, n):
        assert validate_params(raw_reference(n_molecules=n)).n_molecules == n

    @pytest.mark.parametrize("n", [pytest.param(10 ** 400, id="10^400"), 0, 2.5, "10", True, None, math.inf])
    def test_n_that_is_not_a_count_in_the_float_range_rejected(self, n):
        with pytest.raises(ParameterError) as err:
            validate_params(raw_reference(n_molecules=n))
        assert {(v.kind, v.field) for v in err.value.violations} == {("NegativeCount", "n_molecules")}

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError) as err:
            validate_params(raw_reference(gamma_z=1.0))
        assert "UnknownField" in {v.kind for v in err.value.violations}

    def test_missing_required_rejected(self):
        raw = raw_reference()
        del raw["omega_v"]
        with pytest.raises(ParameterError) as err:
            validate_params(raw)
        assert "MissingField" in {v.kind for v in err.value.violations}

    def test_optional_defaults(self):
        raw = raw_reference()
        del raw["delta_x"], raw["delta_c"]
        sys = validate_params(raw)
        assert sys.delta_x == 0.0 and sys.delta_c == 0.0

    def test_immutable(self):
        sys = validate_params(raw_reference())
        with pytest.raises(AttributeError):
            sys.g = 5.0


class TestUnitBridge:
    """``RAD_PER_CM_FS`` turns a wavenumber times a time into a phase in radians."""

    def test_unit_product(self):
        assert RAD_PER_CM_FS == pytest.approx(1.883651567e-4, rel=1e-9)

    def test_one_vibrational_period(self):
        # inverting 2*pi*c*nu*T = 2*pi gives T = 1/(c*nu) ~ 27.79 fs at 1200 cm^-1
        period = 2.0 * math.pi / (RAD_PER_CM_FS * 1200.0)
        assert period == pytest.approx(27.797, abs=5e-3)


class TestNumberRules:
    """``grids.integral`` decides what is a count, ``grids.finite`` what is any other number."""

    @pytest.mark.parametrize("value, count", [
        (10, 10), (10.0, 10), (np.int64(10), 10), (np.uint8(3), 3),
        pytest.param(10 ** 400, 10 ** 400, id="10^400"),
        (2.5, None), (True, None), (np.bool_(True), None), ("10", None), (None, None),
        (math.inf, None), (math.nan, None)])
    def test_integral(self, value, count):
        assert grids.integral(value) == count and type(grids.integral(value)) is type(count)

    @pytest.mark.parametrize("value, number", [
        (2.5, 2.5), (-3, -3.0), (np.float64(2.5), 2.5), (np.int64(7), 7.0), pytest.param(10 ** 300, 1e300, id="10^300"),
        (1.7976931348623157e308, 1.7976931348623157e308),
        pytest.param(10 ** 400, None, id="10^400"), (math.inf, None),
        (-math.inf, None), (math.nan, None), ("2.5", None), (True, None), (None, None),
        ([1.0], None)])
    def test_finite(self, value, number):
        assert grids.finite(value) == number and type(grids.finite(value)) is type(number)
