import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polariton2dcs import (
    ParameterError,
    RAD_PER_CM_FS,
    derived_quantities,
    time_phase,
    validate_params,
)
from polariton2dcs import grids
from polariton2dcs.validate import reference_params


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
        assert "NonPositiveRate" in err.value.kinds()
        assert "gamma_x" in err.value.fields()

    def test_zero_count_rejected(self):
        with pytest.raises(ParameterError) as err:
            validate_params(raw_reference(n_molecules=0))
        assert "NegativeCount" in err.value.kinds()

    def test_all_violations_reported_at_once(self):
        with pytest.raises(ParameterError) as err:
            validate_params(raw_reference(gamma_x=-1.0, gamma_c=0.0, omega_v=-5.0, n_molecules=-2))
        assert err.value.fields() >= {"gamma_x", "gamma_c", "omega_v", "n_molecules"}

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError) as err:
            validate_params(raw_reference(g=float("nan")))
        assert "NonFinite" in err.value.kinds()

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
        assert err.value.kinds() == {"NegativeCount"} and err.value.fields() == {"n_molecules"}

    def test_unknown_key_rejected(self):
        with pytest.raises(ParameterError) as err:
            validate_params(raw_reference(gamma_z=1.0))
        assert "UnknownField" in err.value.kinds()

    def test_missing_required_rejected(self):
        raw = raw_reference()
        del raw["omega_v"]
        with pytest.raises(ParameterError) as err:
            validate_params(raw)
        assert "MissingField" in err.value.kinds()

    def test_optional_defaults(self):
        raw = raw_reference()
        del raw["delta_x"], raw["delta_c"]
        sys = validate_params(raw)
        assert sys.delta_x == 0.0 and sys.delta_c == 0.0

    def test_immutable(self):
        sys = validate_params(raw_reference())
        with pytest.raises(AttributeError):
            sys.g = 5.0


class TestDerived:
    def test_reference_bright_lines(self, dye_system):
        d = derived_quantities(dye_system)
        assert d.rabi_splitting == pytest.approx(3600.0)
        assert d.bright_absolute[0] == pytest.approx(14313.0)
        assert d.bright_absolute[1] == pytest.approx(17913.0)

    def test_decoupled_cavity(self):
        sys = reference_params(collective=0.0)
        d = derived_quantities(sys)
        assert d.rabi_splitting == 0.0
        assert d.bright_rotating == (sys.delta_x, sys.delta_x)

    def test_no_vibronic_coupling(self):
        d = derived_quantities(reference_params(lambda_hr=0.0))
        assert d.polaron_shift == 0.0

    def test_polaron_shift(self, dye_system):
        assert derived_quantities(dye_system).polaron_shift == pytest.approx(2400.0)

    def test_eds_ladder(self, dye_system):
        d = derived_quantities(dye_system)
        assert d.eds_ladder(1) == (14913.0, 17313.0)
        assert d.eds_ladder(2) == (13713.0, 18513.0)

    @pytest.mark.parametrize("n", [1, 4, 9, 16])
    def test_rabi_scales_as_sqrt_n(self, n):
        # g adjusted to hold g*sqrt(N) fixed: the splitting must not move at all
        sys = reference_params(n_molecules=n, collective=1800.0)
        assert derived_quantities(sys).rabi_splitting == pytest.approx(3600.0, abs=1e-9)


class TestTimePhase:
    def test_zero_frequency(self):
        assert time_phase(0.0, 100.0) == 0.0

    def test_unit_product(self):
        assert time_phase(1.0, 1.0) == pytest.approx(1.883651567e-4, rel=1e-9)

    def test_one_vibrational_period(self):
        # inverting 2*pi*c*nu*T = 2*pi gives T = 1/(c*nu) ~ 27.79 fs at 1200 cm^-1
        period = 2.0 * math.pi / (RAD_PER_CM_FS * 1200.0)
        assert period == pytest.approx(27.797, abs=5e-3)
        assert time_phase(1200.0, period) == pytest.approx(2.0 * math.pi, abs=1e-3)

    @given(scale=st.floats(-1e3, 1e3), freq=st.floats(-5e4, 5e4), t=st.floats(-1e4, 1e4))
    def test_bilinear(self, scale, freq, t):
        assert time_phase(scale * freq, t) == pytest.approx(scale * time_phase(freq, t), rel=1e-12, abs=1e-300)



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
