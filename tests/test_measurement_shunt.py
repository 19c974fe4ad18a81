"""Unit tests for the shunt resistor of the measurement-chain oracle."""

import numpy as np
import pytest

from measurement_chain import ShuntResistor


class TestShuntResistor:
    def test_paper_value_default(self):
        assert ShuntResistor().resistance_ohm == pytest.approx(0.270)

    def test_voltage_from_current(self):
        shunt = ShuntResistor(resistance_ohm=0.27)
        voltage = shunt.voltage_from_current(np.array([10e-3]))
        assert voltage[0] == pytest.approx(2.7e-3)

    def test_current_roundtrip(self):
        shunt = ShuntResistor(resistance_ohm=0.27)
        current = np.array([1e-3, 5e-3])
        recovered = shunt.current_from_voltage(shunt.voltage_from_current(current))
        assert np.allclose(recovered, current)

    def test_invalid_resistance_rejected(self):
        with pytest.raises(ValueError):
            ShuntResistor(resistance_ohm=0.0)
