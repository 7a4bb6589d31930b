"""Tests for the scheme base-class validation."""

import pytest

from repro.core.schemes import require_power_of_two
from repro.errors import ConfigurationError


class TestPowerOfTwo:
    @pytest.mark.parametrize("value", [1, 2, 4, 8, 1024])
    def test_accepts_powers(self, value):
        require_power_of_two(value, "x")

    @pytest.mark.parametrize("value", [0, -1, 3, 6, 12, 1000])
    def test_rejects_non_powers(self, value):
        with pytest.raises(ConfigurationError):
            require_power_of_two(value, "x")
