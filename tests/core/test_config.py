"""Tests for RepartitionerConfig validation and k derivation."""

import pytest

from repro.core.config import RepartitionerConfig
from repro.exceptions import PartitioningError


class TestValidation:
    @pytest.mark.parametrize("epsilon", [0.5, 1.0, 2.0, 2.5])
    def test_epsilon_bounds(self, epsilon):
        with pytest.raises(PartitioningError):
            RepartitionerConfig(epsilon=epsilon)

    def test_epsilon_default_is_paper_value(self):
        assert RepartitionerConfig().epsilon == 1.1

    def test_k_must_be_positive(self):
        with pytest.raises(PartitioningError):
            RepartitionerConfig(k=0)

    def test_max_iterations_positive(self):
        with pytest.raises(PartitioningError):
            RepartitionerConfig(max_iterations=0)

    def test_stall_iterations_validation(self):
        with pytest.raises(PartitioningError):
            RepartitionerConfig(stall_iterations=0)
        assert RepartitionerConfig(stall_iterations=None).stall_iterations is None


class TestEffectiveK:
    def test_explicit_k_wins(self):
        assert RepartitionerConfig(k=42).effective_k(10**6) == 42

    def test_fraction_derivation(self):
        config = RepartitionerConfig()
        assert config.effective_k(1000) == 10

    def test_minimum_one(self):
        config = RepartitionerConfig()
        assert config.effective_k(10) == 1
