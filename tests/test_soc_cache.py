"""Unit tests for repro.soc.cache."""

import pytest

from repro.soc.cache import CacheConfig


class TestCacheConfig:
    def test_default_geometry(self):
        config = CacheConfig()
        assert config.size_bytes == 16 * 1024
        assert config.num_sets * config.associativity * config.line_bytes == config.size_bytes
        assert config.num_lines == config.num_sets * config.associativity

    def test_tag_bits_positive(self):
        assert CacheConfig().tag_bits > 0

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, line_bytes=32, associativity=4)
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=0)
