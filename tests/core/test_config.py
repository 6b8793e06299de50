"""Tests for VitisConfig."""

import pytest

from repro.core.config import VitisConfig


class TestDefaults:
    def test_paper_defaults(self):
        c = VitisConfig()
        assert c.rt_size == 15
        assert c.n_sw_links == 1
        assert c.gateway_depth == 5

    def test_frozen(self):
        with pytest.raises(Exception):
            VitisConfig().rt_size = 20


class TestValidation:
    def test_rt_size_minimum(self):
        with pytest.raises(ValueError):
            VitisConfig(rt_size=2)

    def test_sw_links_nonnegative(self):
        with pytest.raises(ValueError):
            VitisConfig(n_sw_links=-1)

    def test_sw_links_fit(self):
        with pytest.raises(ValueError):
            VitisConfig(rt_size=10, n_sw_links=9)
        VitisConfig(rt_size=10, n_sw_links=8)  # exactly fits

    def test_gateway_depth_positive(self):
        with pytest.raises(ValueError):
            VitisConfig(gateway_depth=0)

    def test_staleness_positive(self):
        with pytest.raises(ValueError):
            VitisConfig(staleness_threshold=0)

    def test_gossip_period_positive(self):
        with pytest.raises(ValueError):
            VitisConfig(gossip_period=0)


class TestSweepKnobs:
    def test_with_friends(self):
        c = VitisConfig(rt_size=15).with_friends(6)
        assert c.n_sw_links == 7  # 15 - 2 ring links - 6 friends
        assert c.rt_size == 15

    def test_with_friends_zero(self):
        c = VitisConfig(rt_size=15).with_friends(0)
        assert c.n_sw_links == 13

    def test_with_friends_max(self):
        c = VitisConfig(rt_size=15).with_friends(13)
        assert c.n_sw_links == 0

    def test_with_friends_overflow(self):
        with pytest.raises(ValueError):
            VitisConfig(rt_size=15).with_friends(14)

    def test_with_rt_size_keeps_split(self):
        c = VitisConfig().with_rt_size(35)
        assert c.rt_size == 35
        assert c.n_sw_links == 1  # 32 friends
