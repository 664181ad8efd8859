"""Unit tests for :class:`repro.model.datacenter.DataCenter`."""

import numpy as np
import pytest

from repro.model.datacenter import DataCenter
from repro.model.server import ServerClass


class TestConstruction:
    def test_valid(self):
        dc = DataCenter(name="x", max_servers=[2, 3])
        np.testing.assert_array_equal(dc.max_servers, [2.0, 3.0])
        assert dc.num_server_classes == 2

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            DataCenter(name="", max_servers=[1])

    def test_rejects_empty_servers(self):
        with pytest.raises(ValueError):
            DataCenter(name="x", max_servers=[])

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            DataCenter(name="x", max_servers=[-1, 2])

    def test_max_servers_is_readonly(self):
        dc = DataCenter(name="x", max_servers=[1, 2])
        with pytest.raises(ValueError):
            dc.max_servers[0] = 5

    def test_defensive_copy(self):
        source = np.array([1.0, 2.0])
        dc = DataCenter(name="x", max_servers=source)
        source[0] = 99
        assert dc.max_servers[0] == 1.0


class TestValueEquality:
    def test_equal_sites_compare_and_hash_equal(self):
        a = DataCenter(name="x", max_servers=[1, 2], memory_capacity=4.0)
        b = DataCenter(name="x", max_servers=np.array([1.0, 2.0]), memory_capacity=4.0)
        assert a == b
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1

    def test_any_field_difference_breaks_equality(self):
        base = DataCenter(name="x", max_servers=[1, 2])
        assert base != DataCenter(name="y", max_servers=[1, 2])
        assert base != DataCenter(name="x", max_servers=[1, 3])
        assert base != DataCenter(name="x", max_servers=[1, 2, 0])
        assert base != DataCenter(name="x", max_servers=[1, 2], ingress_cost=0.1)
        assert base != "x"


class TestCapacity:
    def test_max_capacity(self):
        classes = [
            ServerClass(name="a", speed=1.0, active_power=1.0),
            ServerClass(name="b", speed=2.0, active_power=1.0),
        ]
        dc = DataCenter(name="x", max_servers=[3, 4])
        assert dc.max_capacity(classes) == pytest.approx(3 * 1.0 + 4 * 2.0)

    def test_max_capacity_wrong_class_count(self):
        dc = DataCenter(name="x", max_servers=[3])
        classes = [
            ServerClass(name="a", speed=1.0, active_power=1.0),
            ServerClass(name="b", speed=1.0, active_power=1.0),
        ]
        with pytest.raises(ValueError):
            dc.max_capacity(classes)


class TestValidateAvailability:
    def test_accepts_within_plant(self):
        dc = DataCenter(name="x", max_servers=[3, 4])
        avail = np.array([2.0, 4.0])
        assert dc.validate_availability(avail) is avail

    def test_rejects_over_plant(self):
        dc = DataCenter(name="x", max_servers=[3, 4])
        with pytest.raises(ValueError, match="exceeds plant capacity"):
            dc.validate_availability(np.array([3.5, 1.0]))

    def test_rejects_wrong_shape(self):
        dc = DataCenter(name="x", max_servers=[3, 4])
        with pytest.raises(ValueError):
            dc.validate_availability(np.array([1.0]))

    def test_rejects_negative(self):
        dc = DataCenter(name="x", max_servers=[3, 4])
        with pytest.raises(ValueError):
            dc.validate_availability(np.array([-1.0, 2.0]))
