"""Unit tests for :class:`repro.model.cluster.Cluster`."""

import pickle

import numpy as np
import pytest

from repro.model.cluster import Cluster
from repro.model.datacenter import DataCenter
from repro.model.job import Account, JobType
from repro.model.server import ServerClass


def _classes():
    return (
        ServerClass(name="a", speed=1.0, active_power=1.0),
        ServerClass(name="b", speed=0.5, active_power=0.3),
    )


def _dcs():
    return (
        DataCenter(name="d0", max_servers=[2, 0]),
        DataCenter(name="d1", max_servers=[1, 4]),
    )


def _accounts():
    return (Account(name="m0", fair_share=0.7), Account(name="m1", fair_share=0.3))


def _types():
    return (
        JobType(name="t0", demand=1.0, eligible_dcs=[0, 1], account=0),
        JobType(name="t1", demand=2.0, eligible_dcs=[1], account=1),
    )


class TestConstruction:
    def test_valid(self):
        c = Cluster(_classes(), _dcs(), _types(), _accounts())
        assert c.num_datacenters == 2
        assert c.num_server_classes == 2
        assert c.num_job_types == 2
        assert c.num_accounts == 2

    def test_rejects_empty_components(self):
        with pytest.raises(ValueError):
            Cluster((), _dcs(), _types(), _accounts())
        with pytest.raises(ValueError):
            Cluster(_classes(), (), _types(), _accounts())
        with pytest.raises(ValueError):
            Cluster(_classes(), _dcs(), (), _accounts())
        with pytest.raises(ValueError):
            Cluster(_classes(), _dcs(), _types(), ())

    def test_rejects_dc_class_mismatch(self):
        bad_dc = (DataCenter(name="d0", max_servers=[2]),)
        with pytest.raises(ValueError, match="dimensioned"):
            Cluster(_classes(), bad_dc, _types(), _accounts())

    def test_rejects_unknown_dc_reference(self):
        bad_type = (JobType(name="t", demand=1.0, eligible_dcs=[5], account=0),)
        with pytest.raises(ValueError, match="unknown data center"):
            Cluster(_classes(), _dcs(), bad_type, _accounts())

    def test_rejects_unknown_account_reference(self):
        bad_type = (JobType(name="t", demand=1.0, eligible_dcs=[0], account=9),)
        with pytest.raises(ValueError, match="unknown account"):
            Cluster(_classes(), _dcs(), bad_type, _accounts())

    def test_rejects_overcommitted_shares(self):
        bad_accounts = (
            Account(name="m0", fair_share=0.8),
            Account(name="m1", fair_share=0.5),
        )
        with pytest.raises(ValueError, match="fair shares"):
            Cluster(_classes(), _dcs(), _types(), bad_accounts)


class TestDerived:
    @pytest.fixture
    def c(self):
        return Cluster(_classes(), _dcs(), _types(), _accounts())

    def test_speeds_and_powers(self, c):
        np.testing.assert_allclose(c.speeds, [1.0, 0.5])
        np.testing.assert_allclose(c.active_powers, [1.0, 0.3])

    def test_demands(self, c):
        np.testing.assert_allclose(c.demands, [1.0, 2.0])

    def test_fair_shares(self, c):
        np.testing.assert_allclose(c.fair_shares, [0.7, 0.3])

    def test_account_of_type(self, c):
        np.testing.assert_array_equal(c.account_of_type, [0, 1])

    def test_eligibility_matrix(self, c):
        expected = np.array([[True, False], [True, True]])
        np.testing.assert_array_equal(c.eligibility_matrix(), expected)

    def test_max_route_matrix_zero_when_ineligible(self, c):
        mat = c.max_route_matrix()
        assert mat[0, 1] == 0.0
        assert mat[1, 1] > 0

    def test_max_service_matrix_zero_when_ineligible(self, c):
        mat = c.max_service_matrix()
        assert mat[0, 1] == 0.0

    def test_class_order_cheapest_work_first(self, c):
        # p/s: class 0 -> 1.0, class 1 -> 0.6.
        np.testing.assert_array_equal(c.class_order, [1, 0])

    def test_max_total_capacity(self, c):
        # d0: 2*1.0; d1: 1*1.0 + 4*0.5 = 3.0 -> total 5.0
        assert c.max_total_capacity() == pytest.approx(5.0)

    def test_describe_mentions_all_parts(self, c):
        text = c.describe()
        assert "d0" in text and "d1" in text
        assert "m0" in text and "m1" in text


class TestDerivedArrayCache:
    ARRAYS = (
        "speeds",
        "active_powers",
        "class_order",
        "demands",
        "fair_shares",
        "memory_demands",
        "memory_capacities",
        "ingress_costs",
        "account_of_type",
    )
    MATRICES = ("eligibility_matrix", "max_route_matrix", "max_service_matrix")

    @staticmethod
    def _arrays(c):
        arrays = {name: getattr(c, name) for name in TestDerivedArrayCache.ARRAYS}
        for name in TestDerivedArrayCache.MATRICES:
            arrays[name] = getattr(c, name)()
        return arrays

    @pytest.fixture
    def c(self):
        return Cluster(_classes(), _dcs(), _types(), _accounts())

    def test_arrays_are_read_only(self, c):
        for name, arr in self._arrays(c).items():
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_repeated_access_returns_same_object(self, c):
        first = self._arrays(c)
        second = self._arrays(c)
        for name, arr in first.items():
            assert second[name] is arr, name
        assert c.has_memory_constraints is c.has_memory_constraints

    def test_caches_stay_out_of_pickles(self, c):
        before = pickle.dumps(c)
        self._arrays(c)
        assert c.has_memory_constraints is False
        assert pickle.dumps(c) == before
        assert set(pickle.loads(before).__dict__) == {
            "server_classes",
            "datacenters",
            "job_types",
            "accounts",
        }

    def test_arrays_rebuilt_after_unpickling(self, c):
        original = self._arrays(c)
        restored = pickle.loads(pickle.dumps(c))
        for name, arr in self._arrays(restored).items():
            np.testing.assert_array_equal(arr, original[name])
            assert arr is not original[name]
            assert not arr.flags.writeable, name


class TestValueEquality:
    def test_equal_clusters_compare_and_hash_equal(self):
        a = Cluster(_classes(), _dcs(), _types(), _accounts())
        b = Cluster(_classes(), _dcs(), _types(), _accounts())
        assert a == b
        assert hash(a) == hash(b)

    def test_equals_its_unpickled_copy(self):
        c = Cluster(_classes(), _dcs(), _types(), _accounts())
        c.speeds  # a filled cache must not matter
        assert pickle.loads(pickle.dumps(c)) == c

    def test_usable_as_dict_key(self):
        a = Cluster(_classes(), _dcs(), _types(), _accounts())
        table = {a: "first"}
        assert table[Cluster(_classes(), _dcs(), _types(), _accounts())] == "first"

    def test_different_plants_differ(self):
        a = Cluster(_classes(), _dcs(), _types(), _accounts())
        dcs = list(_dcs())
        first = dcs[0]
        dcs[0] = DataCenter(name=first.name, max_servers=first.max_servers + 1)
        assert a != Cluster(_classes(), dcs, _types(), _accounts())
