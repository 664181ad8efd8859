"""Unit tests for :class:`repro.model.state.ClusterState`."""

import pickle

import numpy as np
import pytest

from repro.model.state import ClusterState


class TestConstruction:
    def test_valid(self):
        s = ClusterState(np.ones((2, 3)), [0.4, 0.5])
        assert s.num_datacenters == 2
        assert s.num_server_classes == 3

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            ClusterState(np.ones(3), [0.4])
        with pytest.raises(ValueError):
            ClusterState(np.ones((2, 3)), [[0.4]])

    def test_rejects_site_count_mismatch(self):
        with pytest.raises(ValueError):
            ClusterState(np.ones((2, 3)), [0.4, 0.5, 0.6])

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            ClusterState(-np.ones((1, 1)), [0.4])
        with pytest.raises(ValueError):
            ClusterState(np.ones((1, 1)), [-0.4])

    def test_arrays_readonly_and_copied(self):
        avail = np.ones((1, 1))
        s = ClusterState(avail, [0.4])
        avail[0, 0] = 99
        assert s.availability[0, 0] == 1.0
        with pytest.raises(ValueError):
            s.availability[0, 0] = 5


class TestDerived:
    def test_capacities(self, cluster, state):
        caps = state.capacities(cluster)
        # Each site: 10 * 1.0 + 10 * 0.8 = 18.
        np.testing.assert_allclose(caps, [18.0, 18.0])

    def test_total_resource(self, cluster, state):
        assert state.total_resource(cluster) == pytest.approx(36.0)

    def test_capacities_built_once_and_exact(self, cluster):
        rng = np.random.default_rng(7)
        s = ClusterState(rng.uniform(0.0, 10.0, size=(2, 2)), [0.4, 0.5])
        caps = s.capacities(cluster)
        assert s.capacities(cluster) is caps
        assert not caps.flags.writeable
        expected = s.availability @ cluster.speeds
        assert np.array_equal(caps, expected)
        assert s.total_resource(cluster) == float(np.sum(expected))

    def test_capacity_cache_stays_out_of_pickles(self, cluster, state):
        state.capacities(cluster)
        restored = pickle.loads(pickle.dumps(state))
        assert set(restored.__dict__) == {"availability", "prices"}
        assert not restored.availability.flags.writeable
        assert not restored.prices.flags.writeable
        np.testing.assert_array_equal(restored.capacities(cluster), state.capacities(cluster))

    def test_value_equality_ignores_the_cache(self, cluster):
        avail = np.stack([dc.max_servers for dc in cluster.datacenters])
        a, b = ClusterState(avail, [0.4, 0.5]), ClusterState(avail, [0.4, 0.5])
        a.capacities(cluster)
        assert a == b and hash(a) == hash(b)
        assert a != ClusterState(avail, [0.4, 0.6])
        assert ClusterState(avail, [-0.0, 0.5]) == ClusterState(avail, [0.0, 0.5])

    def test_missing_signals_compare_equal(self):
        a = ClusterState(np.ones((2, 2)), [np.nan, 0.5], missing_ok=True)
        b = ClusterState(np.ones((2, 2)), [np.nan, 0.5], missing_ok=True)
        assert a == b and hash(a) == hash(b)

    def test_trace_snapshot_keeps_the_arrays(self):
        avail = np.ones((2, 2))
        prices = np.array([0.4, 0.5])
        for arr in (avail, prices):
            arr.flags.writeable = False
        s = ClusterState._from_trace(avail, prices)
        assert s.availability is avail and s.prices is prices

    def test_validate_for_accepts(self, cluster, state):
        assert state.validate_for(cluster) is state

    def test_validate_for_rejects_over_plant(self, cluster):
        avail = np.stack([dc.max_servers for dc in cluster.datacenters]) + 1
        s = ClusterState(avail, [0.4, 0.5])
        with pytest.raises(ValueError):
            s.validate_for(cluster)

    def test_dim_mismatch_detected(self, cluster):
        s = ClusterState(np.ones((3, 2)), [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="sites"):
            s.capacities(cluster)
        s2 = ClusterState(np.ones((2, 5)), [0.1, 0.2])
        with pytest.raises(ValueError, match="server classes"):
            s2.capacities(cluster)
