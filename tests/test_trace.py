"""Unit tests for :class:`repro.simulation.trace.Scenario`."""

import numpy as np
import pytest

from repro.scenarios import small_cluster
from repro.simulation.trace import Scenario


def _arrays(cluster, horizon=10):
    rng = np.random.default_rng(0)
    arrivals = rng.integers(0, 4, size=(horizon, 2)).astype(float)
    availability = np.tile(
        np.stack([dc.max_servers for dc in cluster.datacenters]), (horizon, 1, 1)
    )
    prices = rng.uniform(0.2, 0.8, size=(horizon, 2))
    return arrivals, availability, prices


class TestConstruction:
    def test_valid(self):
        cluster = small_cluster()
        scn = Scenario(cluster, *_arrays(cluster))
        assert scn.horizon == 10

    def test_rejects_shape_mismatches(self):
        cluster = small_cluster()
        arrivals, availability, prices = _arrays(cluster)
        with pytest.raises(ValueError):
            Scenario(cluster, arrivals[:, :1], availability, prices)
        with pytest.raises(ValueError):
            Scenario(cluster, arrivals, availability[:, :1], prices)
        with pytest.raises(ValueError):
            Scenario(cluster, arrivals, availability, prices[:, :1])

    def test_rejects_negative_values(self):
        cluster = small_cluster()
        arrivals, availability, prices = _arrays(cluster)
        arrivals[0, 0] = -1
        with pytest.raises(ValueError):
            Scenario(cluster, arrivals, availability, prices)


class TestAccessors:
    def test_state_at(self):
        cluster = small_cluster()
        scn = Scenario(cluster, *_arrays(cluster))
        state = scn.state_at(3)
        np.testing.assert_allclose(state.availability, scn.availability[3])
        np.testing.assert_allclose(state.prices, scn.prices[3])

    def test_state_at_out_of_range(self):
        cluster = small_cluster()
        scn = Scenario(cluster, *_arrays(cluster))
        with pytest.raises(IndexError):
            scn.state_at(10)
        with pytest.raises(IndexError):
            scn.state_at(-1)

    def test_arrival_work(self):
        cluster = small_cluster()
        scn = Scenario(cluster, *_arrays(cluster))
        expected = scn.arrivals @ cluster.demands
        np.testing.assert_allclose(scn.arrival_work(), expected)

    def test_truncated(self):
        cluster = small_cluster()
        scn = Scenario(cluster, *_arrays(cluster))
        short = scn.truncated(4)
        assert short.horizon == 4
        np.testing.assert_allclose(short.prices, scn.prices[:4])
        with pytest.raises(ValueError):
            scn.truncated(0)
        with pytest.raises(ValueError):
            scn.truncated(11)


class TestReadOnly:
    def test_arrays_reject_writes(self):
        cluster = small_cluster()
        scn = Scenario(cluster, *_arrays(cluster))
        for arr in (scn.arrivals, scn.availability, scn.prices):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_writable_inputs_are_copied(self):
        cluster = small_cluster()
        arrivals, availability, prices = _arrays(cluster)
        scn = Scenario(cluster, arrivals, availability, prices)
        prices[3, 0] = 99.0
        assert scn.prices[3, 0] != 99.0

    def test_read_only_views_of_writable_inputs_are_copied(self):
        cluster = small_cluster()
        arrivals, availability, prices = _arrays(cluster)
        view = prices.view()
        view.flags.writeable = False
        scn = Scenario(cluster, arrivals, availability, view)
        prices[3, 0] = 99.0
        assert scn.prices[3, 0] != 99.0

    def test_sealed_inputs_are_kept(self):
        cluster = small_cluster()
        arrivals, availability, prices = _arrays(cluster)
        prices.flags.writeable = False
        assert Scenario(cluster, arrivals, availability, prices).prices is prices

    def test_state_at_views_reject_writes(self):
        cluster = small_cluster()
        scn = Scenario(cluster, *_arrays(cluster))
        state = scn.state_at(3)
        assert np.shares_memory(state.availability, scn.availability)
        assert np.shares_memory(state.prices, scn.prices)
        with pytest.raises(ValueError):
            state.availability[0, 0] = 1.0
        with pytest.raises(ValueError):
            state.prices[0] = 1.0

    def test_unpickled_arrays_stay_read_only(self):
        import pickle

        cluster = small_cluster()
        restored = pickle.loads(pickle.dumps(Scenario(cluster, *_arrays(cluster))))
        for arr in (restored.arrivals, restored.availability, restored.prices):
            assert not arr.flags.writeable

    def test_value_equality(self):
        import pickle

        cluster = small_cluster()
        scn = Scenario(cluster, *_arrays(cluster))
        same = Scenario(small_cluster(), *_arrays(cluster))
        assert scn == same and hash(scn) == hash(same)
        assert scn == pickle.loads(pickle.dumps(scn))
        assert scn != scn.truncated(4)
        assert scn.state_at(0) == same.state_at(0)
        assert scn.state_at(0) != scn.state_at(1)
        assert len({scn.state_at(0), same.state_at(0)}) == 1

    def test_truncated_shares_the_frozen_arrays(self):
        cluster = small_cluster()
        scn = Scenario(cluster, *_arrays(cluster))
        short = scn.truncated(4)
        assert np.shares_memory(short.arrivals, scn.arrivals)
        assert not short.arrivals.flags.writeable


class TestGenerate:
    def test_default_generation(self):
        cluster = small_cluster()
        scn = Scenario.generate(cluster, horizon=30, seed=1)
        assert scn.horizon == 30
        assert scn.arrivals.shape == (30, 2)

    def test_seed_determinism(self):
        cluster = small_cluster()
        a = Scenario.generate(cluster, horizon=30, seed=9)
        b = Scenario.generate(cluster, horizon=30, seed=9)
        np.testing.assert_array_equal(a.arrivals, b.arrivals)
        np.testing.assert_allclose(a.prices, b.prices)
        np.testing.assert_allclose(a.availability, b.availability)

    def test_different_seeds_differ(self):
        cluster = small_cluster()
        a = Scenario.generate(cluster, horizon=30, seed=1)
        b = Scenario.generate(cluster, horizon=30, seed=2)
        assert not np.array_equal(a.arrivals, b.arrivals)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            Scenario.generate(small_cluster(), horizon=0)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        cluster = small_cluster()
        scn = Scenario.generate(cluster, horizon=20, seed=4)
        path = tmp_path / "trace.npz"
        scn.save(path)
        loaded = Scenario.load(cluster, path)
        np.testing.assert_array_equal(loaded.arrivals, scn.arrivals)
        np.testing.assert_allclose(loaded.availability, scn.availability)
        np.testing.assert_allclose(loaded.prices, scn.prices)
