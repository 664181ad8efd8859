"""Unit tests for :class:`repro.model.action.Action`."""

import numpy as np
import pytest

from repro.model.action import Action


def _zeros(cluster):
    return Action.idle(cluster)


class TestConstruction:
    def test_idle(self, cluster):
        a = _zeros(cluster)
        assert a.route.shape == (2, 2)
        assert a.busy.shape == (2, 2)
        assert np.all(a.route == 0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            Action(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            Action(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 2)))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Action(np.zeros(2), np.zeros(2), np.zeros(2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Action(-np.ones((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)))

    def test_rejects_nan(self):
        bad = np.full((1, 1), np.nan)
        with pytest.raises(ValueError):
            Action(bad, np.zeros((1, 1)), np.zeros((1, 1)))

    def test_rejects_infinity(self):
        for bad in (np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                Action(np.zeros((1, 1)), np.full((1, 1), bad), np.zeros((1, 1)))

    def test_rejects_below_tolerance(self):
        with pytest.raises(ValueError, match="non-negative"):
            Action(np.zeros((1, 1)), np.zeros((1, 1)), np.full((1, 1), -2e-6))

    def test_small_negatives_and_negative_zero_become_positive_zero(self):
        values = np.array([[-0.0, -1e-7, -1e-6, 2.0]])
        a = Action(values, values, values)
        for arr in (a.route, a.serve, a.busy):
            np.testing.assert_array_equal(arr, [[0.0, 0.0, 0.0, 2.0]])
            assert not np.signbit(arr).any()
        assert np.signbit(values[0, 0])  # the input is left alone

    def test_copies_writable_inputs(self):
        route = np.ones((2, 2))
        a = Action(route, route, route)
        assert not np.shares_memory(a.route, route)
        route[0, 0] = 5.0
        assert a.route[0, 0] == 1.0 and a.serve[0, 0] == 1.0
        assert route.flags.writeable

    def test_keeps_read_only_float64_without_copy(self):
        route = np.ones((2, 2))
        route.flags.writeable = False
        assert Action(route, route, route).route is route

    def test_copies_read_only_view_of_writable_array(self):
        source = np.ones((2, 2))
        view = source.view()
        view.flags.writeable = False
        a = Action(view, view, view)
        assert not np.shares_memory(a.route, source)
        source[0, 0] = 5.0
        assert a.route[0, 0] == 1.0

    def test_keeps_read_only_view_of_sealed_array(self):
        source = np.ones((3, 2))
        source.flags.writeable = False
        assert Action(source[:2], source[:2], source[:2]).route.base is source

    def test_copies_read_only_inputs_of_other_layout_or_dtype(self):
        fortran = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        fortran.flags.writeable = False
        ints = np.ones((2, 3), dtype=np.int64)
        ints.flags.writeable = False
        a = Action(fortran, ints, np.zeros((2, 1)))
        assert a.route.flags.c_contiguous and a.route is not fortran
        assert a.serve.dtype == np.float64
        assert not a.route.flags.writeable and not a.serve.flags.writeable

    def test_arrays_frozen(self, cluster):
        a = _zeros(cluster)
        with pytest.raises(ValueError):
            a.route[0, 0] = 1


class TestDerived:
    def test_work_served(self, cluster):
        h = np.array([[2.0, 0.0], [1.0, 3.0]])
        a = Action(np.zeros((2, 2)), h, np.zeros((2, 2)))
        # demands are [1.0, 2.0]
        np.testing.assert_allclose(a.work_served(cluster), [2.0, 7.0])

    def test_capacity_used(self, cluster):
        b = np.array([[1.0, 2.0], [0.0, 0.0]])
        a = Action(np.zeros((2, 2)), np.zeros((2, 2)), b)
        # speeds are [1.0, 0.8]
        np.testing.assert_allclose(a.capacity_used(cluster), [2.6, 0.0])

    def test_energy_cost(self, cluster, state):
        b = np.array([[2.0, 0.0], [0.0, 4.0]])
        a = Action(np.zeros((2, 2)), np.zeros((2, 2)), b)
        # powers [1.0, 0.5]; prices [0.4, 0.5]
        expected = 0.4 * 2.0 * 1.0 + 0.5 * 4.0 * 0.5
        assert a.energy_cost(cluster, state) == pytest.approx(expected)

    def test_energy_cost_per_site(self, cluster, state):
        b = np.array([[2.0, 0.0], [0.0, 4.0]])
        a = Action(np.zeros((2, 2)), np.zeros((2, 2)), b)
        np.testing.assert_allclose(
            a.energy_cost_per_site(cluster, state), [0.8, 1.0]
        )

    def test_account_work(self, cluster):
        h = np.array([[2.0, 0.0], [1.0, 3.0]])
        a = Action(np.zeros((2, 2)), h, np.zeros((2, 2)))
        # type 0 -> account 0: 3 jobs x demand 1; type 1 -> account 1:
        # 3 jobs x demand 2.
        np.testing.assert_allclose(a.account_work(cluster), [3.0, 6.0])


class TestValueSemantics:
    def test_equal_actions_compare_and_hash_equal(self, cluster):
        assert Action.idle(cluster) == Action.idle(cluster)
        assert hash(Action.idle(cluster)) == hash(Action.idle(cluster))
        busy = np.zeros((2, 2))
        busy[0, 0] = 1.0
        other = Action(np.zeros((2, 2)), np.zeros((2, 2)), busy)
        assert other != Action.idle(cluster)
        assert Action.idle(cluster) != "idle"

    def test_negative_zero_inputs_are_equal(self, cluster):
        assert Action(-np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2))) == Action.idle(
            cluster
        )

    def test_work_is_computed_once_per_cluster(self, cluster):
        h = np.array([[2.0, 0.0], [1.0, 3.0]])
        a = Action(np.zeros((2, 2)), h, np.zeros((2, 2)))
        work, accounts = a.work_served(cluster), a.account_work(cluster)
        assert a.work_served(cluster) is work and a.account_work(cluster) is accounts
        assert not work.flags.writeable and not accounts.flags.writeable

    def test_cached_work_stays_out_of_equality_and_pickles(self, cluster):
        import pickle

        a, b = Action.idle(cluster), Action.idle(cluster)
        a.work_served(cluster)
        a.account_work(cluster)
        assert a == b and hash(a) == hash(b)
        restored = pickle.loads(pickle.dumps(a))
        assert set(restored.__dict__) == {"route", "serve", "busy"}
        assert restored == a
        assert not any(arr.flags.writeable for arr in (restored.route, restored.serve, restored.busy))

    def test_sealed_keeps_its_arrays_and_loads(self, cluster):
        import pickle

        h = np.array([[2.0, 0.0], [1.0, 3.0]])
        h.flags.writeable = False
        loads = h @ cluster.demands
        route, busy = np.zeros((2, 2)), np.ones((2, 2))
        route.flags.writeable = busy.flags.writeable = False
        sealed = Action._sealed(cluster, route, h, busy, loads)
        assert sealed.route is route and sealed.serve is h and sealed.busy is busy
        assert sealed.work_served(cluster) is loads and not loads.flags.writeable
        assert sealed == Action(route, h, busy)
        restored = pickle.loads(pickle.dumps(sealed))
        assert set(restored.__dict__) == {"route", "serve", "busy"}


class TestValidate:
    def test_idle_is_valid(self, cluster, state):
        _zeros(cluster).validate(cluster, state)

    def test_rejects_ineligible_route(self, cluster, state):
        r = np.zeros((2, 2))
        r[0, 1] = 1.0  # type 1 is only eligible at site 1
        a = Action(r, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="ineligible"):
            a.validate(cluster, state)

    def test_rejects_fractional_route(self, cluster, state):
        r = np.zeros((2, 2))
        r[0, 0] = 1.5
        a = Action(r, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="integer"):
            a.validate(cluster, state)

    def test_rejects_busy_over_availability(self, cluster, state):
        b = np.zeros((2, 2))
        b[0, 0] = 11.0  # only 10 available
        a = Action(np.zeros((2, 2)), np.zeros((2, 2)), b)
        with pytest.raises(ValueError, match="busy exceeds"):
            a.validate(cluster, state)

    def test_rejects_work_over_capacity(self, cluster, state):
        h = np.zeros((2, 2))
        h[0, 0] = 5.0  # 5 units of work
        b = np.zeros((2, 2))
        b[0, 0] = 1.0  # only 1 unit of capacity
        a = Action(np.zeros((2, 2)), h, b)
        with pytest.raises(ValueError, match="eq. 11"):
            a.validate(cluster, state)

    def test_rejects_route_over_bound(self, cluster, state):
        r = np.zeros((2, 2))
        r[0, 0] = 51.0  # max_route is 50 for type 0
        a = Action(r, np.zeros((2, 2)), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="r_ij"):
            a.validate(cluster, state)

    def test_rejects_serve_over_bound(self, cluster, state):
        h = np.zeros((2, 2))
        h[1, 1] = 26.0  # max_service is 25 for type 1
        b = np.full((2, 2), 10.0)
        a = Action(np.zeros((2, 2)), h, b)
        with pytest.raises(ValueError, match="h_ij"):
            a.validate(cluster, state)

    def test_valid_full_action(self, cluster, state):
        r = np.zeros((2, 2))
        r[0, 0] = 2.0
        r[1, 1] = 1.0
        h = np.zeros((2, 2))
        h[1, 1] = 2.0  # 4 units of work at site 1
        b = np.zeros((2, 2))
        b[1, 0] = 4.0  # 4 units of capacity
        Action(r, h, b).validate(cluster, state)
