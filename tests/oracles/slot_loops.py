"""Loop-form reference versions of the per-slot fast paths.

Each function here is the straightforward per-site / per-type loop that
a vectorized or list-based fast path in ``src/`` replaced.  The fast
paths must agree with them bit for bit (values and the sign of zero);
``tests/test_slot_oracles.py`` checks that on hypothesis-generated
instances.
"""

from __future__ import annotations

import numpy as np

from repro.model.queues import whole_jobs

__all__ = [
    "account_work_add_at",
    "busy_counts_columns",
    "clip_feasible_loop",
    "greedy_walk_per_site",
    "marginal_cost_segments_walk",
    "route_greedily_loop",
    "route_loop",
]

_EPS = 1e-9
_WORK_EPS = 1e-12
_GREEDY_EPS = 1e-12


def route_loop(scheduler, front, dc, capacities) -> np.ndarray:
    """GreFar's routing rule, one job type and one site at a time."""
    cluster = scheduler.cluster
    n, j_count = dc.shape
    route = np.zeros((n, j_count))
    max_route = cluster.max_route_matrix()
    ingress = cluster.ingress_costs
    demands = cluster.demands
    for j in range(j_count):
        eligible = sorted(
            i for i in cluster.job_types[j].eligible_dcs if capacities[i] > 0.0
        )

        def coefficient(i: int, jj: int = j) -> float:
            return float(dc[i, jj] - front[jj] + scheduler.v * ingress[i] * demands[jj])

        negatives = [i for i in eligible if coefficient(i) < 0]
        if not negatives:
            continue
        if not scheduler.physical:
            for i in negatives:
                route[i, j] = max_route[i, j]
            continue
        budget = float(whole_jobs(front[j]))
        for i in sorted(negatives, key=coefficient):
            if budget <= 0:
                break
            take = float(whole_jobs(min(max_route[i, j], budget)))
            if take <= 0:
                continue
            route[i, j] = take
            budget -= take
    return route


def route_greedily_loop(cluster, front, keys, capacities) -> np.ndarray:
    """``route_greedily`` one job type and one site at a time.

    Jobs of type ``j`` go to the sites ``i in D_j`` with positive
    *capacities* in increasing order of ``keys[i, j]``, each taking at
    most ``r_ij^max``, until ``whole_jobs(Q_j)`` are placed.  Ties keep
    the iteration order of the ``D_j`` frozenset, which is ascending for
    site indices below 8.
    """
    n, j_count = keys.shape
    route = np.zeros((n, j_count))
    max_route = cluster.max_route_matrix()
    for j in range(j_count):
        budget = float(whole_jobs(front[j]))
        if budget <= 0:
            continue
        eligible = sorted(cluster.job_types[j].eligible_dcs, key=lambda i: keys[i, j])
        eligible = [i for i in eligible if capacities[i] > 0.0]
        for i in eligible:
            take = min(max_route[i, j], budget)
            take = float(whole_jobs(take))
            if take <= 0:
                continue
            route[i, j] = take
            budget -= take
            if budget <= 0:
                break
    return route


def clip_feasible_loop(problem, h) -> np.ndarray:
    """``SlotServiceProblem.clip_feasible`` over numpy scalars."""
    out = np.clip(h, 0.0, problem.h_upper)
    caps = problem.site_capacities()
    mem_caps = problem.cluster.memory_capacities
    loads = problem.loads(out)
    memory = problem.memory_used(out)
    for i in range(out.shape[0]):
        scale = 1.0
        if loads[i] > caps[i] + _EPS and loads[i] > 0:
            scale = min(scale, caps[i] / loads[i])
        if np.isfinite(mem_caps[i]) and memory[i] > mem_caps[i] + _EPS and memory[i] > 0:
            scale = min(scale, mem_caps[i] / memory[i])
        if scale < 1.0:
            out[i] *= scale
    return out


def marginal_cost_segments_walk(problem, i: int) -> list:
    """Site *i*'s marginal-cost curve by walking supply and pricing tiers together."""
    segments = []
    tiers = list(problem.pricing.tiers(problem.state.prices[i]))
    tier_idx = 0
    tier_energy_left = tiers[0][0] if tiers else float("inf")
    cluster = problem.cluster
    order = cluster.class_order
    supply = (problem.state.availability[:, order] * cluster.speeds[order])[i]
    unit_powers = (cluster.active_powers / cluster.speeds)[order]
    for cap, unit_power in zip(supply.tolist(), unit_powers.tolist()):
        if cap <= _WORK_EPS:
            continue
        work_left = cap
        while work_left > _EPS and tier_idx < len(tiers):
            unit_cost = tiers[tier_idx][1]
            if unit_power <= _EPS:
                work_in_tier = work_left
            else:
                work_in_tier = min(work_left, tier_energy_left / unit_power)
            if work_in_tier > _EPS:
                segments.append((work_in_tier, unit_power * unit_cost))
            work_left -= work_in_tier
            tier_energy_left -= work_in_tier * unit_power
            if tier_energy_left <= _EPS:
                tier_idx += 1
                tier_energy_left = tiers[tier_idx][0] if tier_idx < len(tiers) else 0.0
    return segments


def account_work_add_at(cluster, h) -> np.ndarray:
    """Per-account work of service matrix *h*, summed with ``np.add.at``."""
    per_type = h.sum(axis=0) * cluster.demands
    acc = np.zeros(cluster.num_accounts)
    np.add.at(acc, cluster.account_of_type, per_type)
    return acc


def busy_counts_columns(cluster, supply, loads) -> np.ndarray:
    """Cheapest-first busy counts, one server class (column) at a time."""
    totals = supply.sum(axis=1)
    speeds = cluster.speeds
    busy = np.zeros((supply.shape[0], cluster.num_server_classes))
    remaining = np.minimum(np.maximum(loads, 0.0), totals)
    for pos, k in enumerate(cluster.class_order.tolist()):
        take = np.minimum(supply[:, pos], remaining)
        busy[:, k] = np.where(take > _WORK_EPS, take / speeds[k], 0.0)
        remaining = remaining - take
    return busy


def greedy_walk_per_site(weights, h_upper, demands, v, segments) -> tuple:
    """``greedy_walk`` with its demand ordering computed site by site."""
    n, j_count = h_upper.shape
    h = np.zeros((n, j_count))
    cost = 0.0
    dem = demands.tolist()
    for i in range(n):
        values_arr = weights[i] / demands
        demand_order = np.argsort(-values_arr, kind="stable").tolist()
        values = values_arr.tolist()
        work_wanted = (h_upper[i] * demands).tolist()
        served = [0.0] * j_count
        site = segments[i]
        seg_idx = 0
        seg_remaining = site[0][0] if site else 0.0
        for j in demand_order:
            want = work_wanted[j]
            if want <= _GREEDY_EPS or values[j] <= _GREEDY_EPS:
                continue
            while want > _GREEDY_EPS and seg_idx < len(site):
                unit_cost = v * site[seg_idx][1]
                if values[j] <= unit_cost + _GREEDY_EPS:
                    break
                take = min(want, seg_remaining)
                served[j] += take / dem[j]
                cost += take * unit_cost
                want -= take
                seg_remaining -= take
                if seg_remaining <= _GREEDY_EPS:
                    seg_idx += 1
                    seg_remaining = site[seg_idx][0] if seg_idx < len(site) else 0.0
            if seg_idx >= len(site):
                break
        h[i] = served
        np.minimum(h[i], h_upper[i], out=h[i])
    return h, cost
