"""Scheduling-decision constraints beyond the base model.

Currently: the per-job **parallelism constraint** of Section III-B.
The base model assumes jobs are fully parallelizable; in practice "it
may be possible that only a certain number of servers can process a job
in parallel", and the paper notes the model adapts by bounding the
scheduling decisions.  With at most ``P_j`` servers per job and ``q_ij``
jobs present, the work type ``j`` can absorb at site ``i`` in one slot
is ``q_ij * P_j * s_i^fast`` (``s_i^fast`` = fastest server class with
any availability at the site), i.e.

.. math::

   h_{ij}(t) \\le \\frac{q_{ij}(t) \\cdot P_j \\cdot s_i^{fast}}{d_j}

which slots into the solvers as one more upper bound on ``h``.
"""

from __future__ import annotations

import numpy as np

from repro.model.cluster import Cluster
from repro.model.state import ClusterState

__all__ = ["parallelism_service_bounds"]


def parallelism_service_bounds(
    cluster: Cluster,
    state: ClusterState,
    dc_queue_lengths: np.ndarray,
) -> np.ndarray:
    """Per-(site, type) service bounds implied by job parallelism caps.

    Parameters
    ----------
    cluster:
        Supplies the per-type ``max_parallelism`` (``None`` = unbounded).
    state:
        Supplies the fastest usable server speed per site (its slot
        table's ``fastest`` row).
    dc_queue_lengths:
        ``(N, J)`` current site queue lengths ``q_ij(t)`` (jobs).

    Returns
    -------
    numpy.ndarray
        ``(N, J)`` matrix of bounds; ``inf`` where no cap applies.
    """
    n, j_count = dc_queue_lengths.shape
    if n != cluster.num_datacenters or j_count != cluster.num_job_types:
        raise ValueError(
            f"dc_queue_lengths must have shape "
            f"{(cluster.num_datacenters, cluster.num_job_types)}, "
            f"got {dc_queue_lengths.shape}"
        )
    bounds = np.full((n, j_count), np.inf)
    table, t = state.environment(cluster)
    fastest = table.fastest[t]
    for j, jt in enumerate(cluster.job_types):
        if jt.max_parallelism is None:
            continue
        per_job_rate = jt.max_parallelism * fastest / jt.demand
        bounds[:, j] = dc_queue_lengths[:, j] * per_job_rate
    return bounds
