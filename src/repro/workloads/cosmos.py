"""Cosmos-like workload generator (the paper's proprietary-trace stand-in).

The paper drives its evaluation with a trace from Microsoft Cosmos:
batch jobs from four organizations, highly time-dependent (more during
the day), submitted sporadically per organization, and *not* following
any stationary distribution (Fig. 1).  The trace itself is proprietary,
so :class:`CosmosWorkload` synthesizes arrivals with the same
qualitative structure:

* each account has an activity profile = diurnal swing x ON/OFF burst
  modulation (sporadic enterprise submissions);
* the expected *work* contributed by each account is proportional to
  its fairness share (the paper's 40/30/15/15 split);
* per-slot counts are bounded Poisson draws, satisfying eq. (1).

Because Theorem 1 assumes nothing about the arrival process, any trace
with this structure exercises the same algorithmic behaviour as the
original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro._validation import require_in_range, require_positive
from repro.model.cluster import Cluster
from repro.workloads.arrivals import (
    CompositeRate,
    DiurnalRate,
    OnOffBurstRate,
    RateProfile,
    sample_bounded_poisson,
)

__all__ = ["CosmosWorkload"]


@dataclass(frozen=True)
class CosmosWorkload:
    """Synthetic multi-organization batch workload.

    Parameters
    ----------
    cluster:
        Supplies the job types, their demands and their accounts.
    mean_total_work:
        Long-run expected total work arriving per slot, across all
        accounts.  The paper's setup averages just under 100 normalized
        work units per hour (Section VI-B1 reports ~97 units/slot of
        scheduled work).
    diurnal_amplitude:
        Strength of the day/night swing in ``[0, 1]``.
    burst_mean_on / burst_mean_off:
        Mean ON/OFF dwell times (slots) of each account's sporadic
        submission process.
    burst_off_level:
        Relative intensity while an account is OFF (0 = fully silent).
    custom_profiles:
        Optional explicit per-account :class:`RateProfile` overrides
        (length ``M``); entries may be ``None`` to keep the default.
    max_total_work:
        Optional admission-control cap on the total work arriving in a
        single slot.  Slots whose burst-stacked arrivals exceed the cap
        are thinned proportionally (dropping whole jobs).  The paper
        notes exactly this remedy for overload: "admission control
        techniques can be applied to complement our scheme" — with the
        cap below the minimum available capacity, the slackness
        conditions (20)-(22) hold on every generated trace.
    """

    cluster: Cluster
    mean_total_work: float = 95.0
    diurnal_amplitude: float = 0.6
    burst_mean_on: float = 8.0
    burst_mean_off: float = 16.0
    burst_off_level: float = 0.15
    custom_profiles: tuple = field(default=None)
    max_total_work: float = field(default=None)

    def __init__(
        self,
        cluster: Cluster,
        mean_total_work: float = 95.0,
        diurnal_amplitude: float = 0.6,
        burst_mean_on: float = 8.0,
        burst_mean_off: float = 16.0,
        burst_off_level: float = 0.15,
        custom_profiles: Sequence[RateProfile | None] | None = None,
        max_total_work: float | None = None,
    ) -> None:
        require_positive(mean_total_work, "mean_total_work")
        require_in_range(diurnal_amplitude, 0.0, 1.0, "diurnal_amplitude")
        require_positive(burst_mean_on, "burst_mean_on")
        require_positive(burst_mean_off, "burst_mean_off")
        require_in_range(burst_off_level, 0.0, 1.0, "burst_off_level")
        if custom_profiles is not None and len(custom_profiles) != cluster.num_accounts:
            raise ValueError(
                f"custom_profiles must have length {cluster.num_accounts}, "
                f"got {len(custom_profiles)}"
            )
        object.__setattr__(self, "cluster", cluster)
        object.__setattr__(self, "mean_total_work", float(mean_total_work))
        object.__setattr__(self, "diurnal_amplitude", float(diurnal_amplitude))
        object.__setattr__(self, "burst_mean_on", float(burst_mean_on))
        object.__setattr__(self, "burst_mean_off", float(burst_mean_off))
        object.__setattr__(self, "burst_off_level", float(burst_off_level))
        object.__setattr__(
            self,
            "custom_profiles",
            tuple(custom_profiles) if custom_profiles is not None else None,
        )
        if max_total_work is not None:
            require_positive(max_total_work, "max_total_work")
            if max_total_work < mean_total_work:
                raise ValueError(
                    f"max_total_work ({max_total_work}) must be at least "
                    f"mean_total_work ({mean_total_work})"
                )
        object.__setattr__(
            self,
            "max_total_work",
            float(max_total_work) if max_total_work is not None else None,
        )

    # ------------------------------------------------------------------
    def _account_profile(self, account_index: int) -> RateProfile:
        if self.custom_profiles is not None:
            override = self.custom_profiles[account_index]
            if override is not None:
                return override
        # Stagger phases so organizations do not all burst together.
        phase = 3.0 * account_index
        return CompositeRate(
            DiurnalRate(base=1.0, amplitude=self.diurnal_amplitude, phase=phase),
            OnOffBurstRate(
                on_rate=1.0,
                off_rate=self.burst_off_level,
                mean_on=self.burst_mean_on,
                mean_off=self.burst_mean_off,
            ),
        )

    def _burst_mean_level(self) -> float:
        """Long-run mean of the ON/OFF modulation (for normalization)."""
        on_frac = self.burst_mean_on / (self.burst_mean_on + self.burst_mean_off)
        return on_frac + (1.0 - on_frac) * self.burst_off_level

    def account_work_targets(self) -> np.ndarray:
        """Expected work per slot contributed by each account.

        Proportional to the fairness shares ``gamma_m`` (renormalized),
        so a workload generated for the paper's 40/30/15/15 split also
        *demands* resources in that ratio.
        """
        shares = self.cluster.fair_shares
        total = shares.sum()
        if total <= 0:
            shares = np.full_like(shares, 1.0 / len(shares))
            total = 1.0
        return self.mean_total_work * shares / total

    # ------------------------------------------------------------------
    def generate(self, horizon: int, rng: np.random.Generator) -> np.ndarray:
        """Return a ``(horizon, J)`` integer arrival matrix ``a_j(t)``."""
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        cluster = self.cluster
        j_count = cluster.num_job_types
        arrivals = np.zeros((horizon, j_count), dtype=np.int64)

        targets = self.account_work_targets()
        burst_mean = self._burst_mean_level()
        types_of_account = [
            [j for j, jt in enumerate(cluster.job_types) if jt.account == m]
            for m in range(cluster.num_accounts)
        ]

        for m in range(cluster.num_accounts):
            types = types_of_account[m]
            if not types:
                continue
            profile = self._account_profile(m).rates(horizon, rng)
            profile = profile / max(burst_mean, 1e-9)
            work_per_type = targets[m] / len(types)
            for j in types:
                jt = cluster.job_types[j]
                lam = profile * (work_per_type / jt.demand)
                arrivals[:, j] = sample_bounded_poisson(lam, jt.max_arrivals, rng)
        if self.max_total_work is not None:
            self._admission_control(arrivals, rng)
        return arrivals

    def _admission_control(self, arrivals: np.ndarray, rng: np.random.Generator) -> None:
        """Thin any slot whose total arriving work exceeds the cap (in place)."""
        demands = self.cluster.demands
        cap = self.max_total_work
        # One pass over all slots finds those that may exceed the cap.  The
        # margin covers the matrix product summing in another order than
        # the per-slot dot below, which alone decides (and draws jitter).
        over = np.flatnonzero(arrivals @ demands > cap * (1.0 - 1e-9))
        for t in over.tolist():
            row = arrivals[t]
            work = float(row @ demands)
            contributions = row * demands
            while work > cap:
                # Drop one job from the type contributing the most work,
                # randomizing ties via a tiny jitter.
                jitter = rng.random(len(contributions)) * 1e-6
                j = int((contributions + jitter).argmax())
                if row[j] <= 0:
                    break
                row[j] -= 1
                contributions[j] = row[j] * demands[j]
                work -= demands[j]

    def work_by_account(self, arrivals: np.ndarray) -> np.ndarray:
        """Aggregate an arrival matrix into per-account work per slot.

        Returns a ``(horizon, M)`` matrix — the quantity plotted in the
        lower panel of Fig. 1 ("total work of arrived jobs" per
        organization).
        """
        arr = np.asarray(arrivals, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != self.cluster.num_job_types:
            raise ValueError(
                f"arrivals must have shape (T, {self.cluster.num_job_types})"
            )
        work_per_type = arr * self.cluster.demands[np.newaxis, :]
        out = np.zeros((arr.shape[0], self.cluster.num_accounts))
        for j, jt in enumerate(self.cluster.job_types):
            out[:, jt.account] += work_per_type[:, j]
        return out
