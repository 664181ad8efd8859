"""Unit tests for accounts and job types."""

import pytest

from repro.model.job import Account, JobType


class TestAccount:
    def test_valid(self):
        acc = Account(name="org", fair_share=0.4)
        assert acc.fair_share == 0.4

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError):
            Account(name="", fair_share=0.1)

    def test_rejects_negative_share(self):
        with pytest.raises(ValueError):
            Account(name="a", fair_share=-0.1)

    def test_rejects_share_above_one(self):
        with pytest.raises(ValueError):
            Account(name="a", fair_share=1.1)

    def test_zero_share_allowed(self):
        assert Account(name="a", fair_share=0.0).fair_share == 0.0


class TestJobType:
    def test_valid(self):
        jt = JobType(name="t", demand=2.0, eligible_dcs=[0, 2], account=1)
        assert jt.demand == 2.0
        assert jt.eligible_dcs == frozenset({0, 2})
        assert jt.account == 1

    def test_rejects_zero_demand(self):
        with pytest.raises(ValueError):
            JobType(name="t", demand=0.0, eligible_dcs=[0], account=0)

    def test_rejects_empty_eligibility(self):
        with pytest.raises(ValueError):
            JobType(name="t", demand=1.0, eligible_dcs=[], account=0)

    def test_rejects_negative_dc_index(self):
        with pytest.raises(ValueError):
            JobType(name="t", demand=1.0, eligible_dcs=[-1], account=0)

    def test_rejects_negative_account(self):
        with pytest.raises(ValueError):
            JobType(name="t", demand=1.0, eligible_dcs=[0], account=-1)

    def test_rejects_nonpositive_bounds(self):
        with pytest.raises(ValueError):
            JobType(name="t", demand=1.0, eligible_dcs=[0], account=0, max_arrivals=0)
        with pytest.raises(ValueError):
            JobType(name="t", demand=1.0, eligible_dcs=[0], account=0, max_route=0)
        with pytest.raises(ValueError):
            JobType(name="t", demand=1.0, eligible_dcs=[0], account=0, max_service=0.0)

    def test_work_of(self):
        jt = JobType(name="t", demand=3.0, eligible_dcs=[0], account=0)
        assert jt.work_of(2.5) == pytest.approx(7.5)

    def test_work_of_rejects_negative(self):
        jt = JobType(name="t", demand=1.0, eligible_dcs=[0], account=0)
        with pytest.raises(ValueError):
            jt.work_of(-1.0)

    def test_eligible_dcs_deduplicated(self):
        jt = JobType(name="t", demand=1.0, eligible_dcs=[0, 0, 1], account=0)
        assert jt.eligible_dcs == frozenset({0, 1})
