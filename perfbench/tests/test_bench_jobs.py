"""A pass runs a fixed job list: whole rounds, set by seed and length alone."""

import run
from workloads import WORKLOADS


def test_job_list_is_whole_rounds_fixed_by_seed():
    for cls in WORKLOADS.values():
        jobs = run.job_list(cls(7, None), 30.0)
        assert jobs and len(jobs) % cls.ROUND == 0
        assert jobs == run.job_list(cls(7, None), 30.0)
        assert len(run.job_list(cls(7, None), 90.0)) > len(jobs)


def test_pinned_workloads_exist():
    assert set(run.BLAS_THREADS) <= set(WORKLOADS)
