"""Tests for the pluggable execution engine (``repro.core.executor``)
and its threading through Algorithm 1 and the estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.design import design_repair
from repro.core.executor import (EXECUTOR_NAMES, ProcessExecutor,
                                 SerialExecutor, ThreadExecutor,
                                 resolve_executor)
from repro.core.repair import DistributionalRepairer
from repro.exceptions import ValidationError


class TestResolveExecutor:
    def test_default_is_serial(self):
        assert resolve_executor().name == "serial"
        assert resolve_executor("auto").name == "serial"
        assert resolve_executor("auto", n_jobs=1).name == "serial"

    def test_auto_picks_threads_for_blas_bound_solvers(self):
        for solver in ("lp", "multiscale", "sinkhorn"):
            engine = resolve_executor("auto", n_jobs=3, solver=solver)
            assert engine.name == "thread" and engine.n_jobs == 3

    def test_auto_picks_processes_otherwise(self):
        # The screened hybrid's restricted solve is the pure-Python
        # network simplex, which holds the GIL.
        for solver in ("exact", "screened"):
            engine = resolve_executor("auto", n_jobs=3, solver=solver)
            assert engine.name == "process" and engine.n_jobs == 3
        assert resolve_executor("auto", n_jobs=2).name == "process"

    def test_named_strategies(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("thread", n_jobs=2),
                          ThreadExecutor)
        assert isinstance(resolve_executor("process", n_jobs=2),
                          ProcessExecutor)
        assert set(EXECUTOR_NAMES) == {"serial", "thread", "process"}

    def test_pool_executors_default_worker_budget(self):
        assert resolve_executor("thread").n_jobs >= 1

    def test_map_capable_object_passes_through(self):
        class Custom:
            def map(self, fn, iterable):
                return [fn(item) for item in iterable]

        custom = Custom()
        assert resolve_executor(custom) is custom

    def test_unknown_specs_rejected(self):
        with pytest.raises(ValidationError, match="unknown executor"):
            resolve_executor("gpu")
        with pytest.raises(ValidationError, match="cannot resolve"):
            resolve_executor(42)
        with pytest.raises(ValidationError, match="n_jobs"):
            resolve_executor("thread", n_jobs=0)


class TestExecutorMap:
    @pytest.mark.parametrize("strategy", ["serial", "thread", "process"])
    def test_map_preserves_order(self, strategy):
        engine = resolve_executor(strategy, n_jobs=2)
        assert engine.map(abs, [-3, 1, -2, 0]) == [3, 1, 2, 0]

    def test_pools_short_circuit_single_tasks(self):
        engine = ThreadExecutor(4)
        assert engine.map(abs, [-1]) == [1]
        assert engine.map(abs, []) == []


class TestDesignExecutorThreading:
    @pytest.mark.parametrize("strategy", ["serial", "thread", "process"])
    def test_every_strategy_matches_serial_design(self, paper_split,
                                                  strategy):
        serial = design_repair(paper_split.research, 16)
        other = design_repair(paper_split.research, 16, n_jobs=2,
                              executor=strategy)
        assert set(other.feature_plans) == set(serial.feature_plans)
        for key, expected in serial.feature_plans.items():
            got = other.feature_plans[key]
            np.testing.assert_array_equal(got.barycenter,
                                          expected.barycenter)
            for s in (0, 1):
                np.testing.assert_array_equal(
                    got.transports[s].toarray(),
                    expected.transports[s].toarray())

    def test_metadata_records_engine_and_batching(self, paper_split):
        plan = design_repair(paper_split.research, 16, n_jobs=2,
                             executor="thread")
        assert plan.metadata["executor"] == "thread"
        assert plan.metadata["n_jobs"] == 2
        # Exact is batch-kernelled: every (u, s, k) solve was vectorised.
        assert plan.metadata["n_batched_solves"] == \
            2 * len(plan.feature_plans)
        for cell_records in plan.solver_diagnostics().values():
            for record in cell_records.values():
                assert record["batched"] is True
                assert record["batch_size"] >= 1

    def test_auto_strategy_recorded(self, paper_split):
        serial_plan = design_repair(paper_split.research, 12)
        assert serial_plan.metadata["executor"] == "serial"
        threaded = design_repair(paper_split.research, 12, n_jobs=2,
                                 solver="lp")
        assert threaded.metadata["executor"] == "thread"

    def test_non_batchable_solver_counts_zero_batched(self, paper_split):
        plan = design_repair(paper_split.research, 12, solver="lp")
        assert plan.metadata["n_batched_solves"] == 0
        for cell_records in plan.solver_diagnostics().values():
            for record in cell_records.values():
                assert "batched" not in record

    def test_estimator_threads_executor(self, paper_split):
        repairer = DistributionalRepairer(n_states=12, executor="serial",
                                          n_jobs=2)
        repairer.fit(paper_split.research)
        assert repairer.plan.metadata["executor"] == "serial"

    def test_invalid_executor_fails_fast(self, paper_split):
        with pytest.raises(ValidationError, match="unknown executor"):
            design_repair(paper_split.research, 12, executor="gpu")
