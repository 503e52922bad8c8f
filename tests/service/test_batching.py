"""The service's batch and transport stats fields, which stay 0."""

import pytest

from repro.circuits import rlc_ladder
from repro.service import PassivityService
from repro.service.__main__ import main


class TestServiceMicroBatching:
    def test_policy_off_never_batches(self):
        systems = [rlc_ladder(2).system for _ in range(4)]
        with PassivityService(
            max_workers=1,
            executor="process",
            dedup=False,
        ) as service:
            handles = [service.submit(system, method="gare") for system in systems]
            for handle in handles:
                handle.result(timeout=120.0)
            stats = service.stats()
        assert stats.batches == 0
        assert stats.batched_jobs == 0
        assert stats.batch_occupancy == 0.0

    def test_thread_executor_reports_no_transport_or_batches(self):
        with PassivityService(max_workers=1, executor="thread") as service:
            service.submit(rlc_ladder(3).system, method="gare").result(timeout=120.0)
            stats = service.stats()
        assert stats.batches == 0
        assert stats.shm_bytes == 0

    def test_forced_pickle_transport(self):
        with PassivityService(max_workers=1, executor="process") as service:
            report = service.submit(rlc_ladder(3).system, method="gare").result(
                timeout=120.0
            )
            stats = service.stats()
        assert report.is_passive
        assert stats.shm_bytes == 0

    def test_stats_jsonable_carries_batch_fields(self):
        with PassivityService(max_workers=1) as service:
            payload = service.stats().to_jsonable()
        for key in ("batches", "batched_jobs", "batch_occupancy", "shm_bytes"):
            assert key in payload



class TestNoBatchingKnobs:
    @pytest.mark.parametrize(
        "knob",
        [
            {"batch_small_systems": True},
            {"small_system_order": 100},
            {"max_batch_size": 8},
        ],
        ids=["batch_small_systems", "small_system_order", "max_batch_size"],
    )
    def test_batching_parameters_are_gone(self, knob):
        with pytest.raises(TypeError):
            PassivityService(executor="process", **knob)

    @pytest.mark.parametrize(
        "flag",
        [
            ["--batch-small-systems", "on"],
            ["--small-system-order", "100"],
            ["--max-batch-size", "8"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_cli_has_no_batching_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(flag)
        assert exit_info.value.code == 2
        assert flag[0] in capsys.readouterr().err
