"""Observability-plane acceptance tests: traces, gauges, /metrics, contract.

The headline acceptance criterion of the unified observability plane: a
job executed on the **process** executor serves a ``GET /jobs/<id>/trace``
containing queue-wait, cache-outcome and factorization spans —
the factorization ones recorded *inside* the worker process and shipped
back by value.  Around it: the thread-executor trace, the snapshot-time
``queue_wait_max`` / ``journal_lag`` gauges, stage quantiles in
``stats()``, the Prometheus endpoint, opt-in scenario ``trace`` events,
and the ServiceStats HTTP/docs contract.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.circuits import rlc_grid, rlc_ladder
from repro.exceptions import JobNotReadyError
from repro.service import (
    PassivityService,
    ScenarioSpec,
    serve,
    system_to_jsonable,
)
from repro.service.service import ServiceStats

from harness import GateRegistry, drain


def _span_names(spans):
    names = []
    stack = list(spans)
    while stack:
        span = stack.pop()
        names.append(span["name"])
        stack.extend(span.get("children") or [])
    return names


class TestJobTraces:
    def test_thread_executor_trace_has_the_pipeline_spans(self):
        with PassivityService(max_workers=1) as service:
            handle = service.submit(rlc_ladder(6).system, method="gare")
            handle.result(timeout=60.0)
            trace = service.trace(handle.job_id)
        assert trace["job_id"] == handle.job_id
        assert trace["state"] == "done"
        names = _span_names(trace["spans"])
        assert "queue.wait" in names
        assert "engine.dispatch" in names
        assert any(name.startswith("cache.") for name in names)
        assert "riccati.solve" in names

    def test_process_executor_trace_records_worker_side_spans(self):
        # The acceptance criterion: cache + factorization spans
        # for work that physically ran in another process.
        with PassivityService(max_workers=1, executor="process") as service:
            handle = service.submit(rlc_ladder(6).system, method="gare")
            handle.result(timeout=120.0)
            trace = service.trace(handle.job_id)
        names = _span_names(trace["spans"])
        assert "queue.wait" in names
        assert "engine.dispatch" in names
        assert "riccati.solve" in names
        cache_spans = [
            span
            for span in _walk_spans(trace["spans"])
            if span["name"].startswith("cache.")
        ]
        assert cache_spans, "no cache spans in the worker trace"
        outcomes = {span["attrs"]["outcome"] for span in cache_spans}
        assert outcomes & {"computed", "l1_hit", "l2_hit"}

    def test_trace_before_completion_raises_not_ready(self):
        gates = GateRegistry()
        with PassivityService(max_workers=1, registry=gates.registry) as service:
            handle = service.submit(rlc_ladder(4).system, method="gated")
            assert gates.wait_started()
            with pytest.raises(JobNotReadyError):
                service.trace(handle.job_id)
            gates.open_all()
            handle.result(timeout=30.0)
            trace = service.trace(handle.job_id)
            assert "queue.wait" in _span_names(trace["spans"])


def _walk_spans(spans):
    stack = list(spans)
    while stack:
        span = stack.pop()
        span.setdefault("attrs", {})
        yield span
        stack.extend(span.get("children") or [])


class TestSnapshotGauges:
    def test_queue_wait_max_reflects_currently_queued_jobs(self):
        gates = GateRegistry()
        with PassivityService(max_workers=1, registry=gates.registry) as service:
            first = service.submit(rlc_ladder(4).system, method="gated")
            assert gates.wait_started()
            # Second job queues behind the gated one and waits.
            second = service.submit(
                rlc_ladder(5).system, method="gated", priority=0
            )
            time.sleep(0.15)
            stats = service.stats()
            assert stats.queue_depth == 1
            assert stats.queue_wait_max >= 0.1
            gates.open_all()
            first.result(timeout=30.0)
            second.result(timeout=30.0)
            stats = service.stats()
            assert stats.queue_depth == 0
            assert stats.queue_wait_max == 0.0

    def test_journal_lag_counts_dead_records(self, tmp_path):
        journal_path = os.fspath(tmp_path / "jobs.journal")
        gates = GateRegistry()
        with PassivityService(
            max_workers=1, registry=gates.registry, journal=journal_path
        ) as service:
            handle = service.submit(rlc_ladder(4).system, method="gated")
            assert gates.wait_started()
            # Running job: submitted/started records are live, nothing dead.
            assert service.stats().journal_lag == 0
            gates.open_all()
            handle.result(timeout=30.0)
            # Finished job: its records are dead weight until compaction.
            assert service.stats().journal_lag >= 1

    def test_stats_stages_carry_quantiles(self):
        with PassivityService(max_workers=1) as service:
            service.submit(rlc_ladder(6).system, method="gare").result(
                timeout=60.0
            )
            stages = service.stats().stages
        assert "engine.dispatch" in stages
        entry = stages["engine.dispatch"]
        assert entry["count"] >= 1
        assert 0.0 <= entry["p50"] <= entry["p99"]


class TestScenarioTraceEvents:
    def test_trace_events_are_opt_in(self):
        spec = ScenarioSpec(
            family="corners",
            system=rlc_grid(3, 4).system,
            n_corners=2,
            method="gare",
        )
        with PassivityService(max_workers=2) as service:
            handle = service.submit_scenario(spec)
            events = drain(handle.subscribe(), timeout=120.0)
        assert all(event.event != "trace" for event in events)

    def test_trace_events_stream_when_requested(self):
        # Gated cells: the subscription attaches before any cell can
        # finish, so every per-cell trace event is observed.
        gates = GateRegistry()
        spec = ScenarioSpec(
            family="corners",
            system=rlc_grid(3, 4).system,
            n_corners=2,
            method="gated",
            trace=True,
        )
        with PassivityService(
            max_workers=2, registry=gates.registry
        ) as service:
            handle = service.submit_scenario(spec)
            subscription = handle.subscribe()
            gates.open_all()
            events = drain(subscription, timeout=120.0)
        corners = [event for event in events if event.event == "corner"]
        traces = [event for event in events if event.event == "trace"]
        # One trace event per finished cell (n_corners counts the nominal).
        assert len(corners) == 2
        assert [t.data["job_id"] for t in traces] == [
            c.data["job_id"] for c in corners
        ]
        for event in traces:
            names = _span_names(event.data["spans"])
            assert "queue.wait" in names
            assert "engine.dispatch" in names


@pytest.fixture()
def server_url():
    """A running service + HTTP server on an ephemeral port."""
    service = PassivityService(max_workers=2)
    server = serve(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30.0) as response:
        content_type = response.headers.get("Content-Type", "")
        body = response.read()
    if content_type.startswith("application/json"):
        return 200, json.loads(body), content_type
    return 200, body.decode("utf-8"), content_type


def _post(url: str, document: dict):
    request = urllib.request.Request(
        url, data=json.dumps(document).encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.status, json.loads(response.read())


class TestHTTPEndpoints:
    def test_trace_endpoint_200_202_404(self, server_url):
        base, service = server_url
        status, payload = _post(
            f"{base}/jobs",
            {"system": system_to_jsonable(rlc_ladder(5).system), "method": "gare"},
        )
        assert status == 202
        job_id = payload["job_id"]
        service.result(job_id, timeout=60.0)

        status, trace, _ = _get(f"{base}/jobs/{job_id}/trace")
        assert status == 200
        assert trace["job_id"] == job_id
        assert "queue.wait" in _span_names(trace["spans"])

        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(f"{base}/jobs/nonexistent/trace", timeout=30.0)
        assert exc_info.value.code == 404

    def test_metrics_endpoint_serves_prometheus_text(self, server_url):
        base, service = server_url
        service.submit(rlc_ladder(5).system, method="gare").result(timeout=60.0)
        status, text, content_type = _get(f"{base}/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        for family in (
            "repro_stage_seconds",
            "repro_jobs_submitted",
            "repro_jobs_completed",
            "repro_queue_depth",
            "repro_queue_wait_max_seconds",
            "repro_journal_lag",
            "repro_uptime_seconds",
        ):
            assert f"# TYPE {family} " in text, f"missing family {family}"
        assert 'repro_stage_seconds_bucket{stage="engine.dispatch",le="+Inf"}' in text

    def test_metrics_can_be_disabled(self):
        service = PassivityService(max_workers=1)
        server = serve(service, host="127.0.0.1", port=0, metrics=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        try:
            with pytest.raises(urllib.error.HTTPError) as exc_info:
                urllib.request.urlopen(
                    f"http://{host}:{port}/metrics", timeout=30.0
                )
            assert exc_info.value.code == 404
        finally:
            server.shutdown()
            server.server_close()
            service.close()


class TestStatsContract:
    """Every ServiceStats field must reach HTTP clients and the docs."""

    def test_every_field_appears_in_the_http_stats_json(self, server_url):
        base, service = server_url
        service.submit(rlc_ladder(4).system, method="gare").result(timeout=60.0)
        status, payload, _ = _get(f"{base}/stats")
        assert status == 200
        field_names = {field.name for field in dataclasses.fields(ServiceStats)}
        missing = field_names - set(payload)
        assert not missing, f"ServiceStats fields absent from GET /stats: {missing}"

    def test_every_field_is_documented_in_api_md(self):
        api_md = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "docs", "api.md"
        )
        with open(api_md, "r", encoding="utf-8") as stream:
            text = stream.read()
        for field in dataclasses.fields(ServiceStats):
            assert (
                f"`{field.name}`" in text
            ), f"ServiceStats.{field.name} undocumented in docs/api.md"
