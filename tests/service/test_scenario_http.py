"""End-to-end SSE tests of the scenario HTTP front-end (stdlib client only).

The headline acceptance pin: a 32-corner sweep submitted over HTTP streams
every verdict through ``GET /scenarios/<id>/events`` with gapless monotonic
ids, and a client that drops its connection resumes from ``Last-Event-ID``
without gaps or duplicates.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.circuits import rlc_ladder
from repro.engine import BatchRunner, MethodRegistry, MethodSpec
from repro.passivity.result import PassivityReport
from repro.service import (
    PassivityService,
    ScenarioSpec,
    scenario_to_jsonable,
    serve,
)

from harness import numbered_ids, parse_sse


@pytest.fixture()
def server_url():
    """A running service + SSE-enabled HTTP server on an ephemeral port."""
    service = PassivityService(max_workers=2)
    server = serve(service, host="127.0.0.1", port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}"
    finally:
        server.shutdown()
        server.server_close()
        service.close()


def _get(url: str):
    with urllib.request.urlopen(url, timeout=30.0) as response:
        return response.status, json.loads(response.read())


def _post(url: str, document: dict):
    request = urllib.request.Request(
        url, data=json.dumps(document).encode("utf-8"), method="POST"
    )
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.status, json.loads(response.read())


def _delete(url: str):
    request = urllib.request.Request(url, method="DELETE")
    with urllib.request.urlopen(request, timeout=30.0) as response:
        return response.status, json.loads(response.read())


def _read_sse(url: str, last_event_id=None, stop_after_ids=None, timeout=120.0):
    """Stream the SSE feed, returning the raw bytes read off the wire.

    Reads until the terminal event (``summary``/``cancelled``) or — when
    ``stop_after_ids`` is given — until that many numbered events arrived,
    then *drops the connection* (the resume scenario's first half).
    """
    request = urllib.request.Request(url)
    if last_event_id is not None:
        request.add_header("Last-Event-ID", str(last_event_id))
    raw = b""
    seen_ids = 0
    response = urllib.request.urlopen(request, timeout=timeout)
    try:
        assert response.status == 200
        assert response.headers["Content-Type"].startswith("text/event-stream")
        while True:
            line = response.readline()
            if not line:
                break
            raw += line
            if line.startswith(b"id: "):
                seen_ids += 1
            if (
                stop_after_ids is not None
                and seen_ids >= stop_after_ids
                and line == b"\n"  # frame complete: drop the connection
            ):
                break
            if line.startswith(b"event: ") and line.strip() in (
                b"event: summary",
                b"event: cancelled",
            ):
                # One blank + (for summary) the closing frame follow; read
                # until the server ends the stream.
                while True:
                    tail = response.readline()
                    if not tail:
                        break
                    raw += tail
                break
    finally:
        response.close()  # the "dropped connection" when stopping early
    return raw


class TestScenarioSSEEndToEnd:
    def test_32_corner_sweep_streams_all_verdicts_and_resumes(self, server_url):
        spec = ScenarioSpec(
            family="corners",
            system=rlc_ladder(3).system,
            n_corners=32,
            seed=11,
        )
        status, accepted = _post(
            f"{server_url}/scenarios", scenario_to_jsonable(spec)
        )
        assert status == 202
        scenario_id = accepted["scenario_id"]
        assert accepted["n_cells"] == 32
        events_url = f"{server_url}{accepted['events']}"

        # First connection: stream a prefix, then drop the connection.
        first = parse_sse(_read_sse(events_url, stop_after_ids=10))
        first_ids = numbered_ids(first)
        assert len(first_ids) == 10
        assert first_ids == list(range(first_ids[0], first_ids[0] + 10))

        # Resume with Last-Event-ID: no gaps, no duplicates, to the end.
        resumed = parse_sse(
            _read_sse(events_url, last_event_id=first_ids[-1])
        )
        resumed_ids = numbered_ids(resumed)
        assert resumed_ids[0] == first_ids[-1] + 1

        # The union is one gapless monotonic transcript...
        ids = first_ids + resumed_ids
        assert ids == list(range(ids[0], ids[0] + len(ids)))
        # ...carrying every one of the 32 per-corner verdicts exactly once.
        frames = first + resumed
        corners = [f for f in frames if f[1] == "corner"]
        assert len(corners) == 32
        assert sorted(f[2]["index"] for f in corners) == list(range(32))
        assert all(f[2]["is_passive"] is True for f in corners)
        assert frames[-1][1] == "summary"
        summary = frames[-1][2]
        assert summary["state"] == "done"
        assert summary["n_done"] == 32
        assert summary["n_passive"] == 32

        # The poll-style view agrees with the streamed terminal state.
        status, snapshot = _get(f"{server_url}/scenarios/{scenario_id}")
        assert status == 200
        assert snapshot["state"] == "done"
        assert snapshot["n_done"] == 32

    def test_resume_via_query_parameter(self, server_url):
        spec = ScenarioSpec(
            family="corners", system=rlc_ladder(3).system, n_corners=4
        )
        status, accepted = _post(
            f"{server_url}/scenarios", {"scenario": scenario_to_jsonable(spec)}
        )
        assert status == 202
        events_url = f"{server_url}{accepted['events']}"
        full = parse_sse(_read_sse(events_url))
        assert full[-1][1] == "summary"
        last = numbered_ids(full)[-1]
        # EventSource polyfills resume via ?last_event_id=; from the final
        # id the replay is empty and the stream closes immediately
        # (terminal scenarios replay-then-close).
        tail = parse_sse(
            _read_sse(f"{events_url}?last_event_id={last - 1}")
        )
        assert numbered_ids(tail) == [last]

    def test_malformed_scenario_answers_400(self, server_url):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server_url}/scenarios", {"family": "banana"})
        assert excinfo.value.code == 400
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server_url}/scenarios", {"scenario": ["not", "a", "doc"]})
        assert excinfo.value.code == 400

    def test_non_positive_timeout_answers_400(self, server_url):
        document = scenario_to_jsonable(
            ScenarioSpec(family="corners", system=rlc_ladder(3).system, n_corners=3)
        )
        document["timeout"] = -1.0
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(f"{server_url}/scenarios", document)
        assert excinfo.value.code == 400
        assert "timeout must be positive" in json.loads(excinfo.value.read())["message"]

    def test_unknown_scenario_answers_404(self, server_url):
        for path in ("/scenarios/scn-missing", "/scenarios/scn-missing/events"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{server_url}{path}")
            assert excinfo.value.code == 404
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _delete(f"{server_url}/scenarios/scn-missing")
        assert excinfo.value.code == 404

    def test_delete_cancels_and_the_stream_reports_it(self):
        def slow(system, tol, cache, seconds=0.5, **options):
            time.sleep(seconds)
            return PassivityReport(is_passive=True, method="slow")

        registry = MethodRegistry()
        registry.register(
            MethodSpec(
                name="slow",
                runner=slow,
                description="slow enough to cancel mid-flight",
                uses_spectral_cache=False,
            )
        )
        runner = BatchRunner(registry=registry, backend="thread")
        service = PassivityService(runner, max_workers=1)
        server = serve(service, host="127.0.0.1", port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            spec = ScenarioSpec(
                family="corners",
                system=rlc_ladder(3).system,
                n_corners=8,
                method="slow",
            )
            status, accepted = _post(
                f"{base}/scenarios", scenario_to_jsonable(spec)
            )
            assert status == 202
            scenario_id = accepted["scenario_id"]
            status, outcome = _delete(f"{base}/scenarios/{scenario_id}")
            assert status == 200
            assert outcome["cancelled"] is True
            status, snapshot = _get(f"{base}/scenarios/{scenario_id}")
            assert snapshot["state"] == "cancelled"
            # A subscriber arriving after the cancel replays the transcript,
            # ending in the terminal `cancelled` event.
            frames = parse_sse(
                _read_sse(f"{base}{accepted['events']}")
            )
            assert frames[-1][1] == "cancelled"
        finally:
            server.shutdown()
            server.server_close()
            service.close()

    def test_sse_disabled_server_404s_the_events_feed(self):
        service = PassivityService(max_workers=1)
        server = serve(service, host="127.0.0.1", port=0, sse=False)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        host, port = server.server_address[:2]
        base = f"http://{host}:{port}"
        try:
            spec = ScenarioSpec(
                family="corners", system=rlc_ladder(3).system, n_corners=2
            )
            status, accepted = _post(
                f"{base}/scenarios", scenario_to_jsonable(spec)
            )
            assert status == 202
            scenario_id = accepted["scenario_id"]
            # Polling stays available; only the push feed is off.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(f"{base}/scenarios/{scenario_id}/events")
            assert excinfo.value.code == 404
            deadline = time.time() + 60.0
            while time.time() < deadline:
                status, snapshot = _get(f"{base}/scenarios/{scenario_id}")
                if snapshot["state"] == "done":
                    break
                time.sleep(0.02)
            assert snapshot["state"] == "done"
        finally:
            server.shutdown()
            server.server_close()
            service.close()
