"""Reference stdlib HTTP front-end for :class:`PassivityService`.

A minimal, dependency-free JSON-over-HTTP transport demonstrating how the
service sits behind a network boundary.  It is deliberately small — real
deployments would front the service with their framework of choice; the
value here is the frozen wire contract:

=========  ======================  ==========================================
Method     Path                    Meaning
=========  ======================  ==========================================
``POST``   ``/jobs``               Submit ``{"system": <system document>,
                                   "method", "priority", "timeout",
                                   "options"}``; responds ``202`` with
                                   ``{"job_id": ...}``; ``429`` (with
                                   ``Retry-After``) when the service's
                                   bounded queue is full.
``GET``    ``/jobs/<id>``          Status snapshot (``JobStatus`` fields).
``GET``    ``/jobs/<id>/result``   ``200`` with the report document when
                                   done; ``202`` with the status while
                                   pending; ``404`` unknown id; ``410``
                                   cancelled; ``500`` failed/timed out.
``GET``    ``/jobs/<id>/trace``    ``200`` with the job's pipeline trace
                                   (``{"job_id", "state", "spans"}`` — the
                                   span tree of queue wait and
                                   worker-side stages) once terminal;
                                   ``202`` with the status while pending;
                                   ``404`` unknown id.
``DELETE`` ``/jobs/<id>``          Cancel; ``{"cancelled": true|false}``.
``POST``   ``/scenarios``          Submit a scenario document (a
                                   :func:`scenario_to_jsonable` spec, bare
                                   or wrapped as ``{"scenario": ...}``);
                                   responds ``202`` with
                                   ``{"scenario_id", "n_cells"}``; ``429``
                                   when the expansion does not fit the
                                   bounded queue.
``GET``    ``/scenarios/<id>``     Progress snapshot (``ScenarioStatus``).
``GET``    ``/scenarios/<id>/events``  Server-Sent Events stream of the
                                   scenario's ``corner`` / ``progress`` /
                                   ``snapshot`` / ``summary`` events
                                   (chunked ``text/event-stream``; resumes
                                   from ``Last-Event-ID`` header or
                                   ``?last_event_id=``; ``503`` with
                                   ``Retry-After`` at the subscriber
                                   limit; ``404`` when streaming is off).
``DELETE`` ``/scenarios/<id>``     Cancel; ``{"cancelled": true|false}``.
``GET``    ``/stats``              Service telemetry (``ServiceStats``),
                                   including per-stage latency quantiles
                                   under ``stages``.
``GET``    ``/metrics``            Prometheus text exposition (format
                                   0.0.4) of the process-wide metrics
                                   registry: per-stage latency histograms
                                   (``repro_stage_seconds``) plus service
                                   gauges; ``404`` when disabled
                                   (``metrics=False`` / ``--no-metrics``).
``GET``    ``/healthz``            Liveness probe: ``200`` with the
                                   :meth:`PassivityService.health` snapshot
                                   (executor heartbeat, queue depth,
                                   journal lag) while alive, ``503`` when
                                   the service is dead or its process pool
                                   stopped answering.
=========  ======================  ==========================================

System and report documents are the :mod:`repro.service.serialization`
forms.  Errors map the typed :mod:`repro.exceptions` service hierarchy onto
status codes, so clients never see a raw traceback for a bad id.

Run the reference server with ``python -m repro.service`` (see
:mod:`repro.service.__main__`) or embed it::

    from repro.service import PassivityService, serve

    with PassivityService(max_workers=4) as service:
        server = serve(service, host="127.0.0.1", port=8123)
        server.serve_forever()
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.exceptions import (
    JobCancelledError,
    JobFailedError,
    JobNotReadyError,
    QueueFullError,
    ReproError,
    SerializationError,
    ServiceError,
    UnknownJobError,
    UnknownScenarioError,
)
from repro.obs.log import get_logger
from repro.service.scenario import format_sse_event
from repro.service.serialization import report_to_jsonable, system_from_jsonable
from repro.service.service import PassivityService

__all__ = ["PassivityHTTPServer", "PassivityRequestHandler", "serve"]


class PassivityHTTPServer(ThreadingHTTPServer):
    """Threading HTTP server bound to one :class:`PassivityService`.

    Each request runs on its own thread and talks to the (thread-safe)
    service; the server does not own the service's lifecycle — start and
    close the service around the server's ``serve_forever`` loop.
    """

    daemon_threads = True

    def __init__(
        self,
        service: PassivityService,
        address: Tuple[str, int] = ("127.0.0.1", 8123),
        sse: bool = True,
        metrics: bool = True,
    ) -> None:
        self.service = service
        #: Streaming switch: with it off, ``GET /scenarios/<id>/events``
        #: answers 404 and clients fall back to polling the snapshot.
        self.sse_enabled = bool(sse)
        #: Metrics switch: with it off, ``GET /metrics`` answers 404.
        self.metrics_enabled = bool(metrics)
        super().__init__(address, PassivityRequestHandler)


class PassivityRequestHandler(BaseHTTPRequestHandler):
    """Maps the HTTP wire contract onto the service API (see module docs)."""

    server_version = "repro-passivity-service/1.0"
    #: HTTP/1.1 so the SSE feed can use chunked transfer encoding (the
    #: stream's length is unknowable); plain endpoints still send
    #: Content-Length, so keep-alive semantics are unchanged.
    protocol_version = "HTTP/1.1"
    #: Seconds of event silence before the SSE feed writes a heartbeat
    #: comment (keeps NATs and proxies from reaping an idle stream).
    sse_heartbeat = 15.0
    #: Request-log verbosity alias (historical name): ``False`` (default)
    #: logs requests at DEBUG — invisible under the default INFO level —
    #: and ``True`` lifts them to INFO.
    verbose = False

    @property
    def service(self) -> PassivityService:
        """The service owned by the bound :class:`PassivityHTTPServer`."""
        return self.server.service

    def log_message(self, format: str, *args: Any) -> None:
        """Route per-request logging through the structured JSON logger.

        Replaces the stdlib handler's ad-hoc stderr lines with one
        ``http_request`` event on the ``repro.http`` logger.  The
        :attr:`verbose` class attribute keeps its historical meaning as an
        alias: ``True`` emits at INFO (visible by default), ``False``
        at DEBUG (visible under ``REPRO_LOG_LEVEL=DEBUG``).
        """
        logger = get_logger("repro.http")
        emit = logger.info if self.verbose else logger.debug
        emit(
            "http_request",
            client=self.address_string(),
            request=format % args,
        )

    # ------------------------------------------------------------------
    def _send_json(
        self,
        code: int,
        payload: Dict[str, Any],
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        """Write one JSON response (``extra_headers`` ride along verbatim)."""
        body = json.dumps(payload).encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, error: Exception) -> None:
        """Write one JSON error response carrying the typed error name."""
        self._send_json(
            code, {"error": type(error).__name__, "message": str(error)}
        )

    def _read_json(self) -> Dict[str, Any]:
        """Parse the request body as a JSON object."""
        length = int(self.headers.get("Content-Length", 0))
        raw = self.rfile.read(length) if length else b""
        try:
            document = json.loads(raw.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise SerializationError(f"request body is not valid JSON: {error}")
        if not isinstance(document, dict):
            raise SerializationError("request body must be a JSON object")
        return document

    def _route(self, collection: str) -> Optional[Tuple[str, str]]:
        """Split ``/<collection>/<id>[/tail]`` into ``(id, tail)``."""
        parts = [
            part for part in urlsplit(self.path).path.split("/") if part
        ]
        if len(parts) >= 2 and parts[0] == collection:
            return parts[1], "/".join(parts[2:])
        return None

    def _job_id(self) -> Optional[Tuple[str, str]]:
        """Split ``/jobs/<id>[/result]`` into ``(job_id, tail)``."""
        return self._route("jobs")

    def _last_event_id(self) -> Optional[int]:
        """SSE resume point: ``Last-Event-ID`` header or query parameter."""
        raw = self.headers.get("Last-Event-ID")
        if raw is None:
            values = parse_qs(urlsplit(self.path).query).get("last_event_id")
            raw = values[0] if values else None
        if raw is None:
            return None
        try:
            return int(raw)
        except ValueError:
            return None

    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """``POST /jobs`` or ``POST /scenarios``: submit work."""
        path = urlsplit(self.path).path.rstrip("/")
        if path == "/scenarios":
            self._submit_scenario()
            return
        if path != "/jobs":
            self._send_json(404, {"error": "NotFound", "message": self.path})
            return
        try:
            document = self._read_json()
            system = system_from_jsonable(document.get("system"))
            options = document.get("options") or {}
            if not isinstance(options, dict):
                raise SerializationError("'options' must be a JSON object")
            handle = self.service.submit(
                system,
                method=document.get("method", "auto"),
                priority=int(document.get("priority", 0)),
                timeout=document.get("timeout"),
                **options,
            )
        except QueueFullError as error:
            # Backpressure, not a client error: the bounded queue is at
            # capacity.  Clients should honour Retry-After and resubmit.
            self._send_json(
                429,
                {"error": type(error).__name__, "message": str(error)},
                extra_headers={"Retry-After": "1"},
            )
            return
        except (SerializationError, ReproError, TypeError, ValueError) as error:
            self._send_error_json(400, error)
            return
        self._send_json(202, {"job_id": handle.job_id})

    def _submit_scenario(self) -> None:
        """``POST /scenarios``: expand and queue a scenario document."""
        try:
            document = self._read_json()
            # Accept the spec document bare or under a "scenario" wrapper.
            spec = document.get("scenario", document)
            if not isinstance(spec, dict):
                raise SerializationError("'scenario' must be a JSON object")
            handle = self.service.submit_scenario(spec)
            status = handle.status()
        except QueueFullError as error:
            self._send_json(
                429,
                {"error": type(error).__name__, "message": str(error)},
                extra_headers={"Retry-After": "1"},
            )
            return
        except (SerializationError, ReproError, TypeError, ValueError) as error:
            self._send_error_json(400, error)
            return
        self._send_json(
            202,
            {
                "scenario_id": handle.scenario_id,
                "n_cells": status.n_cells,
                "events": f"/scenarios/{handle.scenario_id}/events",
            },
        )

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """``GET /jobs/<id>[/result]``, scenarios, ``/stats``, ``/healthz``."""
        path = urlsplit(self.path).path.rstrip("/")
        if path == "/healthz":
            # The lock-free service health snapshot: 200 while alive, 503
            # once the executor heartbeat is stale (or the service closed),
            # so orchestrators can restart a wedged instance.  The legacy
            # "ok" key is preserved inside the snapshot.
            health = self.service.health()
            self._send_json(200 if health.get("ok") else 503, health)
            return
        if path == "/stats":
            self._send_json(200, self.service.stats().to_jsonable())
            return
        if path == "/metrics":
            self._send_metrics()
            return
        scenario = self._route("scenarios")
        if scenario is not None:
            scenario_id, tail = scenario
            if tail == "events":
                self._stream_scenario_events(scenario_id)
            elif tail == "":
                try:
                    status = self.service.scenario_status(scenario_id)
                except UnknownScenarioError as error:
                    self._send_error_json(404, error)
                else:
                    self._send_json(200, status.to_jsonable())
            else:
                self._send_json(
                    404, {"error": "NotFound", "message": self.path}
                )
            return
        located = self._job_id()
        if located is None:
            self._send_json(404, {"error": "NotFound", "message": self.path})
            return
        job_id, tail = located
        try:
            if tail == "":
                self._send_json(200, self.service.status(job_id).to_jsonable())
            elif tail == "result":
                report = self.service.result(job_id, timeout=0.0)
                self._send_json(200, report_to_jsonable(report))
            elif tail == "trace":
                self._send_json(200, self.service.trace(job_id))
            else:
                self._send_json(404, {"error": "NotFound", "message": self.path})
        except UnknownJobError as error:
            self._send_error_json(404, error)
        except JobNotReadyError:
            # Poll-style contract: not an error, report progress instead.
            # The job can be evicted between result() and status() under a
            # small history bound; degrade to the typed 404 then.
            try:
                snapshot = self.service.status(job_id).to_jsonable()
            except UnknownJobError as error:
                self._send_error_json(404, error)
            else:
                self._send_json(202, snapshot)
        except JobCancelledError as error:
            self._send_error_json(410, error)
        except JobFailedError as error:
            self._send_error_json(500, error)

    def do_DELETE(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        """``DELETE /jobs/<id>`` or ``/scenarios/<id>``: cancel."""
        scenario = self._route("scenarios")
        if scenario is not None and scenario[1] == "":
            try:
                cancelled = self.service.cancel_scenario(scenario[0])
            except UnknownScenarioError as error:
                self._send_error_json(404, error)
                return
            self._send_json(
                200, {"scenario_id": scenario[0], "cancelled": cancelled}
            )
            return
        located = self._job_id()
        if located is None or located[1] != "":
            self._send_json(404, {"error": "NotFound", "message": self.path})
            return
        try:
            cancelled = self.service.cancel(located[0])
        except UnknownJobError as error:
            self._send_error_json(404, error)
            return
        self._send_json(200, {"job_id": located[0], "cancelled": cancelled})

    # ------------------------------------------------------------------
    # Metrics exposition
    # ------------------------------------------------------------------
    def _send_metrics(self) -> None:
        """``GET /metrics``: Prometheus text exposition (format 0.0.4)."""
        if not getattr(self.server, "metrics_enabled", True):
            self._send_json(
                404,
                {
                    "error": "NotFound",
                    "message": "metrics exposition is disabled (--metrics)",
                },
            )
            return
        body = self.service.metrics_text().encode("utf-8")
        self.send_response(200)
        self.send_header(
            "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
        )
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    # ------------------------------------------------------------------
    # Server-Sent Events
    # ------------------------------------------------------------------
    def _write_chunk(self, data: bytes) -> None:
        """Write one HTTP/1.1 chunk (empty ``data`` terminates the body)."""
        self.wfile.write(f"{len(data):X}\r\n".encode("ascii"))
        self.wfile.write(data)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    def _stream_scenario_events(self, scenario_id: str) -> None:
        """``GET /scenarios/<id>/events``: push the scenario's SSE feed.

        The subscription is opened *before* the response status goes out,
        so a bad id is still a clean 404 and a saturated scenario a 503
        with ``Retry-After``.  The stream then writes one SSE frame per
        event (chunked — its length is unknowable), heartbeat comments
        across quiet stretches, and ends with the terminal event
        (``summary`` or ``cancelled``) followed by the closing chunk.  A
        consumer that reconnects with the last id it saw resumes without
        gaps or duplicates while the event ring still holds the window.
        """
        if not getattr(self.server, "sse_enabled", True):
            self._send_json(
                404,
                {
                    "error": "NotFound",
                    "message": "event streaming is disabled (--sse)",
                },
            )
            return
        try:
            subscription = self.service.subscribe_scenario(
                scenario_id, last_event_id=self._last_event_id()
            )
        except UnknownScenarioError as error:
            self._send_error_json(404, error)
            return
        except QueueFullError as error:
            self._send_json(
                503,
                {"error": type(error).__name__, "message": str(error)},
                extra_headers={"Retry-After": "1"},
            )
            return
        except ServiceError as error:
            self._send_error_json(503, error)
            return
        try:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-cache")
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            # Client reconnect delay hint (standard SSE control line).
            self._write_chunk(b"retry: 1000\n\n")
            while True:
                event = subscription.get(timeout=self.sse_heartbeat)
                if event is None:
                    if subscription.closed:
                        break  # end of stream (terminal event delivered)
                    self._write_chunk(b": heartbeat\n\n")
                    continue
                self._write_chunk(format_sse_event(event))
                if event.terminal:
                    break
            self._write_chunk(b"")
        except (BrokenPipeError, ConnectionResetError, OSError):
            pass  # consumer went away mid-stream; unsubscribe below
        finally:
            # A finished stream must not be reused for a next request: the
            # consumer-side SSE contract is one stream per connection.
            self.close_connection = True
            self.service.unsubscribe_scenario(scenario_id, subscription)


def serve(
    service: PassivityService,
    host: str = "127.0.0.1",
    port: int = 8123,
    sse: bool = True,
    metrics: bool = True,
) -> PassivityHTTPServer:
    """Bind a :class:`PassivityHTTPServer` to ``(host, port)`` and return it.

    The caller owns both lifecycles: call ``server.serve_forever()`` (and
    ``server.shutdown()``), and close the service when done.  Port 0 picks a
    free ephemeral port (``server.server_address`` reports it), which is how
    the integration tests run hermetically.  ``sse=False`` turns the
    ``GET /scenarios/<id>/events`` stream off (clients poll instead);
    ``metrics=False`` turns the ``GET /metrics`` exposition off.
    """
    service.start()
    return PassivityHTTPServer(service, (host, port), sse=sse, metrics=metrics)
