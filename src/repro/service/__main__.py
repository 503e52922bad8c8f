"""``python -m repro.service`` — run the reference passivity HTTP server.

Starts a :class:`~repro.service.PassivityService` with the requested worker
pool and serves the JSON-over-HTTP contract of :mod:`repro.service.http`
until interrupted::

    PYTHONPATH=src python -m repro.service --port 8123 --workers 4

    # elsewhere:
    curl -s -X POST localhost:8123/jobs -d "$(python - <<'EOF'
    import json
    from repro.circuits import rlc_ladder
    from repro.service import system_to_jsonable
    print(json.dumps({"system": system_to_jsonable(rlc_ladder(8).system)}))
    EOF
    )"
    curl -s localhost:8123/jobs/<job_id>/result
    curl -s localhost:8123/stats
"""

from __future__ import annotations

import argparse
import signal

from repro.service.http import serve
from repro.service.service import PassivityService


def main(argv=None) -> int:
    """Parse arguments, start the service and serve until interrupted."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Reference HTTP front-end of the repro passivity service.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument("--port", type=int, default=8123, help="bind port")
    parser.add_argument(
        "--workers", type=int, default=2, help="worker pool size"
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        help="default per-job timeout in seconds (unset: no timeout)",
    )
    parser.add_argument(
        "--executor",
        choices=("thread", "process"),
        default="thread",
        help="execution mode: in-process thread pool, or a process pool "
        "whose workers share decompositions through --store",
    )
    parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        help="bound on queued jobs; beyond it POST /jobs answers 429 "
        "(unset: unbounded)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent decomposition/job store directory (e.g. "
        "./.repro-store); decompositions and completed results then "
        "survive restarts",
    )
    parser.add_argument(
        "--store-budget",
        type=int,
        default=None,
        metavar="BYTES",
        help="LRU size budget of --store in bytes (unset: unbounded)",
    )
    parser.add_argument(
        "--incremental",
        action="store_true",
        help="sweep-aware dispatch: same-family jobs warm-start from the "
        "family's latest cold-run system through the perturbation-aware "
        "incremental tier (falling back cold whenever a validity bound "
        "fails; verdicts never weaken)",
    )
    parser.add_argument(
        "--journal",
        nargs="?",
        const=True,
        default=None,
        metavar="PATH",
        help="write-ahead job journal: accepted submissions are fsynced "
        "and replayed on restart, so kill -9 loses no accepted work; "
        "without PATH the journal lives under --store (which is then "
        "required)",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=1,
        metavar="N",
        help="times a job is re-queued after a process-pool worker crash "
        "before it fails (the pool itself is always rebuilt)",
    )
    parser.add_argument(
        "--sse",
        dest="sse",
        action="store_true",
        default=True,
        help="serve the GET /scenarios/<id>/events Server-Sent-Events "
        "stream (the default; see --no-sse)",
    )
    parser.add_argument(
        "--no-sse",
        dest="sse",
        action="store_false",
        help="disable event streaming; scenario clients poll "
        "GET /scenarios/<id> instead",
    )
    parser.add_argument(
        "--metrics",
        dest="metrics",
        action="store_true",
        default=True,
        help="serve the GET /metrics Prometheus exposition (per-stage "
        "latency histograms and service gauges; the default, see "
        "--no-metrics)",
    )
    parser.add_argument(
        "--no-metrics",
        dest="metrics",
        action="store_false",
        help="disable the GET /metrics exposition (404)",
    )
    args = parser.parse_args(argv)

    store = None
    if args.store is not None:
        from repro.store import DecompositionStore

        store = DecompositionStore(args.store, size_budget=args.store_budget)
    service = PassivityService(
        max_workers=args.workers,
        default_timeout=args.job_timeout,
        executor=args.executor,
        max_queue=args.max_queue,
        store=store,
        incremental=args.incremental,
        journal=args.journal,
        max_retries=args.max_retries,
    )
    server = serve(
        service,
        host=args.host,
        port=args.port,
        sse=args.sse,
        metrics=args.metrics,
    )
    host, port = server.server_address[:2]
    print(f"repro passivity service listening on http://{host}:{port}")
    print(
        "endpoints: POST /jobs, GET /jobs/<id>[/result|/trace], "
        "DELETE /jobs/<id>, GET /stats"
        + (", GET /metrics" if args.metrics else "")
    )
    print(
        "scenarios: POST /scenarios, GET /scenarios/<id>"
        + ("[/events]" if args.sse else "")
        + ", DELETE /scenarios/<id>"
    )
    # Clean shutdown on SIGTERM (`kill`, container stop), not just Ctrl-C:
    # without this, a process-pool service dies leaving its forked workers
    # orphaned — and since they inherit the listening socket, the port
    # would stay bound against the next incarnation.  The handler raises on
    # the serving thread, unwinding into the same cleanup as Ctrl-C
    # (server.shutdown() must not be called from this thread — it would
    # wait on the serve_forever loop the handler is interrupting).
    def _terminate(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        service.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
