"""Render a per-job pipeline trace as an indented stage timeline.

The service serves each finished job's span tree as JSON
(``GET /jobs/<id>/trace``, or the ``trace`` SSE events of a scenario run
submitted with ``"trace": true``).  This tool turns that JSON into a
human-readable timeline: one line per span, indented by nesting depth,
with wall/CPU milliseconds, a proportional wall-time bar, and the span's
attributes (cache outcomes, orders, queue position)::

    python tools/trace_report.py trace.json
    python tools/trace_report.py http://127.0.0.1:8123/jobs/<id>/trace
    curl -s localhost:8123/jobs/<id>/trace | python tools/trace_report.py -

Accepts any of the shapes the service produces: the ``/trace`` endpoint
document (``{"job_id", "state", "spans": [...]}``), a bare span-forest
list, or a single span object.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, Iterator, List, Tuple

#: Width of the proportional wall-time bar column.
BAR_WIDTH = 24


def load_trace(source: str) -> Dict[str, Any]:
    """Load the trace JSON from a file path, an HTTP URL, or ``-`` (stdin)."""
    if source == "-":
        return json.load(sys.stdin)
    if source.startswith("http://") or source.startswith("https://"):
        from urllib.request import urlopen

        with urlopen(source) as response:  # noqa: S310 - operator-given URL
            return json.loads(response.read().decode("utf-8"))
    with open(source, "r", encoding="utf-8") as stream:
        return json.load(stream)


def _spans_of(document: Any) -> List[Dict[str, Any]]:
    """Extract the root span list from any of the service's trace shapes."""
    if isinstance(document, list):
        return document
    if isinstance(document, dict):
        if "spans" in document:
            return list(document["spans"] or [])
        if "name" in document:
            return [document]
    raise ValueError(
        "not a trace document: expected a span list, a span object, or "
        'a {"spans": [...]} wrapper'
    )


def _walk(
    spans: List[Dict[str, Any]], depth: int = 0
) -> Iterator[Tuple[int, Dict[str, Any]]]:
    for span in spans:
        yield depth, span
        yield from _walk(span.get("children") or [], depth + 1)


def _format_attrs(attrs: Dict[str, Any]) -> str:
    if not attrs:
        return ""
    body = " ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
    return f"  [{body}]"


def render(document: Any) -> str:
    """Render one trace document as the indented timeline text."""
    spans = _spans_of(document)
    lines: List[str] = []
    if isinstance(document, dict) and "job_id" in document:
        state = document.get("state", "?")
        lines.append(f"job {document['job_id']}  ({state})")
    rows = list(_walk(spans))
    if not rows:
        lines.append("(no spans recorded)")
        return "\n".join(lines)

    total_wall = sum(
        float(span.get("wall", 0.0)) for depth, span in rows if depth == 0
    )
    widest = max(2 * depth + len(str(span.get("name", "?"))) for depth, span in rows)
    header = f"{'stage'.ljust(widest)}  {'wall ms':>9}  {'cpu ms':>9}  share"
    lines.append(header)
    lines.append("-" * (len(header) + BAR_WIDTH))
    for depth, span in rows:
        name = ("  " * depth + str(span.get("name", "?"))).ljust(widest)
        wall = float(span.get("wall", 0.0))
        cpu = float(span.get("cpu", 0.0))
        share = wall / total_wall if total_wall > 0 else 0.0
        bar = "#" * max(1, round(share * BAR_WIDTH)) if wall > 0 else ""
        lines.append(
            f"{name}  {1e3 * wall:>9.3f}  {1e3 * cpu:>9.3f}  "
            f"{bar.ljust(BAR_WIDTH)}{_format_attrs(span.get('attrs') or {})}"
        )
    lines.append(f"total wall: {1e3 * total_wall:.3f} ms over {len(rows)} spans")
    return "\n".join(lines)


def main(argv=None) -> int:
    """CLI entry point (see the module docstring)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "source",
        help="trace JSON: a file path, a /jobs/<id>/trace URL, or - for stdin",
    )
    args = parser.parse_args(argv)
    try:
        document = load_trace(args.source)
    except Exception as error:
        print(f"error: cannot load {args.source}: {error}", file=sys.stderr)
        return 1
    try:
        print(render(document))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
