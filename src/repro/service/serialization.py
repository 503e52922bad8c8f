"""JSON-able wire forms of descriptor systems and passivity reports.

The service sits behind arbitrary transports (the reference HTTP front-end,
a message queue, files on disk), so systems and reports need a faithful,
dependency-free representation built from JSON primitives only.  Two
conventions keep the round trip lossless:

* **Sparse stays sparse.**  A sparse-backed :class:`DescriptorSystem`
  serializes its pencil stamps as canonical CSR triplets
  (``data``/``indices``/``indptr``) and deserializes back to a sparse-backed
  system — the payload is O(nnz), nothing densifies in transit, and the
  reconstructed system has the *same cache fingerprint* (the fingerprint
  hashes exactly these triplets), so server-side deduplication works across
  the wire.
* **Reports use their one JSON form**, :func:`~repro.passivity.result.
  report_to_jsonable` (complex and non-finite numbers tagged), re-exported
  here.

Every document carries a ``"kind"`` tag; :func:`from_jsonable` dispatches on
it, and malformed documents raise
:class:`~repro.exceptions.SerializationError` rather than ``KeyError``.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

import numpy as np
import scipy.sparse

from repro.descriptor.system import DescriptorSystem
from repro.exceptions import SerializationError
from repro.passivity.result import (
    REPORT_KIND,
    PassivityReport,
    report_from_jsonable,
    report_to_jsonable,
)

__all__ = [
    "system_to_jsonable",
    "system_from_jsonable",
    "report_to_jsonable",
    "report_from_jsonable",
    "job_record_to_jsonable",
    "job_record_from_jsonable",
    "to_jsonable",
    "from_jsonable",
]

SYSTEM_KIND = "descriptor_system"
JOB_RECORD_KIND = "service_job_record"


def _csr_to_jsonable(matrix: "scipy.sparse.csr_matrix") -> Dict[str, Any]:
    """Canonical CSR triplets of one pencil stamp."""
    return {
        "shape": [int(matrix.shape[0]), int(matrix.shape[1])],
        "data": np.asarray(matrix.data, dtype=float).tolist(),
        "indices": np.asarray(matrix.indices, dtype=int).tolist(),
        "indptr": np.asarray(matrix.indptr, dtype=int).tolist(),
    }


def _csr_from_jsonable(payload: Dict[str, Any], label: str) -> "scipy.sparse.csr_matrix":
    """Rebuild one CSR pencil stamp, validating the triplet structure."""
    try:
        shape = tuple(int(size) for size in payload["shape"])
        matrix = scipy.sparse.csr_matrix(
            (
                np.asarray(payload["data"], dtype=float),
                np.asarray(payload["indices"], dtype=np.int32),
                np.asarray(payload["indptr"], dtype=np.int32),
            ),
            shape=shape,
        )
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"malformed CSR payload for {label}: {type(error).__name__}: {error}"
        ) from error
    return matrix


def system_to_jsonable(system: DescriptorSystem) -> Dict[str, Any]:
    """Serialize a :class:`DescriptorSystem` to a JSON-able dict.

    Sparse-backed systems keep CSR stamps (``format: "csr"``, O(nnz)
    payload); dense systems ship nested lists (``format: "dense"``).  The
    thin ``B``/``C``/``D`` blocks are always dense lists, matching how the
    system stores them.
    """
    if not isinstance(system, DescriptorSystem):
        raise SerializationError(
            f"expected a DescriptorSystem, got {type(system).__name__}"
        )
    payload: Dict[str, Any] = {"kind": SYSTEM_KIND, "order": system.order}
    if system.is_sparse:
        payload["format"] = "csr"
        payload["e"] = _csr_to_jsonable(system.sparse_e)
        payload["a"] = _csr_to_jsonable(system.sparse_a)
    else:
        payload["format"] = "dense"
        payload["e"] = np.asarray(system.e, dtype=float).tolist()
        payload["a"] = np.asarray(system.a, dtype=float).tolist()
    payload["b"] = np.asarray(system.b, dtype=float).tolist()
    payload["c"] = np.asarray(system.c, dtype=float).tolist()
    payload["d"] = np.asarray(system.d, dtype=float).tolist()
    return payload


def system_from_jsonable(payload: Dict[str, Any]) -> DescriptorSystem:
    """Rebuild a :class:`DescriptorSystem` from :func:`system_to_jsonable`.

    A ``format: "csr"`` payload reconstructs a sparse-backed system with the
    same canonical stamps — and therefore the same cache fingerprint — as
    the original.

    Raises
    ------
    SerializationError
        When the payload is not a well-formed system document.
    """
    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected a system document (dict), got {type(payload).__name__}"
        )
    if payload.get("kind") != SYSTEM_KIND:
        raise SerializationError(
            f"expected kind {SYSTEM_KIND!r}, got {payload.get('kind')!r}"
        )
    fmt = payload.get("format")
    try:
        if fmt == "csr":
            e = _csr_from_jsonable(payload["e"], "E")
            a = _csr_from_jsonable(payload["a"], "A")
        elif fmt == "dense":
            e = np.asarray(payload["e"], dtype=float)
            a = np.asarray(payload["a"], dtype=float)
        else:
            raise SerializationError(
                f"unknown system format {fmt!r} (expected 'dense' or 'csr')"
            )
        b = np.asarray(payload["b"], dtype=float)
        c = np.asarray(payload["c"], dtype=float)
        d = np.asarray(payload["d"], dtype=float)
    except SerializationError:
        raise
    except (KeyError, TypeError, ValueError) as error:
        raise SerializationError(
            f"malformed system payload: {type(error).__name__}: {error}"
        ) from error
    try:
        return DescriptorSystem(e, a, b, c, d)
    except Exception as error:  # dimension/validation errors -> typed
        raise SerializationError(
            f"system payload does not describe a valid descriptor system: "
            f"{type(error).__name__}: {error}"
        ) from error


def job_record_to_jsonable(
    status: Any, report: Optional[PassivityReport]
) -> Dict[str, Any]:
    """Serialize a terminal job's status snapshot plus report to a dict.

    The persistence form :class:`~repro.service.PassivityService` writes to
    its store so completed results survive a restart: the
    :class:`~repro.service.JobStatus` scheduling fields travel as-is and the
    report (when the job produced one) as its
    :func:`report_to_jsonable` document.
    """
    record = dict(status.to_jsonable())
    record["kind"] = JOB_RECORD_KIND
    record["report"] = report_to_jsonable(report) if report is not None else None
    return record


def job_record_from_jsonable(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and revive a persisted job record.

    Returns the record as a plain dict with the ``"report"`` value replaced
    by a revived :class:`~repro.passivity.PassivityReport` (or ``None``).
    The service turns the dict into its internal terminal job records on
    startup.

    Raises
    ------
    SerializationError
        When the payload is not a well-formed job-record document.
    """
    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected a job-record document (dict), got {type(payload).__name__}"
        )
    if payload.get("kind") != JOB_RECORD_KIND:
        raise SerializationError(
            f"expected kind {JOB_RECORD_KIND!r}, got {payload.get('kind')!r}"
        )
    record = dict(payload)
    for field in ("job_id", "state", "method", "fingerprint"):
        if not isinstance(record.get(field), str) or not record[field]:
            raise SerializationError(
                f"job record field {field!r} missing or not a string"
            )
    report_payload = record.get("report")
    record["report"] = (
        report_from_jsonable(report_payload) if report_payload is not None else None
    )
    return record


def to_jsonable(obj: Any) -> Dict[str, Any]:
    """Serialize a supported object (system or report) to a tagged dict."""
    if isinstance(obj, DescriptorSystem):
        return system_to_jsonable(obj)
    if isinstance(obj, PassivityReport):
        return report_to_jsonable(obj)
    raise SerializationError(
        f"no JSON-able form for {type(obj).__name__} (supported: "
        f"DescriptorSystem, PassivityReport)"
    )


def from_jsonable(payload: Dict[str, Any]) -> Any:
    """Rebuild a supported object from a tagged dict (dispatch on ``kind``)."""
    if not isinstance(payload, dict):
        raise SerializationError(
            f"expected a tagged document (dict), got {type(payload).__name__}"
        )
    kind = payload.get("kind")
    if kind == SYSTEM_KIND:
        return system_from_jsonable(payload)
    if kind == REPORT_KIND:
        return report_from_jsonable(payload)
    raise SerializationError(
        f"unknown document kind {kind!r} (supported: {SYSTEM_KIND!r}, "
        f"{REPORT_KIND!r})"
    )
