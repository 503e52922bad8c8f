"""Pickle-free (de)hydration of cache entries for the persistent store.

Every persisted cache kind has a codec pair here that flattens the in-memory
value into ``(meta, arrays)`` — a small JSON-able dict plus a dict of NumPy
arrays — and rebuilds it exactly.  The split matches the ``.npz`` blob
format of :class:`~repro.store.DecompositionStore`: arrays go in as named
members (mmap-friendly, no decompression, no pickling), the meta dict rides
along as one UTF-8 JSON member.

A kind is persisted only when reading it back beats recomputing it.

Persisted kinds
---------------
``verdict``
    The finished :class:`~repro.passivity.PassivityReport` of one
    ``check_passivity`` call, as its
    :func:`~repro.passivity.result.report_to_jsonable` document (meta-only).
    A store hit answers a repeated check with no decomposition at all, in
    any process sharing the store.
``gare_state_space``
    :class:`~repro.descriptor.system.StateSpace` — the admissible
    Schur-complement reduction, *including* negatively cached
    :class:`~repro.exceptions.NotAdmissibleError` refusals.
``gare_riccati``
    :class:`~repro.passivity.gare_test.GareCertificate` — the positive-real
    ARE solve, the dominant cost of a GARE check; a store hit makes a
    re-check of a known admissible system Riccati-free.
``update_lineage``
    :class:`~repro.engine.incremental.UpdateLineage` — provenance of an
    incrementally certified verdict (ancestor fingerprint, delta norms,
    update residual, mechanism); meta-only, so sweep lineage survives
    restarts alongside the certificates it explains.

Every other kind (``pencil_spectrum``, ``chain_data``, ``system_profile``,
``weierstrass_form``, ``additive_decomposition``, ``sparse_deflation``)
bypasses the L2 tier and lives in L1 only.  On the SHH route, writing the
spectrum, chain data and profile of an order-80 system cost more than a
later read saved over recomputing them; the incremental tier reads its
ancestors from L1 only.

Negative entries — exceptions listed in a cache ``cache_errors`` tuple —
are encoded as ``{"tag": "error", ...}`` meta with the exception type name
and message; only the allow-listed types below are revived (anything else
reads as corruption and falls back to computing).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Tuple

import numpy as np

from repro.descriptor.system import StateSpace
from repro.engine.cache import GARE_RICCATI, GARE_STATE_SPACE, UPDATE_LINEAGE, VERDICT
from repro.engine.incremental import UpdateLineage
from repro.exceptions import (
    NotAdmissibleError,
    ReductionError,
    SerializationError,
    StoreError,
)
from repro.passivity.gare_test import GareCertificate
from repro.passivity.result import (
    PassivityReport,
    report_from_jsonable,
    report_to_jsonable,
)

__all__ = [
    "PERSISTED_KINDS",
    "encode_entry",
    "decode_entry",
]

Meta = Dict[str, Any]
Arrays = Dict[str, np.ndarray]

#: Exception types that may be persisted as negative cache entries and
#: revived on load.  An error blob naming any other type is treated as
#: corruption (miss), never blindly instantiated.
_REVIVABLE_ERRORS = {
    "NotAdmissibleError": NotAdmissibleError,
    "ReductionError": ReductionError,
}


def _encode_state_space(value: StateSpace) -> Tuple[Meta, Arrays]:
    arrays = {
        "a": np.asarray(value.a, dtype=float),
        "b": np.asarray(value.b, dtype=float),
        "c": np.asarray(value.c, dtype=float),
        "d": np.asarray(value.d, dtype=float),
    }
    return {}, arrays


def _decode_state_space(meta: Meta, arrays: Arrays) -> StateSpace:
    return StateSpace(
        a=np.asarray(arrays["a"], dtype=float),
        b=np.asarray(arrays["b"], dtype=float),
        c=np.asarray(arrays["c"], dtype=float),
        d=np.asarray(arrays["d"], dtype=float),
    )


def _encode_gare_certificate(value: GareCertificate) -> Tuple[Meta, Arrays]:
    meta = {
        "feedthrough_psd": bool(value.feedthrough_psd),
        "epsilon": float(value.epsilon),
        "residual": None if value.x is None else float(value.residual),
        "failure": value.failure,
        "has_x": value.x is not None,
    }
    arrays: Arrays = {}
    if value.x is not None:
        arrays["x"] = np.asarray(value.x, dtype=float)
    return meta, arrays


def _decode_gare_certificate(meta: Meta, arrays: Arrays) -> GareCertificate:
    has_x = bool(meta["has_x"])
    return GareCertificate(
        feedthrough_psd=bool(meta["feedthrough_psd"]),
        epsilon=float(meta["epsilon"]),
        x=np.asarray(arrays["x"], dtype=float) if has_x else None,
        residual=float(meta["residual"]) if has_x else float("inf"),
        failure=meta.get("failure"),
    )


def _encode_verdict(value: PassivityReport) -> Tuple[Meta, Arrays]:
    return {"report": report_to_jsonable(value)}, {}


def _decode_verdict(meta: Meta, arrays: Arrays) -> PassivityReport:
    return report_from_jsonable(meta["report"])


def _encode_lineage(value: "UpdateLineage") -> Tuple[Meta, Arrays]:
    meta = {
        "child_fingerprint": value.child_fingerprint,
        "ancestor_fingerprint": value.ancestor_fingerprint,
        "distance": float(value.distance),
        "delta_norms": {name: float(norm) for name, norm in value.delta_norms.items()},
        "residual": float(value.residual),
        "newton_steps": int(value.newton_steps),
        "mechanism": value.mechanism,
        "certified": bool(value.certified),
    }
    return meta, {}


def _decode_lineage(meta: Meta, arrays: Arrays) -> "UpdateLineage":
    return UpdateLineage(
        child_fingerprint=str(meta["child_fingerprint"]),
        ancestor_fingerprint=str(meta["ancestor_fingerprint"]),
        distance=float(meta["distance"]),
        delta_norms={
            str(name): float(norm)
            for name, norm in dict(meta["delta_norms"]).items()
        },
        residual=float(meta["residual"]),
        newton_steps=int(meta["newton_steps"]),
        mechanism=str(meta["mechanism"]),
        certified=bool(meta["certified"]),
    )


_CODECS: Dict[str, Tuple[Callable[[Any], Tuple[Meta, Arrays]], Callable[[Meta, Arrays], Any]]] = {
    VERDICT: (_encode_verdict, _decode_verdict),
    GARE_STATE_SPACE: (_encode_state_space, _decode_state_space),
    GARE_RICCATI: (_encode_gare_certificate, _decode_gare_certificate),
    UPDATE_LINEAGE: (_encode_lineage, _decode_lineage),
}

#: Cache kinds the store can persist (everything else bypasses the L2 tier).
PERSISTED_KINDS = frozenset(_CODECS)


def encode_entry(kind: str, entry: Tuple[str, Any]) -> Tuple[Meta, Arrays]:
    """Flatten one cache entry ``(tag, payload)`` to ``(meta, arrays)``.

    ``("value", obj)`` entries dispatch to the kind's codec; ``("error",
    exc)`` entries (negative caching) become a meta-only error record.

    Raises
    ------
    StoreError
        When ``kind`` has no codec (callers should consult
        :data:`PERSISTED_KINDS` first) or the entry tag is unknown.
    SerializationError
        When the error entry's exception type is not allow-listed for
        persistence.
    """
    if kind not in _CODECS:
        raise StoreError(
            f"no persistence codec for cache kind {kind!r}; "
            f"persisted kinds: {sorted(PERSISTED_KINDS)}"
        )
    tag, payload = entry
    if tag == "error":
        name = type(payload).__name__
        if name not in _REVIVABLE_ERRORS:
            raise SerializationError(
                f"cannot persist negative {kind!r} entry of type {name!r} "
                f"(revivable: {sorted(_REVIVABLE_ERRORS)})"
            )
        return {"tag": "error", "error_type": name, "message": str(payload)}, {}
    if tag != "value":
        raise StoreError(f"unknown cache entry tag {tag!r}")
    encode, _ = _CODECS[kind]
    meta, arrays = encode(payload)
    meta = dict(meta)
    meta["tag"] = "value"
    return meta, arrays


def decode_entry(kind: str, meta: Meta, arrays: Arrays) -> Tuple[str, Any]:
    """Rebuild the cache entry ``(tag, payload)`` from a loaded blob.

    Raises
    ------
    KeyError, ValueError, TypeError
        When the blob content does not decode; the store maps all three to
        "corrupt blob" and falls back to computing.
    """
    if kind not in _CODECS:
        raise KeyError(f"no persistence codec for cache kind {kind!r}")
    tag = meta.get("tag")
    if tag == "error":
        error_type = _REVIVABLE_ERRORS.get(str(meta.get("error_type")))
        if error_type is None:
            raise ValueError(
                f"unknown persisted error type {meta.get('error_type')!r}"
            )
        return "error", error_type(str(meta.get("message", "")))
    if tag != "value":
        raise ValueError(f"unknown persisted entry tag {tag!r}")
    _, decode = _CODECS[kind]
    return "value", decode(meta, arrays)
