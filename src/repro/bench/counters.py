"""Instrumentation counters shared by the benchmarks and the regression tests.

The single-factorization guarantee of the spectral-context engine is asserted
by *counting* the library's pencil factorizations rather than timing them:
:class:`QZCounter` wraps ``scipy.linalg.qz`` / ``scipy.linalg.ordqz`` and the
pencil form of ``scipy.linalg.eigvals`` with counting pass-throughs for the
duration of a ``with`` block.  Keeping the one implementation here means the
counting regression suite and the ``bench_spectral_reuse`` benchmark can never
drift apart on *what* they count.
"""

from __future__ import annotations

import scipy.linalg

__all__ = ["QZCounter"]


class QZCounter:
    """Count the pencil factorizations made while the block runs.

    ``qz`` and ``ordqz`` count calls of ``scipy.linalg.qz`` / ``ordqz``;
    ``eig`` counts calls of ``scipy.linalg.eigvals`` that get a ``b`` matrix
    (a generalized eigenvalue problem, LAPACK ``ggev``: the QZ iteration
    without Schur vectors).  Standard eigenvalue calls are not counted.  The
    library performs every pencil factorization through these entry points
    (attribute lookup at call time), so patching the module attributes
    intercepts them all; scipy-internal pre-bound references (e.g. inside its
    own solvers) are deliberately not counted.
    """

    def __init__(self) -> None:
        self.qz = 0
        self.ordqz = 0
        self.eig = 0
        self._originals = None

    @property
    def total(self) -> int:
        return self.qz + self.ordqz + self.eig

    def reset(self) -> None:
        self.qz = 0
        self.ordqz = 0
        self.eig = 0

    def __enter__(self) -> "QZCounter":
        self._originals = (scipy.linalg.qz, scipy.linalg.ordqz, scipy.linalg.eigvals)
        original_qz, original_ordqz, original_eigvals = self._originals

        def counted_qz(*args, **kwargs):
            self.qz += 1
            return original_qz(*args, **kwargs)

        def counted_ordqz(*args, **kwargs):
            self.ordqz += 1
            return original_ordqz(*args, **kwargs)

        def counted_eigvals(a, b=None, *args, **kwargs):
            if b is not None:
                self.eig += 1
            return original_eigvals(a, b, *args, **kwargs)

        scipy.linalg.qz = counted_qz
        scipy.linalg.ordqz = counted_ordqz
        scipy.linalg.eigvals = counted_eigvals
        return self

    def __exit__(self, *exc_info) -> None:
        scipy.linalg.qz, scipy.linalg.ordqz, scipy.linalg.eigvals = self._originals
