"""The :class:`DescriptorSystem` container.

A linear time-invariant continuous-time descriptor system (DS) is the tuple
``(E, A, B, C, D)`` describing ::

    E x'(t) = A x(t) + B u(t)
        y(t) = C x(t) + D u(t)

with ``E`` possibly singular (Eq. 1 of the paper).  The transfer function is
``G(s) = D + C (s E - A)^{-1} B`` (Eq. 2), defined whenever the pencil
``s E - A`` is regular.

The class is an immutable value object: all reduction algorithms return *new*
systems rather than mutating their inputs, mirroring how the paper chains
strong-equivalence transformations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

import numpy as np
import scipy.sparse

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.exceptions import (
    DimensionError,
    NotImplementedForSystemError,
    SingularPencilError,
)
from repro.linalg.basics import as_2d_array, as_square_array
from repro.linalg.pencil import (
    GeneralizedSpectrum,
    SpectralContext,
    classify_generalized_eigenvalues,
    is_regular_pencil,
    pencil_degree,
)

__all__ = ["DescriptorSystem", "StateSpace"]


@dataclass(frozen=True)
class StateSpace:
    """A regular (non-singular ``E``) state-space system ``(A, B, C, D)``.

    Used for the proper parts extracted by the decomposition routines and as
    the input format of the regular-system positive-realness tests.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self) -> None:
        a = as_square_array(self.a, "A")
        n = a.shape[0]
        b = as_2d_array(self.b, "B")
        c = as_2d_array(self.c, "C")
        d = as_2d_array(self.d, "D")
        if b.shape[0] != n or c.shape[1] != n:
            raise DimensionError("B and C must be conformal with A")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionError("D must be (outputs x inputs)")
        object.__setattr__(self, "a", a.astype(float))
        object.__setattr__(self, "b", b.astype(float))
        object.__setattr__(self, "c", c.astype(float))
        object.__setattr__(self, "d", d.astype(float))

    @property
    def order(self) -> int:
        """State dimension."""
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        """Number of inputs ``m`` (columns of ``B``)."""
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        """Number of outputs ``p`` (rows of ``C``)."""
        return self.c.shape[0]

    def evaluate(self, s: complex) -> np.ndarray:
        """Evaluate ``D + C (s I - A)^{-1} B`` at the complex point ``s``."""
        n = self.order
        if n == 0:
            return self.d.astype(complex)
        shifted = s * np.eye(n) - self.a
        return self.d + self.c @ np.linalg.solve(shifted, self.b.astype(complex))

    def poles(self) -> np.ndarray:
        """Eigenvalues of ``A``."""
        return np.linalg.eigvals(self.a)

    def is_stable(self, tol: Optional[Tolerances] = None) -> bool:
        """True when every pole lies in the open left half plane."""
        tol = tol or DEFAULT_TOLERANCES
        if self.order == 0:
            return True
        return bool(np.all(self.poles().real < -tol.eig_imag_atol))

    def to_descriptor(self) -> "DescriptorSystem":
        """Embed the state space as a descriptor system with ``E = I``."""
        return DescriptorSystem(
            np.eye(self.order), self.a, self.b, self.c, self.d
        )

    def transpose(self) -> "StateSpace":
        """The transposed system ``(A^T, C^T, B^T, D^T)``."""
        return StateSpace(self.a.T, self.c.T, self.b.T, self.d.T)


@dataclass(frozen=True)
class DescriptorSystem:
    """Immutable descriptor system ``(E, A, B, C, D)``.

    Parameters
    ----------
    e, a:
        Square ``n x n`` pencil matrices.  ``scipy.sparse`` matrices are
        accepted: they are kept as canonical CSR stamps (:attr:`sparse_e` /
        :attr:`sparse_a`) and densified *lazily*, only when an algorithm
        touches the dense view — a large sparse MNA model can therefore be
        assembled, fingerprinted and tested by the sparse backend without a
        single ``n x n`` dense array being allocated.
    b:
        ``n x m`` input matrix (sparse inputs are densified eagerly: the thin
        dimension keeps them cheap).
    c:
        ``p x n`` output matrix.
    d:
        ``p x m`` feedthrough; may be omitted (defaults to zeros).
    """

    e: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        from repro.linalg.sparse import to_canonical_csr

        sparse_e = sparse_a = None
        e_in, a_in = self.e, self.a
        if scipy.sparse.issparse(e_in):
            sparse_e = to_canonical_csr(e_in)
            if sparse_e.shape[0] != sparse_e.shape[1]:
                raise DimensionError(f"E must be square, got shape {sparse_e.shape}")
        if scipy.sparse.issparse(a_in):
            sparse_a = to_canonical_csr(a_in)
            if sparse_a.shape[0] != sparse_a.shape[1]:
                raise DimensionError(f"A must be square, got shape {sparse_a.shape}")

        e_shape = sparse_e.shape if sparse_e is not None else None
        a_shape = sparse_a.shape if sparse_a is not None else None
        e = None if sparse_e is not None else as_square_array(e_in, "E").astype(float)
        a = None if sparse_a is not None else as_square_array(a_in, "A").astype(float)
        if e is not None:
            e_shape = e.shape
        if a is not None:
            a_shape = a.shape
        if e_shape != a_shape:
            raise DimensionError("E and A must have the same shape")
        n = e_shape[0]

        b_in = self.b.toarray() if scipy.sparse.issparse(self.b) else self.b
        c_in = self.c.toarray() if scipy.sparse.issparse(self.c) else self.c
        b = as_2d_array(b_in, "B").astype(float)
        c = as_2d_array(c_in, "C").astype(float)
        if b.shape[0] != n:
            raise DimensionError(f"B must have {n} rows, got {b.shape[0]}")
        if c.shape[1] != n:
            raise DimensionError(f"C must have {n} columns, got {c.shape[1]}")
        if self.d is None:
            d = np.zeros((c.shape[0], b.shape[1]))
        else:
            d_in = self.d.toarray() if scipy.sparse.issparse(self.d) else self.d
            d = as_2d_array(d_in, "D").astype(float)
            if d.shape != (c.shape[0], b.shape[1]):
                raise DimensionError(
                    f"D must have shape {(c.shape[0], b.shape[1])}, got {d.shape}"
                )

        object.__setattr__(self, "_sparse_e", sparse_e)
        object.__setattr__(self, "_sparse_a", sparse_a)
        object.__setattr__(self, "_order", int(n))
        # Sparse pencil stamps stay sparse: delete the dense field so access
        # goes through __getattr__, which densifies on first touch.
        if sparse_e is None:
            object.__setattr__(self, "e", e)
        else:
            object.__delattr__(self, "e")
        if sparse_a is None:
            object.__setattr__(self, "a", a)
        else:
            object.__delattr__(self, "a")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def __getattr__(self, name: str):
        # Only reached when the dense field is absent, i.e. the matrix came in
        # sparse and has not been densified yet.
        if name in ("e", "a"):
            stored = self.__dict__.get(f"_sparse_{name}")
            if stored is not None:
                dense = np.asarray(stored.toarray(), dtype=float)
                object.__setattr__(self, name, dense)
                return dense
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    # ------------------------------------------------------------------
    # Sparse view
    # ------------------------------------------------------------------
    @property
    def is_sparse(self) -> bool:
        """True when the pencil stamps were supplied as sparse matrices."""
        return (
            self.__dict__.get("_sparse_e") is not None
            or self.__dict__.get("_sparse_a") is not None
        )

    def _sparse_view(self, name: str) -> "scipy.sparse.csr_matrix":
        """Canonical CSR of a pencil stamp, built once per instance when dense."""
        stored = self.__dict__.get(f"_sparse_{name}")
        if stored is not None:
            return stored
        cached = self.__dict__.get(f"_sparse_{name}_view")
        if cached is None:
            from repro.linalg.sparse import to_canonical_csr

            cached = to_canonical_csr(getattr(self, name))
            object.__setattr__(self, f"_sparse_{name}_view", cached)
        return cached

    @property
    def sparse_e(self) -> "scipy.sparse.csr_matrix":
        """Canonical CSR view of ``E`` (built on demand for dense systems)."""
        return self._sparse_view("e")

    @property
    def sparse_a(self) -> "scipy.sparse.csr_matrix":
        """Canonical CSR view of ``A`` (built on demand for dense systems)."""
        return self._sparse_view("a")

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros of the pencil stamps ``E`` and ``A``."""
        return int(self.sparse_e.nnz + self.sparse_a.nnz)

    @property
    def density(self) -> float:
        """``nnz / (2 n^2)``: fill fraction of the pencil stamps."""
        n = self.order
        if n == 0:
            return 0.0
        return self.nnz / (2.0 * n * n)

    # ------------------------------------------------------------------
    # Basic shape information
    # ------------------------------------------------------------------
    @property
    def order(self) -> int:
        """State dimension ``n``."""
        return self.__dict__["_order"]

    @property
    def n_inputs(self) -> int:
        """Number of inputs ``m`` (columns of ``B``)."""
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        """Number of outputs ``p`` (rows of ``C``)."""
        return self.c.shape[0]

    @property
    def is_square_io(self) -> bool:
        """True when the system has as many inputs as outputs.

        Passivity is only defined for square systems where ``u^T y`` is the
        instantaneous power absorbed by the network.
        """
        return self.n_inputs == self.n_outputs

    def matrices(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Return ``(E, A, B, C, D)`` as a tuple of arrays."""
        return self.e, self.a, self.b, self.c, self.d

    # ------------------------------------------------------------------
    # Pencil-level properties
    # ------------------------------------------------------------------
    def rank_e(self, tol: Optional[Tolerances] = None) -> int:
        """Numerical rank ``r`` of ``E``.

        Memoized per rank threshold: the system is immutable, so the rank
        decision is a pure function of ``rank_rtol`` — sweep warm-start
        chains re-ask an ancestor's rank once per corner otherwise.
        """
        from repro.config import DEFAULT_TOLERANCES
        from repro.linalg.subspaces import numerical_rank

        key = float((tol or DEFAULT_TOLERANCES).rank_rtol)
        memo = self.__dict__.get("_rank_e_memo")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_rank_e_memo", memo)
        if key not in memo:
            memo[key] = numerical_rank(self.e, tol)
        return memo[key]

    def is_regular(
        self,
        tol: Optional[Tolerances] = None,
        context: Optional[SpectralContext] = None,
    ) -> bool:
        """True when the pencil ``s E - A`` is regular.

        An injectable :class:`~repro.linalg.pencil.SpectralContext` (for
        example from the engine's decomposition cache) answers from the
        already-computed factorization instead of re-probing the pencil.
        """
        if context is not None:
            return context.is_regular
        return is_regular_pencil(self.e, self.a, tol)

    def spectrum(
        self,
        tol: Optional[Tolerances] = None,
        context: Optional[SpectralContext] = None,
    ) -> GeneralizedSpectrum:
        """Classified generalized spectrum of the pencil.

        With an injected :class:`~repro.linalg.pencil.SpectralContext` the
        classification comes from the cached factorization (raising
        :class:`~repro.exceptions.SingularPencilError` for a singular pencil);
        without one only the eigenvalues are computed (LAPACK ``ggev``, the
        QZ iteration without Schur vectors).
        """
        if context is not None:
            return context.classified_spectrum()
        return classify_generalized_eigenvalues(self.e, self.a, tol)

    def finite_poles(
        self,
        tol: Optional[Tolerances] = None,
        context: Optional[SpectralContext] = None,
    ) -> np.ndarray:
        """Finite generalized eigenvalues (the finite dynamic modes)."""
        return self.spectrum(tol, context=context).finite

    def dynamic_degree(self, tol: Optional[Tolerances] = None) -> int:
        """``q = deg det(s E - A)``: the number of finite dynamic modes."""
        return pencil_degree(self.e, self.a, tol)

    def is_stable(
        self,
        tol: Optional[Tolerances] = None,
        context: Optional[SpectralContext] = None,
    ) -> bool:
        """True when every finite dynamic mode lies in the open left half plane.

        Stability is only meaningful for a regular pencil.  With an injected
        context a singular pencil reports ``False`` (matching the engine's
        profile semantics); without one the raw classification of the
        degenerate eigenvalue pairs is used, which can be vacuously ``True``
        — check :meth:`is_regular` first when the pencil may be singular.
        """
        if context is not None:
            return context.is_stable
        return self.spectrum(tol).is_stable

    def is_impulse_free(self, tol: Optional[Tolerances] = None) -> bool:
        """True when the pencil has no impulsive modes (see :mod:`repro.descriptor.modes`)."""
        from repro.descriptor.modes import count_modes

        return count_modes(self, tol).n_impulsive == 0

    def is_admissible(self, tol: Optional[Tolerances] = None) -> bool:
        """Regular, stable and impulse-free (the paper's admissibility)."""
        return (
            self.is_regular(tol)
            and self.is_stable(tol)
            and self.is_impulse_free(tol)
        )

    # ------------------------------------------------------------------
    # Transfer function
    # ------------------------------------------------------------------
    def evaluate(self, s: complex, tol: Optional[Tolerances] = None) -> np.ndarray:
        """Evaluate ``G(s) = D + C (s E - A)^{-1} B`` at a single complex point.

        Raises
        ------
        SingularPencilError
            If ``s E - A`` is singular at the requested point (``s`` is a pole
            or the pencil itself is singular).
        """
        tol = tol or DEFAULT_TOLERANCES
        shifted = s * self.e.astype(complex) - self.a
        smallest = np.linalg.svd(shifted, compute_uv=False)[-1] if self.order else 1.0
        scale = max(1.0, float(np.abs(s)), float(np.max(np.abs(self.a), initial=1.0)))
        if self.order and smallest <= 100 * tol.rank_rtol * scale * self.order:
            raise SingularPencilError(
                f"s E - A is singular at s = {s}; the point is a pole of G(s)"
            )
        if self.order == 0:
            return self.d.astype(complex)
        return self.d + self.c @ np.linalg.solve(shifted, self.b.astype(complex))

    def evaluate_grid(
        self,
        s_values: Iterable[complex],
        tol: Optional[Tolerances] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Evaluate ``G(s)`` at many points with stacked LAPACK kernels.

        The vectorized form of :meth:`evaluate`: all shifted pencils
        ``s_k E - A`` are factorized in one gufunc call (one stacked SVD for
        the singularity screen, one stacked LU solve for the responses), so a
        400-point sweep pays one Python dispatch instead of 400.  Each slice
        runs the same LAPACK routine the scalar path uses, so returned values
        are bitwise identical to a loop over :meth:`evaluate`.

        Returns
        -------
        (values, valid):
            ``values`` has shape ``(len(s_values), p, m)``; ``valid`` is a
            boolean mask, ``False`` where ``s E - A`` is singular (the
            corresponding ``values`` slice is meaningless).  Unlike
            :meth:`evaluate`, singular points do not raise — callers decide
            whether to skip (sampling) or fail (:meth:`frequency_response`).
        """
        tol = tol or DEFAULT_TOLERANCES
        points = np.atleast_1d(np.asarray(list(s_values), dtype=complex))
        n = self.order
        values = np.empty(
            (points.size, self.n_outputs, self.n_inputs), dtype=complex
        )
        valid = np.ones(points.size, dtype=bool)
        if points.size == 0:
            return values, valid
        if n == 0:
            values[:] = self.d.astype(complex)
            return values, valid
        e_complex = self.e.astype(complex)
        b_complex = self.b.astype(complex)
        a_abs = float(np.max(np.abs(self.a), initial=1.0))
        # Chunk the stack so peak memory stays ~tens of MB regardless of the
        # grid size (the SVD screen and the LU solve both materialize one
        # (chunk, n, n) complex array).
        chunk = max(1, int(4_000_000 // max(1, n * n)))
        for start in range(0, points.size, chunk):
            sub = points[start : start + chunk]
            shifted = sub[:, None, None] * e_complex - self.a
            smallest = np.linalg.svd(shifted, compute_uv=False)[..., -1]
            scale = np.maximum(1.0, np.maximum(np.abs(sub), a_abs))
            ok = smallest > 100 * tol.rank_rtol * scale * n
            valid[start : start + chunk] = ok
            if np.any(ok):
                solutions = np.linalg.solve(shifted[ok], b_complex)
                values[start : start + chunk][ok] = self.d + self.c @ solutions
        return values, valid

    def frequency_response(
        self, omegas: Iterable[float], tol: Optional[Tolerances] = None
    ) -> np.ndarray:
        """Evaluate ``G(j w)`` on a grid of angular frequencies.

        Returns an array of shape ``(len(omegas), p, m)``; computed through
        the stacked :meth:`evaluate_grid` kernel (one LAPACK region for the
        whole grid instead of one call per point).

        Raises
        ------
        SingularPencilError
            If ``j w E - A`` is singular at any grid point, matching the
            per-point :meth:`evaluate` contract.
        """
        omega_array = np.atleast_1d(np.asarray(list(omegas), dtype=float))
        values, valid = self.evaluate_grid(1j * omega_array, tol)
        if not np.all(valid):
            s = 1j * omega_array[int(np.argmin(valid))]
            raise SingularPencilError(
                f"s E - A is singular at s = {s}; the point is a pole of G(s)"
            )
        return values

    # ------------------------------------------------------------------
    # Conversions and algebra
    # ------------------------------------------------------------------
    def to_state_space(self, tol: Optional[Tolerances] = None) -> StateSpace:
        """Convert to an explicit state space ``(E^{-1} A, E^{-1} B, C, D)``.

        Only valid when ``E`` is (numerically) nonsingular.
        """
        tol = tol or DEFAULT_TOLERANCES
        if self.order == 0:
            return StateSpace(
                np.zeros((0, 0)), np.zeros((0, self.n_inputs)),
                np.zeros((self.n_outputs, 0)), self.d,
            )
        svals = np.linalg.svd(self.e, compute_uv=False)
        if svals[-1] <= tol.rank_rtol * max(1.0, svals[0]) * self.order:
            raise NotImplementedForSystemError(
                "E is singular; use the decomposition routines to extract the "
                "proper part before converting to state space"
            )
        a_new = np.linalg.solve(self.e, self.a)
        b_new = np.linalg.solve(self.e, self.b)
        return StateSpace(a_new, b_new, self.c, self.d)

    def transpose(self) -> "DescriptorSystem":
        """The transposed (dual) system ``(E^T, A^T, C^T, B^T, D^T)``."""
        return DescriptorSystem(self.e.T, self.a.T, self.c.T, self.b.T, self.d.T)

    def __add__(self, other: "DescriptorSystem") -> "DescriptorSystem":
        """Parallel interconnection: ``(G1 + G2)(s) = G1(s) + G2(s)``."""
        if not isinstance(other, DescriptorSystem):
            return NotImplemented
        if self.n_inputs != other.n_inputs or self.n_outputs != other.n_outputs:
            raise DimensionError("parallel connection requires matching I/O dimensions")
        n1, n2 = self.order, other.order
        e_new = np.block(
            [
                [self.e, np.zeros((n1, n2))],
                [np.zeros((n2, n1)), other.e],
            ]
        )
        a_new = np.block(
            [
                [self.a, np.zeros((n1, n2))],
                [np.zeros((n2, n1)), other.a],
            ]
        )
        b_new = np.vstack([self.b, other.b])
        c_new = np.hstack([self.c, other.c])
        d_new = self.d + other.d
        return DescriptorSystem(e_new, a_new, b_new, c_new, d_new)

    def __neg__(self) -> "DescriptorSystem":
        return DescriptorSystem(self.e, self.a, self.b, -self.c, -self.d)

    def scaled(self, factor: float) -> "DescriptorSystem":
        """Return the system with the transfer function scaled by ``factor``."""
        return DescriptorSystem(self.e, self.a, self.b, factor * self.c, factor * self.d)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.is_sparse:
            # No dense SVD for large sparse stamps: report the fill instead.
            return (
                f"DescriptorSystem(order={self.order}, inputs={self.n_inputs}, "
                f"outputs={self.n_outputs}, sparse nnz={self.nnz})"
            )
        return (
            f"DescriptorSystem(order={self.order}, inputs={self.n_inputs}, "
            f"outputs={self.n_outputs}, rank_E={self.rank_e()})"
        )
