"""Adjoint systems and the SHH realization of ``Phi(s) = G(s) + G~(s)`` (Eq. 10).

The adjoint (para-Hermitian conjugate) of ``G(s)`` is ``G~(s) = G(-s)^T``.
For a descriptor system ``(E, A, B, C, D)`` a natural realization is
``(E^T, -A^T, C^T, B^T, D^T)``; adding the two systems and reordering the
state gives the paper's key object ::

    Phi(s) = [ -s E_phi + A_phi | J C_phi^T ]        E_phi = diag(E, E^T)
             [      C_phi       |   D_phi   ]        A_phi = diag(A, -A^T)
                                                      C_phi = [C, B^T]
                                                      D_phi = D + D^T

where ``J = [[0, I], [-I, 0]]``.  ``(E_phi, A_phi)`` is a
skew-Hamiltonian/Hamiltonian pencil, which is what makes the
structure-preserving reductions of Section 3 possible.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.config import DEFAULT_TOLERANCES, Tolerances
from repro.descriptor.system import DescriptorSystem
from repro.exceptions import DimensionError
from repro.linalg.hamiltonian import is_shh_pencil, j_times, symplectic_identity

__all__ = ["adjoint_system", "PhiRealization", "build_phi_realization"]


def adjoint_system(system: DescriptorSystem) -> DescriptorSystem:
    """Return a realization of the adjoint ``G~(s) = G(-s)^T``.

    The realization ``(E^T, -A^T, -C^T, B^T, D^T)`` produces
    ``D^T - B^T (s E^T + A^T)^{-1} C^T`` which equals ``G(-s)^T``.  The same
    sign convention (input matrix ``-C^T``) appears in the lower block of the
    Phi realization's ``B_phi = J C_phi^T``.
    """
    return DescriptorSystem(
        system.e.T, -system.a.T, -system.c.T, system.b.T, system.d.T
    )


@dataclass(frozen=True)
class PhiRealization:
    """SHH-structured realization of ``Phi(s) = G(s) + G~(s)``.

    Attributes
    ----------
    e_phi:
        ``diag(E, E^T)`` — skew-Hamiltonian when viewed through ``J``.
    a_phi:
        ``diag(A, -A^T)`` — Hamiltonian.
    c_phi:
        ``[C, B^T]``.
    d_phi:
        ``D + D^T``.
    """

    e_phi: np.ndarray
    a_phi: np.ndarray
    c_phi: np.ndarray
    d_phi: np.ndarray

    @property
    def order(self) -> int:
        """Order of the Phi realization (twice the original order)."""
        return self.e_phi.shape[0]

    @property
    def half_order(self) -> int:
        """The original system order ``n`` (half the Phi pencil size)."""
        return self.order // 2

    @property
    def j(self) -> np.ndarray:
        """The symplectic unit of matching size."""
        return symplectic_identity(self.half_order)

    @property
    def b_phi(self) -> np.ndarray:
        """The input matrix ``J C_phi^T`` of Eq. 10."""
        return j_times(self.c_phi.T)

    def is_shh(self, tol: Optional[Tolerances] = None) -> bool:
        """Verify the skew-Hamiltonian/Hamiltonian structure of the pencil."""
        return is_shh_pencil(self.e_phi, self.a_phi, tol)

    def to_descriptor(self) -> DescriptorSystem:
        """Plain descriptor-system view ``(E_phi, A_phi, J C_phi^T, C_phi, D_phi)``."""
        return DescriptorSystem(
            self.e_phi, self.a_phi, self.b_phi, self.c_phi, self.d_phi
        )

    def evaluate(self, s: complex) -> np.ndarray:
        """Evaluate ``Phi(s)``."""
        return self.to_descriptor().evaluate(s)


def build_phi_realization(
    system: DescriptorSystem, tol: Optional[Tolerances] = None
) -> PhiRealization:
    """Construct the SHH realization of ``Phi(s) = G(s) + G~(s)`` (Eq. 10).

    Raises
    ------
    DimensionError
        If the system is not square (passivity is only defined for square
        systems).
    """
    tol = tol or DEFAULT_TOLERANCES
    if not system.is_square_io:
        raise DimensionError(
            "Phi(s) = G(s) + G~(s) requires a square system "
            f"(got {system.n_outputs} outputs and {system.n_inputs} inputs)"
        )
    n = system.order
    zeros = np.zeros((n, n))
    e_phi = np.block([[system.e, zeros], [zeros, system.e.T]])
    a_phi = np.block([[system.a, zeros], [zeros, -system.a.T]])
    c_phi = np.hstack([system.c, system.b.T])
    d_phi = system.d + system.d.T
    return PhiRealization(e_phi=e_phi, a_phi=a_phi, c_phi=c_phi, d_phi=d_phi)
