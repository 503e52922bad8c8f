"""Tests for the PVL reduction and the SHH-pencil-to-Hamiltonian conversion."""

import numpy as np
import pytest
import scipy.linalg

from repro.exceptions import ReductionError, StructureError
from repro.linalg.elementary import givens_rotation, householder_vector
from repro.linalg.hamiltonian import (
    is_hamiltonian,
    make_skew_hamiltonian,
    random_hamiltonian,
    random_skew_hamiltonian,
    symplectic_identity,
)
from repro.linalg.skew_hamiltonian_schur import (
    PVL_BLOCK,
    pvl_decomposition,
    shh_pencil_to_hamiltonian,
)
from repro.linalg.symplectic import is_orthogonal_symplectic, random_orthogonal_symplectic


class TestPvlDecomposition:
    @pytest.mark.parametrize("half", [1, 2, 3, 5, 8, 12])
    def test_reduction_properties(self, half, rng):
        w = random_skew_hamiltonian(half, rng)
        u, t = pvl_decomposition(w)
        assert is_orthogonal_symplectic(u)
        # U^T W U equals the returned form.
        np.testing.assert_allclose(u.T @ w @ u, t, atol=1e-10 * max(1, np.abs(w).max()))
        # Lower-left block annihilated, (2,2) block equals (1,1)^T.
        np.testing.assert_allclose(t[half:, :half], 0.0, atol=1e-10)
        np.testing.assert_allclose(t[half:, half:], t[:half, :half].T, atol=1e-9)

    def test_upper_left_block_is_hessenberg(self, rng):
        half = 6
        w = random_skew_hamiltonian(half, rng)
        _, t = pvl_decomposition(w)
        below = np.tril(t[:half, :half], k=-2)
        np.testing.assert_allclose(below, 0.0, atol=1e-10)

    def test_spectrum_preserved(self, rng):
        w = random_skew_hamiltonian(4, rng)
        _, t = pvl_decomposition(w)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvals(w).real),
            np.sort(np.linalg.eigvals(t).real),
            atol=1e-8,
        )

    def test_rejects_unstructured_matrix(self, rng):
        with pytest.raises(StructureError):
            pvl_decomposition(rng.standard_normal((6, 6)))

    def test_already_triangular_input(self):
        w = np.block([[np.triu(np.ones((3, 3))), np.zeros((3, 3))],
                      [np.zeros((3, 3)), np.triu(np.ones((3, 3))).T]])
        u, t = pvl_decomposition(w)
        assert is_orthogonal_symplectic(u)
        np.testing.assert_allclose(t[3:, :3], 0.0, atol=1e-12)


def _assert_pvl_form(w, u, t, atol=1e-13):
    """Orthogonal symplectic ``U`` with ``U^T W U = T`` in exact PVL form."""
    half = w.shape[0] // 2
    eye, j = np.eye(2 * half), symplectic_identity(half)
    assert np.max(np.abs(u.T @ u - eye)) <= atol
    assert np.max(np.abs(u.T @ j @ u - j)) <= atol
    scale = max(1.0, float(np.max(np.abs(w))))
    assert np.max(np.abs(u.T @ w @ u - t)) <= 1e-12 * scale * max(1, half) ** 0.5
    assert not np.any(t[half:, :half])
    assert not np.any(np.tril(t[:half, :half], k=-2))
    np.testing.assert_array_equal(t[:half, half:], -t[:half, half:].T)
    np.testing.assert_array_equal(t[half:, half:], t[:half, :half].T)


def _assert_same_spectrum(first, second, atol):
    """Every eigenvalue of one list lies within ``atol`` of one of the other."""
    distance = np.abs(first[:, None] - second[None, :])
    assert np.max(np.min(distance, axis=1)) <= atol
    assert np.max(np.min(distance, axis=0)) <= atol


class TestBlockedPvl:
    """The blocked PVL across panel boundaries and on degenerate input."""

    @pytest.mark.parametrize(
        "half",
        [1, 2, PVL_BLOCK - 1, PVL_BLOCK, PVL_BLOCK + 1, 2 * PVL_BLOCK + 3, 130],
    )
    def test_pvl_form_across_panel_boundaries(self, half, rng):
        w = random_skew_hamiltonian(half, rng)
        u, t = pvl_decomposition(w)
        _assert_pvl_form(w, u, t)
        # Same spectrum: W's eigenvalues are W11's, each counted twice.
        _assert_same_spectrum(
            np.linalg.eigvals(w),
            np.linalg.eigvals(t[:half, :half]),
            atol=1e-8 * max(1.0, float(np.max(np.abs(w)))),
        )

    def test_first_column_of_u_is_e1(self, rng):
        # Every transformation acts on indices >= 1 of each half.
        u, _ = pvl_decomposition(random_skew_hamiltonian(PVL_BLOCK + 5, rng))
        np.testing.assert_array_equal(u[:, 0], np.eye(u.shape[0])[:, 0])

    @pytest.mark.parametrize("split", [1, PVL_BLOCK + 2])
    def test_zero_columns_take_the_trivial_reflector_paths(self, split, rng, monkeypatch):
        # W is block diagonal on the index sets [0, split) and [split, n) of
        # each half, so sweep split-1 meets zero columns: both reflectors
        # have beta = 0 and the Givens rotation has s = 0.
        import repro.linalg.skew_hamiltonian_schur as pvl_module

        half = split + 6
        blocks = [random_skew_hamiltonian(size, rng) for size in (split, half - split)]
        w = np.zeros((2 * half, 2 * half))
        for offset, size, block in zip((0, split), (split, half - split), blocks):
            index = np.r_[offset : offset + size, half + offset : half + offset + size]
            w[np.ix_(index, index)] = block
        betas, sines = [], []

        def recording_householder(x):
            v, beta = householder_vector(x)
            betas.append(beta)
            return v, beta

        def recording_givens(a, b):
            c, s = givens_rotation(a, b)
            sines.append(s)
            return c, s

        monkeypatch.setattr(pvl_module, "householder_vector", recording_householder)
        monkeypatch.setattr(pvl_module, "givens_rotation", recording_givens)
        u, t = pvl_decomposition(w)
        _assert_pvl_form(w, u, t)
        assert sines[split - 1] == 0.0
        assert 0.0 in betas
        _assert_same_spectrum(
            np.linalg.eigvals(w), np.linalg.eigvals(t[:half, :half]), atol=1e-8
        )

    def test_underflowing_column_tail_keeps_the_form_finite(self, rng):
        # Column 0 of W11 is [a, 1, 0, 0, t] with t**2 rounding to the
        # smallest subnormal: its reflector's v0 = -t**2 / 2 underflows to 0.
        half = 5
        w11 = rng.standard_normal((half, half))
        w11[1:, 0] = [1.0, 0.0, 0.0, 2.6788e-162]
        skew = rng.standard_normal((half, half))
        w = make_skew_hamiltonian(w11, skew - skew.T, np.zeros((half, half)))
        with np.errstate(divide="raise", invalid="raise"):
            u, t = pvl_decomposition(w)
        assert np.all(np.isfinite(u)) and np.all(np.isfinite(t))
        _assert_pvl_form(w, u, t)

    def test_zero_matrix(self):
        u, t = pvl_decomposition(np.zeros((2 * (PVL_BLOCK + 1), 2 * (PVL_BLOCK + 1))))
        np.testing.assert_array_equal(u, np.eye(u.shape[0]))
        np.testing.assert_array_equal(t, 0.0)

    @pytest.mark.parametrize("half", [4, PVL_BLOCK + 3])
    def test_input_already_in_pvl_form_is_kept(self, half, rng):
        hessenberg = np.triu(rng.standard_normal((half, half)), k=-1)
        skew = rng.standard_normal((half, half))
        w = make_skew_hamiltonian(hessenberg, skew - skew.T, np.zeros((half, half)))
        u, t = pvl_decomposition(w)
        _assert_pvl_form(w, u, t)
        # Only the signs of the sub-diagonal can change.
        signs = np.abs(np.diag(u)[:half])
        np.testing.assert_allclose(signs, 1.0, atol=1e-13)
        np.testing.assert_allclose(np.abs(t), np.abs(w), atol=1e-12)

    def test_recovers_a_known_spectrum(self, rng):
        # W = Q diag(D, D) Q^T with Q orthogonal symplectic: W11 must have
        # exactly the eigenvalues D.
        half = PVL_BLOCK + 7
        spectrum = np.linspace(-3.0, 2.0, half)
        q = random_orthogonal_symplectic(half, rng)
        w = q @ np.diag(np.concatenate([spectrum, spectrum])) @ q.T
        u, t = pvl_decomposition(w, check_structure=False)
        _assert_pvl_form(w, u, t, atol=1e-12)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvals(t[:half, :half]).real), spectrum, atol=1e-10
        )


class TestShhPencilToHamiltonian:
    @pytest.mark.parametrize("half", [1, 2, 4, 6])
    def test_conversion_properties(self, half, rng):
        w = random_skew_hamiltonian(half, rng) + 3.0 * np.eye(2 * half)
        h = random_hamiltonian(half, rng)
        result = shh_pencil_to_hamiltonian(w, h)
        np.testing.assert_allclose(
            result.left @ w @ result.right, np.eye(2 * half), atol=1e-8
        )
        assert is_hamiltonian(result.hamiltonian)
        assert result.residual < 1e-10

    def test_pencil_eigenvalues_preserved(self, rng):
        half = 4
        w = random_skew_hamiltonian(half, rng) + 4.0 * np.eye(2 * half)
        h = random_hamiltonian(half, rng)
        result = shh_pencil_to_hamiltonian(w, h)
        pencil_eigs = scipy.linalg.eig(h, w, right=False)
        standard_eigs = np.linalg.eigvals(result.hamiltonian)
        np.testing.assert_allclose(
            np.sort(pencil_eigs.real), np.sort(standard_eigs.real), atol=1e-7
        )
        np.testing.assert_allclose(
            np.sort(pencil_eigs.imag), np.sort(standard_eigs.imag), atol=1e-7
        )

    def test_transfer_function_preserved(self, rng):
        """The conversion is a strong equivalence: C (sW - H)^{-1} B is preserved."""
        half = 3
        w = random_skew_hamiltonian(half, rng) + 3.0 * np.eye(2 * half)
        h = random_hamiltonian(half, rng)
        b = rng.standard_normal((2 * half, 2))
        c = rng.standard_normal((2, 2 * half))
        result = shh_pencil_to_hamiltonian(w, h)
        s0 = 0.9 + 1.1j
        original = c @ np.linalg.solve(s0 * w - h, b.astype(complex))
        b_new = result.left @ b
        c_new = c @ result.right
        converted = c_new @ np.linalg.solve(
            s0 * np.eye(2 * half) - result.hamiltonian, b_new.astype(complex)
        )
        np.testing.assert_allclose(converted, original, atol=1e-8)

    def test_singular_w_rejected(self, rng):
        half = 3
        w = random_skew_hamiltonian(half, rng)
        # Make W singular by zeroing a row/column pair symmetrically.
        w[:, 0] = 0.0
        w[0, :] = 0.0
        w[half, :] = 0.0
        w[:, half] = 0.0
        h = random_hamiltonian(half, rng)
        with pytest.raises(ReductionError):
            shh_pencil_to_hamiltonian(w, h, check_structure=False)

    def test_structure_check_rejects_bad_pencil(self, rng):
        with pytest.raises(StructureError):
            shh_pencil_to_hamiltonian(
                rng.standard_normal((6, 6)), random_hamiltonian(3, rng)
            )
