"""Model space bases, projections, compressions, conjugation."""

import numpy as np
import pytest

from dualband import (InnerFunction, LaurentSymbol, ModelSpaceBasis,
                      PoleError, ctheta_matrix, tto_matrix)
from dualband.symbols import TAU_ROOT, grid_points


def z_power_basis():
    return ModelSpaceBasis(InnerFunction.monomial(2))


def project(f, basis):
    """Model-space coordinates of the symbol f, on the basis's own grid."""
    return basis.project_values(f.sample(basis.default_grid([f])))


class TestBasis:
    def test_monomial_basis_values(self):
        basis = z_power_basis()
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        e = basis.values(64)
        assert np.max(np.abs(e[0] - 1.0)) < 1e-12
        assert np.max(np.abs(e[1] - z)) < 1e-12

    def test_single_blaschke_element(self):
        basis = ModelSpaceBasis(InnerFunction.blaschke([0.5]))
        z = np.exp(2j * np.pi * np.arange(64) / 64)
        expect = np.sqrt(0.75) / (1 - 0.5 * z)
        assert np.max(np.abs(basis.values(64)[0] - expect)) < 1e-12

    def test_gram_identity_monomial(self):
        basis = z_power_basis()
        e = basis.values(64)
        gram = e @ e.conj().T / 64
        assert np.max(np.abs(gram - np.eye(2))) < 1e-12

    def test_gram_identity_blaschke(self):
        basis = ModelSpaceBasis(InnerFunction.blaschke([0.3, -0.2 + 0.4j,
                                                        0.1j]))
        G = basis.default_grid([])
        e = basis.values(G)
        gram = e @ e.conj().T / G
        assert np.max(np.abs(gram - np.eye(3))) < 1e-10

    def test_orthogonal_to_shifted_range(self):
        basis = ModelSpaceBasis(InnerFunction.blaschke([0.4, -0.3]))
        G = 512
        e = basis.values(G)
        th = basis.theta.sample(G)
        z = np.exp(2j * np.pi * np.arange(G) / G)
        for j in range(3):
            inner = e @ np.conj(th * z ** j) / G
            assert np.max(np.abs(inner)) < 1e-10


class TestZeroNearTheCircle:
    """blaschke accepts a zero up to TAU_DISC from the circle, but the
    root check refuses a pole 1/conj(a) within TAU_ROOT of it; the
    refusal names the distance, not a root on the circle."""

    @pytest.mark.parametrize("gap, shown", ((1e-10, "1.0e-10"),
                                            (5e-10, "5.0e-10")))
    def test_refusal_names_the_distance(self, gap, shown):
        with pytest.raises(PoleError) as err:
            ModelSpaceBasis(InnerFunction.blaschke([1 - gap]))
        assert f"root {shown} from the unit circle" in str(err.value)
        assert f"TAU_ROOT = {TAU_ROOT:.0e}" in str(err.value)

    def test_outside_tau_root_builds(self):
        basis = ModelSpaceBasis(InnerFunction.blaschke([1 - 2e-9]))
        assert basis.n == 1


class TestProjection:
    def test_high_frequency_annihilated(self):
        basis = z_power_basis()
        v = project(LaurentSymbol.monomial(3), basis)
        assert np.max(np.abs(v)) < 1e-12

    def test_truncation(self):
        basis = z_power_basis()
        f = LaurentSymbol.from_coeffs({0: 2.0, 1: 5.0, 2: 7.0})
        v = project(f, basis)
        assert v == pytest.approx([2.0, 5.0], abs=1e-12)

    def test_coanalytic_annihilated(self):
        basis = z_power_basis()
        v = project(LaurentSymbol.monomial(1).conj(), basis)
        assert np.max(np.abs(v)) < 1e-12


class TestCompression:
    def test_compressed_shift(self):
        A = tto_matrix(z_power_basis(), LaurentSymbol.monomial(1))
        assert A.entries == pytest.approx(np.array([[0, 0], [1, 0]]),
                                          abs=1e-12)

    def test_backward_shift(self):
        A = tto_matrix(z_power_basis(), LaurentSymbol.monomial(1).conj())
        assert A.entries == pytest.approx(np.array([[0, 1], [0, 0]]),
                                          abs=1e-12)

    def test_high_power_vanishes(self):
        A = tto_matrix(z_power_basis(), LaurentSymbol.monomial(3))
        assert np.max(np.abs(A.entries)) < 1e-12

    def test_constant_is_identity(self):
        A = tto_matrix(z_power_basis(), LaurentSymbol.constant(1.0))
        assert A.entries == pytest.approx(np.eye(2), abs=1e-12)

    def test_adjoint_is_conjugate_symbol(self):
        basis = ModelSpaceBasis(InnerFunction.blaschke([0.3, -0.5j]))
        g = LaurentSymbol.from_coeffs({-1: 0.5j, 0: 1.0, 2: -0.25})
        A = tto_matrix(basis, g).entries
        B = tto_matrix(basis, g.conj()).entries
        assert np.max(np.abs(A.conj().T - B)) < 1e-10


class TestConjugation:
    def test_monomial_flip(self):
        basis = z_power_basis()
        v = np.array([1.0, 0.0], dtype=complex)
        out = ctheta_matrix(basis) @ np.conj(v)
        assert out == pytest.approx([0.0, 1.0], abs=1e-12)

    def test_antilinear(self):
        basis = z_power_basis()
        v = np.array([1.0j, 0.0], dtype=complex)
        out = ctheta_matrix(basis) @ np.conj(v)
        assert out == pytest.approx([0.0, -1.0j], abs=1e-12)

    def test_involution(self):
        basis = ModelSpaceBasis(InnerFunction.blaschke([0.3, 0.1 - 0.2j]))
        rng = np.random.default_rng(5)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        R = ctheta_matrix(basis)
        back = R @ np.conj(R @ np.conj(v))
        assert np.max(np.abs(back - v)) < 1e-10

    def test_kept_per_grid_read_only(self):
        basis = ModelSpaceBasis(InnerFunction.blaschke([0.3, -0.5j]))
        G = basis.default_grid()
        R = ctheta_matrix(basis)
        assert ctheta_matrix(basis) is R
        assert ctheta_matrix(basis, G=G) is R
        assert not R.flags.writeable
        R2 = ctheta_matrix(basis, G=2 * G)
        assert R2 is not R
        assert np.max(np.abs(R2 - R)) < 1e-14

    def test_c_symmetry_of_compressions(self):
        basis = ModelSpaceBasis(InnerFunction.blaschke([0.3, -0.5j]))
        g = LaurentSymbol.from_coeffs({-2: 1.0, 1: 2.0 - 1.0j})
        A = tto_matrix(basis, g).entries
        R = ctheta_matrix(basis)
        assert np.max(np.abs(A @ R - R @ A.T)) < 1e-10


class TestMonomialFFT:
    """On theta = z^n the basis transforms are FFT slices; they equal the
    (n, G) basis-matrix quadrature, folds at G < n included."""

    # a rational g with coefficients on both sides of zero
    G_SYMBOL = LaurentSymbol.rational([1.0, 0.4j, -0.2], [1.0, -0.5 + 0.2j],
                                      shift=-1)

    @staticmethod
    def matrix_path(n, G):
        """(n, G) samples z_j^k = exp(2 pi i (jk mod G) / G)."""
        jk = np.outer(np.arange(n), np.arange(G)) % G
        return np.exp(2j * np.pi * jk / G)

    @pytest.mark.parametrize("n", (1, 3, 64))
    @pytest.mark.parametrize("G", (2, 64, 16384))
    def test_transforms_match_the_basis_matrix(self, n, G):
        basis = ModelSpaceBasis(InnerFunction.monomial(n))
        assert basis.is_monomial
        V = self.matrix_path(n, G)
        gv = self.G_SYMBOL.sample(G)
        rng = np.random.default_rng(n * G)
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(basis.project_values(gv)
                             - V.conj() @ gv / G)) <= 1e-14
        # a sum of n terms: within 1e-14 of its own size
        synth = c @ V
        assert np.max(np.abs(basis.synth_values(c, G) - synth)) \
            <= 1e-14 * max(1.0, np.max(np.abs(synth)))
        want = ((V * gv) @ V.conj().T).T / G
        got = tto_matrix(basis, self.G_SYMBOL, G=G).entries
        assert got.shape == (n, n)
        assert np.max(np.abs(got - want)) <= 1e-14
        assert np.max(np.abs(basis.values(G) - V)) <= 1e-14
        # the product recurrence of eval_at drifts by about k eps in z^k
        assert np.max(np.abs(basis.eval_at(grid_points(G)) - V)) <= 1e-13
