"""Norm identities and the triangular spectrum formula."""

import numpy as np
import pytest

from dualband import (CoefficientError, InnerFunction, LaurentSymbol,
                      SingularOperatorError, analytic_spectrum, block_w,
                      build_dualband, dualband_matrix, essential_spectrum,
                      hankel_norm, triangular_w_inverse)
from dualband import dual_band
from dualband.model_space import OperatorMatrix
from dualband.shift_spectra import spectral_key

Z = LaurentSymbol.monomial


def nilpotent_space():
    return build_dualband(InnerFunction.monomial(2), phi=Z(0), psi=Z(3))


def blaschke_space():
    theta = InnerFunction.blaschke([0.0, 0.5])
    psi = Z(1) * theta.as_symbol()
    return build_dualband(theta, phi=Z(0), psi=psi)


class TestNorm:
    def test_single_contributing_entry(self):
        rep = hankel_norm(nilpotent_space(), Z(3))
        assert rep.norm == pytest.approx(1.0, abs=1e-8)
        assert rep.gap < 1e-8

    def test_two_term_symbol(self):
        g = LaurentSymbol.from_coeffs({3: 1.0, 4: 0.5})
        rep = hankel_norm(nilpotent_space(), g)
        assert rep.norm == pytest.approx(1.2807764064044151, abs=1e-10)
        assert rep.gap < 1e-8

    def test_blaschke_shifted_band(self):
        sp = blaschke_space()
        rep = hankel_norm(sp, sp.psi * Z(1))
        assert rep.norm == pytest.approx(1.0, abs=1e-8)
        assert rep.gap < 1e-8

    def test_blaschke_polynomial(self):
        sp = blaschke_space()
        g = sp.psi * LaurentSymbol.from_coeffs({0: 1.0, 1: -0.7, 2: 0.2j})
        rep = hankel_norm(sp, g)
        assert rep.norm == pytest.approx(1.233078944066252, abs=1e-10)
        assert rep.gap < 1e-8

    def test_zero_symbol(self):
        rep = hankel_norm(nilpotent_space(), LaurentSymbol.from_coeffs({}))
        assert rep.norm == 0.0
        assert rep.matrix_norm == 0.0

    def test_non_analytic_entry_rejected(self):
        with pytest.raises(CoefficientError):
            hankel_norm(nilpotent_space(), LaurentSymbol.from_coeffs({0: 2.0}))

    def test_three_norms_agree(self):
        sp = nilpotent_space()
        g = LaurentSymbol.from_coeffs({3: 0.5, 5: 1.0, 6: -0.25j})
        rep = hankel_norm(sp, g)
        dense = float(np.linalg.norm(dualband_matrix(sp, g).entries, 2))
        wnorm = np.linalg.norm(block_w(sp, g).entries, 2)
        assert rep.norm == pytest.approx(dense, abs=1e-8)
        assert rep.norm == pytest.approx(wnorm, abs=1e-8)

    def test_block_entries_are_negative_coefficients(self):
        # entry (i, j) of each scalar block is the -(i+j+1) coefficient
        # of conj(theta) times that symbol entry, so anti-diagonals are
        # constant and only the lower-left quadrant survives for g = z^3
        sp = nilpotent_space()
        rep = hankel_norm(sp, Z(3))
        n = rep.block.shape[0] // 2
        lower_left = rep.block[n:, :n].copy()
        assert lower_left == pytest.approx(
            np.array([[0.0, 1.0], [1.0, 0.0]]), abs=1e-12)
        rep.block[n:, :n] = 0.0
        assert np.max(np.abs(rep.block)) < 1e-12
        for q in (lower_left,):
            for s in range(2 * n - 1):
                anti = [q[i, s - i] for i in range(max(0, s - n + 1),
                                                   min(s, n - 1) + 1)]
                assert np.ptp(np.abs(anti)) < 1e-12


def dict_block(space, g):
    """The block Hankel matrix read from full-grid coefficient dicts: the
    reference for the array reads in ``hankel_norm``."""
    fw, bw = space.ratios
    entries = {(0, 0): g, (0, 1): g * fw, (1, 0): g * bw, (1, 1): g}
    tbs = space.basis.theta_symbol.conj()
    dicts = {key: (tbs * s).coeff_dict(tol=0.0)
             for key, s in entries.items()}
    depth = space.n
    for cd in dicts.values():
        neg = [-k for k, v in cd.items() if k < 0 and abs(v) > 1e-14]
        if neg:
            depth = max(depth, max(neg))
    ij = np.add.outer(np.arange(depth), np.arange(depth))
    blocks = {}
    for key, cd in dicts.items():
        c = np.zeros(2 * depth - 1, dtype=complex)
        c[:depth] = [cd.get(-(k + 1), 0.0) for k in range(depth)]
        blocks[key] = c[ij]
    return np.block([[blocks[(0, 0)], blocks[(0, 1)]],
                     [blocks[(1, 0)], blocks[(1, 1)]]])


class TestBlockReference:
    @pytest.mark.parametrize("make, g", [
        (nilpotent_space, Z(3)),
        (nilpotent_space, LaurentSymbol.from_coeffs({3: 0.5, 5: 1.0,
                                                     6: -0.25j})),
        (nilpotent_space, LaurentSymbol.from_coeffs({})),
        (lambda: build_dualband(InnerFunction.monomial(8), phi=Z(1),
                                psi=Z(10)),
         LaurentSymbol.from_coeffs({9: 1.0, 11: 0.3 - 0.1j})),
        (blaschke_space, None),
    ], ids=["cube", "three_terms", "zero", "mono8", "blaschke"])
    def test_block_bytes_match_dict_reference(self, make, g):
        sp = make()
        if g is None:
            g = sp.psi * LaurentSymbol.from_coeffs({0: 1.0, 1: -0.7, 2: 0.2j})
        assert hankel_norm(sp, g).block.tobytes() == \
            dict_block(sp, g).tobytes()


class TestAnalyticSpectrum:
    def test_nilpotent_shift(self):
        rep = analytic_spectrum(nilpotent_space(), Z(1))
        assert rep.values == [0.0]
        assert rep.multiplicities[0.0] == 4
        assert rep.triangle == "lower"
        assert rep.match_gap < 1e-8

    def test_nilpotent_cube(self):
        # the matrix is a nonzero nilpotent, so dense eigenvalues carry
        # sqrt(eps) Jordan noise; their mean recovers the true point
        rep = analytic_spectrum(nilpotent_space(), Z(3))
        assert rep.values == [0.0]
        assert rep.scatter < 5e-8
        assert abs(np.mean(rep.dense_eigs)) < 1e-12
        assert rep.match_gap == abs(np.mean(rep.dense_eigs))

    def test_blaschke_two_points(self):
        rep = analytic_spectrum(blaschke_space(), Z(1))
        vals = sorted(v.real for v in rep.values)
        assert vals == pytest.approx([0.0, 0.5], abs=1e-10)
        assert all(m == 2 for m in rep.multiplicities.values())
        assert rep.match_gap < 1e-8

    def test_polynomial_mapping(self):
        g = LaurentSymbol.from_coeffs({0: 1.0, 1: 2.0, 2: -1.0})
        rep = analytic_spectrum(blaschke_space(), g)
        vals = sorted(v.real for v in rep.values)
        assert vals == pytest.approx([1.0, 1.75], abs=1e-10)
        assert rep.match_gap < 5e-8
        for v in rep.values:
            pair = [e for e in rep.dense_eigs if abs(e - v) < 1e-6]
            assert len(pair) == 2
            assert np.mean(pair) == pytest.approx(v, abs=1e-10)

    @pytest.mark.parametrize("G", [64, 128, 256, 512, 1024, 2048, 4096,
                                   8192])
    def test_cluster_mean_on_every_grid(self, monkeypatch, G):
        # the double eigenvalue's dense pair scatters by up to ~6e-8
        # whatever the grid; its mean sits within roundoff
        sp = blaschke_space()
        monkeypatch.setattr(sp, "default_grid", lambda *a, **k: G)
        g = LaurentSymbol.from_coeffs({0: 1.0, 1: 2.0, 2: -1.0})
        rep = analytic_spectrum(sp, g)
        assert rep.match_gap < 1e-12
        assert rep.scatter < 1e-7

    def test_cluster_size_must_match_multiplicity(self, monkeypatch):
        # the formula claims the point 1 twice; a matrix whose four
        # eigenvalues all sit near 1.75 breaks the multiplicity count
        sp = blaschke_space()
        g = LaurentSymbol.from_coeffs({0: 1.0, 1: 2.0, 2: -1.0})
        W = np.diag([1.75, 1.75, 1.75 + 1e-9, 1.75 - 1e-9]).astype(complex)
        monkeypatch.setattr("dualband.hankel.dualband_matrix",
                            lambda space, g: OperatorMatrix(W))
        rep = analytic_spectrum(sp, g)
        assert rep.match_gap == np.inf
        assert rep.scatter < 1e-8

    @pytest.mark.parametrize("space, g", [
        (nilpotent_space, Z(1)), (nilpotent_space, Z(3)),
        (blaschke_space, Z(1)),
        (blaschke_space, LaurentSymbol.from_coeffs([1.0, 2.0, -1.0], 0)),
    ], ids=["nilpotent-z", "nilpotent-z3", "band-z", "band-poly"])
    def test_dense_eigs_in_spectral_order(self, space, g):
        # every value comes twice; an unrounded modulus lets last-bit
        # moves swap points of equal modulus
        eigs = analytic_spectrum(space(), g).dense_eigs
        assert eigs == sorted(eigs, key=spectral_key)

    def test_hypothesis_violation(self):
        psi = Z(2).conj() * LaurentSymbol.rational([-0.5, 0, 0, 0, 1],
                                                   [1, 0, 0, 0, -0.5])
        sp = build_dualband(InnerFunction.monomial(2), phi=Z(0), psi=psi)
        with pytest.raises(CoefficientError):
            analytic_spectrum(sp, Z(1))

    def test_non_analytic_g_rejected(self):
        with pytest.raises(CoefficientError):
            analytic_spectrum(nilpotent_space(), Z(1).conj())


class TestTriangularInverse:
    def test_inverse_matches_direct(self):
        sp = blaschke_space()
        g = LaurentSymbol.from_coeffs({0: 1.0, 1: 2.0, 2: -1.0})
        Wi, info = triangular_w_inverse(sp, g)
        W = dualband_matrix(sp, g).entries
        assert info["residual"] < 1e-8
        assert np.max(np.abs(Wi - np.linalg.inv(W))) < 1e-8

    def test_singular_diagonal_rejected(self):
        with pytest.raises(SingularOperatorError):
            triangular_w_inverse(nilpotent_space(), Z(1))

    def test_reads_the_kept_block_form(self, monkeypatch):
        builds = []
        assemble = dual_band._block_assembly

        def counting(space, g, G):
            builds.append(G)
            return assemble(space, g, G)

        monkeypatch.setattr(dual_band, "_block_assembly", counting)
        sp = blaschke_space()
        g = LaurentSymbol.from_coeffs({0: 1.0, 1: 2.0, 2: -1.0})
        block_w(sp, g)
        triangular_w_inverse(sp, g)
        assert builds == [None]


class TestEssentialFormula:
    def test_finite_blaschke(self):
        pts, _ = essential_spectrum(InnerFunction.monomial(2))
        assert pts == []

    def test_atomic(self):
        theta = InnerFunction.atomic([(1.0, 1.0)])
        pts, evidence = essential_spectrum(theta)
        assert pts == [1.0 + 0.0j]
        assert evidence[1.0 + 0.0j] < 1e-6
