"""Dual-band spaces: construction, block identity, symmetry, zero test."""

import json
import os

import numpy as np
import pytest

import dualband.dual_band
from dualband import (DegeneracyError, InnerFunction, LaurentSymbol,
                      MissingDecompositionError, OrthogonalityError,
                      UnimodularityError, block_w, build_dualband, build_G,
                      cm_matrix, cm_symmetry_residual,
                      dualband_matrix, hankel_norm, inverse_via_extension,
                      is_zero_operator, kernel_lift, pm_apply,
                      point_spectrum, range_test, resolvent_apply,
                      shift_quadrature_residual, unitary_equiv_check)
from dualband.cli import main

Z = LaurentSymbol.monomial
SCN_DIR = os.path.join(os.path.dirname(__file__), "..", "scenarios")


def nilpotent_space():
    return build_dualband(InnerFunction.monomial(2), phi=Z(0), psi=Z(3))


def twist_space(n=2, a=0.5):
    """psi = conj(z^n) (z^2n - a) / (1 - a z^2n) over theta = z^n."""
    num = np.zeros(2 * n + 1)
    den = np.zeros(2 * n + 1)
    num[0], num[2 * n] = -a, 1.0
    den[0], den[2 * n] = 1.0, -a
    psi = Z(n).conj() * LaurentSymbol.rational(num, den)
    return build_dualband(InnerFunction.monomial(n), phi=Z(0), psi=psi)


class TestConstruction:
    def test_nilpotent_split(self):
        sp = nilpotent_space()
        ap0, amb0 = sp.split_constants()
        assert ap0 == pytest.approx(0.0, abs=1e-14)
        assert amb0 == pytest.approx(0.0, abs=1e-14)
        # aminus itself is the backward shift
        c = sp.aminus.coeff_dict(G=32, tol=1e-12)
        assert set(c) == {-1}
        assert c[-1] == pytest.approx(1.0)

    def test_twist_split(self):
        sp = twist_space()
        ap0, amb0 = sp.split_constants()
        assert ap0 == pytest.approx(-0.5, abs=1e-12)
        assert amb0 == pytest.approx(0.75, abs=1e-12)

    def test_split_reconstructs_band_ratio(self):
        sp = twist_space()
        G = 512
        th = sp.theta.sample(G)
        bw = np.conj(sp.psi.sample(G)) * sp.phi.sample(G)
        rebuilt = sp.aminus.sample(G) * np.conj(th) + \
            sp.aplus.sample(G) * th
        assert np.max(np.abs(bw - rebuilt)) < 1e-10

    def test_degenerate_band_rejected(self):
        with pytest.raises(DegeneracyError):
            build_dualband(InnerFunction.monomial(2), phi=Z(0), psi=Z(2))

    def test_non_unimodular_band_rejected(self):
        bad = Z(1) * LaurentSymbol.constant(2.0)
        with pytest.raises(UnimodularityError):
            build_dualband(InnerFunction.monomial(2), phi=Z(0), psi=bad)

    def test_non_orthogonal_bands_rejected(self):
        with pytest.raises(OrthogonalityError):
            build_dualband(InnerFunction.monomial(2), phi=Z(0), psi=Z(1))

    def test_free_mode_needs_both_halves(self):
        with pytest.raises(MissingDecompositionError):
            build_dualband(InnerFunction.monomial(2),
                           aplus=LaurentSymbol.constant(1.0))

    def test_free_mode_builds(self):
        sp = build_dualband(InnerFunction.blaschke([-0.4]),
                            aplus=LaurentSymbol.constant(2.5),
                            aminus=LaurentSymbol.constant(2.5))
        assert sp.mode == "free"
        assert sp.n == 1


def free_space():
    return build_dualband(InnerFunction.blaschke([-0.4]),
                          aplus=LaurentSymbol.constant(2.5),
                          aminus=LaurentSymbol.constant(2.5))



class TestExtractedSplit:
    @pytest.mark.parametrize("n, a", [
        (2, 0.3), (8, 0.5), (16, 0.3), (32, 0.5), (64, 0.5), (128, 0.5),
        (256, 0.3),
    ])
    def test_twist_split_is_the_constant(self, n, a):
        # conj(psi) phi = -a z^n + (1 - a^2) sum_k a^k z^-(2k + 1) n, so
        # aplus is the constant -a
        sp = twist_space(n, a)
        assert sp.aplus.support() == (0, 0)
        assert abs(sp.aplus.coeffs[0] + a) <= 1e-15
        assert sp.report["split_residual"] <= 1e-14
        if n == 256:
            assert len(point_spectrum(sp).points) == 2 * n

    def test_extracted_split_is_gated(self, monkeypatch):
        # an extracted split off by 1e-6 is refused as a supplied one is
        extract = dualband.dual_band._extract_split_monomial

        def off(ratio_bw, n):
            aplus, aminus = extract(ratio_bw, n)
            return aplus + 1e-6, aminus

        monkeypatch.setattr(dualband.dual_band, "_extract_split_monomial",
                            off)
        with pytest.raises(MissingDecompositionError,
                           match="extracted split does not reproduce"):
            twist_space(16, 0.3)

    @pytest.mark.parametrize("n, a", [(16, 0.3), (32, 0.5), (64, 0.5)])
    def test_exact_twist_split_accepted(self, n, a):
        # aplus = -a and aminus = (1 - a^2) z^2n / (z^2n - a), supplied
        num = np.zeros(2 * n + 1)
        den = np.zeros(2 * n + 1)
        num[2 * n] = 1.0 - a * a
        den[0], den[2 * n] = -a, 1.0
        psi = twist_space(n, a).psi
        sp = build_dualband(InnerFunction.monomial(n), phi=Z(0), psi=psi,
                            aplus=LaurentSymbol.constant(-a),
                            aminus=LaurentSymbol.rational(num, den))
        assert sp.report["split_residual"] <= 1e-14
        rng = np.random.default_rng(n)
        h = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        _, diag = resolvent_apply(sp, 0.3 * np.exp(0.7j), h)
        assert diag["residual"] <= 1e-13


class TestExtensionGrid:
    @pytest.mark.parametrize("n_ext", [0, 127, 128, 1023, 1024, 2000])
    def test_power_of_two_above_the_window(self, n_ext):
        for sp in (nilpotent_space(), twist_space(), free_space()):
            G = sp.extension_grid(Z(1), n_ext)
            assert G & (G - 1) == 0
            assert G >= 4 * (n_ext + 1)
            assert G >= sp.default_grid([Z(1)], extra_span=8)
            assert G < 8 * (n_ext + 1) or \
                G == sp.default_grid([Z(1)], extra_span=8)

    def test_no_floor(self):
        # the quadrature rule alone sizes the shift family's grid, and a
        # rational band refines from a start set by its own degree
        assert nilpotent_space().extension_grid() == 64
        assert twist_space().extension_grid() == 512
        assert free_space().extension_grid() == 128

    @pytest.mark.parametrize("n, a, G", [
        (16, 0.3, 2048), (16, 0.5, 4096), (32, 0.3, 4096),
        (32, 0.5, 8192), (64, 0.3, 8192), (64, 0.5, 16384),
    ])
    def test_twist_family_grids(self, n, a, G):
        # psi's terms sit only at frequencies -n + 2nk, so a start grid
        # that folded them together could pass the band test early; the
        # slow decay at larger a needs grids past the start
        sp = twist_space(n, a)
        assert sp.default_grid() == G
        assert sp.extension_grid() == G


class TestKeptPerSpace:
    """The band ratios and theta's symbol are built with the space."""

    @pytest.mark.parametrize("make, with_norm", [
        (nilpotent_space, True), (free_space, False),
    ], ids=["realized", "free"])
    def test_builders_rebuild_neither(self, monkeypatch, make, with_norm):
        sp = make()
        bands = [b for b in (sp.phi, sp.psi, sp.aplus, sp.aminus)
                 if b is not None]
        seen = {"band_products": 0, "as_symbol": 0}
        mul = LaurentSymbol.__mul__
        as_symbol = InnerFunction.as_symbol

        def counting_mul(a, b):
            if any(x is y for x in (a, b) for y in bands):
                seen["band_products"] += 1
            return mul(a, b)

        def counting_as_symbol(self):
            seen["as_symbol"] += 1
            return as_symbol(self)

        monkeypatch.setattr(LaurentSymbol, "__mul__", counting_mul)
        monkeypatch.setattr(LaurentSymbol, "__rmul__", counting_mul)
        monkeypatch.setattr(InnerFunction, "as_symbol", counting_as_symbol)
        g = Z(3)
        block_w(sp, g)
        block_w(sp, g)
        build_G(sp, g=g)
        if with_norm:
            hankel_norm(sp, g)
        assert seen == {"band_products": 0, "as_symbol": 0}

    def test_ratios_are_conjugate_pair(self):
        for sp in (twist_space(), free_space()):
            fw, bw = sp.ratios
            G = sp.default_grid()
            assert np.max(np.abs(np.conj(fw.sample(G)) - bw.sample(G))) \
                < 1e-14


def analytic_free_space():
    # theta = z^2 with constant halves: with g = z^3 every symbol entry is
    # analytic, so the Hankel norm applies in free mode too
    return build_dualband(InnerFunction.monomial(2),
                          aplus=LaurentSymbol.constant(0.5),
                          aminus=LaurentSymbol.constant(0.8))


def count_builds(monkeypatch):
    """Count the model-space and band quadratures from here on."""
    seen = {"tto_matrix": 0, "band_quadrature": 0}
    tto = dualband.dual_band.tto_matrix
    band = dualband.dual_band._band_quadrature

    def counting_tto(*args, **kwargs):
        seen["tto_matrix"] += 1
        return tto(*args, **kwargs)

    def counting_band(*args, **kwargs):
        seen["band_quadrature"] += 1
        return band(*args, **kwargs)

    monkeypatch.setattr(dualband.dual_band, "tto_matrix", counting_tto)
    monkeypatch.setattr(dualband.dual_band, "_band_quadrature",
                        counting_band)
    return seen


class TestKeptDense:
    """A space keeps T_z and the dense compressions of its latest g."""

    @pytest.mark.parametrize("make, want", [
        (nilpotent_space, {"tto_matrix": 3, "band_quadrature": 1}),
        (analytic_free_space, {"tto_matrix": 3, "band_quadrature": 0}),
    ], ids=["realized", "free"])
    def test_one_assembly_per_space_and_g(self, monkeypatch, make, want):
        sp = make()
        g = Z(3)
        seen = count_builds(monkeypatch)
        if sp.mode == "realized":
            unitary_equiv_check(sp, g)
        cm_symmetry_residual(sp, g)
        is_zero_operator(sp, g)
        dualband_matrix(sp, g)
        block_w(sp, g)
        hankel_norm(sp, g)
        assert seen == want

    def test_range_then_inverse_build_once(self, monkeypatch):
        sp = twist_space()
        g = LaurentSymbol.from_coeffs({-1: 0.3, 0: 2.0, 1: 0.5j})
        h = np.array([1.0, -0.5j, 0.25, 2.0], dtype=complex)
        seen = count_builds(monkeypatch)
        cert = range_test(sp, g, h, n_ext=32)
        _, inv = inverse_via_extension(sp, g, h, n_ext=32)
        assert seen["band_quadrature"] == 1
        assert cert.in_range and inv.method == "finite-section"

    @pytest.mark.parametrize("make", [nilpotent_space, analytic_free_space],
                             ids=["realized", "free"])
    def test_kept_read_only_and_equal_to_fresh(self, make):
        sp = make()
        g = Z(3)
        unitary_equiv_check(sp, g)
        cm_symmetry_residual(sp, g)
        for build in (dualband_matrix, block_w):
            M = build(sp, g)
            assert build(sp, g) is M
            assert not M.entries.flags.writeable
            with pytest.raises(ValueError):
                M.entries[0, 0] = 1.0
            assert M.entries.tobytes() == build(make(), g).entries.tobytes()

    def test_new_g_replaces_old(self, monkeypatch):
        sp = twist_space()
        T = sp.shift_matrix()
        g1, g2 = Z(3), LaurentSymbol.from_coeffs({-1: 0.5, 2: 1.0})
        first = dualband_matrix(sp, g1)
        seen = count_builds(monkeypatch)
        dualband_matrix(sp, g2)
        again = dualband_matrix(sp, g1)
        assert seen["band_quadrature"] == 2
        assert again is not first
        assert again.entries.tobytes() == first.entries.tobytes()
        assert sp.shift_matrix() is T
        assert seen["band_quadrature"] == 2

    def test_shift_build_keeps_latest_g(self, monkeypatch):
        sp = nilpotent_space()
        g = Z(3)
        unitary_equiv_check(sp, g)
        seen = count_builds(monkeypatch)
        sp.shift_matrix()
        dualband_matrix(sp, g)
        block_w(sp, g)
        assert seen == {"tto_matrix": 0, "band_quadrature": 0}


class TestShiftQuadratureResidual:
    """validate checks the closed-form T_z against the quadrature of z."""

    @pytest.mark.parametrize("name", ["blaschke_twist", "nilpotent"])
    def test_validate_reports_it(self, tmp_path, monkeypatch, name):
        built = []
        band = dualband.dual_band._band_quadrature

        def counting(space, g, G):
            built.append(g.offset)
            return band(space, g, G)

        monkeypatch.setattr(dualband.dual_band, "_band_quadrature", counting)
        path = os.path.join(SCN_DIR, f"{name}.scn")
        assert main(["run", "--scenario", path, "--out", str(tmp_path)]) == 0
        with open(tmp_path / f"{name}.report.json", encoding="utf-8") as fh:
            validate = json.load(fh)["tasks"]["validate"]
        assert validate["ok"]
        assert validate["shift_quadrature_residual"] <= 1e-13
        if name == "nilpotent":
            # g = z^3 once for every task, and z once for the check
            assert sorted(built) == [1, 3]

    def test_keeps_latest_g(self):
        sp = twist_space()
        g = Z(3)
        M = dualband_matrix(sp, g)
        assert shift_quadrature_residual(sp) <= 1e-13
        assert dualband_matrix(sp, g) is M


class TestProjection:
    def test_band_element_reproduced(self):
        sp = nilpotent_space()
        assert pm_apply(sp, Z(1)) == pytest.approx([0, 1, 0, 0], abs=1e-12)
        assert pm_apply(sp, Z(4)) == pytest.approx([0, 0, 0, 1], abs=1e-12)

    def test_gap_frequency_annihilated(self):
        sp = nilpotent_space()
        assert np.max(np.abs(pm_apply(sp, Z(2)))) < 1e-12

    def test_idempotent(self):
        # theta = z^2, so e_k = z^k and P f = phi * poly + psi * poly
        sp = twist_space()
        f = LaurentSymbol.from_coeffs({-1: 0.3, 0: 1.0, 2: -0.7j})
        once = pm_apply(sp, f)
        pf = sp.phi * LaurentSymbol.from_coeffs(once[:2]) + \
            sp.psi * LaurentSymbol.from_coeffs(once[2:])
        again = pm_apply(sp, pf)
        assert again == pytest.approx(once, abs=1e-12)


class TestBandCoordinates:
    """[first band | second band] coordinates and their (2, G) samples."""

    def test_synth_bands_is_one_synthesis_per_band(self):
        sp = twist_space()
        c = np.array([0.5, -1j, 2.0, 0.25 + 1j])
        got = sp.synth_bands(c, 64)
        assert got.shape == (2, 64)
        assert np.array_equal(got[0], sp.basis.synth_values(c[:2], 64))
        assert np.array_equal(got[1], sp.basis.synth_values(c[2:], 64))

    def test_project_bands_inverts_synth_bands(self):
        sp = twist_space()
        c = np.array([0.5, -1j, 2.0, 0.25 + 1j])
        F = np.vstack([sp.synth_bands(c, 64), np.ones((2, 64))])
        assert sp.project_bands(F) == pytest.approx(c, abs=1e-14)


def blaschke_free_space():
    """n = 2 over a theta that is not a power of z."""
    return build_dualband(InnerFunction.blaschke([0.3, -0.5j]),
                          aplus=LaurentSymbol.constant(2.5),
                          aminus=LaurentSymbol.constant(0.5))


@pytest.fixture
def no_grid_work(monkeypatch):
    """Make every basis synthesis fail: a call that gets that far has
    started grid work."""
    import dualband.model_space as ms

    def grid_work(*args):
        raise AssertionError("grid work started")

    monkeypatch.setattr(ms, "_fold_ifft", grid_work)
    monkeypatch.setattr(ms.ModelSpaceBasis, "values", grid_work)


@pytest.mark.parametrize("make", [twist_space, blaschke_free_space])
@pytest.mark.parametrize("extra", [-1, 1])
class TestCoordinateLength:
    """A coordinate vector of the wrong length is refused, with both
    lengths named, before any grid work."""

    def test_synth_bands(self, make, extra, no_grid_work):
        sp = make()
        with pytest.raises(ValueError, match=rf"2n = 4, got {4 + extra}"):
            sp.synth_bands(np.ones(2 * sp.n + extra), 64)

    def test_synth_values(self, make, extra, no_grid_work):
        basis = make().basis
        with pytest.raises(ValueError, match=rf"n = 2, got {2 + extra}"):
            basis.synth_values(np.ones(basis.n + extra), 64)

    def test_kernel_lift(self, make, extra):
        # on theta = z^n an extra coordinate used to fold into z^n
        sp = make()
        lam = point_spectrum(sp, cross_check=False).points[0].lam
        with pytest.raises(ValueError, match=rf"got {4 + extra}"):
            kernel_lift(sp, np.ones(2 * sp.n + extra), lam=lam)

    def test_resolvent_apply(self, make, extra, monkeypatch):
        import dualband.factorization as fz

        def factors(*args):
            raise AssertionError("factors built")

        monkeypatch.setattr(fz, "_canonical_literals", factors)
        sp = make()
        with pytest.raises(ValueError, match=rf"got {4 + extra}"):
            resolvent_apply(sp, 0.3, np.ones(2 * sp.n + extra))


class TestBlockIdentity:
    def test_nilpotent_shift_action(self):
        T = dualband_matrix(nilpotent_space(), Z(1)).entries
        expect = np.zeros((4, 4))
        expect[1, 0] = 1.0  # 1 -> z
        expect[3, 2] = 1.0  # z^3 -> z^4
        assert T == pytest.approx(expect, abs=1e-12)

    def test_cube_action(self):
        T = dualband_matrix(nilpotent_space(), Z(3)).entries
        expect = np.zeros((4, 4))
        expect[2, 0] = 1.0  # 1 -> z^3
        expect[3, 1] = 1.0  # z -> z^4
        assert T == pytest.approx(expect, abs=1e-12)

    def test_identity_symbol(self):
        T = dualband_matrix(twist_space(), LaurentSymbol.constant(1.0))
        assert T.entries == pytest.approx(np.eye(4), abs=1e-10)

    def test_block_assembly_nilpotent(self):
        sp = nilpotent_space()
        W = block_w(sp, Z(1)).entries
        assert np.max(np.abs(W[:2, 2:])) < 1e-12
        assert np.max(np.abs(W[2:, :2])) < 1e-12
        assert unitary_equiv_check(sp, Z(1)) < 1e-10

    def test_block_assembly_twist(self):
        sp = twist_space()
        W = block_w(sp, Z(1)).entries
        for blk in (W[:2, :2], W[:2, 2:], W[2:, :2], W[2:, 2:]):
            assert np.max(np.abs(blk)) > 1e-3
        assert unitary_equiv_check(sp, Z(1)) < 1e-10

    def test_adjoint_matches_conjugate_symbol(self):
        sp = twist_space()
        g = LaurentSymbol.from_coeffs({-1: 1.0j, 1: 0.5})
        A = dualband_matrix(sp, g).entries
        B = dualband_matrix(sp, g.conj()).entries
        assert np.max(np.abs(A.conj().T - B)) < 1e-10


class TestZeroDetection:
    def test_single_nonzero_block_detected(self):
        sp = nilpotent_space()
        zero, norms = is_zero_operator(sp, Z(3))
        assert not zero
        assert norms["lower"] == pytest.approx(1.0, abs=1e-12)
        assert norms["diag"] < 1e-12 and norms["upper"] < 1e-12

    def test_upper_only_block(self):
        sp = nilpotent_space()
        zero, norms = is_zero_operator(sp, Z(3).conj())
        assert not zero
        assert norms["upper"] == pytest.approx(1.0, abs=1e-12)
        assert norms["diag"] < 1e-12 and norms["lower"] < 1e-12

    def test_all_blocks_zero(self):
        sp = nilpotent_space()
        zero, _ = is_zero_operator(sp, Z(5))
        assert zero
        assert np.max(np.abs(dualband_matrix(sp, Z(5)).entries)) < 1e-10

    def test_gap_symbol_not_zero(self):
        sp = nilpotent_space()
        zero, norms = is_zero_operator(sp, Z(2))
        assert not zero
        assert norms["lower"] > 0.9


class TestSymmetry:
    def test_conjugation_of_constant(self):
        sp = nilpotent_space()
        v = np.array([1.0, 0, 0, 0], dtype=complex)
        out = cm_matrix(sp) @ np.conj(v)
        assert out == pytest.approx([0, 0, 0, 1], abs=1e-12)

    def test_involution(self):
        sp = twist_space()
        rng = np.random.default_rng(11)
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        J = cm_matrix(sp)
        back = J @ np.conj(J @ np.conj(v))
        assert np.max(np.abs(back - v)) < 1e-10

    def test_symmetry_residual_shift(self):
        assert cm_symmetry_residual(nilpotent_space(), Z(1)) < 1e-10
        assert cm_symmetry_residual(twist_space(), Z(1)) < 1e-10

    def test_symmetry_residual_general(self):
        g = LaurentSymbol.from_coeffs({-2: 0.5j, 0: 1.0, 3: -0.25})
        assert cm_symmetry_residual(twist_space(), g) < 1e-10
