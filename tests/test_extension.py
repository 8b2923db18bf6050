"""Extension symbol: kernel lifts, range certificates, inversion."""

import numpy as np
import pytest

from dualband import (InnerFunction, LaurentSymbol, NonKernelInputError,
                      SingularOperatorError, adjoint_kernel_map, build_G,
                      build_dualband, dualband_matrix, inverse_via_extension,
                      kernel_lift, kernel_project, point_spectrum, range_test)
from dualband.extension import (ExtensionVector, _analytic_energy,
                                _extension_rows, _window,
                                adjoint_symbol_identity_residual,
                                finite_section_matrix, rh_residual)
from dualband.matsym import apply_rows
from dualband.symbols import fft_freqs, grid_fft, grid_ifft

Z = LaurentSymbol.monomial


def nilpotent_space():
    return build_dualband(InnerFunction.monomial(2), phi=Z(0), psi=Z(3))


def twist_space():
    psi = Z(2).conj() * LaurentSymbol.rational([-0.5, 0, 0, 0, 1],
                                               [1, 0, 0, 0, -0.5])
    return build_dualband(InnerFunction.monomial(2), phi=Z(0), psi=psi)


def twist32_general():
    """(space, g, h): the twist band at n = 32, a = 0.5, with a general
    symbol g that has no factorization route."""
    n, a = 32, 0.5
    num = [0.0] * (2 * n + 1)
    den = [0.0] * (2 * n + 1)
    num[0], num[2 * n] = -a, 1.0
    den[0], den[2 * n] = 1.0, -a
    psi = Z(n).conj() * LaurentSymbol.rational(num, den)
    sp = build_dualband(InnerFunction.monomial(n), phi=Z(0), psi=psi)
    g = LaurentSymbol.from_coeffs([1.0, 0.3, -0.2], 0)
    rng = np.random.default_rng(7)
    h = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
    return sp, g, h


def grid_det(Gsym):
    return np.linalg.det(np.transpose(Gsym.values, (2, 0, 1)))


class TestSymbol:
    def test_det_unimodular_general(self):
        sp = nilpotent_space()
        Gsym = build_G(sp, g=Z(1))
        d = grid_det(Gsym)
        assert np.max(np.abs(np.abs(d) - 1.0)) < 1e-12

    def test_det_unimodular_shift_form(self):
        sp = twist_space()
        Gsym = build_G(sp, lam=0.3)
        d = grid_det(Gsym)
        assert np.max(np.abs(np.abs(d) - 1.0)) < 1e-12

    def test_adjoint_identity(self):
        sp = nilpotent_space()
        for Gsym in (build_G(sp, g=Z(1)), build_G(sp, lam=0.3)):
            assert adjoint_symbol_identity_residual(Gsym) < 1e-10

    def test_exactly_one_symbol(self):
        sp = nilpotent_space()
        with pytest.raises(ValueError):
            build_G(sp)
        with pytest.raises(ValueError):
            build_G(sp, g=Z(1), lam=0.5)


class TestKernelLift:
    def test_first_band_vector(self):
        sp = nilpotent_space()
        vec = kernel_lift(sp, [0, 1, 0, 0], g=Z(1))
        assert vec.meta["rh_residual"] < 1e-10 * vec.norm()
        c = vec.comps
        assert c[0][1] == pytest.approx(1.0, abs=1e-12)
        assert c[2][0] == pytest.approx(-1.0, abs=1e-12)
        c[0][1] = 0.0
        c[2][0] = 0.0
        assert np.max(np.abs(c)) < 1e-12

    def test_second_band_vector(self):
        sp = nilpotent_space()
        vec = kernel_lift(sp, [0, 0, 0, 1], g=Z(1))
        c = vec.comps
        assert c[1][1] == pytest.approx(1.0, abs=1e-12)
        assert c[2][3] == pytest.approx(-1.0, abs=1e-12)
        assert c[3][0] == pytest.approx(-1.0, abs=1e-12)
        c[1][1] = 0.0
        c[2][3] = 0.0
        c[3][0] = 0.0
        assert np.max(np.abs(c)) < 1e-12

    def test_roundtrip(self):
        sp = nilpotent_space()
        for coords in ([0, 1, 0, 0], [0, 0, 0, 1], [0, 0.6, 0, 0.8j]):
            vec = kernel_lift(sp, coords, g=Z(1))
            back = kernel_project(sp, vec, g=Z(1))
            assert back == pytest.approx(np.asarray(coords, dtype=complex),
                                         abs=1e-10)

    def test_zero_maps_to_zero(self):
        sp = nilpotent_space()
        vec = kernel_lift(sp, [0, 0, 0, 0], g=Z(1))
        assert vec.norm() == 0.0
        back = kernel_project(sp, vec, g=Z(1))
        assert np.max(np.abs(back)) == 0.0

    def test_rejects_non_kernel_vector(self):
        sp = nilpotent_space()
        vec = kernel_lift(sp, [1, 0, 0, 0], g=Z(1))
        with pytest.raises(NonKernelInputError):
            kernel_project(sp, vec, g=Z(1))

    def test_shift_form_eigenvectors(self):
        sp = twist_space()
        rep = point_spectrum(sp, cross_check=False)
        assert rep.points
        for p in rep.points:
            for coords in p.coords:
                vec = kernel_lift(sp, coords, lam=p.lam)
                assert vec.meta["rh_residual"] < 1e-8 * vec.norm()
                back = kernel_project(sp, vec, lam=p.lam)
                assert back == pytest.approx(coords, abs=1e-8)


def same_bits(x, y):
    """Equal arrays down to the sign of every zero."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint8),
                                                  y.view(np.uint8))


class TestStacks:
    """The four components of an extension vector go through one Fourier
    transform; each result matches a per-component reference bit for
    bit."""

    def lifted(self):
        sp = twist_space()
        p = point_spectrum(sp, cross_check=False).points[0]
        vec = kernel_lift(sp, p.coords[0], lam=p.lam)
        return vec, build_G(sp, lam=p.lam, G=vec.meta["grid"])

    def test_values_on(self):
        vec, Gsym = self.lifted()
        G = Gsym.grid
        want = [grid_ifft(np.concatenate([c, np.zeros(G - c.size)]))
                for c in vec.comps]
        assert same_bits(vec.values_on(G), np.array(want))

    def test_window(self):
        vec, Gsym = self.lifted()
        F = vec.values_on(Gsym.grid)
        want = [grid_fft(f)[:vec.n_ext + 1] for f in F]
        assert same_bits(_window(F, vec.n_ext), np.array(want))

    def test_rh_residual(self):
        vec, Gsym = self.lifted()
        Y = apply_rows(Gsym.values, vec.values_on(Gsym.grid))
        analytic = fft_freqs(Gsym.grid) >= 0
        want = max(float(np.sqrt(np.sum(np.abs(grid_fft(y)[analytic]) ** 2)))
                   for y in Y)
        assert same_bits(rh_residual(Gsym, vec), want)

    def test_finite_section_matrix(self):
        sp, g, _ = twist32_general()
        n_ext = 24
        Gsym = build_G(sp, g=g, G=sp.extension_grid(g, n_ext))
        N = n_ext + 1
        idx = np.subtract.outer(np.arange(N), np.arange(N)) % Gsym.grid
        want = np.zeros((4 * N, 4 * N), dtype=complex)
        for i in range(4):
            for j in range(4):
                want[i * N:(i + 1) * N, j * N:(j + 1) * N] = \
                    grid_fft(Gsym.values[i, j])[idx]
        assert same_bits(finite_section_matrix(Gsym, n_ext), want)

    @pytest.mark.parametrize("comp", range(4))
    def test_nan_vector_is_not_a_kernel_vector(self, comp):
        # every column of the symbol has a live entry, so a NaN in any
        # component reaches the residual
        sp = nilpotent_space()
        vec = kernel_lift(sp, [0, 1, 0, 0], g=Z(1))
        vec.comps[comp, 3] = np.nan
        Gsym = build_G(sp, g=Z(1), G=vec.meta["grid"])
        assert np.isnan(rh_residual(Gsym, vec))
        # the literal skips its number-0 entries, so fewer rows turn NaN
        rows = _extension_rows(sp, Z(1), None, Gsym.grid)
        assert np.isnan(_analytic_energy(rows, vec.values_on(Gsym.grid)))
        with pytest.raises(NonKernelInputError):
            kernel_project(sp, vec, g=Z(1))


class TestLiftRecord:
    """A projection reuses its lift's residual check only for the vector
    the lift returned, on the same call."""

    @pytest.fixture
    def counts(self, monkeypatch):
        import dualband.extension as ext
        seen = {"energy": 0, "rows": 0}
        energy, rows = ext._analytic_energy, ext._extension_rows

        def counting_energy(*args):
            seen["energy"] += 1
            return energy(*args)

        def counting_rows(*args):
            seen["rows"] += 1
            return rows(*args)

        monkeypatch.setattr(ext, "_analytic_energy", counting_energy)
        monkeypatch.setattr(ext, "_extension_rows", counting_rows)
        return seen

    def lifted(self):
        sp = twist_space()
        p = point_spectrum(sp, cross_check=False).points[0]
        return sp, p, kernel_lift(sp, p.coords[0], lam=p.lam)

    def test_round_trip_checks_once(self, counts):
        sp, p, vec = self.lifted()
        back = kernel_project(sp, vec, lam=p.lam)
        assert counts == {"energy": 1, "rows": 1}
        assert back == pytest.approx(p.coords[0], abs=1e-8)

    def test_reused_residual_is_the_full_check(self):
        sp, p, vec = self.lifted()
        G = vec.meta["grid"]
        full = _analytic_energy(_extension_rows(sp, None, p.lam, G),
                                vec.values_on(G))
        assert same_bits(vec.meta["lift"].residual, full)
        assert same_bits(vec.meta["rh_residual"], full)

    def test_same_bits_as_the_full_check(self):
        sp, p, vec = self.lifted()
        by_record = kernel_project(sp, vec, lam=p.lam)
        del vec.meta["lift"]
        assert same_bits(kernel_project(sp, vec, lam=p.lam), by_record)

    @pytest.mark.parametrize("change", ["window", "lam", "grid", "space",
                                        "by hand"])
    def test_anything_else_takes_the_full_check(self, counts, change):
        sp, p, vec = self.lifted()
        lam, G = p.lam, None
        if change == "window":
            vec.comps *= 2.0            # still a kernel vector
        elif change == "lam":
            lam = p.lam * (1 + 1e-13)
        elif change == "grid":
            G = 2 * vec.meta["grid"]
        elif change == "space":
            sp = twist_space()
        else:
            vec = ExtensionVector(vec.comps.copy(), vec.n_ext,
                                  {"grid": vec.meta["grid"]})
        kernel_project(sp, vec, lam=lam, G=G)
        assert counts == {"energy": 2, "rows": 2}

    def test_an_edited_window_is_still_rejected(self):
        sp, p, vec = self.lifted()
        vec.comps[2, 5] += 1.0
        with pytest.raises(NonKernelInputError):
            kernel_project(sp, vec, lam=p.lam)

    def test_adjoint_vector_carries_no_record(self):
        sp = nilpotent_space()
        vec = kernel_lift(sp, [0, 1, 0, 0], g=Z(1))
        adj = adjoint_kernel_map(sp, vec, g=Z(1))
        assert "lift" not in adj.meta


class TestRange:
    def test_reachable_vector(self):
        sp = nilpotent_space()
        cert = range_test(sp, Z(1), [0, 1, 0, 0])
        assert cert.in_range
        assert cert.agree
        T = dualband_matrix(sp, Z(1)).entries
        assert T @ cert.preimage == pytest.approx(
            np.array([0, 1, 0, 0], dtype=complex), abs=1e-10)

    def test_unreachable_vector(self):
        sp = nilpotent_space()
        cert = range_test(sp, Z(1), [1, 0, 0, 0])
        assert not cert.in_range
        assert cert.agree

    def test_zero_vector(self):
        sp = nilpotent_space()
        cert = range_test(sp, Z(1), [0, 0, 0, 0])
        assert cert.in_range

    def test_rank_counts_kernel(self):
        sp = nilpotent_space()
        cert = range_test(sp, Z(1), [0, 1, 0, 0])
        assert cert.rank == 2


class TestAdjoint:
    def test_kernel_dimensions_match(self):
        # unimodular determinant forces index zero: dense kernel and
        # cokernel of the compression agree
        sp = nilpotent_space()
        T = dualband_matrix(sp, Z(1)).entries
        s = np.linalg.svd(T, compute_uv=False)
        cut = 1e-8 * s[0]
        dim_ker = int(np.sum(s < cut))
        sa = np.linalg.svd(T.conj().T, compute_uv=False)
        dim_coker = int(np.sum(sa < cut))
        assert dim_ker == dim_coker == 2

    def test_adjoint_kernel_vector(self):
        sp = nilpotent_space()
        vec = kernel_lift(sp, [0, 1, 0, 0], g=Z(1))
        adj = adjoint_kernel_map(sp, vec, g=Z(1))
        assert adj.norm() > 0.1
        assert adj.meta["rh_residual"] < 1e-8 * adj.norm()

    def test_adjoint_kernel_shift_form(self):
        sp = twist_space()
        rep = point_spectrum(sp, cross_check=False)
        p = rep.points[0]
        vec = kernel_lift(sp, p.coords[0], lam=p.lam)
        adj = adjoint_kernel_map(sp, vec, lam=p.lam)
        assert adj.norm() > 1e-6
        assert adj.meta["rh_residual"] < 1e-8 * adj.norm()


class TestInverse:
    def test_identity_symbol(self):
        sp = nilpotent_space()
        h = np.array([0.3, -1.2, 0.5j, 2.0])
        coords, cert = inverse_via_extension(sp, Z(0), h)
        assert coords == pytest.approx(h, abs=1e-8)
        assert cert.residual < 1e-8

    def test_shift_route(self):
        sp = twist_space()
        g = LaurentSymbol.from_coeffs({0: -0.9, 1: 1.0})
        h = np.array([1.0, 0.25j, -0.5, 0.75])
        coords, cert = inverse_via_extension(sp, g, h)
        assert cert.method == "factorization"
        assert cert.residual < 1e-6
        assert cert.direct_gap < 1e-6
        assert cert.warnings == []

    def test_shift_route_carries_resolvent_warnings(self):
        # 1e-9 off an eigenvalue the minus factor has cond ~ 5e9, which
        # resolvent_apply flags; the certificate must not drop the flag
        sp = twist_space()
        h = np.array([1.0, 0.25j, -0.5, 0.75])
        lam = point_spectrum(sp).points[0].lam + 1e-9
        _, cert = inverse_via_extension(
            sp, LaurentSymbol.from_coeffs({0: -lam, 1: 1.0}), h)
        assert cert.method == "factorization"
        assert cert.cond > 1e9
        assert len(cert.warnings) == 1
        assert "condition bound" in cert.warnings[0]

    def test_shift_route_zero_constant(self):
        sp = nilpotent_space()
        g = LaurentSymbol.from_coeffs({0: -0.5, 1: 1.0})
        h = np.array([0.5, 1.0, -0.25, 0.1j])
        coords, cert = inverse_via_extension(sp, g, h)
        assert cert.method == "factorization"
        assert cert.residual < 1e-6
        assert cert.direct_gap < 1e-6

    def test_finite_section_route(self):
        sp = nilpotent_space()
        g = LaurentSymbol.from_coeffs({0: 1.0, 3: 0.4})
        h = np.array([0.2, -0.3, 1.1, 0.7j])
        coords, cert = inverse_via_extension(sp, g, h)
        assert cert.method == "finite-section"
        assert cert.residual < 1e-6
        assert cert.direct_gap < 1e-6

    def test_singular_rejected(self):
        sp = nilpotent_space()
        with pytest.raises(SingularOperatorError):
            inverse_via_extension(sp, Z(1), [1, 0, 0, 0])

    def test_finite_section_on_the_space_grid(self):
        # the twist band at n = 32 needs G = 8192; a fixed 2048 grid
        # aliased the extension symbol and left residuals near 1e-11
        sp, g, h = twist32_general()
        _, cert = inverse_via_extension(sp, g, h)
        assert cert.method == "finite-section"
        assert cert.residual <= 1e-13
        assert cert.direct_gap <= 1e-13
        assert range_test(sp, g, h).agree

    def test_finite_section_cond_is_the_compression_s(self):
        # the finite section of this case has cond ~ 1e19 while the solve
        # is exact; the certificate reports the dense compression instead
        sp, g, h = twist32_general()
        _, cert = inverse_via_extension(sp, g, h)
        s = np.linalg.svd(dualband_matrix(sp, g).entries, compute_uv=False)
        assert cert.method == "finite-section"
        assert cert.cond == s[0] / s[-1]
        assert cert.cond <= 1e3
