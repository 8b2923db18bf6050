"""Point spectrum of the dual-band shift: determinants, eigenvectors,
boundary diagnostics."""

import os
import tracemalloc
import warnings

import numpy as np
import pytest

import dualband.dual_band
import dualband.shift_spectra as ss
import dualband.symbols
from dualband import (InnerFunction, LaurentSymbol, MissingDecompositionError,
                      NotAnEigenvalueError, adc_test, build_dualband,
                      build_space, classify, delta, delta_tilde,
                      dualband_matrix, eigvec_build, essential_spectrum,
                      kernel_lift, kernel_project, parse_scenario,
                      point_spectrum, resolvent_apply,
                      shift_constants, shift_quadrature_residual,
                      solve_theta_equals)
from dualband.model_space import ModelSpaceBasis
from dualband.symbols import difference_quotient, grid_points

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


def two_sided_space():
    return build_dualband(InnerFunction.blaschke([-0.4]),
                          aplus=LaurentSymbol.from_coeffs({0: 2.5}),
                          aminus=LaurentSymbol.from_coeffs({0: 2.5}))


def free_space(aplus, aminus):
    """Free mode over a degree-3 non-monomial Blaschke theta."""
    return build_dualband(InnerFunction.blaschke([0.3, -0.5j, 0.2 + 0.4j]),
                          aplus=LaurentSymbol.from_coeffs(aplus),
                          aminus=LaurentSymbol.from_coeffs(aminus))


def free_inside_space():
    return free_space({0: 0.8, 1: 0.3}, {0: 0.6, -1: -0.2})


def free_outside_space():
    return free_space({0: 1.5, 2: 0.4j}, {0: 0.9, -1: 0.3})


class TestConstants:
    def test_nilpotent(self):
        c = shift_constants(nilpotent_space())
        assert c.alpha == pytest.approx(0.0, abs=1e-14)
        assert c.beta == pytest.approx(0.0, abs=1e-14)
        assert c.kappa == pytest.approx(0.0, abs=1e-14)
        assert c.tbar == pytest.approx(0.0, abs=1e-14)
        assert c.disc == pytest.approx(1.0, abs=1e-14)

    def test_twist(self):
        c = shift_constants(twist_space())
        assert c.alpha == pytest.approx(-0.5, abs=1e-12)
        assert c.beta == pytest.approx(0.75, abs=1e-12)
        assert c.kappa == pytest.approx(-0.375, abs=1e-12)
        assert c.disc == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_leading_term(self):
        c = shift_constants(two_sided_space())
        assert c.kappa == pytest.approx(6.25, abs=1e-12)
        assert c.tbar == pytest.approx(0.4, abs=1e-12)
        assert c.disc == pytest.approx(0.0, abs=1e-12)


class TestDeterminants:
    def test_twist_interior(self):
        sp = twist_space()
        for lam in (0.0, 0.3, 0.5 + 0.4j, -0.7j):
            expect = lam ** 4 + 0.375
            assert delta(sp, lam) == pytest.approx(expect, abs=1e-12)

    def test_twist_exterior(self):
        sp = twist_space()
        assert delta_tilde(sp, 2.0) == pytest.approx(1.0234375, abs=1e-12)

    def test_nilpotent_interior(self):
        sp = nilpotent_space()
        assert delta(sp, 0.0) == pytest.approx(0.0, abs=1e-14)
        assert delta(sp, 0.5) == pytest.approx(0.0625, abs=1e-12)

    def test_nilpotent_exterior_is_one(self):
        sp = nilpotent_space()
        for lam in (2.0, 10.0, 1.5 - 2.0j):
            assert delta_tilde(sp, lam) == pytest.approx(1.0, abs=1e-14)


class TestEigenvectors:
    def test_nilpotent_nullity_two(self):
        sp = nilpotent_space()
        vecs = eigvec_build(sp, 0.0)
        assert vecs.shape == (2, 4)
        T = dualband_matrix(sp, Z(1)).entries
        for v in vecs:
            assert np.linalg.norm(T @ v) < 1e-10 * np.linalg.norm(v)

    def test_twist_roots(self):
        sp = twist_space()
        lam = 0.375 ** 0.25 * np.exp(1j * np.pi / 4)
        vecs = eigvec_build(sp, lam)
        assert vecs.shape[0] == 1
        T = dualband_matrix(sp, Z(1)).entries - lam * np.eye(4)
        assert np.linalg.norm(T @ vecs[0]) < 1e-9 * np.linalg.norm(vecs[0])

    def test_rejects_resolvent_point(self):
        with pytest.raises(NotAnEigenvalueError):
            eigvec_build(nilpotent_space(), 0.5)


def quadrature_rows(sp, lam):
    """Kernel rows from the sampled profile, projected on a grid: the
    difference quotient inside, (1 - tau theta) / (z - lam) outside."""
    c = shift_constants(sp)
    G = sp.default_grid(extra_span=4)
    if ss._region(lam) == "outside":
        tau = np.conj(sp.theta.eval_at(1.0 / np.conj(lam)))
        m = ss._pair_matrix_outside(c, tau)
        profile = (1 - tau * sp.theta.sample(G)) / (grid_points(G) - lam)
    else:
        m = ss._pair_matrix_inside(c, complex(sp.theta.eval_at(lam)))
        profile = difference_quotient(sp.theta, lam, G)
    p = sp.basis.project_values(profile)
    _, (rows,) = ss._nullspace_2x2(m[None])
    return np.array([np.concatenate([c1 * p, c2 * p]) for c1, c2 in rows])


class TestClosedFormKernel:
    @pytest.mark.parametrize("make, region", [
        (twist_space, "inside"), (two_sided_space, "outside"),
        (free_inside_space, "inside"), (free_outside_space, "outside")])
    def test_matches_quadrature(self, make, region):
        sp = make()
        pts = point_spectrum(sp, cross_check=False).points
        assert pts and all(p.region == region for p in pts)
        for p in pts:
            got = eigvec_build(sp, p.lam)
            want = quadrature_rows(sp, p.lam)
            assert got.shape == want.shape
            for g, w in zip(got, want):
                assert np.linalg.norm(g - w) <= 1e-13 * np.linalg.norm(w)

    @pytest.mark.parametrize("make", (twist_space, two_sided_space,
                                      free_inside_space, free_outside_space))
    def test_new_lambda_reads_no_grid(self, make, monkeypatch):
        sp = make()
        lams = [p.lam for p in point_spectrum(sp, cross_check=False).points]
        eigvec_build(sp, lams[0])
        calls = []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(ModelSpaceBasis, "values",
                            counting("values", ModelSpaceBasis.values))
        monkeypatch.setattr(InnerFunction, "sample",
                            counting("sample", InnerFunction.sample))
        dq = counting("difference_quotient", difference_quotient)
        monkeypatch.setattr(dualband.symbols, "difference_quotient", dq)
        monkeypatch.setattr(ss, "difference_quotient", dq, raising=False)
        for lam in lams[1:]:
            eigvec_build(sp, lam)
        assert len(lams) > 1
        assert calls == []


def circle_space():
    """Free mode over theta = b_{0.5}: eigenvalues on the circle and
    outside it."""
    return build_dualband(InnerFunction.blaschke([0.5]),
                          aplus=LaurentSymbol.constant(2.0),
                          aminus=LaurentSymbol.constant(2.0))


def split_space():
    """Free mode over theta = b_{0.5}: one eigenvalue inside, one outside."""
    return build_dualband(InnerFunction.blaschke([0.5]),
                          aplus=LaurentSymbol.constant(0.8),
                          aminus=LaurentSymbol.constant(0.8))


class TestKernelBatch:
    """One batch over many points gives what one point at a time gives."""

    @pytest.mark.parametrize("make, regions", [
        (circle_space, {"boundary", "outside"}),
        (split_space, {"inside", "outside"}),
        (nilpotent_space, {"inside"}),
        (twist_space, {"inside"}),
        (free_outside_space, {"outside"})])
    def test_matches_one_point_calls(self, make, regions):
        sp = make()
        eig = [p.lam for p in point_spectrum(sp, cross_check=False).points]
        assert {ss._region(lam) for lam in eig} == regions
        # eigenvalues of every region, lam = 0, and resolvent points
        # inside, on and outside the circle
        lams = [0.0, *eig, 0.93 + 0.11j, -1j, 3.0 - 1.0j]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got_regions, dets, rows = ss._kernel_batch(sp, lams)
        assert got_regions == [ss._region(lam) for lam in lams]
        for lam, region, det, r in zip(lams, got_regions, dets, rows):
            one = delta_tilde(sp, lam) if region == "outside" \
                else delta(sp, lam)
            assert abs(det - one) <= 1e-15 * max(1.0, abs(one))
            if lam in eig or (lam == 0.0 and make is nilpotent_space):
                want = eigvec_build(sp, lam)
                assert r.shape == want.shape and r.shape[0] >= 1
                assert np.linalg.norm(r - want) <= \
                    1e-15 * np.linalg.norm(want)
            else:
                assert r.shape == (0, 2 * sp.n)
                with pytest.raises(NotAnEigenvalueError):
                    eigvec_build(sp, lam)

    def test_nilpotent_zero_has_two_rows(self):
        _, _, rows = ss._kernel_batch(nilpotent_space(), [0.0, 0.5])
        assert [r.shape[0] for r in rows] == [2, 0]

    def test_empty_batch(self):
        regions, dets, rows = ss._kernel_batch(twist_space(), [])
        assert regions == [] and dets.size == 0 and rows == []


class TestPointSpectrum:
    def test_nilpotent(self):
        rep = point_spectrum(nilpotent_space())
        assert len(rep.points) == 1
        p = rep.points[0]
        assert p.lam == pytest.approx(0.0, abs=1e-12)
        assert p.kernel_dim == 2
        assert p.residual < 1e-10
        assert p.region == "inside"
        assert "kappa-zero" in rep.regime
        assert rep.cross_check["agrees"]

    def test_twist(self):
        rep = point_spectrum(twist_space())
        eigs = np.array(rep.eigenvalues())
        want = 0.375 ** 0.25 * np.exp(1j * np.pi * np.array([1, 3, 5, 7]) / 4)
        assert eigs.size == 4
        for w in want:
            assert np.min(np.abs(eigs - w)) < 1e-7
        for p in rep.points:
            assert p.kernel_dim == 1
            assert p.residual < 1e-10
            assert abs(p.det_value) < 1e-10
        assert rep.cross_check["agrees"]
        assert not rep.cross_check["unmatched_matrix_eigs"]
        assert not rep.cross_check["unmatched_formula_points"]

    def test_two_sided(self):
        rep = point_spectrum(two_sided_space())
        eigs = sorted(rep.eigenvalues(), key=lambda z: z.real)
        assert eigs[0] == pytest.approx(-2.5, abs=1e-8)
        assert eigs[1] == pytest.approx(1.7, abs=1e-8)
        assert all(p.region == "outside" for p in rep.points)
        assert rep.cross_check["agrees"]


SPACES = (nilpotent_space, twist_space, two_sided_space)


def per_row_residuals(T, lams, rows):
    """Reference: a matvec and two norms per kernel row."""
    out = []
    for lam, r in zip(lams, rows):
        res = 0.0
        for row in r:
            nr = float(np.linalg.norm(row))
            if nr > 0:
                res = max(res, float(np.linalg.norm(T @ row - lam * row)) / nr)
        out.append(res)
    return np.array(out)


def dedup_reference(values, tol=1e-8):
    """Reference: a value is kept when no kept earlier one is near it."""
    kept = []
    for v in values:
        if not any(abs(v - k) <= tol for k in kept):
            kept.append(v)
    return np.array(kept, dtype=complex)


class TestBatchedChecks:
    """The spectrum's residuals come from one product over the stacked
    kernel rows, and its deduplication loops only over near values."""

    @pytest.mark.parametrize("space", [nilpotent_space, twist_space,
                                       lambda: twist_space(16, 0.3)])
    def test_residuals_match_per_row(self, space):
        sp = space()
        T = sp.shift_matrix()
        lams = np.array(point_spectrum(sp, cross_check=False).eigenvalues())
        _, _, rows = ss._kernel_batch(sp, lams)
        # a point without kernel rows and a zero row both count 0
        rows = rows + [np.zeros((0, 2 * sp.n)), np.zeros((1, 2 * sp.n))]
        lams = np.concatenate([lams, [0.1, 0.2]])
        got = ss._residuals(T, lams, rows)
        want = per_row_residuals(T, lams, rows)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-300)
        assert got[-2:].tolist() == [0.0, 0.0]

    def test_row_norms_are_numpy_norms(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((40, 128)) + 1j * rng.standard_normal((40, 128))
        want = np.array([np.linalg.norm(x) for x in X])
        assert np.array_equal(ss._row_norms(X), want)

    def test_no_rows_at_all(self):
        assert ss._residuals(np.eye(2), np.zeros(1), [np.zeros((0, 2))]) \
            .tolist() == [0.0]

    @pytest.mark.parametrize("seed", range(6))
    def test_dedup_keeps_the_same_values(self, seed):
        rng = np.random.default_rng(seed)
        base = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        # chains of near values: a dropped value does not shadow a later one
        values = np.concatenate([base, base + 6e-9, base + 1.2e-8,
                                 base[::2] - 3e-9, [np.nan, np.nan]])
        values = values[rng.permutation(values.size)]
        got = ss._dedup(values)
        want = dedup_reference(values)
        assert np.array_equal(got, want, equal_nan=True)


class TestShiftMatrix:
    @pytest.mark.parametrize("make", SPACES)
    def test_built_once_read_only(self, make):
        sp = make()
        T = sp.shift_matrix()
        assert sp.shift_matrix() is T
        assert not T.flags.writeable
        assert np.max(np.abs(T - dualband_matrix(sp, Z(1)).entries)) <= 1e-14

    @pytest.mark.parametrize("make", SPACES)
    @pytest.mark.parametrize("lam", (0.3 - 0.2j, 1.5 + 0.5j))
    def test_shift_by_lambda(self, make, lam):
        # the band basis is orthonormal: compressing z - lam is T_z - lam I
        sp = make()
        g = LaurentSymbol.from_coeffs({0: -lam, 1: 1.0})
        want = dualband_matrix(sp, g).entries
        got = sp.shift_matrix() - lam * np.eye(2 * sp.n)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_one_dense_build_per_space(self, monkeypatch):
        builds = []
        build = dualband.dual_band.dualband_matrix

        def counting(space, g, G=None):
            builds.append(g)
            return build(space, g, G=G)

        monkeypatch.setattr(dualband.dual_band, "dualband_matrix", counting)
        sp = twist_space()
        point_spectrum(sp)
        point_spectrum(sp, cross_check=False)
        resolvent_apply(sp, 0.0, np.array([1.0, 0, 0, 0], dtype=complex))
        assert len(builds) == 0


class TestMonomialBasisSamples:
    def test_no_grid_sized_basis_evaluation(self, monkeypatch):
        # on theta = z^n the basis transforms are FFT slices: eval_at sees
        # only the closed-form kernel batch, at most 2n points at a time
        sizes = []
        real = ModelSpaceBasis.eval_at

        def counting(self, z):
            sizes.append(np.size(z))
            return real(self, z)

        monkeypatch.setattr(ModelSpaceBasis, "eval_at", counting)
        n = 64
        sp = twist_space(n, 0.5)
        rep = point_spectrum(sp)
        assert len(rep.points) == 2 * n and rep.cross_check["agrees"]
        p = rep.points[0]
        vec = kernel_lift(sp, p.coords[0], lam=p.lam, n_ext=128)
        back = kernel_project(sp, vec, lam=p.lam)
        assert np.linalg.norm(back - p.coords[0]) < 1e-8
        rng = np.random.default_rng(64)
        h = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        _, diag = resolvent_apply(sp, 0.3j, h)
        assert diag["residual"] < 1e-6
        assert sizes and max(sizes) <= 2 * n


class TestSplitEigensolver:
    """The cross-check's two n x n blocks S +- sqrt(kappa) K give the
    eigenvalues of the 2n x 2n T_z."""

    @staticmethod
    def draw(seed):
        rng = np.random.default_rng([seed, 23])
        n = int(rng.integers(1, 41))
        zeros = 0.9 * np.sqrt(rng.uniform(0, 1, n)) \
            * np.exp(2j * np.pi * rng.uniform(0, 1, n))
        ap, am = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        # generic; alpha = 0; beta = 0; both (kappa = 0 either way)
        ap = 0.0 if seed % 4 in (1, 3) else ap
        am = 0.0 if seed % 4 in (2, 3) else am
        return build_dualband(
            InnerFunction.blaschke(list(zeros)),
            aplus=LaurentSymbol.from_coeffs({0: ap, 1: 0.3 * ap}),
            aminus=LaurentSymbol.from_coeffs({0: am, -1: -0.2 * am}))

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_the_dense_eigenvalues(self, seed):
        sp = self.draw(seed)
        cc = ss._matrix_cross_check(sp, [])
        got = np.array(cc["matrix_eigs"])
        want = np.linalg.eigvals(sp.shift_matrix())
        assert got.size == want.size == 2 * sp.n
        dist = np.abs(want[:, None] - got[None, :])
        gap = max(dist.min(axis=0).max(), dist.min(axis=1).max())
        assert gap <= 1e-13 * max(1.0, np.max(np.abs(want)))

    def test_reports_solver_and_match_gap(self):
        rep = point_spectrum(twist_space(3, 0.5))
        cc = rep.cross_check
        assert "S + sqrt(kappa) K" in cc["eigensolver"]
        eigs = np.array(cc["matrix_eigs"])
        want = max(float(np.min(np.abs(eigs - p.lam))) for p in rep.points)
        assert cc["match_gap"] == want
        assert cc["match_gap"] < 1e-12 and cc["agrees"]


def disc_zeros(seed, n, radius):
    rng = np.random.default_rng(seed)
    return radius * np.sqrt(rng.uniform(0, 1, n)) \
        * np.exp(2j * np.pi * rng.uniform(0, 1, n))


def free_over(theta):
    return build_dualband(theta,
                          aplus=LaurentSymbol.from_coeffs({0: 0.8, 1: 0.3j}),
                          aminus=LaurentSymbol.from_coeffs({0: 0.6, -1: -0.2}))


def realized_over(theta):
    # psi = z theta: conj(psi) phi = conj(z) conj(theta), so aminus = 1/z
    return build_dualband(theta, phi=Z(0), psi=Z(1) * theta.as_symbol(),
                          aplus=LaurentSymbol.constant(0.0), aminus=Z(-1))


def quadrature_shift(sp):
    """The compression of z by quadrature, outside the space's store:
    the band quadrature when realized, the block assembly when free."""
    build = (dualband.dual_band._band_quadrature if sp.mode == "realized"
             else dualband.dual_band._block_assembly)
    return build(sp, Z(1), None).entries


CLOSED_FORM_SPACES = {
    **{f"twist{n}": (lambda n=n: twist_space(n)) for n in (2, 16, 64)},
    **{f"free{n}": (lambda n=n: free_over(InnerFunction.blaschke(
        disc_zeros(n, n, 0.9), const=np.exp(0.7j)))) for n in range(1, 9)},
    "free_product": lambda: free_over(InnerFunction.product([
        InnerFunction.blaschke([0.3, -0.5j], const=np.exp(0.4j)),
        InnerFunction.blaschke([0.2 + 0.4j], const=-1.0),
        InnerFunction.blaschke([0.0, 0.6 - 0.1j])])),
    **{f"realized{n}": (lambda n=n: realized_over(InnerFunction.blaschke(
        disc_zeros(10 + n, n, 0.7), const=np.exp(-0.3j))))
       for n in (1, 4, 7)},
    **{name: (lambda name=name: build_space(parse_scenario(os.path.join(
        SCN_DIR, f"{name}.scn"))))
       for name in ("blaschke_twist", "case_ii", "nilpotent")},
}


# On this draw (largest |a| = 0.894) the quadrature, which samples the
# band ratio from theta's expanded rational form, is 9.2e-12 off; the
# closed form is within 1e-15 of a quadrature over theta's factored
# samples (test_free_matches_factored_quadrature).
QUADRATURE_LOSS = {"free8"}


def factored_quadrature_shift(sp, G=2 ** 15):
    """Block form of the compression of z on a free space, with the band
    ratio sampled through theta's factors."""
    z = grid_points(G)
    V = sp.basis.values(G)
    th = sp.theta.sample(G)
    bw = sp.aminus.sample(G) * np.conj(th) + sp.aplus.sample(G) * th

    def tto(h):
        return ((V * h) @ V.conj().T).T / G

    return np.block([[tto(z), tto(np.conj(bw) * z)], [tto(bw * z), tto(z)]])


class TestClosedFormShift:
    """shift_matrix() is built in closed form from theta's zeros, its
    front constant and the split; the quadrature is the check."""

    @pytest.mark.parametrize("name", [
        pytest.param(name, marks=pytest.mark.xfail(
            strict=True, reason="the quadrature samples the band ratio "
            "from theta's expanded form, which loses digits near the "
            "circle")) if name in QUADRATURE_LOSS else name
        for name in sorted(CLOSED_FORM_SPACES)])
    def test_matches_quadrature(self, name):
        sp = CLOSED_FORM_SPACES[name]()
        err = np.max(np.abs(sp.shift_matrix() - quadrature_shift(sp)))
        assert err <= 1e-13

    @pytest.mark.parametrize("n", range(1, 9))
    def test_free_matches_factored_quadrature(self, n):
        sp = CLOSED_FORM_SPACES[f"free{n}"]()
        err = np.max(np.abs(sp.shift_matrix() - factored_quadrature_shift(sp)))
        assert err <= 1e-14

    def test_nilpotent_entries_exact(self):
        T = nilpotent_space().shift_matrix()
        want = np.zeros((4, 4))
        want[1, 0] = want[3, 2] = 1.0
        assert T.tobytes() == want.astype(complex).tobytes()

    def test_twist64_allocates_under_1mb(self):
        sp = twist_space(64)
        tracemalloc.start()
        try:
            sp.shift_matrix()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_needs_the_split(self):
        theta = InnerFunction.blaschke([0.0, 0.5])
        sp = build_dualband(theta, phi=Z(0), psi=Z(1) * theta.as_symbol())
        with pytest.raises(MissingDecompositionError):
            sp.shift_matrix()
        assert shift_quadrature_residual(sp) is None


class TestThetaSolver:
    def test_monomial(self):
        roots = solve_theta_equals(InnerFunction.monomial(2), 0.25)
        assert np.sort(roots.real) == pytest.approx([-0.5, 0.5], abs=1e-10)
        assert np.max(np.abs(roots.imag)) < 1e-10

    def test_blaschke(self):
        theta = InnerFunction.blaschke([0.0, 0.5])
        roots = solve_theta_equals(theta, 0.0)
        assert np.sort(roots.real) == pytest.approx([0.0, 0.5], abs=1e-10)

    def test_general_target(self):
        roots = solve_theta_equals(InnerFunction.monomial(2), 4.0)
        assert np.sort(roots.real) == pytest.approx([-2.0, 2.0], abs=1e-10)

    @staticmethod
    def set_gap(a, b):
        d = np.abs(a[:, None] - b[None, :])
        return max(d.min(axis=1).max(), d.min(axis=0).max())

    @pytest.mark.parametrize("n", (1, 2, 16, 64))
    @pytest.mark.parametrize("w", (0.0, 1e-3, 0.9 * np.exp(0.7j)))
    @pytest.mark.parametrize("c", (np.exp(0.3j), -1.0, 1j))
    def test_closed_form_on_monomial(self, n, w, c, monkeypatch):
        theta = InnerFunction.blaschke([0.0] * n, const=c)
        p = np.zeros(n + 1, dtype=complex)
        p[0], p[-1] = c, -w
        companion = np.roots(p)
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            u = mpmath.mpc(complex(w)) / mpmath.mpc(complex(c))
            exact = np.array([complex(mpmath.root(u, n, k))
                              for k in range(n)])
        monkeypatch.setattr(np, "roots", None)    # no companion matrix
        roots = solve_theta_equals(theta, w)
        assert roots.size == n
        assert self.set_gap(roots, exact) <= 1e-14
        # np.roots itself misses the exact roots by up to 2e-14 at
        # n = 64, w = 1e-3
        assert self.set_gap(roots, companion) <= 1e-14 + \
            self.set_gap(companion, exact)
        if w == 0:
            assert not roots.any()


class TestBoundary:
    def test_finite_blaschke_empty(self):
        pts, evidence = essential_spectrum(InnerFunction.monomial(2))
        assert pts == []

    def test_atomic_mass_point(self):
        theta = InnerFunction.atomic([(1.0, 1.0)])
        pts, evidence = essential_spectrum(theta)
        assert len(pts) == 1
        assert pts[0] == pytest.approx(1.0, abs=1e-12)
        assert evidence[pts[0]] < 1e-6

    def test_product(self):
        theta = InnerFunction.product([InnerFunction.blaschke([0.5]),
                                       InnerFunction.atomic([(1.0, 1.0)])])
        pts, _ = essential_spectrum(theta)
        assert [complex(p) for p in pts] == [1.0 + 0.0j]

    def test_adc_finite_blaschke(self):
        res = adc_test(InnerFunction.monomial(2), 1j)
        assert res.has_adc
        assert not res.diverging
        assert res.consistent

    def test_adc_fails_at_mass_point(self):
        theta = InnerFunction.atomic([(1.0, 1.0)])
        res = adc_test(theta, 1.0)
        assert not res.has_adc
        assert res.diverging
        assert res.consistent
        assert all(b > a for a, b in zip(res.norms, res.norms[1:]))
        assert res.norms[-1] > 1e3
        assert res.norms[0] == pytest.approx(5.679, rel=1e-2)

    def test_adc_away_from_mass_point(self):
        theta = InnerFunction.atomic([(1.0, 1.0)])
        res = adc_test(theta, -1.0)
        assert res.has_adc
        assert not res.diverging
        assert res.consistent
        assert res.norms[-1] == pytest.approx(np.sqrt(0.5), rel=1e-3)


class TestClassify:
    def test_resolvent_inside(self):
        out = classify(twist_space(), 0.0)
        assert out.verdict == "resolvent-point"
        assert out.region == "inside"
        assert out.det_value == pytest.approx(0.375, abs=1e-12)

    def test_eigenvalue_inside(self):
        lam = 0.375 ** 0.25 * np.exp(3j * np.pi / 4)
        out = classify(twist_space(), lam)
        assert out.verdict == "eigenvalue"
        assert out.kernel_dim == 1

    def test_resolvent_nilpotent(self):
        out = classify(nilpotent_space(), 0.5)
        assert out.verdict == "resolvent-point"

    def test_boundary_resolvent(self):
        out = classify(nilpotent_space(), 1.0)
        assert out.region == "boundary"
        assert out.verdict == "resolvent-point"
