"""Laurent symbol arithmetic, inner functions, grids."""

import warnings

import numpy as np
import pytest

from dualband import (CoefficientError, InnerFunction, LaurentSymbol,
                      ModelSpaceBasis, PoleError, solve_theta_equals)
from dualband.dual_band import build_dualband
from dualband.scenario import parse_expression
from dualband.symbols import (GRID_CAP, TAU_EVAL, TAU_ROOT,
                              analytic_project_values, choose_grid,
                              difference_quotient, fft_freqs, grid_fft,
                              grid_ifft, grid_points, refine_grid)


def coeffs_of(sym, G=64):
    return sym.coeff_dict(G=G, tol=1e-13)


def grid_coeffs(values, tol=1e-13):
    """{frequency: coefficient} of grid samples, above tol."""
    freqs = fft_freqs(values.size)
    return {int(k): c for k, c in zip(freqs, grid_fft(values)) if abs(c) > tol}


def negative_energy(values):
    """Energy of the negative frequencies of grid samples."""
    c = grid_fft(values)
    return float(np.sum(np.abs(c[fft_freqs(values.size) < 0]) ** 2))


def folded(coeffs, lo, G):
    """Reference grid samples of sum coeffs[i] z**(lo + i): each
    coefficient added at FFT index (lo + i) mod G, one inverse FFT."""
    c = np.zeros(G, dtype=complex)
    for i, v in enumerate(coeffs):
        c[(lo + i) % G] += v
    return grid_ifft(c)


def grid_reference(obj, G):
    if isinstance(obj, InnerFunction):
        return obj.eval_at(grid_points(G))
    if obj.kind == "laurent":
        return folded(obj.coeffs, obj.offset, G)
    return folded(obj.num, obj.shift, G) / folded(obj.den, 0, G)


def twist_space(n, a):
    """psi = conj(z^n) (z^2n - a) / (1 - a z^2n) over theta = z^n."""
    num = np.zeros(2 * n + 1)
    den = np.zeros(2 * n + 1)
    num[0], num[2 * n] = -a, 1.0
    den[0], den[2 * n] = 1.0, -a
    psi = LaurentSymbol.monomial(n).conj() * LaurentSymbol.rational(num, den)
    return build_dualband(InnerFunction.monomial(n),
                          phi=LaurentSymbol.constant(1.0), psi=psi)


class TestEval:
    def test_monomial_square(self):
        th = InnerFunction.monomial(2)
        assert th.eval_at(0.5) == pytest.approx(0.25)

    def test_blaschke_factor_at_origin(self):
        th = InnerFunction.blaschke([0.5])
        assert th.eval_at(0.0) == pytest.approx(-0.5)

    def test_atomic_at_origin(self):
        th = InnerFunction.atomic([(1.0, 1.0)])
        assert th.eval_at(0.0) == pytest.approx(np.exp(-1.0))

    @pytest.mark.parametrize("n", (1, 3, 64, 100))
    @pytest.mark.parametrize("G", (2, 64, 16384))
    def test_monomial_samples_are_grid_powers(self, n, G):
        gather = grid_points(G)[np.arange(G) * n % G]
        assert np.array_equal(InnerFunction.monomial(n).sample(G), gather)
        # a front constant costs one complex product per sample, whose
        # last bit numpy's vector loops may round either way
        c = np.exp(0.3j)
        th = InnerFunction.blaschke([0.0] * n, const=c)
        assert np.max(np.abs(th.sample(G) - c * gather)) <= 4e-16

    def test_eval_matches_sample(self):
        s = LaurentSymbol.rational([1.0, 0.3], [1.0, 0.0, -0.5])
        z = grid_points(32)
        vals = s.sample(32)
        for k in (0, 5, 17):
            assert s.eval_at(z[k]) == pytest.approx(vals[k])

    def test_pole_on_circle_rejected(self):
        with pytest.raises(PoleError):
            LaurentSymbol.rational([1.0], [1.0, -1.0])


class TestCoefficients:
    def test_monomial_coeff(self):
        c = coeffs_of(LaurentSymbol.monomial(3), G=16)
        assert c == {3: pytest.approx(1.0)}

    def test_geometric_expansion(self):
        # 0.75 / (1 - 0.5 zbar^4) has coefficients 0.75 * 0.5^k at -4k
        s = LaurentSymbol.rational([0.75], [1, 0, 0, 0, -0.5]).conj()
        c = s.coeff_dict(G=256, tol=1e-15)
        for k in range(6):
            assert c[-4 * k] == pytest.approx(0.75 * 0.5 ** k, abs=1e-12)
        assert abs(c.get(-1, 0.0)) < 1e-13
        assert abs(c.get(1, 0.0)) < 1e-13

    def test_conj_reflects_index(self):
        c = coeffs_of(LaurentSymbol.monomial(3).conj(), G=16)
        assert c == {-3: pytest.approx(1.0)}

    def test_roundtrip_exact(self):
        coeffs = {-2: 1.5, 0: -0.25j, 3: 2.0 + 1.0j}
        s = LaurentSymbol.from_coeffs(coeffs)
        back = s.coeff_dict(G=16, tol=0.0)
        for j, c in coeffs.items():
            assert back[j] == pytest.approx(c, abs=1e-14)

    def test_parseval(self):
        s = LaurentSymbol.from_coeffs({-1: 1.0, 0: 3.0, 1: 1.0})
        vals = s.sample(32)
        grid_mean = float(np.mean(np.abs(vals) ** 2))
        assert grid_mean == pytest.approx(11.0, abs=1e-12)

    @pytest.mark.parametrize("make", [
        lambda: LaurentSymbol.from_coeffs({-2: 1.5, 0: -0.25j, 3: 2 + 1j}),
        lambda: LaurentSymbol.monomial(2).conj() * LaurentSymbol.rational(
            [-0.5, 0, 0, 0, 1], [1, 0, 0, 0, -0.5]),
        lambda: InnerFunction.blaschke([0.3, -0.5j, 0.2 + 0.4j]).as_symbol(),
    ], ids=["laurent", "twist_ratio", "theta"])
    @pytest.mark.parametrize("tol", [0.0, 1e-15])
    def test_coeff_dict_matches_comprehension(self, make, tol):
        s = make()
        c, lo = s.fourier_coeffs()
        want = {lo + i: v for i, v in enumerate(c) if abs(v) > tol}
        got = s.coeff_dict(tol=tol)
        assert list(got) == list(want)
        assert [type(k) for k in got] == [type(k) for k in want]
        assert list(got.values()) == list(want.values())
        assert [type(v) for v in got.values()] == \
            [type(v) for v in want.values()]


class TestArithmetic:
    def test_monomial_product(self):
        s = LaurentSymbol.monomial(2) * LaurentSymbol.monomial(3).conj()
        assert coeffs_of(s, G=16) == {-1: pytest.approx(1.0)}

    def test_conj_of_mixture(self):
        s = LaurentSymbol.from_coeffs({-1: 1.0, 2: 2.0}).conj()
        assert coeffs_of(s, G=16) == {1: pytest.approx(1.0),
                                      -2: pytest.approx(2.0)}

    def test_conj_involution(self):
        s = LaurentSymbol.from_coeffs({-2: 1.0 + 2.0j, 1: -0.5j})
        back = s.conj().conj().coeff_dict(G=16, tol=0.0)
        assert back[-2] == pytest.approx(1.0 + 2.0j, abs=1e-14)
        assert back[1] == pytest.approx(-0.5j, abs=1e-14)

    def test_blaschke_times_conj_is_one(self):
        b = InnerFunction.blaschke([0.5]).as_symbol()
        prod = (b * b.conj()).sample(64)
        assert np.max(np.abs(prod - 1.0)) < 1e-12


class TestDenominatorCheck:
    """Raw rationals root-check their denominator; products, sums and
    conjugates of checked rationals do not repeat it."""

    @staticmethod
    def operands():
        a = LaurentSymbol.rational([-0.5, 0, 0, 0, 1], [1, 0, 0, 0, -0.5])
        b = InnerFunction.blaschke([0.3, -0.5j, 0.2 + 0.4j]).as_symbol()
        c = LaurentSymbol.rational([1.0, 0.3j], [1.0, 0.2 - 0.1j, 0.4], 2)
        return a, b, c, LaurentSymbol.from_coeffs({-2: 0.5, 1: 1.0 - 1.0j})

    @staticmethod
    def derived(a, b, c, d):
        return [a * b, b * c, c * d, a + b, b + c, c - d, 2.0 + c,
                a.conj(), b.conj(), c.conj(), (a * c).conj()]

    @pytest.mark.parametrize("den", ([1.0, -1.0], [1.0, 0.0, 1.0],
                                     [2.0, 0.0, 0.0, -2.0j]))
    def test_raw_root_on_circle_raises(self, den):
        with pytest.raises(PoleError):
            LaurentSymbol.rational([1.0, 0.5], den)
        with pytest.raises(PoleError):
            LaurentSymbol("rational", num=[1.0, 0.5], den=den)

    def test_derived_make_no_roots_call(self, monkeypatch):
        ops = self.operands()
        calls = []
        roots = np.roots

        def counting(p):
            calls.append(len(p))
            return roots(p)

        monkeypatch.setattr(np, "roots", counting)
        out = self.derived(*ops)
        assert calls == []
        assert all(s.kind == "rational" for s in out)
        LaurentSymbol.rational([1.0], [1.0, 0.1, -0.25])
        assert calls == [3]

    @pytest.mark.parametrize("m", (1, 2, 5, 128))
    @pytest.mark.parametrize("rho", (1 + 2 * TAU_ROOT, 1 - 2 * TAU_ROOT,
                                     1 + 0.5 * TAU_ROOT, 1 - 0.5 * TAU_ROOT,
                                     0.5, 2.0))
    def test_binomial_decides_as_roots(self, monkeypatch, m, rho):
        # d0 + dm z^m with every root at modulus rho
        den = np.zeros(m + 1, dtype=complex)
        den[0], den[m] = 1.0, -np.exp(0.3j) / rho ** m
        pole = bool(np.any(np.abs(np.abs(np.roots(den[::-1])) - 1.0)
                           <= TAU_ROOT))
        assert pole == (abs(rho - 1.0) <= TAU_ROOT)
        calls = []
        monkeypatch.setattr(np, "roots", lambda p: calls.append(p))
        if pole:
            with pytest.raises(PoleError):
                LaurentSymbol.rational([1.0], den)
        else:
            LaurentSymbol.rational([1.0], den)
        assert calls == []

    def test_binomial_on_circle_raises(self):
        with pytest.raises(PoleError):
            LaurentSymbol.rational([1.0], [1.0, 0.0, 0.0, 0.0, -1.0])

    def test_twist_makes_no_roots_call(self, monkeypatch):
        calls = []
        roots = np.roots

        def counting(p):
            calls.append(len(p))
            return roots(p)

        monkeypatch.setattr(np, "roots", counting)
        twist_space(64, 0.5)
        assert calls == []

    @pytest.mark.parametrize("warn_as_error", [False, True],
                             ids=["default", "W-error"])
    def test_unlocatable_roots_raise_typed(self, warn_as_error):
        # n = 768 zeros with |a| <= 0.5: the top coefficient of
        # prod(1 - conj(a) z) is so small that the companion matrix of
        # np.roots overflows; a tiny top coefficient does it directly
        rng = np.random.default_rng(5)
        n = 768
        zeros = 0.5 * np.sqrt(rng.uniform(size=n)) * \
            np.exp(2j * np.pi * rng.uniform(size=n))
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("error" if warn_as_error else "always")
            with pytest.raises(CoefficientError, match="double precision"):
                build_dualband(InnerFunction.blaschke(zeros),
                               aplus=LaurentSymbol.constant(0.8 + 0.1j),
                               aminus=LaurentSymbol.constant(0.6))
            with pytest.raises(CoefficientError, match="degree-2"):
                LaurentSymbol.rational([1.0], [1.0, 0.5, 1e-320])
        assert seen == []

    def test_derived_match_the_checked_build(self):
        # what each operator built before its check was dropped: the
        # same coefficients through the root-checked constructor
        a, b, c, d = self.operands()
        prod = a * b
        assert np.array_equal(prod.num, np.convolve(a.num, b.num))
        assert np.array_equal(prod.den, np.convolve(a.den, b.den))
        for s in self.derived(a, b, c, d):
            ref = LaurentSymbol.rational(s.num, s.den, s.shift)
            assert ref.num.tobytes() == s.num.tobytes()
            assert ref.den.tobytes() == s.den.tobytes()
            assert ref.shift == s.shift
            for G in (64, 4096):
                assert s.sample(G).tobytes() == ref.sample(G).tobytes()


A_NUM = np.array([1.0, -0.5j, 0.25])
B = LaurentSymbol.from_coeffs({-1: 0.3j, 2: 1.0})
AB_NUM = np.convolve(A_NUM, B.coeffs)
C_THETA = np.exp(0.3j)


class TestConstantDenominator:
    """A rational over a constant c is the Laurent polynomial num / c.
    Each row gives the rational form the object had before: its samples
    are that form's bits, and its span sizes its grid."""

    @pytest.mark.parametrize("build, num, den, shift", [
        (lambda: LaurentSymbol.rational(A_NUM, [2.0], -1), A_NUM, [2.0], -1),
        (lambda: LaurentSymbol.rational([0.5, 1.0], [1.0, 0.0, 0.0]),
         [0.5, 1.0], [1.0], 0),
        (lambda: LaurentSymbol.rational(A_NUM, [2.0], -1) * B,
         AB_NUM, [2.0], -2),
        (lambda: (LaurentSymbol.rational(A_NUM, [2.0], -1) * B).conj(),
         np.conj(AB_NUM[::-1]), [2.0], -(AB_NUM.size - 3)),
        (lambda: parse_expression("rat([0.75, 0, -0.5], [1], 2)"),
         [0.75, 0.0, -0.5], [1.0], 2),
        (lambda: InnerFunction.monomial(5).as_symbol(), [1.0], [1.0], 5),
        (lambda: InnerFunction.blaschke([0.0] * 3, const=C_THETA).as_symbol(),
         *InnerFunction.blaschke([0.0] * 3, const=C_THETA).polynomials(), 0),
    ], ids=["rational", "trailing-zeros", "product", "conj", "scenario-rat",
            "inner-monomial", "inner-monomial-const"])
    def test_laurent_kind_with_the_rational_bits(self, build, num, den,
                                                 shift):
        sym = build()
        assert sym.kind == "laurent"
        for G in (16, 64, 1024):
            want = folded(num, shift, G) / folded(den, 0, G)
            assert same_bits(sym.sample(G), want)
        # the span rule's floor, where the rational forms took 64 to 256
        assert choose_grid([sym]) == 64

    def test_constant_zero_denominator_raises(self):
        with pytest.raises(PoleError, match="vanishes at z = 0"):
            LaurentSymbol.rational([1.0], [0.0])


class TestSplitAndTails:
    def test_analytic_split_parts(self):
        s = LaurentSymbol.from_coeffs({-1: 1.0, 0: 3.0, 1: 1.0})
        plus = analytic_project_values(s.sample(16))
        minus = s.sample(16) - plus
        assert grid_coeffs(plus) == {
            0: pytest.approx(3.0), 1: pytest.approx(1.0)}
        assert grid_coeffs(minus) == {-1: pytest.approx(1.0)}

    def test_split_sum_reconstructs(self):
        s = LaurentSymbol.from_coeffs({-3: 2.0j, -1: 1.0, 2: -0.5})
        plus = analytic_project_values(s.sample(32))
        minus = s.sample(32) - plus
        want_plus = LaurentSymbol.from_coeffs({2: -0.5}).sample(32)
        want_minus = LaurentSymbol.from_coeffs({-3: 2.0j, -1: 1.0}).sample(32)
        assert np.max(np.abs(plus - want_plus)) < 1e-13
        assert np.max(np.abs(minus - want_minus)) < 1e-13

    def test_tail_energy_coanalytic(self):
        s = LaurentSymbol.monomial(2).conj()
        assert s.tail_energy(lambda j: j < 0) == pytest.approx(1.0)
        assert LaurentSymbol.monomial(3).tail_energy(lambda j: j < 0) \
            < 1e-30

    def test_geometric_tail_closed_form(self):
        # strictly negative part of the geometric expansion above:
        # 0.75^2 * (0.25 / (1 - 0.25)) = 0.1875
        s = LaurentSymbol.rational([0.75], [1, 0, 0, 0, -0.5]).conj()
        tail = s.tail_energy(lambda j: j < 0, G=512)
        assert tail == pytest.approx(0.1875, abs=1e-10)


class TestUnimodular:
    """|s| = 1 on the grid, to the pointwise tolerance TAU_EVAL."""

    @staticmethod
    def unimodular(s, G=1024):
        return np.max(np.abs(np.abs(s.sample(G)) - 1.0)) <= TAU_EVAL

    def test_monomial_unimodular(self):
        assert self.unimodular(LaurentSymbol.monomial(3))

    def test_scaled_not_unimodular(self):
        s = LaurentSymbol.monomial(1) * LaurentSymbol.constant(2.0)
        assert not self.unimodular(s)

    def test_twisted_band_unimodular(self):
        s = LaurentSymbol.monomial(2).conj() * \
            LaurentSymbol.rational([-0.5, 0, 0, 0, 1], [1, 0, 0, 0, -0.5])
        assert self.unimodular(s)


class TestInnerFunctions:
    def test_blaschke_zero_outside_disc_rejected(self):
        with pytest.raises(ValueError):
            InnerFunction.blaschke([1.0])

    def test_atomic_has_no_coefficients(self):
        th = InnerFunction.atomic([(1.0, 1.0)])
        with pytest.raises(CoefficientError):
            th.as_symbol()

    def test_degree_and_zeros(self):
        th = InnerFunction.blaschke([0.0, 0.5])
        assert th.zeros.size == 2
        assert sorted(th.zeros, key=abs) == [0.0, 0.5]

    def test_product_eval(self):
        th = InnerFunction.product([InnerFunction.monomial(1),
                                    InnerFunction.blaschke([0.5])])
        assert th.eval_at(0.3) == pytest.approx(0.3 * (0.3 - 0.5) /
                                                (1 - 0.5 * 0.3))

    def test_boundary_values_unimodular(self):
        th = InnerFunction.blaschke([0.3, -0.2 + 0.4j])
        vals = th.sample(128)
        assert np.max(np.abs(np.abs(vals) - 1.0)) < 1e-12


MASSIVE = {
    "atomic": lambda: InnerFunction.atomic([(1.0, 1.0)]),
    "blaschke-atomic": lambda: InnerFunction.product(
        [InnerFunction.blaschke([0.5]), InnerFunction.atomic([(1.0, 1.0)])]),
    # every zero at the origin, yet not theta = c z^n
    "monomial-atomic": lambda: InnerFunction.product(
        [InnerFunction.monomial(2), InnerFunction.atomic([(-1.0, 0.5)])]),
}


@pytest.mark.parametrize("name", sorted(MASSIVE))
class TestMassPointsRefused:
    def test_not_monomial(self, name):
        assert not MASSIVE[name]().is_monomial

    def test_no_model_space_basis(self, name):
        with pytest.raises(ValueError, match="finite Blaschke"):
            ModelSpaceBasis(MASSIVE[name]())

    def test_no_symbol(self, name):
        with pytest.raises(CoefficientError):
            MASSIVE[name]().as_symbol()

    def test_no_closed_form_roots(self, name):
        with pytest.raises(CoefficientError):
            solve_theta_equals(MASSIVE[name](), 0.3)


class TestGrids:
    def test_refine_grid_terminates(self):
        s = LaurentSymbol.rational([1.0], [1.0, -0.9])
        G, alias = refine_grid(s, start=1024)
        assert G >= 1024 and (G & (G - 1)) == 0
        assert alias < 1e-12

    def test_choose_grid_raises_above_cap(self):
        # the span 2**19 needs G = 2**21, twice the cap
        assert choose_grid([LaurentSymbol.monomial(2 ** 18)]) == GRID_CAP
        with pytest.raises(CoefficientError, match="G=2097152"):
            choose_grid([LaurentSymbol.monomial(2 ** 19)])

    def test_grid_points_one_readonly_array(self):
        z = grid_points(64)
        assert grid_points(64) is z
        assert z.tobytes() == np.exp(2j * np.pi * np.arange(64) / 64).tobytes()
        with pytest.raises(ValueError):
            z[0] = 0.0

    def test_analytic_projection_kills_negative(self):
        s = LaurentSymbol.from_coeffs({-2: 1.0, 1: 1.0})
        vals = analytic_project_values(s.sample(32))
        assert negative_energy(vals) < 1e-26


def same_bits(x, y):
    """Equal arrays down to the sign of every zero."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint8),
                                                  y.view(np.uint8))


class TestTransformBits:
    """The transforms scale inside pocketfft; a power of two scales
    exactly, so the bits are those of scaling after the transform."""

    @pytest.mark.parametrize("shape", [(), (4,), (4, 4)])
    @pytest.mark.parametrize("k", range(1, 16))
    def test_same_bits_as_scale_after(self, k, shape):
        G = 2 ** k
        rng = np.random.default_rng(k)
        x = rng.standard_normal((*shape, G)) + \
            1j * rng.standard_normal((*shape, G))
        assert same_bits(grid_fft(x), np.fft.fft(x) / G)
        assert same_bits(grid_ifft(x), np.fft.ifft(x) * G)

    def test_analytic_half_is_the_first_half(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((4, 64)) + 1j * rng.standard_normal((4, 64))
        c = grid_fft(x)
        c[:, fft_freqs(64) < 0] = 0.0
        assert same_bits(analytic_project_values(x), grid_ifft(c))

    @pytest.mark.parametrize("z", [0.3 - 0.2j, np.array([0.5, -0.4j, 2.0])])
    def test_eval_at_skips_zero_terms_only(self, z):
        c = np.zeros(40, dtype=complex)
        c[[0, 7, 8, 39]] = [0.5, -1.25j, 3.0, 1e-9 + 2e-9j]
        sym = LaurentSymbol.from_coeffs(c, -5)
        zz = np.asarray(z, dtype=complex)
        want = np.zeros(zz.shape, dtype=complex)
        for i, ci in enumerate(sym.coeffs):
            if ci != 0:
                want = want + ci * zz ** (sym.offset + i)
        assert same_bits(sym.eval_at(z), want)


class TestSampleMemo:
    @pytest.mark.parametrize("obj", [
        LaurentSymbol.from_coeffs({-2: 0.5j, 0: 1.0, 3: -0.25}),
        LaurentSymbol.rational([1.0, 0.3], [1.0, 0.0, -0.5], shift=-1),
        InnerFunction.blaschke([0.3, -0.2 + 0.4j]),
    ], ids=["laurent", "rational", "inner"])
    def test_one_readonly_array_per_grid(self, obj):
        v32 = obj.sample(32)
        assert obj.sample(32) is v32
        assert v32.tobytes() == grid_reference(obj, 32).tobytes()
        with pytest.raises(ValueError):
            v32[0] = 0.0
        v64 = obj.sample(64)
        assert v64 is not v32 and v64.size == 64
        assert obj.sample(32) is v32

    def test_exact_kinds_make_no_grid_eval(self, monkeypatch):
        grid_sized = []
        eval_at = LaurentSymbol.eval_at

        def wrapped(self, z):
            if np.size(z) == 64:
                grid_sized.append(self)
            return eval_at(self, z)
        monkeypatch.setattr(LaurentSymbol, "eval_at", wrapped)
        LaurentSymbol.from_coeffs({-2: 0.5j, 0: 1.0, 3: -0.25}).sample(64)
        LaurentSymbol.rational([1.0, 0.3], [1.0, 0.0, -0.5], -1).sample(64)
        assert grid_sized == []

    @pytest.mark.parametrize("obj", [
        LaurentSymbol.from_coeffs({-9: 0.3, 0: 0.5j, 7: 1.0, 23: -0.25}),
        LaurentSymbol.rational([0.2] + [0.0] * 15 + [1.0, 0.3],
                               [1.0, 0.0, -0.5], shift=-11),
    ], ids=["laurent", "rational"])
    def test_terms_a_grid_apart_fold(self, obj):
        # spans wider than G: z**k and z**(k + G) agree on the grid
        z = grid_points(16)
        assert np.max(np.abs(obj.sample(16) - obj.eval_at(z))) <= 1e-14


class TestGridOracle:
    def test_twist_split_and_psi_on_the_grid(self):
        # the twist at n = 64: a split 6273 coefficients wide and a
        # rational psi with poles near the circle, against 40 digits
        mpmath = pytest.importorskip("mpmath")
        G = 16384
        sp = twist_space(64, 0.5)
        assert sp.aminus.support() == (-6272, 0)

        def poly(coeffs, lo, z):
            return mpmath.fsum(mpmath.mpc(complex(c)) * z ** (lo + i)
                               for i, c in enumerate(coeffs) if c != 0)

        with mpmath.workdps(40):
            for sym in (sp.aplus, sp.aminus, sp.psi):
                vals = sym.sample(G)
                for j in range(0, G, 97):
                    z = mpmath.expjpi(mpmath.mpf(2 * j) / G)
                    if sym.kind == "laurent":
                        ref = poly(sym.coeffs, sym.offset, z)
                    else:
                        ref = (poly(sym.num, sym.shift, z)
                               / poly(sym.den, 0, z))
                    assert abs(complex(ref) - vals[j]) <= 2e-15


class TestDifferenceQuotient:
    def test_interior_values(self):
        th = InnerFunction.monomial(2)
        z = grid_points(64)
        dq = difference_quotient(th, 0.3, 64)
        expect = (z ** 2 - 0.09) / (z - 0.3)
        assert np.max(np.abs(dq - expect)) < 1e-12

    def test_fill_at_coincidence(self):
        # at a grid node lam the quotient continues to the derivative
        th = InnerFunction.blaschke([0.5])
        z = grid_points(8)
        lam = z[3]
        dq = difference_quotient(th, lam, 8)
        assert dq[3] == pytest.approx(th.derivative_at(lam))
        rest = np.arange(8) != 3
        expect = (th.eval_at(z[rest]) - th.eval_at(lam)) / (z[rest] - lam)
        assert np.max(np.abs(dq[rest] - expect)) < 1e-12

    def test_quotient_is_analytic(self):
        th = InnerFunction.blaschke([0.0, 0.5])
        vals = difference_quotient(th, 0.4, 256)
        assert np.sqrt(negative_energy(vals)) < 1e-10
