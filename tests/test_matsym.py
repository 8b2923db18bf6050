"""Pointwise inverses, solves and tails of sampled matrix symbols."""

import os
import warnings

import numpy as np
import pytest

from dualband import SingularOperatorError
from dualband.factorization import (canonical_factors, hminus_split,
                                    meromorphic_factors, resolvent_apply,
                                    verify_factorization)
from dualband.matsym import MatrixSymbol, _live_entries, apply_rows
from dualband.scenario import build_space, parse_scenario
from dualband.symbols import fft_freqs, grid_fft

SCENARIOS = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def scenario(name):
    scn = parse_scenario(os.path.join(SCENARIOS, f"{name}.scn"))
    return scn, build_space(scn)


def stack_symbol(a):
    """MatrixSymbol of a (G, r, c) stack of matrices."""
    return MatrixSymbol(np.moveaxis(np.asarray(a, dtype=complex), 0, 2))


def svd_cond(sym):
    """Spectral global bound max_z s_1(z) / min_z s_4(z)."""
    sv = np.linalg.svd(np.moveaxis(sym.values, 2, 0), compute_uv=False)
    return float(sv[:, 0].max() / sv[:, -1].min())


def random_stack(rng, G=64):
    a = rng.standard_normal((G, 4, 4)) + 1j * rng.standard_normal((G, 4, 4))
    return a * rng.uniform(0.1, 10.0, size=(G, 1, 1))


def scenario_factor_stacks():
    for name in ("blaschke_twist", "case_ii", "nilpotent"):
        scn, sp = scenario(name)
        for lam in scn.lambdas:
            res = canonical_factors(sp, lam)
            yield f"{name}-{lam}-minus", res.minus
            yield f"{name}-{lam}-plus_inverse", res.plus_inverse
        for R in scn.rfactors:
            yield f"{name}-{R!r}", meromorphic_factors(sp, R).plus_inverse


class TestConditionBound:
    def test_sandwich_on_scenario_factors(self):
        seen = 0
        for label, sym in scenario_factor_stacks():
            ref = svd_cond(sym)
            _, cond = sym.pointwise_inverse()
            assert ref * (1 - 1e-12) <= cond <= 4 * ref * (1 + 1e-12), label
            seen += 1
        assert seen >= 30

    @pytest.mark.parametrize("seed", range(6))
    def test_sandwich_on_random_stacks(self, seed):
        sym = stack_symbol(random_stack(np.random.default_rng(seed)))
        ref = svd_cond(sym)
        _, cond = sym.solve_values(np.ones((4, sym.grid)))
        assert ref * (1 - 1e-12) <= cond <= 4 * ref * (1 + 1e-12)

    def test_near_singular_stack_refused(self):
        rng = np.random.default_rng(3)
        q1, _ = np.linalg.qr(random_stack(rng, 32))
        q2, _ = np.linalg.qr(random_stack(rng, 32))
        s = np.array([1.0, 0.5, 0.3, 1e-13])
        sym = stack_symbol(q1 * s @ q2)
        assert svd_cond(sym) == pytest.approx(1e13, rel=1e-2)
        with pytest.raises(SingularOperatorError, match="ill conditioned"):
            sym.pointwise_inverse()
        with pytest.raises(SingularOperatorError, match="ill conditioned"):
            sym.solve_values(np.ones((4, 32)))


@pytest.mark.parametrize("as_errors", [False, True])
class TestSingularInput:
    def check(self, a, as_errors):
        sym = stack_symbol(a)
        with warnings.catch_warnings():
            warnings.simplefilter("error" if as_errors else "default")
            with pytest.raises(SingularOperatorError):
                sym.pointwise_inverse()
            with pytest.raises(SingularOperatorError):
                sym.solve_values(np.ones((4, sym.grid)))

    def test_exactly_singular_point(self, as_errors):
        a = np.tile(np.eye(4, dtype=complex), (16, 1, 1))
        a[5, 2, 2] = 0.0
        self.check(a, as_errors)

    def test_nan_entry(self, as_errors):
        a = np.tile(np.eye(4, dtype=complex), (16, 1, 1))
        a[9, 0, 3] = np.nan
        self.check(a, as_errors)

    def test_overflowing_norm(self, as_errors):
        self.check(np.tile(1e200 * np.eye(4, dtype=complex), (16, 1, 1)),
                   as_errors)


class TestSolve:
    def test_matches_lapack_solve(self):
        rng = np.random.default_rng(11)
        a = random_stack(rng, 128) + 8 * np.eye(4)
        v = rng.standard_normal((4, 128)) + 1j * rng.standard_normal((4, 128))
        x, _ = stack_symbol(a).solve_values(v)
        want = np.linalg.solve(a, v.T[..., None])[..., 0].T
        assert np.max(np.abs(x - want)) <= 1e-14 * np.max(np.abs(want))

    def test_no_svd_on_the_factor_path(self, monkeypatch):
        scn, sp = scenario("blaschke_twist")
        calls = []

        def counting(name):
            real = getattr(np.linalg, name)

            def counted(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)

        for name in ("svd", "det", "inv", "solve"):
            counting(name)
        res = canonical_factors(sp, 0.3)
        verify_factorization(res)
        hminus_split(sp, scn.rfactors[0])
        resolvent_apply(sp, 0.3, np.ones(2 * sp.n))
        assert not calls


def sparse_pair(seed, G=256):
    """Random (4, 4, G) stacks with some entries zero on the whole grid,
    as in the factor symbols."""
    rng = np.random.default_rng(seed)
    a, b = (np.moveaxis(random_stack(rng, G), 0, 2) for _ in range(2))
    a[rng.random((4, 4)) < 0.4] = 0
    b[rng.random((4, 4)) < 0.4] = 0
    return a, b


def stacked_matmul(a, b):
    return np.moveaxis(np.moveaxis(a, 2, 0) @ np.moveaxis(b, 2, 0), 0, 2)


def unskipped_matmul(a, b):
    """out[i, k] = sum_j a[i, j] b[j, k] over every j, in increasing j."""
    out = np.empty((a.shape[0], b.shape[1], a.shape[2]), dtype=complex)
    for i in range(a.shape[0]):
        for k in range(b.shape[1]):
            out[i, k] = sum(a[i, j] * b[j, k] for j in range(a.shape[1]))
    return out


def factor_products():
    for name in ("blaschke_twist", "case_ii", "nilpotent"):
        scn, sp = scenario(name)
        res = canonical_factors(sp, scn.lambdas[0])
        plus, _ = res.plus_inverse.pointwise_inverse()
        yield res.symbol, res.plus_inverse
        yield res.minus, plus


class TestMatmul:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_stacked_matmul(self, seed):
        a, b = sparse_pair(seed)
        got = MatrixSymbol(a).matmul(MatrixSymbol(b)).values
        fro = [np.sqrt((np.abs(x) ** 2).sum(axis=(0, 1))) for x in (a, b)]
        bound = 4 * np.finfo(float).eps * fro[0] * fro[1]
        assert np.all(np.abs(got - stacked_matmul(a, b)) <= bound)

    @pytest.mark.parametrize("seed", range(6))
    def test_skipping_zeros_keeps_every_bit(self, seed):
        a, b = sparse_pair(seed)
        got = MatrixSymbol(a).matmul(MatrixSymbol(b)).values
        assert np.array_equal(got, unskipped_matmul(a, b))

    def test_skipping_zeros_keeps_every_bit_on_factors(self):
        for x, y in factor_products():
            assert np.array_equal(x.matmul(y).values,
                                  unskipped_matmul(x.values, y.values))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    @pytest.mark.parametrize("left", [True, False])
    def test_non_finite_meets_zero_entry(self, bad, left):
        a, b = sparse_pair(7, G=32)
        if left:
            a[1, 2, 5] = bad
            b[2] = 0        # row 2 of b faces the bad sample
        else:
            b[2, 1, 9] = bad
            a[:, 2] = 0     # column 2 of a faces it
        with np.errstate(invalid="ignore"):
            got = MatrixSymbol(a).matmul(MatrixSymbol(b)).values
            want = stacked_matmul(a, b)
        assert not np.all(np.isfinite(want))
        assert np.array_equal(np.isfinite(got), np.isfinite(want))


def same_bits(x, y):
    """Equal arrays down to the sign of every zero."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint8),
                                                  y.view(np.uint8))


class TestRows:
    """A row literal: sample arrays, and numbers constant on the grid."""

    def test_equals_the_stacked_array_bit_for_bit(self):
        rng = np.random.default_rng(3)
        G = 32
        a = rng.standard_normal(G) + 1j * rng.standard_normal(G)
        r = rng.standard_normal(G)          # a real row becomes complex
        got = MatrixSymbol.rows(G, [[a, 0, 2.5], [-1j, r, a * r]]).values
        want = np.array([[a, np.zeros(G, dtype=complex), np.full(G, 2.5 + 0j)],
                         [np.full(G, -1j), r + 0j, a * r]])
        assert got.dtype == complex
        assert same_bits(got, want)

    def test_number_zero_is_a_structural_zero(self):
        rng = np.random.default_rng(11)
        a, b = (np.moveaxis(random_stack(rng), 0, 2) for _ in range(2))
        sym = MatrixSymbol.rows(64, [[a[i, j] if (i + j) % 3 else 0
                                      for j in range(4)] for i in range(4)])
        assert _live_entries(sym.values) == [[bool((i + j) % 3)
                                              for j in range(4)]
                                             for i in range(4)]
        got = sym.matmul(MatrixSymbol(b)).values
        assert np.array_equal(got, unskipped_matmul(sym.values, b))

    def test_number_zero_still_meets_nan(self):
        a, b = sparse_pair(12, G=32)
        b[0, 1, 4] = np.nan         # row 0 of b faces the zero column 0
        sym = MatrixSymbol.rows(32, [[0, *a[i, 1:]] for i in range(4)])
        with np.errstate(invalid="ignore"):
            got = sym.matmul(MatrixSymbol(b)).values
            want = stacked_matmul(sym.values, b)
        assert np.isnan(want[:, 1, 4]).all()
        assert np.array_equal(np.isfinite(got), np.isfinite(want))


class TestApply:
    """``apply_rows``, the one apply routine, on a literal and a stack."""

    def test_literal_matches_its_stack(self):
        rng = np.random.default_rng(5)
        G = 64
        a, b = (rng.standard_normal(G) + 1j * rng.standard_normal(G)
                for _ in range(2))
        lit = [[a, 0, 2.5], [0, b, -1j]]
        v = rng.standard_normal((3, G)) + 1j * rng.standard_normal((3, G))
        sym = MatrixSymbol.rows(G, lit)
        got = apply_rows(lit, v)
        assert same_bits(got, apply_rows(sym.values, v))
        want = np.einsum("ijg,jg->ig", sym.values, v)
        assert np.max(np.abs(got - want)) <= \
            4 * np.finfo(float).eps * np.max(np.abs(want))

    def test_number_zero_is_skipped_against_nan(self):
        v = np.ones((2, 8), dtype=complex)
        v[0, 3] = np.nan
        got = apply_rows([[1.0, 0], [0, 2.0]], v)
        assert np.isnan(got[0, 3]) and np.isfinite(got[1]).all()


def hadamard_bound(values):
    """Pointwise product of the row norms, which bounds |det|."""
    return np.prod(np.sqrt((np.abs(values) ** 2).sum(axis=1)), axis=0)


class TestDet:
    # Relative to |det| the two algorithms can differ by more: case_ii's
    # minus factor at lam = 3 has entries near 3e3 and det 0.25, and the
    # minors reach the exact constant within 3.9e-14 where LU reaches it
    # within 7e-15.  The row-norm product is the scale both errors share.
    def check(self, sym):
        want = np.linalg.det(np.moveaxis(sym.values, 2, 0))
        err = np.abs(sym.det_values() - want)
        assert np.all(err <= 1e-13 * hadamard_bound(sym.values))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lu_on_random_stacks(self, seed):
        a, _ = sparse_pair(seed)
        self.check(stack_symbol(random_stack(np.random.default_rng(seed))))
        self.check(MatrixSymbol(a))

    def test_matches_lu_on_scenario_factors(self):
        for label, sym in scenario_factor_stacks():
            self.check(sym)

    def test_rejects_other_shapes(self):
        with pytest.raises(ValueError):
            MatrixSymbol(np.ones((3, 3, 8))).det_values()


class TestTail:
    def test_max_tail_matches_entrywise_reference(self):
        rng = np.random.default_rng(5)
        sym = stack_symbol(random_stack(rng, 4096))
        freqs = fft_freqs(4096)
        for band in (lambda f: f < 0, lambda f: f > 3):
            want = max(float(np.sum(np.abs(grid_fft(sym.values[i, j])
                                           [band(freqs)]) ** 2))
                       for i in range(4) for j in range(4))
            assert sym.max_tail(band) == want
