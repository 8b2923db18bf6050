"""Pointwise inverses, solves and tails of sampled matrix symbols."""

import os
import warnings

import numpy as np
import pytest

from dualband import SingularOperatorError
from dualband.factorization import (canonical_factors, meromorphic_factors,
                                    resolvent_apply, verify_factorization)
from dualband.matsym import MatrixSymbol
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
        _, sp = scenario("blaschke_twist")
        calls = []
        svd = np.linalg.svd

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        res = canonical_factors(sp, 0.3)
        verify_factorization(res)
        resolvent_apply(sp, 0.3, np.ones(2 * sp.n))
        assert not calls


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
