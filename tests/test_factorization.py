"""Explicit factorizations of the extension symbols and the resolvent."""

import glob
import os
from types import SimpleNamespace

import numpy as np
import pytest

from dualband import (EigenvalueEncounteredError, InnerFunction,
                      LaurentSymbol, MissingDecompositionError, NoAdcError,
                      SingularOperatorError, build_G, build_dualband,
                      build_space, canonical_factors, dualband_matrix,
                      hminus_split, kernel_lift, kernel_project, l2_factors,
                      meromorphic_factors, parse_scenario, point_spectrum,
                      resolvent_apply, verify_factorization)
from dualband import cli
from dualband.factorization import COND_WARN
from dualband.matsym import MatrixSymbol
from dualband.symbols import TAU_ALIAS, band_energy

Z = LaurentSymbol.monomial
SCENARIOS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..",
                                          "scenarios", "*.scn")))
# points near the circle on both sides, and far outside
EDGE_LAMBDAS = (0.9999, 1.0001, -1.0001j, 3.0, 10.0)
FINE = 4096


def nilpotent_space():
    return build_dualband(InnerFunction.monomial(2), phi=Z(0), psi=Z(3))


def twist_space():
    psi = Z(2).conj() * LaurentSymbol.rational([-0.5, 0, 0, 0, 1],
                                               [1, 0, 0, 0, -0.5])
    return build_dualband(InnerFunction.monomial(2), phi=Z(0), psi=psi)


def large_twist_space(n=64, a=0.5):
    """The twist band over theta = z^n; at n = 64 its extension grid is
    G = 16384, where one sample array takes 256 KiB."""
    num = [0.0] * (2 * n + 1)
    den = [0.0] * (2 * n + 1)
    num[0], num[2 * n] = -a, 1.0
    den[0], den[2 * n] = 1.0, -a
    psi = Z(n).conj() * LaurentSymbol.rational(num, den)
    return build_dualband(InnerFunction.monomial(n), phi=Z(0), psi=psi)


def two_sided_space():
    return build_dualband(InnerFunction.blaschke([-0.4]),
                          aplus=LaurentSymbol.from_coeffs({0: 2.5}),
                          aminus=LaurentSymbol.from_coeffs({0: 2.5}))


def decoupled_space():
    zero = LaurentSymbol.from_coeffs({0: 0.0})
    return build_dualband(InnerFunction.blaschke([0.5]),
                          aplus=zero, aminus=zero)


class TestCanonical:
    def test_generic_interior(self):
        res = canonical_factors(twist_space(), 0.3)
        assert res.kind == "canonical-generic"
        assert res.det_expected == pytest.approx(-0.3831, abs=1e-12)
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-10
        assert out["reconstruction_residual"] < 1e-9
        assert out["plus_tail"] < 1e-9
        assert out["minus_tail"] < 1e-9
        assert out["det_minus_dev"] < 1e-9
        assert out["det_plus_inverse_dev"] < 1e-9

    def test_degenerate_branch(self):
        sp = two_sided_space()
        res = canonical_factors(sp, 0.2)
        assert "degenerate" in res.kind
        assert res.det_expected == pytest.approx(25.0 / 18.0, abs=1e-10)
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-9
        assert out["det_minus_dev"] < 1e-9

    def test_exterior(self):
        res = canonical_factors(twist_space(), 2.0)
        assert res.extras["region"] == "outside"
        assert res.det_expected == pytest.approx(-1.0234375, abs=1e-12)
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-9
        assert out["det_minus_dev"] < 1e-9

    def test_decoupled_triangular(self):
        res = canonical_factors(decoupled_space(), 0.0)
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-12
        assert res.det_expected == pytest.approx(-0.25, abs=1e-12)

    def test_boundary_with_derivative(self):
        res = canonical_factors(twist_space(), 1.0)
        assert res.det_expected == pytest.approx(-1.375, abs=1e-12)
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-9

    def test_eigenvalue_rejected(self):
        lam = 0.375 ** 0.25 * np.exp(1j * np.pi / 4)
        with pytest.raises(EigenvalueEncounteredError):
            canonical_factors(twist_space(), lam)
        with pytest.raises(EigenvalueEncounteredError):
            canonical_factors(nilpotent_space(), 0.0)

    def test_corruption_is_flagged(self):
        res = canonical_factors(twist_space(), 0.3)
        res.minus.values[2, 0] = res.minus.values[2, 0] + 1e-3
        out = verify_factorization(res)
        assert 1e-4 < out["identity_residual"] < 1e-2


class TestMeromorphic:
    def test_linear_shift(self):
        sp = nilpotent_space()
        R = LaurentSymbol.from_coeffs({0: -0.3, 1: 1.0})
        res = meromorphic_factors(sp, R)
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-10
        assert out["det_minus_dev"] < 1e-10
        assert out["det_plus_inverse_dev"] < 1e-10

    def test_constant_one(self):
        sp = nilpotent_space()
        res = meromorphic_factors(sp, LaurentSymbol.from_coeffs({0: 1.0}))
        P = res.plus_inverse.values
        assert np.max(np.abs(P[2, 2] + 1.0)) < 1e-14
        assert np.max(np.abs(P[3, 3] + 1.0)) < 1e-14
        assert np.max(np.abs(P[2, 3])) < 1e-14
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-12

    def test_quadratic(self):
        sp = twist_space()
        R = LaurentSymbol.from_coeffs({0: 1.0, 1: -2.5, 2: 1.0})
        res = meromorphic_factors(sp, R)
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-10
        assert out["minus_tail"] < 1e-9


class TestSplitSamples:
    def test_new_lambda_samples_no_symbol(self, monkeypatch):
        # at a new lam, theta (difference quotient included), the split
        # halves and every other symbol are read from their samples
        sp = two_sided_space()
        G = canonical_factors(sp, 0.2).grid
        grid_sized = []

        def count_grid_calls(cls):
            eval_at = cls.eval_at

            def wrapped(self, z):
                if np.size(z) == G:
                    grid_sized.append(self)
                return eval_at(self, z)
            monkeypatch.setattr(cls, "eval_at", wrapped)

        count_grid_calls(LaurentSymbol)
        count_grid_calls(InnerFunction)
        for lam in (-0.3 + 0.1j, 2.0):
            canonical_factors(sp, lam)
        assert grid_sized == []

    def test_missing_split_rejected(self):
        theta = InnerFunction.blaschke([0.5])
        th = theta.as_symbol()
        sp = build_dualband(theta, phi=LaurentSymbol.constant(1.0),
                            psi=th * th)
        assert sp.aplus is None
        with pytest.raises(MissingDecompositionError):
            sp.split_values(64)


class TestHminusSplit:
    def test_nilpotent_linear(self):
        sp = nilpotent_space()
        H, tilde, residual = hminus_split(sp, Z(1))
        assert residual < 1e-12
        d = H.det_values()
        assert np.max(np.abs(d - 1.0)) < 1e-12

    def test_decoupled_lower_left(self):
        sp = decoupled_space()
        R = LaurentSymbol.from_coeffs({0: -0.3, 1: 1.0})
        H, tilde, residual = hminus_split(sp, R)
        assert residual < 1e-10
        rv = R.sample(H.grid)
        assert np.max(np.abs(H.values[2, 0] - rv)) < 1e-14
        assert np.max(np.abs(H.values[3, 1] - rv)) < 1e-14
        assert np.max(np.abs(H.values[2, 1])) < 1e-14
        assert np.max(np.abs(H.values[3, 0])) < 1e-14

    def test_determinant_one_any_data(self):
        sp = twist_space()
        for R in (Z(1), LaurentSymbol.from_coeffs({0: 1.0, 1: -2.5, 2: 1.0})):
            H, _, residual = hminus_split(sp, R)
            assert residual < 1e-10
            assert np.max(np.abs(H.det_values() - 1.0)) < 1e-12


class TestL2:
    def test_generic_boundary_point(self):
        sp = nilpotent_space()
        res = l2_factors(sp, 1.0)
        assert res.kind == "l2-generic"
        assert res.diag_powers == (0, 0, 0, 0)
        assert res.det_expected == pytest.approx(-4.0, abs=1e-12)
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-9
        assert out["plus_tail"] < 1e-8
        assert out["minus_tail"] < 1e-8

    def test_exceptional_boundary_point(self):
        sp = nilpotent_space()
        res = l2_factors(sp, 1j)
        assert res.kind == "l2-exceptional"
        assert res.diag_powers == (-1, -1, 1, 1)
        assert sum(res.diag_powers) == 0
        assert res.det_expected == pytest.approx(1.0, abs=1e-12)
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-8

    def test_interior_point(self):
        sp = nilpotent_space()
        res = l2_factors(sp, 0.4)
        out = verify_factorization(res)
        assert out["identity_residual"] < 1e-9

    def test_no_derivative_rejected(self):
        stub = SimpleNamespace(theta=InnerFunction.atomic([(1.0, 1.0)]))
        with pytest.raises(NoAdcError):
            l2_factors(stub, 1.0)

    def test_outside_rejected(self):
        with pytest.raises(ValueError):
            l2_factors(nilpotent_space(), 2.0)


class TestResolvent:
    def direct(self, sp, lam, h):
        g = LaurentSymbol.from_coeffs({0: -lam, 1: 1.0})
        T = dualband_matrix(sp, g).entries
        return np.linalg.solve(T, h)

    def test_twist_interior(self):
        sp = twist_space()
        h = np.array([1.0, 0, 0, 0], dtype=complex)
        coords, diag = resolvent_apply(sp, 0.0, h)
        want = self.direct(sp, 0.0, h)
        assert np.linalg.norm(coords - want) < 1e-6 * np.linalg.norm(want)
        assert diag["residual"] < 1e-6

    def test_nilpotent_interior(self):
        sp = nilpotent_space()
        rng = np.random.default_rng(7)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coords, diag = resolvent_apply(sp, 0.5, h)
        want = self.direct(sp, 0.5, h)
        assert np.linalg.norm(coords - want) < 1e-6 * np.linalg.norm(want)

    def test_exterior(self):
        sp = twist_space()
        h = np.array([0.2, -0.4, 1.0, 0.3j])
        coords, diag = resolvent_apply(sp, 2.0, h)
        want = self.direct(sp, 2.0, h)
        assert diag["region"] == "outside"
        assert np.linalg.norm(coords - want) < 1e-6 * np.linalg.norm(want)

    def test_degenerate_branch(self):
        sp = two_sided_space()
        h = np.array([0.8, -0.5j])
        coords, diag = resolvent_apply(sp, 0.2, h)
        want = self.direct(sp, 0.2, h)
        assert np.linalg.norm(coords - want) < 1e-6 * np.linalg.norm(want)

    def test_neumann_leading_term(self):
        sp = twist_space()
        h = np.array([0.5, 1.0, -0.3, 0.9], dtype=complex)
        coords, _ = resolvent_apply(sp, 10.0, h)
        lead = -h / 10.0
        assert np.linalg.norm(coords - lead) <= 0.15 * np.linalg.norm(lead)

    def test_eigenvalue_rejected(self):
        with pytest.raises(EigenvalueEncounteredError):
            resolvent_apply(nilpotent_space(), 0.0, [1, 0, 0, 0])

    def test_cond_warn_is_the_resolvent_contract(self):
        assert COND_WARN == cli.CONTRACTS["resolvent"]

    def near_eigenvalue(self, offset):
        sp = twist_space()
        lam = point_spectrum(sp).points[0].lam + offset
        rng = np.random.default_rng(cli.RESOLVENT_SEED)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        return sp, lam, h

    def test_close_to_eigenvalue_without_warning(self):
        sp, lam, h = self.near_eigenvalue(1e-8)
        _, diag = resolvent_apply(sp, lam, h)
        assert diag["cond_minus"] * np.finfo(float).eps < COND_WARN
        assert diag["residual"] < 1e-6
        assert diag["warnings"] == []

    def test_warns_where_cond_can_cross_the_contract(self):
        sp, lam, h = self.near_eigenvalue(1e-10)
        _, diag = resolvent_apply(sp, lam, h)
        assert diag["cond_minus"] * np.finfo(float).eps > COND_WARN
        assert any("condition bound" in w for w in diag["warnings"])
        out = cli._TASKS["resolvent"](sp, SimpleNamespace(lambdas=[lam]), {})
        assert not out["ok"]
        assert out["solves"][0]["warnings"] == diag["warnings"]
        assert any("condition bound" in v for v in out["violations"])


class TestResolventWithFactors:
    @pytest.mark.parametrize("lam", (0.3, 2.0))
    def test_given_factors_solve_alike(self, lam):
        sp = twist_space()
        h = np.array([1.0, 0.5j, -0.25, 2.0])
        res = canonical_factors(sp, lam)
        got, gdiag = resolvent_apply(sp, lam, h, factors=res)
        want, wdiag = resolvent_apply(sp, lam, h)
        assert np.array_equal(got, want)
        assert gdiag == wdiag

    def test_same_bits_on_every_canonical_branch(self):
        # the literal path (no factors) and the stacked one read the same
        # entries with the same arithmetic; the large twist runs on arrays
        # big enough for numpy to reuse temporaries in place
        big = large_twist_space()
        assert big.extension_grid() == 16384
        cases = [(*scenario_case(path), None) for path in SCENARIOS]
        cases.append((SimpleNamespace(name="twist n=64", lambdas=()), big,
                       (0.3 * np.exp(0.7j), 2.5 * np.exp(0.7j))))
        seen = set()
        for scn, sp, lams in cases:
            rng = np.random.default_rng(13)
            h = rng.standard_normal(2 * sp.n) + \
                1j * rng.standard_normal(2 * sp.n)
            for lam in lams or (*scn.lambdas, *PLUS_LAMBDAS):
                res = canonical_factors(sp, lam)
                got, gdiag = resolvent_apply(sp, lam, h, factors=res)
                want, wdiag = resolvent_apply(sp, lam, h)
                assert got.tobytes() == want.tobytes(), (scn.name, lam)
                assert gdiag["cond_minus"] == wdiag["cond_minus"], lam
                seen.add((res.kind, res.extras["region"]))
        assert seen == {(kind, region)
                        for kind in ("canonical-generic",
                                     "canonical-degenerate")
                        for region in ("inside", "outside")}

    def test_refuses_factors_of_another_point(self):
        sp = twist_space()
        res = canonical_factors(sp, 0.3)
        with pytest.raises(ValueError, match="do not match"):
            resolvent_apply(sp, 0.2, np.ones(4), factors=res)
        with pytest.raises(ValueError, match="do not match"):
            resolvent_apply(sp, 0.3, np.ones(4), G=2 * res.grid, factors=res)


# --------------------------------------------------------------------------
# the extension rule's grid against a finer one
# --------------------------------------------------------------------------

def scenario_case(path):
    scn = parse_scenario(path)
    return scn, build_space(scn)


def assert_within_contracts(out):
    ilim = cli.CONTRACTS["factorize_identity"]
    tlim = cli.CONTRACTS["factorize_tail"]
    dlim = cli.CONTRACTS["factorize_det"]
    assert out["identity_residual"] <= ilim
    assert out["reconstruction_residual"] <= ilim
    assert out["plus_tail"] <= tlim
    assert out["minus_tail"] <= tlim
    assert out["det_minus_dev"] <= dlim
    assert out["det_plus_inverse_dev"] <= dlim


def shared_node_gap(coarse, fine):
    """Relative gap of two gridded symbols at the coarse grid's nodes."""
    ref = fine.values[..., ::fine.grid // coarse.grid]
    return np.max(np.abs(coarse.values - ref)) / np.max(np.abs(ref))


@pytest.mark.parametrize("path", SCENARIOS, ids=os.path.basename)
class TestRefinement:
    """The extension rule's grid reads what a 4096 grid reads."""

    def test_canonical_and_resolvent(self, path):
        scn, sp = scenario_case(path)
        rng = np.random.default_rng(cli.RESOLVENT_SEED)
        h = rng.standard_normal(2 * sp.n) + 1j * rng.standard_normal(2 * sp.n)
        for lam in (*scn.lambdas, *EDGE_LAMBDAS):
            res = canonical_factors(sp, lam)
            fine = canonical_factors(sp, lam, G=FINE)
            assert res.grid == sp.extension_grid() < FINE
            for r in (res, fine):
                assert_within_contracts(verify_factorization(r))
            for name in ("symbol", "minus", "plus_inverse"):
                assert shared_node_gap(getattr(res, name),
                                       getattr(fine, name)) <= 1e-12
            coords, diag = resolvent_apply(sp, lam, h)
            want, fdiag = resolvent_apply(sp, lam, h, G=FINE)
            assert (diag["grid"], fdiag["grid"]) == (res.grid, FINE)
            assert np.linalg.norm(coords - want) <= \
                1e-12 * np.linalg.norm(want)

    def test_r_family(self, path):
        scn, sp = scenario_case(path)
        ilim = cli.CONTRACTS["factorize_identity"]
        for R in scn.rfactors:
            res = meromorphic_factors(sp, R)
            fine = meromorphic_factors(sp, R, G=FINE)
            assert res.grid == sp.extension_grid(R) < FINE
            for r in (res, fine):
                assert_within_contracts(verify_factorization(r))
            for name in ("symbol", "minus", "plus_inverse"):
                assert shared_node_gap(getattr(res, name),
                                       getattr(fine, name)) <= 1e-12
            H, tilde, residual = hminus_split(sp, R)
            Hf, tildef, residualf = hminus_split(sp, R, G=FINE)
            assert H.grid == res.grid
            assert max(residual, residualf) <= ilim
            assert shared_node_gap(H, Hf) <= 1e-12
            assert shared_node_gap(tilde, tildef) <= 1e-12


def non_monomial_space():
    rng = np.random.default_rng(18)
    zeros = 0.8 * np.sqrt(rng.random(5)) * np.exp(2j * np.pi * rng.random(5))
    theta = InnerFunction.blaschke(zeros, const=np.exp(0.7j))
    return build_dualband(theta,
                          aplus=LaurentSymbol.from_coeffs({0: 0.8, 1: 0.3j}),
                          aminus=LaurentSymbol.from_coeffs({0: 0.6}))


def argument_cases():
    for path in SCENARIOS:
        scn, sp = scenario_case(path)
        yield sp, (*scn.lambdas, *EDGE_LAMBDAS)
    yield non_monomial_space(), (0.3, 0.5 + 0.4j, 2.0, *EDGE_LAMBDAS)


class TestProfilesNeedNoFloor:
    """Why the quadrature rule grids the factors: both lam-profiles are
    rationals with theta's poles only."""

    def test_reflection_identity(self):
        # theta(z) conj(theta(1/conj(z))) = 1 makes the exterior profile
        # (1 - tau theta)/(z - lam), tau = conj(theta(1/conj(lam))),
        # vanish at z = lam
        for sp, lams in argument_cases():
            for lam in lams:
                th = complex(sp.theta.eval_at(lam))
                mirror = complex(sp.theta.eval_at(1 / np.conj(lam)))
                assert abs(th * np.conj(mirror) - 1) <= 1e-14

    def test_profiles_resolved_on_the_rule_grid(self):
        regions = set()
        for sp, lams in argument_cases():
            for lam in lams:
                res = canonical_factors(sp, lam)
                regions.add(res.extras["region"])
                # entry (0, 1) of X is the profile in every canonical
                # branch: the difference quotient inside, the reflected
                # kernel profile outside
                prof = res.plus_inverse.values[0, 1]
                assert band_energy(prof) <= TAU_ALIAS
        assert regions == {"inside", "outside"}


class TestNoStack:
    """The shift paths keep the closed-form symbols as row literals: a
    resolvent solve without factors and a kernel round trip stack none
    of them."""

    def count_stacks(self, monkeypatch):
        built = []
        real = MatrixSymbol.__init__

        def counting(sym, values):
            built.append(np.shape(values))
            real(sym, values)
        monkeypatch.setattr(MatrixSymbol, "__init__", counting)
        return built

    @pytest.mark.parametrize("lam", (0.3, 2.0))
    def test_resolvent_builds_no_stack(self, monkeypatch, lam):
        sp = twist_space()
        built = self.count_stacks(monkeypatch)
        canonical_factors(sp, lam)
        assert len(built) == 4          # the counter sees the stacked path
        built.clear()
        resolvent_apply(sp, lam, np.array([1.0, 0.5j, -0.25, 2.0]))
        assert built == []

    def test_kernel_round_trip_builds_no_stack(self, monkeypatch):
        sp = twist_space()
        p = point_spectrum(sp, cross_check=False).points[0]
        built = self.count_stacks(monkeypatch)
        vec = kernel_lift(sp, p.coords[0], lam=p.lam)
        back = kernel_project(sp, vec, lam=p.lam)
        assert built == []
        assert np.linalg.norm(back - p.coords[0]) <= \
            1e-10 * np.linalg.norm(p.coords[0])
        build_G(sp, lam=p.lam, G=vec.meta["grid"])
        assert len(built) == 1          # the counter sees a stack


# --------------------------------------------------------------------------
# the closed-form plus factor P = X^{-1}
# --------------------------------------------------------------------------

# the scenario points plus both sides of the circle and far outside
PLUS_LAMBDAS = (0.9j, -0.95, 1.0, -1j, 1.05, 1.5j, 50.0)


def factor_cases():
    """(label, result) for every branch: canonical generic and degenerate
    inside, on and outside the circle; meromorphic; l2 generic and
    exceptional."""
    for path in SCENARIOS:
        scn, sp = scenario_case(path)
        for lam in (*scn.lambdas, *PLUS_LAMBDAS):
            res = canonical_factors(sp, lam)
            yield f"{scn.name}-{lam}-{res.extras['region']}", res
        for R in (*scn.rfactors, Z(1) - 0.3):
            yield f"{scn.name}-{R!r}", meromorphic_factors(sp, R)
    sp = nilpotent_space()
    for lam in (1.0, 0.4, 0.9j, -0.95, 1j):
        yield f"l2-{lam}", l2_factors(sp, lam)


def lapack_stack(sym):
    return np.moveaxis(sym.values, 2, 0)


class TestClosedFormPlus:
    def test_every_branch_is_covered(self):
        seen = {(res.kind, res.extras["region"]) for _, res in factor_cases()}
        for kind in ("canonical-generic", "canonical-degenerate"):
            assert {(kind, "inside"), (kind, "outside")} <= seen
        assert {("meromorphic", "family"), ("l2-generic", "closed-disc"),
                ("l2-exceptional", "closed-disc")} <= seen

    def test_matches_lapack_inverse(self):
        for label, res in factor_cases():
            want = np.linalg.inv(lapack_stack(res.plus_inverse))
            got = lapack_stack(res.plus)
            assert np.max(np.abs(got - want)) <= \
                1e-13 * np.max(np.abs(want)), label

    def test_identity_residual_within_twice_lapack(self):
        eps = np.finfo(float).eps
        for label, res in factor_cases():
            X = lapack_stack(res.plus_inverse)
            ours = np.max(np.abs(X @ lapack_stack(res.plus) - np.eye(4)))
            theirs = np.max(np.abs(X @ np.linalg.inv(X) - np.eye(4)))
            assert ours <= 2 * max(theirs, eps), label

    def test_verify_reads_the_stored_plus(self):
        for label, res in factor_cases():
            out = verify_factorization(res)
            assert out["plus_identity_residual"] <= 1e-14, label

    def test_corrupted_plus_is_flagged(self):
        res = canonical_factors(twist_space(), 0.3)
        res.plus.values[1, 2] = res.plus.values[1, 2] + 1e-3
        out = verify_factorization(res)
        assert 1e-4 < out["plus_identity_residual"] < 1e-2
        assert 1e-4 < out["reconstruction_residual"] < 1e-2

    def test_corrupted_plus_fails_the_task(self, monkeypatch):
        real = cli.canonical_factors

        def corrupted(*args, **kwargs):
            res = real(*args, **kwargs)
            res.plus.values[3, 0] = res.plus.values[3, 0] + 1e-3
            return res
        monkeypatch.setattr(cli, "canonical_factors", corrupted)
        out = cli._TASKS["factorize"](
            twist_space(), SimpleNamespace(lambdas=[0.3], rfactors=[]), {})
        assert not out["ok"]
        assert any(v.startswith("plus_identity_residual")
                   for v in out["violations"])

    def test_r_zero_on_the_grid_is_refused(self):
        res = meromorphic_factors(nilpotent_space(), Z(1) - 1.0)
        with pytest.raises(SingularOperatorError, match="ill conditioned"):
            verify_factorization(res)


class TestMinusCondition:
    def test_matches_lapack_bound(self):
        seen = 0
        for path in SCENARIOS:
            scn, sp = scenario_case(path)
            h = np.ones(2 * sp.n, dtype=complex)
            for lam in (*scn.lambdas, *PLUS_LAMBDAS):
                res = canonical_factors(sp, lam)
                _, diag = resolvent_apply(sp, lam, h, factors=res)
                _, want = res.minus.pointwise_inverse()
                assert abs(diag["cond_minus"] - want) <= 1e-12 * want, lam
                seen += 1
        assert seen >= 30

    def test_solution_matches_lapack_solve(self):
        scn, sp = scenario_case(SCENARIOS[0])
        rng = np.random.default_rng(5)
        h = rng.standard_normal(2 * sp.n) + 1j * rng.standard_normal(2 * sp.n)
        for lam in (*scn.lambdas, *PLUS_LAMBDAS):
            coords, _ = resolvent_apply(sp, lam, h)
            want = np.linalg.solve(sp.shift_matrix() - lam * np.eye(2 * sp.n),
                                   h)
            assert np.linalg.norm(coords - want) <= \
                1e-12 * np.linalg.norm(want), lam
