"""Acceptance suite: one verdict line per criterion.

Each test prints "criterion NN <label>: PASS/FAIL" before asserting, so a
plain pytest run shows the scoreboard for failures and `pytest -s` shows
it in full.
"""

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from dualband import (
    InnerFunction,
    LaurentSymbol,
    adc_test,
    analytic_spectrum,
    block_w,
    build_dualband,
    canonical_factors,
    cm_symmetry_residual,
    dualband_matrix,
    eigvec_build,
    hankel_norm,
    hminus_split,
    is_zero_operator,
    kernel_lift,
    kernel_project,
    l2_factors,
    meromorphic_factors,
    point_spectrum,
    resolvent_apply,
    unitary_equiv_check,
    verify_factorization,
)
from dualband.cli import golden_bytes, main

Z = LaurentSymbol.monomial
SCN_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "scenarios"))


def verdict(num, label, ok, detail=""):
    word = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"criterion {num:02d} {label}: {word}{tail}")
    assert ok, f"criterion {num:02d} {label} failed {tail}"


def one():
    return LaurentSymbol.from_coeffs({0: 1.0})


def nilpotent_space():
    return build_dualband(InnerFunction.blaschke([0.0, 0.0]), phi=one(), psi=Z(3))


def twist_space(n=2, a=0.5):
    num = {0: -a, 2 * n: 1.0}
    den = {0: 1.0, 2 * n: -a}
    blk = LaurentSymbol.rational(
        [num.get(i, 0.0) for i in range(2 * n + 1)],
        [den.get(i, 0.0) for i in range(2 * n + 1)],
    )
    theta = InnerFunction.blaschke([0.0] * n)
    return build_dualband(theta, phi=one(), psi=Z(n).conj() * blk)


def case_ii_space():
    c = LaurentSymbol.from_coeffs({0: 2.5})
    return build_dualband(InnerFunction.blaschke([-0.4]), aplus=c, aminus=c)


def band_space():
    theta = InnerFunction.blaschke([0.0, 0.5])
    return build_dualband(theta, phi=one(), psi=Z(1) * theta.as_symbol())


def random_poly(rng, deg):
    c = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    return LaurentSymbol.from_coeffs(list(c), 0)


def random_space(rng, k):
    """Alternate monomial-band and twisted-band spaces over theta = z^n."""
    n = int(rng.integers(1, 7))
    if k % 2 == 0:
        a = int(rng.integers(0, 4))
        b = a + n + 1 + int(rng.integers(0, 4))
        theta = InnerFunction.blaschke([0.0] * n)
        return build_dualband(theta, phi=Z(a), psi=Z(b))
    return twist_space(n=n, a=0.2 + 0.6 * rng.random())


def corpus(seed=20260819, count=20):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        sp = random_space(rng, k)
        g = random_poly(rng, int(rng.integers(0, 7)))
        out.append((sp, g))
    return out


CORPUS = corpus()

EIGEN_SCENARIOS = [
    ("nilpotent", nilpotent_space()),
    ("twist", twist_space()),
    ("two-sided", case_ii_space()),
]


def test_criterion_01_unitary_equivalence():
    worst = max(unitary_equiv_check(sp, g) for sp, g in CORPUS)
    verdict(1, "unitary equivalence", worst <= 1e-10, f"max gap {worst:.2e}")


def test_criterion_02_conjugation_symmetry():
    worst = max(cm_symmetry_residual(sp, g) for sp, g in CORPUS)
    verdict(2, "conjugation symmetry", worst <= 1e-10, f"max gap {worst:.2e}")


def test_criterion_03_zero_operator():
    sp = nilpotent_space()
    wide = build_dualband(InnerFunction.blaschke([0.0, 0.0]), phi=one(), psi=Z(5))
    checks = []
    for space, g, live in [
        (sp, Z(3), "lower"),
        (sp, Z(3).conj(), "upper"),
        (wide, Z(1), "diag"),
    ]:
        flag, norms = is_zero_operator(space, g)
        others = [v for k, v in norms.items() if not k.startswith(live[:4])]
        checks.append(not flag and norms[live] > 0.5 and max(others) <= 1e-10)
    flag, norms = is_zero_operator(sp, Z(5))
    tnorm = float(np.linalg.norm(dualband_matrix(sp, Z(5)).entries, 2))
    checks.append(flag and tnorm <= 1e-10)
    verdict(3, "zero operator detection", all(checks), f"T norm {tnorm:.2e}")


def eigen_points(space):
    return point_spectrum(space, cross_check=False).points


def test_criterion_04_kernel_isomorphism():
    worst_round = worst_rh = 0.0
    for _, sp in EIGEN_SCENARIOS:
        for pt in eigen_points(sp):
            for row in np.atleast_2d(pt.coords):
                v = row / np.linalg.norm(row)
                vec = kernel_lift(sp, v, lam=pt.lam)
                worst_rh = max(worst_rh, vec.meta["rh_residual"])
                back = kernel_project(sp, vec, lam=pt.lam)
                worst_round = max(worst_round, float(np.max(np.abs(back - v))))
                vec2 = kernel_lift(sp, back, lam=pt.lam)
                gap = float(np.max(np.abs(vec2.comps - vec.comps)))
                worst_round = max(worst_round, gap)
    ok = worst_round <= 1e-8 and worst_rh <= 1e-8
    verdict(4, "kernel isomorphism", ok,
            f"roundtrip {worst_round:.2e} rh {worst_rh:.2e}")


def test_criterion_05_index_zero():
    rng = np.random.default_rng(11)
    bad = 0
    for k in range(50):
        sp = random_space(rng, k)
        g = random_poly(rng, int(rng.integers(0, 7)))
        lam = 2.0 * (rng.standard_normal() + 1j * rng.standard_normal())
        T = dualband_matrix(sp, g).entries - lam * np.eye(2 * sp.n)
        s = np.linalg.svd(T, compute_uv=False)
        s2 = np.linalg.svd(T.conj().T, compute_uv=False)
        cut = 1e-8 * s[0]
        if np.sum(s <= cut) != np.sum(s2 <= cut):
            bad += 1
    verdict(5, "index zero", bad == 0, f"{bad} of 50 triples mismatched")


def test_criterion_06_point_spectrum():
    nil = point_spectrum(nilpotent_space())
    ok_nil = (len(nil.points) == 1 and abs(nil.points[0].lam) <= 1e-12
              and nil.points[0].kernel_dim == 2)

    tw = point_spectrum(twist_space())
    want = 0.375 ** 0.25 * np.exp(1j * np.pi * (2 * np.arange(4) + 1) / 4)
    eigs = np.asarray([pt.lam for pt in tw.points])
    pair = max(float(np.min(np.abs(eigs - w))) for w in want)
    matrix_eigs = np.asarray(tw.cross_check["matrix_eigs"])
    cross = max(float(np.min(np.abs(matrix_eigs - pt.lam))) for pt in tw.points)
    ok_tw = (len(tw.points) == 4 and pair <= 1e-7 and cross <= 1e-7
             and all(pt.kernel_dim == 1 for pt in tw.points))
    verdict(6, "point spectrum formulas", ok_nil and ok_tw,
            f"root gap {pair:.2e} matrix pairing {cross:.2e}")


def test_criterion_07_eigenvector_residuals():
    worst = 0.0
    for _, sp in EIGEN_SCENARIOS:
        T = dualband_matrix(sp, Z(1)).entries
        for pt in eigen_points(sp):
            V = eigvec_build(sp, pt.lam)
            for v in np.atleast_2d(V):
                res = np.linalg.norm(T @ v - pt.lam * v) / np.linalg.norm(v)
                worst = max(worst, float(res))
    verdict(7, "eigenvector residuals", worst <= 1e-7, f"max {worst:.2e}")


def test_criterion_08_canonical_factorization():
    worst = {}
    for sp, lam in [(twist_space(), 0.3), (case_ii_space(), 0.2)]:
        res = canonical_factors(sp, lam)
        rep = verify_factorization(res)
        # the extension rule's grid, and on it the samples of a 4096 grid
        assert res.grid == sp.extension_grid()
        fine = canonical_factors(sp, lam, G=4096)
        for name in ("minus", "plus_inverse", "symbol"):
            coarse = getattr(res, name).values
            ref = getattr(fine, name).values[..., ::4096 // res.grid]
            assert np.max(np.abs(coarse - ref)) <= 1e-14 * np.max(np.abs(ref))
        for key, val in rep.items():
            if key != "plus_cond":
                worst[key] = max(worst.get(key, 0.0), val)
    ok = (worst["identity_residual"] <= 1e-10
          and worst["reconstruction_residual"] <= 1e-10
          and worst["det_minus_dev"] <= 1e-9
          and worst["det_plus_inverse_dev"] <= 1e-9
          and worst["plus_tail"] <= 1e-9 and worst["minus_tail"] <= 1e-9)
    verdict(8, "canonical factorization", ok,
            f"identity {worst['identity_residual']:.2e} "
            f"tails {max(worst['plus_tail'], worst['minus_tail']):.2e}")


def test_criterion_09_resolvent():
    rng = np.random.default_rng(20260819)
    moduli = [0.0, 0.3, 0.3, 0.5, 0.5, 2.0, 2.0, 10.0, 10.0, 0.3]
    worst = 0.0
    for _, sp in EIGEN_SCENARIOS:
        eigs = np.asarray([pt.lam for pt in eigen_points(sp)] or [np.inf])
        n2 = 2 * sp.n
        for mod in moduli:
            lam = mod * np.exp(2j * np.pi * rng.random())
            while np.min(np.abs(eigs - lam)) < 0.1:
                lam = (mod + 0.15) * np.exp(2j * np.pi * rng.random())
            h = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
            x, info = resolvent_apply(sp, lam, h)
            g = LaurentSymbol.from_coeffs({0: -lam, 1: 1.0})
            direct = np.linalg.solve(dualband_matrix(sp, g).entries, h)
            rel = np.linalg.norm(x - direct) / np.linalg.norm(direct)
            worst = max(worst, float(rel))
    verdict(9, "resolvent accuracy", worst <= 1e-6, f"max rel {worst:.2e}")


def test_criterion_10_meromorphic_family():
    rfactors = [
        LaurentSymbol.from_coeffs({0: -0.3, 1: 1.0}),
        LaurentSymbol.from_coeffs({0: -2.0, 1: 1.0}),
        LaurentSymbol.from_coeffs({0: 1.0, 1: -2.5, 2: 1.0}),
    ]
    worst_fac = worst_split = 0.0
    for sp in (twist_space(), nilpotent_space()):
        for R in rfactors:
            res = meromorphic_factors(sp, R)
            rep = verify_factorization(res)
            worst_fac = max(worst_fac, rep["identity_residual"])
            _, _, residual = hminus_split(sp, R)
            worst_split = max(worst_split, residual)
    ok = worst_fac <= 1e-10 and worst_split <= 1e-10
    verdict(10, "meromorphic factorization", ok,
            f"factor {worst_fac:.2e} split {worst_split:.2e}")


def test_criterion_11_boundary_factorization():
    sp = nilpotent_space()
    worst = 0.0
    kinds = []
    for lam in (1.0, 1j):
        res = l2_factors(sp, lam)
        rep = verify_factorization(res)
        worst = max(worst, rep["identity_residual"], rep["reconstruction_residual"])
        kinds.append(res.kind)
        assert sum(res.diag_powers) == 0
    ok_kinds = kinds == ["l2-generic", "l2-exceptional"]

    fin = InnerFunction.blaschke([0.0, 0.5])
    ok_adc = all(adc_test(fin, z).has_adc for z in (1.0, -1.0, 1j))
    atom = adc_test(InnerFunction.atomic([(1.0, 1.0)]), 1.0)
    steps = np.diff(atom.norms)
    ok_atom = (not atom.has_adc and np.all(steps > 0) and atom.norms[-1] > 1e3)
    verdict(11, "boundary factorization and adc", ok_kinds and ok_adc and ok_atom
            and worst <= 1e-8, f"residual {worst:.2e} last norm {atom.norms[-1]:.1f}")


def test_criterion_12_norm_identities():
    nil, band = nilpotent_space(), band_space()
    psi = band.psi
    cases = [
        (nil, Z(3)),
        (nil, Z(3) + LaurentSymbol.from_coeffs({4: 0.5})),
        (band, psi * Z(1)),
        (band, psi * LaurentSymbol.from_coeffs([1.0, -0.7, 0.2j], 0)),
    ]
    worst = 0.0
    for sp, g in cases:
        rep = hankel_norm(sp, g)
        w = np.linalg.norm(block_w(sp, g).entries, 2)
        worst = max(worst, rep.gap, abs(rep.norm - w))
    exact = hankel_norm(nil, Z(3)).norm
    ok = worst <= 1e-8 and abs(exact - 1.0) <= 1e-12
    verdict(12, "norm identities", ok,
            f"max gap {worst:.2e} worked norm {exact:.12f}")


def cluster_means(values, gap=1e-6):
    """Collapse near-coincident eigenvalues of defective matrices.

    Dense solvers smear a k-fold Jordan eigenvalue into a cluster of
    radius about eps**(1/k); the cluster mean is accurate to machine
    order, so compare means rather than raw points.
    """
    vals = sorted(values, key=lambda z: (z.real, z.imag))
    groups = [[vals[0]]]
    for z in vals[1:]:
        if abs(z - np.mean(groups[-1])) < gap:
            groups[-1].append(z)
        else:
            groups.append([z])
    return np.asarray([np.mean(g) for g in groups])


def test_criterion_13_triangular_spectrum():
    nil, band = nilpotent_space(), band_space()
    cases = [
        (nil, Z(1)),
        (nil, Z(3)),
        (band, Z(1)),
        (band, LaurentSymbol.from_coeffs([1.0, 2.0, -1.0], 0)),
    ]
    worst = 0.0
    for sp, g in cases:
        rep = analytic_spectrum(sp, g)
        means = cluster_means(rep.dense_eigs)
        vals = np.asarray(rep.values)
        hd = max(
            max(float(np.min(np.abs(vals - m))) for m in means),
            max(float(np.min(np.abs(means - v))) for v in vals),
        )
        worst = max(worst, hd)
    verdict(13, "triangular spectrum formula", worst <= 1e-8,
            f"max cluster gap {worst:.2e}")


def test_criterion_14_cli_determinism():
    names = ["blaschke_twist", "case_ii", "nilpotent"]
    with tempfile.TemporaryDirectory() as tmp:
        a, b = os.path.join(tmp, "a"), os.path.join(tmp, "b")
        for name in names:
            scn = os.path.join(SCN_DIR, f"{name}.scn")
            assert main(["run", "--scenario", scn, "--out", a]) == 0
            assert main(["run", "--scenario", scn, "--out", b]) == 0
        same = True
        for name in names:
            for out in (a, b):
                assert os.path.exists(os.path.join(out, f"{name}.report.json"))
            ra = golden_bytes(json.loads(
                Path(a, f"{name}.report.json").read_text()))
            rb = golden_bytes(json.loads(
                Path(b, f"{name}.report.json").read_text()))
            same = same and ra == rb
            ca = Path(a, f"{name}.eigs.csv").read_bytes()
            cb = Path(b, f"{name}.eigs.csv").read_bytes()
            same = same and ca == cb
    verdict(14, "cli determinism", same, f"{len(names)} scenarios compared")
