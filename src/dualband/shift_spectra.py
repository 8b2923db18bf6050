"""Spectra of the dual-band compression of multiplication by z.

Everything here is driven by four scalars extracted from the split
conj(psi) phi = aminus conj(theta) + aplus theta:

    alpha = conj(aplus(0)),  beta = conj value at 0 of conj(aminus),
    tbar  = conj(theta(0)),  kappa = alpha * beta.

For a point lam the compression of (z - lam) has nontrivial kernel
exactly when a two-by-two determinant vanishes:

    inside / on the circle:  delta(lam) =
        theta(lam)^2 - kappa (1 - tbar theta(lam))^2
    outside the closed disc: delta_tilde(lam) =
        1 - kappa (tbar - tau)^2,   tau = conj(theta(1 / conj(lam))).

Kernel functions are multiples of one profile, whose coordinates
``eigvec_build`` reads in closed form.  With e(w) the basis at w
(``ModelSpaceBasis.eval_at``), k_w the reproducing kernel, of coordinates
conj(e(w)), and R the conjugation C f = theta conj(z f) (``ctheta_matrix``):

    inside / on the circle: (theta - theta(lam)) / (z - lam) = C k_lam,
        coordinates R e(lam);
    outside: (1 - tau theta) / (z - lam) = -k_mu / lam, mu = 1/conj(lam),
        coordinates -conj(e(mu)) / lam.

``point_spectrum`` solves delta = 0 in closed form through the
substitution w = theta(lam), which turns the problem into one quadratic
in w followed by polynomial root finding for theta(lam) = w (n-th roots
on theta = c z^n); this covers every finite Blaschke product.  It then
evaluates all its candidate points in one batch (``_kernel_batch``):
one theta evaluation, one basis evaluation, one product R E for the
interior and boundary columns, and one stacked SVD of the pair
matrices.  ``eigvec_build`` is the one-point
case of that batch.  The residuals of all kernel rows come from one
product of T_z with the stacked rows (``_residuals``).

Every check against a dense matrix reads one matrix per space, T_z =
``space.shift_matrix()``.  The band basis is orthonormal, so the matrix
of the compression of z - lam is exactly T_z - lam I: eigenvector and
resolvent residuals are measured as || T_z v - lam v ||.  T_z is built
in closed form from theta's zeros, its front constant and the split
(``dual_band._shift_closed_form``); the quadrature compression of z
checks it in the ``validate`` task (``shift_quadrature_residual``).

The dense eigenvalue cross-check splits T_z into two n x n problems.
With T_z = [[S, alpha K], [beta K, S]] (``space.shift_blocks()``) and
s = sqrt(kappa), conjugating by diag(I, t I), t^2 = beta / alpha, puts
s K in both off-diagonal blocks, and [[I, I], [I, -I]] then separates
them:

    det(T_z - lam) = det(S + s K - lam) det(S - s K - lam).

Both sides are polynomials in alpha and beta, so the identity holds at
alpha = 0, beta = 0 and kappa = 0 too.  S is the compressed shift of
K_theta and S +- s K are its rank-one perturbations (Clark, "One
dimensional perturbations of restricted shifts", 1972), whose
determinants are the factors theta - s (1 - tbar theta) and
theta + s (1 - tbar theta) of delta.  ``_matrix_cross_check`` takes
the eigenvalues of the two blocks.  On theta = c z^n, S + s K is a
companion matrix, but ``solve_theta_equals`` does not solve it: it
writes the points as the n-th roots of w / c.  So there too the dense
eigenvalues are an independent check of the formula points, next to
the residual || T_z v - lam v ||.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NotAnEigenvalueError
from .model_space import ctheta_matrix
from .symbols import TAU_ROOT

TOL_NULL = 1e-8
TOL_BOUNDARY = 1e-10
ADC_BLOWUP = 1e3


def spectral_key(lam):
    """Sort key of a spectrum point: modulus to 12 digits, then angle.

    Rounding the modulus keeps points of equal modulus in angle order
    when last-bit changes move their moduli.
    """
    return round(abs(lam), 12), np.angle(lam + 0j)


@dataclass
class ShiftConstants:
    alpha: complex
    beta: complex
    tbar: complex
    kappa: complex
    disc: complex          # 1 - kappa * tbar^2

    def as_dict(self):
        return {"alpha": self.alpha, "beta": self.beta, "tbar": self.tbar,
                "kappa": self.kappa, "disc": self.disc}


def shift_constants(space):
    ap0, amb0 = space.split_constants()
    alpha = np.conj(ap0)
    beta = np.conj(amb0)
    tbar = np.conj(space.theta.value_at_zero())
    kappa = alpha * beta
    return ShiftConstants(complex(alpha), complex(beta), complex(tbar),
                          complex(kappa), complex(1 - kappa * tbar ** 2))


def _det_inside(c, thl):
    return thl ** 2 - c.kappa * (1 - c.tbar * thl) ** 2


def _det_outside(c, tau):
    return 1 - c.kappa * (c.tbar - tau) ** 2


def delta(space, lam):
    """Kernel determinant for lam inside or on the circle."""
    return complex(_det_inside(shift_constants(space),
                               complex(space.theta.eval_at(lam))))


def delta_tilde(space, lam):
    """Kernel determinant for lam outside the closed disc."""
    tau = np.conj(space.theta.eval_at(1.0 / np.conj(complex(lam))))
    return complex(_det_outside(shift_constants(space), tau))


def _region(lam):
    r = abs(complex(lam))
    if r < 1 - TOL_BOUNDARY:
        return "inside"
    if r <= 1 + TOL_BOUNDARY:
        return "boundary"
    return "outside"


def _nullspace_2x2(m, tol=TOL_NULL):
    """(nullities, basis rows) of a (p, 2, 2) stack of complex matrices,
    by one SVD call: an int array and a list of p (k, 2) arrays."""
    _, s, Vh = np.linalg.svd(m)
    scale = np.maximum(s[:, 0], 1.0)
    nullity = np.sum(s <= tol * scale[:, None], axis=-1)
    return nullity, [np.conj(v[2 - k:, :]) for k, v in zip(nullity, Vh)]


def _pair_matrix(a, b, c, d):
    """[[a, b], [c, d]], or a (p, 2, 2) stack when the entries are arrays."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.moveaxis(np.array([[a, b], [c, d]], dtype=complex),
                       (0, 1), (-2, -1))


def _pair_matrix_inside(c, thl):
    thl = np.asarray(thl)
    off = 1 - c.tbar * thl
    return _pair_matrix(-thl, c.alpha * off, c.beta * off, -thl)


def _pair_matrix_outside(c, tau):
    off = c.tbar - np.asarray(tau)
    return _pair_matrix(1.0, c.alpha * off, c.beta * off, 1.0)


def _kernel_batch(space, lams):
    """Region, kernel determinant and kernel coordinates at every point
    of lams, in one batch.

    Returns (regions, dets, rows); rows[i] is a (k, 2n) array of band
    coordinates, one row per kernel dimension, read in closed form
    (module docstring), with k = 0 where the pair matrix is invertible.
    Each exterior point reads its basis at mu = 1/conj(lam) and divides
    by its own lam, so lam = 0 divides nothing.
    """
    lams = np.asarray(lams, dtype=complex).ravel()
    regions = [_region(lam) for lam in lams]
    if not lams.size:
        return regions, np.zeros(0, dtype=complex), []
    c = shift_constants(space)
    basis = space.basis
    ext = np.array([r == "outside" for r in regions])
    inn = ~ext
    pts = lams.copy()
    pts[ext] = 1.0 / np.conj(lams[ext])
    thv = np.asarray(space.theta.eval_at(pts), dtype=complex)
    E = basis.eval_at(pts)

    # the kernel profile's coordinates, one column per point
    P = np.empty_like(E)
    if inn.any():
        P[:, inn] = ctheta_matrix(basis) @ E[:, inn]
    P[:, ext] = -np.conj(E[:, ext]) / lams[ext]
    M = np.empty((lams.size, 2, 2), dtype=complex)
    M[inn] = _pair_matrix_inside(c, thv[inn])
    M[ext] = _pair_matrix_outside(c, np.conj(thv[ext]))
    dets = np.empty(lams.size, dtype=complex)
    dets[inn] = _det_inside(c, thv[inn])
    dets[ext] = _det_outside(c, np.conj(thv[ext]))

    # a kernel row (c1, c2) of the pair matrix gives coordinates
    # (c1 p, c2 p), p the point's profile column
    _, null_rows = _nullspace_2x2(M)
    rows = [(nr[:, :, None] * P[:, i]).reshape(nr.shape[0], 2 * space.n)
            for i, nr in enumerate(null_rows)]
    return regions, dets, rows


def eigvec_build(space, lam):
    """Kernel coordinates of the compression of (z - lam).

    Returns a (k, 2n) array of band coordinates, one row per kernel
    dimension: the one-point case of ``_kernel_batch``.  Raises
    NotAnEigenvalueError when the two-by-two pair matrix is invertible.
    """
    _, _, (rows,) = _kernel_batch(space, [lam])
    if not rows.shape[0]:
        raise NotAnEigenvalueError(
            f"pair matrix at {complex(lam)} has no kernel (smin relative "
            f"to scale exceeds {TOL_NULL})")
    return rows


# --------------------------------------------------------------------------
# closed-form point spectrum
# --------------------------------------------------------------------------

def solve_theta_equals(theta, w, tol=TAU_ROOT):
    """All solutions of theta(lam) = w in the plane (finite Blaschke).

    On theta = c z^n (``is_monomial``) they are the n-th roots of w / c,
    |w / c|^(1/n) exp(i (arg(w / c) + 2 pi k) / n) for k < n, and n
    zeros at w = 0; otherwise they are the polynomial roots of N - w D,
    theta = N / D (``InnerFunction.polynomials``, which raises
    CoefficientError when theta has mass points)."""
    if theta.is_monomial:
        n = theta.zeros.size
        u = complex(w) / theta.const
        roots = abs(u) ** (1.0 / n) * np.exp(
            1j * (np.angle(u) + 2 * np.pi * np.arange(n)) / n)
    else:
        num, den = theta.polynomials()
        p = (num - complex(w) * den)[::-1]
        top = float(np.max(np.abs(p))) if p.size else 0.0
        if top == 0.0:
            return np.zeros(0, dtype=complex)
        keep = np.abs(p) > 1e-14 * top
        first = int(np.argmax(keep))
        p = p[first:]
        if len(p) < 2:
            return np.zeros(0, dtype=complex)
        roots = np.roots(p).astype(complex)
    ok = np.abs(theta.eval_at(roots) - w) <= max(tol, 1e-9 * max(1.0, abs(w)))
    return roots[ok]


def _w_roots(c):
    """Roots of disc * w^2 + 2 kappa tbar w - kappa = 0 with flags."""
    if abs(c.kappa) <= 1e-14:
        return [0.0 + 0j], "kappa-zero (double root at w = 0)"
    if abs(c.disc) <= 1e-14:
        return [complex(1.0 / (2 * c.tbar))], "leading term vanishes"
    s = np.sqrt(c.kappa)
    return [complex((-c.kappa * c.tbar + s) / c.disc),
            complex((-c.kappa * c.tbar - s) / c.disc)], "generic"


def _exterior_targets(c):
    """Values conj(u) with theta(1/conj(lam)) = conj(u) at exterior roots."""
    if abs(c.kappa) <= 1e-14:
        return []
    s = 1.0 / np.sqrt(c.kappa)
    return [complex(np.conj(c.tbar - s)), complex(np.conj(c.tbar + s))]


def _dedup(values, tol=1e-8):
    """values without any that lie within tol of an earlier kept one."""
    values = np.asarray(values, dtype=complex)
    near = np.tril(np.abs(values[:, None] - values[None, :]) <= tol, -1)
    keep = ~near.any(axis=1)
    # a value with a near earlier one is dropped only when one of those
    # was kept; in increasing order every earlier verdict is final
    for i in np.flatnonzero(~keep):
        keep[i] = not near[i, keep].any()
    return values[keep]


@dataclass
class SpectrumPoint:
    lam: complex
    region: str
    det_value: complex
    kernel_dim: int
    residual: float
    coords: np.ndarray


@dataclass
class SpectrumReport:
    points: list
    constants: dict
    regime: str
    cross_check: dict = field(default_factory=dict)

    def eigenvalues(self):
        return [p.lam for p in self.points]


def point_spectrum(space, cross_check=True):
    """Every lam in the plane where the compression of z - lam has
    nontrivial kernel, with kernel dimensions, vectors and residuals.

    Interior and boundary points come from the quadratic in w =
    theta(lam); exterior points from theta(1/conj(lam)) = conj(u) at the
    two square-root branches.  Each residual is || T_z v - lam v || /
    || v || over the kernel rows v, with T_z = ``space.shift_matrix()``;
    this is the residual of the compression of z - lam itself, because
    the band basis is orthonormal.  A dense eigenvalue cross-check
    against T_z, by its two n x n blocks S +- sqrt(kappa) K, is attached
    when requested.
    """
    c = shift_constants(space)
    theta = space.theta
    candidates = []
    ws, regime = _w_roots(c)
    for w in ws:
        if abs(w) > 1 + TOL_BOUNDARY:
            continue
        candidates.extend(solve_theta_equals(theta, w))
    for target in _exterior_targets(c):
        if abs(target) >= 1 - TOL_BOUNDARY:
            continue
        for mu in solve_theta_equals(theta, target):
            if 1e-12 < abs(mu) < 1 - TOL_BOUNDARY:
                candidates.append(1.0 / np.conj(mu))

    lams = _dedup(candidates)
    regions, dets, rows = _kernel_batch(space, lams)
    res = _residuals(space.shift_matrix(), lams, rows)
    points = [SpectrumPoint(complex(lam), region, complex(det), r.shape[0],
                            float(rp), r)
              for lam, region, det, r, rp in zip(lams, regions, dets, rows,
                                                 res)
              if r.shape[0]]
    points.sort(key=lambda p: spectral_key(p.lam))

    report = SpectrumReport(points, c.as_dict(), regime)
    if cross_check:
        report.cross_check = _matrix_cross_check(space, points)
    return report


def _residuals(T, lams, rows):
    """Per point, max over its rows v of || T v - lam v || / || v ||,
    from one product over all the rows stacked; zero rows count 0 and a
    point without rows 0."""
    kdims = np.array([r.shape[0] for r in rows], dtype=int)
    if not kdims.sum():
        return np.zeros(len(rows))
    V = np.concatenate(rows)
    D = V @ T.T - np.repeat(lams, kdims)[:, None] * V
    nv = _row_norms(V)
    per_row = np.divide(_row_norms(D), nv, out=np.zeros_like(nv),
                        where=nv > 0)
    out = np.zeros(len(rows))
    has = kdims > 0
    out[has] = np.maximum.reduceat(per_row, np.cumsum(kdims)[has] - kdims[has])
    return out


def _row_norms(X):
    """``np.linalg.norm`` of each row of X, bit for bit: the same dots of
    the real and the imaginary parts, one stacked product each."""
    re, im = X.real[:, None, :], X.imag[:, None, :]
    sq = re @ np.swapaxes(re, 1, 2) + im @ np.swapaxes(im, 1, 2)
    return np.sqrt(sq[:, 0, 0])


def _matrix_cross_check(space, points):
    """Compare the closed form with dense eigenvalues of the shift.

    The dense eigenvalues of T_z are those of S + sqrt(kappa) K and
    S - sqrt(kappa) K, two n x n eigenproblems: with (S, K) =
    ``space.shift_blocks()``, det(T_z - lam) = det(S + sK - lam)
    det(S - sK - lam), s = sqrt(kappa) (module docstring).
    ``match_gap`` is the largest distance from a formula point to its
    nearest dense eigenvalue.
    """
    S, K = space.shift_blocks()
    s = np.sqrt(complex(shift_constants(space).kappa))
    eigs = np.concatenate([np.linalg.eigvals(S + s * K),
                           np.linalg.eigvals(S - s * K)])
    formula = np.array([p.lam for p in points], dtype=complex)
    # one distance matrix: dense eigenvalues down, formula points across
    dist = np.abs(eigs[:, None] - formula[None, :])
    nearest = dist.min(axis=0, initial=np.inf)
    missed = eigs[dist.min(axis=1, initial=np.inf) > 1e-6]
    spurious = formula[nearest > 1e-6]
    return {
        "eigensolver": "two n x n blocks, S + sqrt(kappa) K and "
                       "S - sqrt(kappa) K",
        "matrix_eigs": sorted([complex(e) for e in eigs], key=spectral_key),
        "match_gap": float(nearest.max(initial=0.0)),
        "unmatched_matrix_eigs": [complex(e) for e in missed],
        "unmatched_formula_points": [complex(f) for f in spurious],
        "agrees": not missed.size and not spurious.size,
    }


# --------------------------------------------------------------------------
# boundary behaviour
# --------------------------------------------------------------------------

@dataclass
class AdcResult:
    has_adc: bool
    norms: list
    diverging: bool
    consistent: bool


def adc_test(theta, zeta, levels=5):
    """Angular-derivative diagnostics at a boundary point.

    The squared norm of the difference quotient of theta at w equals
    (1 - |theta(w)|^2) / (1 - |w|^2) exactly, so radial divergence of
    that quantity along w = r zeta witnesses the absence of an angular
    derivative without any quadrature.  Radii approach the circle in
    factor-16 steps.
    """
    zeta = complex(zeta) / abs(complex(zeta))
    norms = []
    for k in range(levels):
        r = 1.0 - 2.0 ** (-(4 * k + 6))
        w = r * zeta
        tv = theta.eval_at(w)
        val = (1.0 - abs(tv) ** 2) / (1.0 - r ** 2)
        norms.append(float(np.sqrt(max(val, 0.0))))
    increasing = all(b > a for a, b in zip(norms, norms[1:]))
    diverging = increasing and norms[-1] > ADC_BLOWUP
    rule = bool(theta.has_adc_at(zeta))
    return AdcResult(rule, norms, diverging, rule == (not diverging))


def essential_spectrum(theta_or_space, radial_levels=16):
    """Boundary points where the inner function clusters to zero.

    Returns (points, evidence): for each candidate from the structural
    boundary spectrum, the radial minimum of |theta| as supporting
    evidence; finite Blaschke products yield the empty set and the
    evidence shows the radial minimum staying away from zero at probe
    directions.
    """
    theta = getattr(theta_or_space, "theta", theta_or_space)
    pts = theta.boundary_spectrum()
    rs = 1.0 - 2.0 ** (-np.arange(3, 3 + radial_levels, dtype=float))
    evidence = {}
    for zeta in pts:
        evidence[complex(zeta)] = float(min(abs(theta.eval_at(r * zeta))
                                            for r in rs))
    return [complex(p) for p in pts], evidence


@dataclass
class ClassifyResult:
    lam: complex
    region: str
    verdict: str
    det_value: complex
    kernel_dim: int
    adc: AdcResult | None
    notes: str = ""


def classify(space, lam, tol_det=1e-9):
    """Place one point of the plane against the shift compression.

    Inside and outside, the verdict follows the sign of the matching
    determinant.  On the circle the decision tree is: no angular
    derivative makes the point essential; with one, a vanishing
    determinant makes it an eigenvalue; a boundary cluster point of the
    inner function is essential; anything else is a resolvent point.
    """
    lam = complex(lam)
    region = _region(lam)
    adc = None
    if region == "boundary":
        zeta = lam / abs(lam)
        adc = adc_test(space.theta, zeta)
        if not adc.has_adc:
            return ClassifyResult(lam, region, "essential", 0j, 0, adc,
                                  "no angular derivative at this direction")
    d = delta_tilde(space, lam) if region == "outside" else delta(space, lam)
    if abs(d) <= tol_det:
        vecs = eigvec_build(space, lam)
        return ClassifyResult(lam, region, "eigenvalue", d,
                              vecs.shape[0], adc)
    if region == "boundary":
        pts, _ = essential_spectrum(space)
        if any(abs(p - zeta) <= 1e-9 for p in pts):
            return ClassifyResult(
                lam, region, "essential", d, 0, adc,
                "boundary cluster point of the inner function")
    return ClassifyResult(lam, region, "resolvent-point", d, 0, adc)


__all__ = [
    "ShiftConstants", "shift_constants", "delta", "delta_tilde",
    "eigvec_build", "solve_theta_equals", "point_spectrum",
    "SpectrumPoint", "SpectrumReport", "adc_test", "AdcResult",
    "essential_spectrum", "classify", "ClassifyResult", "spectral_key",
]
