"""Explicit Wiener-Hopf factorizations for the shift extension family.

For the four-by-four extension symbol of the compression of z - lam the
factors are written down in closed form; no numerical factorization is
performed.  Every branch stores the minus factor M, the inverse X of
the plus factor, the plus factor P = X^{-1} itself, and diagonal powers
k with

    symbol = M diag(z^k) X^{-1},   i.e.   symbol X = M diag(z^k),

which ``verify_factorization`` measures on the grid together with
X P = I, the half-plane supports and the determinant laws of the
factors.

Every entry of P is a constant times 1, z - lam, the lam-profile prof,
or an affine function of theta: X's Schur complement on its constant
2 x 2 block is a constant 2 x 2 matrix, and (z - lam) prof is
theta - theta(lam) inside and on the circle, 1 - tau theta outside.
The entries are written in that factored form, never as a difference
such as 1 - (z - lam) e prof on the grid, so no grid point carries a
cancellation and no per-point inverse is taken.

Four families are covered:

* ``canonical_factors``: bounded canonical factorization at any point
  off the point spectrum, in two algebraic branches (the quadratic
  discriminant scalar disc = 1 - kappa tbar^2 away from zero or at it)
  and with separate interior and exterior entry formulas.
* ``meromorphic_factors``: the R-family factorization with polynomial
  right factor, meromorphic on the minus side.
* ``hminus_split``: the unit-determinant peeling of the R-family symbol
  into a bounded-minus factor times a two-block triangular remainder.
* ``l2_factors``: unbounded (L^2) canonical factorization of that
  triangular remainder for R = z - lam, with its exceptional branch at
  theta(lam) = -1/(1 - conj(theta(0))) where the partial indices jump
  to (-1, -1, 1, 1).

``resolvent_apply`` chains the canonical factors into the standard
solve: with G^{-1} = [[theta I, 0], [-C, conj(theta) I]] (C the
symbol's lower-left block, |theta| = 1 on the circle) the minus factor
inverts as M^{-1} = P G^{-1}, so the lifted right-hand side
H = (0, 0, h1, h2) solves as Y = conj(theta) (P[:, 2] h1 + P[:, 3] h2);
Y is projected onto the analytic half, X is applied, and the first two
components are read off.

Layout: the canonical branch formulas are written once.  The symbol is
a row literal (each entry a number or a length-G array, as in
``MatrixSymbol.rows``); M, X and P are generators that build a row
literal when the row is read.  ``canonical_factors`` stacks every row
for verification.  ``resolvent_apply`` without given factors streams
them and builds no (4, 4, G) stack: each entry of M goes into M's
squared norm as it is made and is dropped, P is read one row at a time
into the rows of Y and the running squared norms of M^{-1}'s columns,
Y is one (4, G) block projected in place, and only rows 0 and 1 of X
are built.  With given factors it reads the stacks by the same [i][j]
indexing and arithmetic, to the same bits.  The R family and the L^2
factors are stacked where they are built.

Working set: a resolvent solve holds a bounded number of length-G
arrays, however many entries its factors have: at G = 16384 about 23
(5.6 MiB), where holding every entry of every factor took 54.  No buffer
outlives a call.  Each formula keeps its expression as written: numpy's
complex product is not bitwise commutative, and on arrays of 256 KiB or
more numpy may evaluate a * (b + c) inside the temporary as (b + c) * a,
so hoisting or reordering a subexpression can move the last bit.

Condition numbers: ``verify_factorization``'s ``plus_cond`` and
``resolvent_apply``'s ``cond_minus`` hold the Frobenius bound of
:mod:`dualband.matsym` (``frobenius_cond``),
max_z ||F(z)||_F * max_z ||F(z)^{-1}||_F, for the plus factor (from X
and P) and the minus factor (from M and M^{-1} = P G^{-1}, taken one
column at a time).  It lies between the spectral max_z s_1 / min_z s_4
and four times it.  ``resolvent_apply`` warns when ``cond_minus`` times
eps exceeds ``COND_WARN``, the resolvent contract, which the CLI counts
as a violation.

Grids: without an explicit G every factorization is gridded by the
extension rule, ``DualBandSpace.extension_grid``: the space's quadrature
grid (``DualBandSpace.default_grid`` over ``symbols.choose_grid``) with
eight more frequencies of span.  The R family passes R, so R's span
counts; the shift family z - lam passes nothing.  No floor is needed for
the lam-dependent profiles: the difference quotient
(theta(z) - theta(lam)) / (z - lam) inside the disc and
(1 - tau theta(z)) / (z - lam), tau = conj(theta(1/conj(lam))), outside
are rationals with theta's poles only, since the reflection identity
theta(z) conj(theta(1/conj(z))) = 1 removes the pole at lam.  The
quadrature rule already resolves theta.  The grid conventions in
:mod:`dualband.symbols` describe both rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import EigenvalueEncounteredError, NoAdcError
from .extension import _split_form_rows, split_form_symbol
from .matsym import (MatrixSymbol, add_sq, apply_rows, frobenius_cond,
                     monomial_diag_values, sq_frobenius)
from .shift_spectra import _region, delta, delta_tilde, shift_constants
from .symbols import (LaurentSymbol, analytic_project_values,
                      difference_quotient, grid_points)

CASE_SWITCH = 1e-10     # |disc| at or below this selects the degenerate branch
CASE_WARN = 1e-6        # nonzero but tiny disc: flag ill conditioning
DET_FLOOR = 1e-11       # factor determinant this small means lam is spectral
L2_EXCEPTIONAL = 1e-10
L2_WARN = 1e-6
COND_WARN = 1e-6        # cond_minus * eps above this can cross the contract


@dataclass
class FactorizationResult:
    kind: str
    lam: complex | None
    grid: int
    symbol: MatrixSymbol
    minus: MatrixSymbol
    plus_inverse: MatrixSymbol
    plus: MatrixSymbol
    diag_powers: tuple
    det_expected: complex | None
    warnings: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)


def build_g_r(space, R, G=None):
    """Extension symbol of the polynomial family member R, split form."""
    rv = R.sample(G or space.extension_grid(R))
    return split_form_symbol(space, rv), rv


def build_g_tilde(space, R, G=None):
    """Triangular remainder of the R-family after the bounded peel."""
    G = G or space.extension_grid(R)
    th = space.theta.sample(G)
    tb = np.conj(th)
    rv = R.sample(G)
    return MatrixSymbol.rows(G, [
        [tb, 0, 0, 0],
        [0, tb, 0, 0],
        [rv * (1 - tb), 0, th, 0],
        [0, rv * (1 - tb), 0, th],
    ]), rv


# --------------------------------------------------------------------------
# canonical factorization of the shift symbol
# --------------------------------------------------------------------------

_FACTORS = ("symbol", "minus", "plus_inverse", "plus")


def canonical_factors(space, lam, G=None):
    """Bounded canonical factorization at lam off the point spectrum.

    Branch selection: the quadratic scalar disc = 1 - kappa tbar^2
    decides between the generic entries and the degenerate ones; the
    location of lam relative to the circle decides the analytic profile
    (difference quotient inside, reproducing kernel outside).  A factor
    determinant at the eigenvalue floor aborts: no bounded canonical
    factorization exists there.
    """
    res = _canonical_literals(space, lam, G)
    for name in _FACTORS:
        setattr(res, name,
                MatrixSymbol.rows(res.grid, list(getattr(res, name))))
    return res


def _canonical_literals(space, lam, G):
    """The branch formulas of ``canonical_factors``: its result with the
    symbol a row literal and the minus factor, the plus inverse and the
    plus factor generators of row literals, each row built as it is read
    and read once."""
    lam = complex(lam)
    G = G or space.extension_grid()
    c = shift_constants(space)
    region = "outside" if _region(lam) == "outside" else "inside"
    warnings = []

    if region == "inside":
        thl = complex(space.theta.eval_at(lam))
        det_lam = delta(space, lam)
    else:
        tau = complex(np.conj(space.theta.eval_at(1.0 / np.conj(lam))))
        det_lam = delta_tilde(space, lam)

    degenerate = abs(c.disc) <= CASE_SWITCH
    if degenerate:
        scale = -det_lam / c.beta
    else:
        scale = -det_lam / c.disc
        if abs(c.disc) <= CASE_WARN:
            warnings.append(
                f"quadratic scalar disc is tiny ({abs(c.disc):.3e}); "
                "the generic branch is ill conditioned")
    if abs(scale) <= DET_FLOOR:
        raise EigenvalueEncounteredError(
            f"factor determinant {scale:.3e} at lam={lam}: "
            "the point belongs to the point spectrum")

    z = grid_points(G)
    th = space.theta.sample(G)
    zl = z - lam
    Apb, Am = space.split_values(G)
    symbol = _split_form_rows(th, zl, Apb, Am)
    tb = symbol[0][0]                                      # conj(theta)

    if region == "inside":
        prof = difference_quotient(space.theta, lam, G)   # analytic profile
        zlp = th - thl                                     # zl * prof
        lower2, lower4 = -1, -1                            # X rows 3, 4
        m32, m44 = -thl, -thl

        def m_right(A):                                    # M[2][3], M[3][1]
            return A * (1 - thl * tb)
    else:
        prof = (1 - tau * th) / zl
        zlp = tau * th - 1                                 # -zl * prof
        lower2, lower4 = tau, tau
        m32, m44 = 1, 1

        def m_right(A):
            return A * (tb - tau)

    if not degenerate:
        b, cc = -(c.alpha / c.disc), -(c.beta / c.disc)
        c0 = c.kappa * c.tbar / c.disc

        def plus_inv():
            yield [th + c0, prof, b, 0]
            yield [cc, 0, th + c0, prof]
            yield [-zl, lower2, 0, 0]
            yield [0, 0, -zl, lower4]

        def minus():
            profc = prof * tb
            yield [1 + c0 * tb, profc, b * tb, 0]
            yield [cc * tb, 0, 1 + c0 * tb, profc]
            yield [cc * zl * (Apb * tb - c.alpha * c.tbar), m32,
                   (zl / c.disc) * (Apb - c.alpha
                                    + c.kappa * c.tbar * Apb * (tb - c.tbar)),
                   m_right(Apb)]
            yield [(zl / c.disc) * (Am - c.beta
                                    + c.kappa * c.tbar * Am * (tb - c.tbar)),
                   m_right(Am), b * zl * (Am * tb - c.beta * c.tbar), m44]

        if region == "inside":
            e = c0 + thl
            D = b * cc - e * e

            def plus():
                d = (e / D) * (c0 + th) - b * cc / D
                yield [-e / D, b / D, (-e / D) * prof, (b / D) * prof]
                yield [(e / D) * zl, (-b / D) * zl, d, (-b / D) * zlp]
                yield [cc / D, -e / D, (cc / D) * prof, (-e / D) * prof]
                yield [(-cc / D) * zl, (e / D) * zl, (-cc / D) * zlp, d]
        else:
            f = 1 + c0 * tau
            D = b * cc * tau * tau - f * f

            def plus():
                d = b * cc * tau / D - (f / D) * (c0 + th)
                yield [-tau * f / D, b * tau * tau / D, (f / D) * prof,
                       (-b * tau / D) * prof]
                yield [(-f / D) * zl, (b * tau / D) * zl, d, (b / D) * zlp]
                yield [cc * tau * tau / D, -tau * f / D,
                       (-cc * tau / D) * prof, (f / D) * prof]
                yield [(cc * tau / D) * zl, (-f / D) * zl, (cc / D) * zlp, d]
        kind = "canonical-generic"
    else:
        a = c.alpha
        tbar = c.tbar

        def plus_inv():
            yield [-a * (1 - th * tbar), prof, -a * tbar, 0]
            yield [th, 0, 1, prof]
            yield [-tbar * a * zl, lower2, 0, 0]
            yield [-zl, 0, 0, lower4]

        def minus():
            profc = prof * tb
            yield [-a * (tb - tbar), profc, -a * tbar * tb, 0]
            yield [1, 0, tb, profc]
            yield [(Apb - a) * zl, m32, (Apb * tb - a * tbar) * zl,
                   m_right(Apb)]
            yield [-a * Am * (tb - tbar) * zl, m_right(Am),
                   zl * (1 - a * tbar * Am * tb), m44]

        s2 = a * tbar * tbar
        if region == "inside":
            h = 2 * tbar * thl - 1
            u = (tbar * thl - 1) / h

            def plus():
                d = (-tbar / h) * th - (tbar * thl - 1) / h
                yield [1 / (a * h), tbar / h, prof / (a * h),
                       (tbar / h) * prof]
                yield [(-tbar / h) * zl, (-s2 / h) * zl, d,
                       (-s2 / h) * zlp]
                yield [-thl / (a * h), u, (-thl / (a * h)) * prof, u * prof]
                yield [(-1 / (a * h)) * zl, (-tbar / h) * zl,
                       (-1 / (a * h)) * zlp, d]
        else:
            k = tau - 2 * tbar
            u = (tau - tbar) / k

            def plus():
                d = (-tbar / k) * th + (tau - tbar) / (tau * k)
                yield [-tau / (a * k), -tau * tbar / k, prof / (a * k),
                       (tbar / k) * prof]
                yield [(-tbar / k) * zl, (-s2 / k) * zl, d,
                       (-s2 / (tau * k)) * zlp]
                yield [1 / (a * k), u, (-1 / (a * tau * k)) * prof,
                       (-u / tau) * prof]
                yield [(-1 / (a * k)) * zl, (-tbar / k) * zl,
                       (-1 / (a * tau * k)) * zlp, d]
        kind = "canonical-degenerate"

    res = FactorizationResult(kind, lam, G, symbol, minus(), plus_inv(),
                              plus(), (0, 0, 0, 0), complex(scale), warnings)
    res.extras = {"region": region, "disc": complex(c.disc),
                  "det_lambda": complex(det_lam), "minus_degree": 0}
    return res


# --------------------------------------------------------------------------
# the R family
# --------------------------------------------------------------------------

def meromorphic_factors(space, R, G=None):
    """Meromorphic factorization of the R-family symbol.

    The plus factor is the inverse of the stored matrix, analytic with
    determinant R^2; the minus side is bounded only up to the degree of
    R, which the verification treats as the allowed support.
    """
    G = G or space.extension_grid(R)
    symbol, rv = build_g_r(space, R, G=G)
    th = space.theta.sample(G)
    tb = np.conj(th)
    Apb, Am = space.split_values(G)
    plus_inv = MatrixSymbol.rows(G, [
        [1, 0, th, 0],
        [0, 1, 0, th],
        [0, 0, -rv, 0],
        [0, 0, 0, -rv],
    ])
    minus = MatrixSymbol.rows(G, [
        [tb, 0, 1, 0],
        [0, tb, 0, 1],
        [rv, rv * Apb * tb, 0, Apb * rv],
        [rv * Am * tb, rv, Am * rv, 0],
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        rinv = 1 / rv       # a zero of R on the grid fails plus_cond
        thr = th * rinv
    plus = MatrixSymbol.rows(G, [
        [1, 0, thr, 0],
        [0, 1, 0, thr],
        [0, 0, -rinv, 0],
        [0, 0, 0, -rinv],
    ])
    deg = _poly_degree(R)
    res = FactorizationResult("meromorphic", None, G, symbol, minus,
                              plus_inv, plus, (0, 0, 0, 0), None)
    res.extras = {"r_values": rv, "minus_degree": deg, "region": "family"}
    return res


def _poly_degree(R):
    if isinstance(R, LaurentSymbol) and R.kind == "laurent":
        lo, hi = R.support()
        if lo >= 0:
            return int(hi)
    return None


def hminus_split(space, R, G=None):
    """Peel the R-family symbol: symbol = H * remainder, det H = 1.

    H carries all coupling to the band-ratio split and is invertible
    with constant determinant one; the remainder is the two-block
    triangular symbol handled by the L^2 factorization.  Returns
    (H, remainder, residual).
    """
    G = G or space.extension_grid(R)
    symbol, rv = build_g_r(space, R, G=G)
    Apb, Am = space.split_values(G)
    H = MatrixSymbol.rows(G, [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [rv, rv * Apb, 1, 0],
        [rv * Am, rv, 0, 1],
    ])
    tilde, _ = build_g_tilde(space, R, G=G)
    residual = symbol.max_abs_diff(H.matmul(tilde))
    return H, tilde, residual


# --------------------------------------------------------------------------
# L^2 factorization of the triangular remainder
# --------------------------------------------------------------------------

def l2_factors(space, lam, G=None):
    """Unbounded canonical factorization of the triangular remainder.

    Works for lam in the closed disc (boundary points need an angular
    derivative).  The generic branch has zero partial indices and factor
    determinant -(q + theta(lam))^2 with q = 1/(1 - conj(theta(0))); at
    theta(lam) = -q those factors degenerate and the exceptional branch
    takes over with indices (-1, -1, 1, 1) and determinant theta(lam)^2.
    """
    lam = complex(lam)
    if _region(lam) == "outside":
        raise ValueError("the L2 factorization applies inside the closed disc")
    if _region(lam) == "boundary" and not space.theta.has_adc_at(lam):
        raise NoAdcError(
            f"no angular derivative at {lam}: the difference quotient "
            "does not belong to the model space")
    G = G or space.extension_grid()
    z = grid_points(G)
    th = space.theta.sample(G)
    tb = np.conj(th)
    zl = z - lam
    thl = complex(space.theta.eval_at(lam))
    tbar = np.conj(space.theta.value_at_zero())
    q = 1.0 / (1.0 - tbar)
    dq = difference_quotient(space.theta, lam, G)
    dqc = dq * tb
    warnings = []

    gap = abs(thl + q)
    if gap <= L2_EXCEPTIONAL:
        m11 = z * dqc
        m13 = np.conj(z)
        m31 = z * (thl * tb - 1 - thl)
        m33 = -zl * np.conj(z)
        plus_inv = MatrixSymbol.rows(G, [
            [dq, 0, th, 0],
            [0, dq, 0, th],
            [-1, 0, -zl, 0],
            [0, -1, 0, -zl],
        ])
        minus = MatrixSymbol.rows(G, [
            [m11, 0, m13, 0],
            [0, m11, 0, m13],
            [m31, 0, m33, 0],
            [0, m31, 0, m33],
        ])
        # each 2 x 2 block [[dq, th], [-1, -zl]] has determinant theta(lam)
        plus = MatrixSymbol.rows(G, [
            [-zl / thl, 0, -th / thl, 0],
            [0, -zl / thl, 0, -th / thl],
            [1 / thl, 0, dq / thl, 0],
            [0, 1 / thl, 0, dq / thl],
        ])
        powers = (-1, -1, 1, 1)
        det_expected = thl ** 2
        kind = "l2-exceptional"
        if gap > 1e-13:
            warnings.append(
                f"exceptional branch taken with gap {gap:.3e}; minus-side "
                "support is clean only at the exact exceptional point")
    else:
        if gap <= L2_WARN:
            warnings.append(
                f"theta(lam) sits {gap:.3e} from the exceptional value; "
                "the generic factors are nearly singular")
        m31 = zl * (q * (1 - tb) - 1)
        m32 = -1 + thl * (tb - 1)
        plus_inv = MatrixSymbol.rows(G, [
            [q + th, dq, 0, 0],
            [0, 0, q + th, dq],
            [-zl, -1, 0, 0],
            [0, 0, -zl, -1],
        ])
        minus = MatrixSymbol.rows(G, [
            [q * tb + 1, dqc, 0, 0],
            [0, 0, q * tb + 1, dqc],
            [m31, m32, 0, 0],
            [0, 0, m31, m32],
        ])
        # each 2 x 2 block [[q + th, dq], [-zl, -1]] has determinant
        # -(q + theta(lam))
        r = 1 / (q + thl)
        plus = MatrixSymbol.rows(G, [
            [r, 0, r * dq, 0],
            [-r * zl, 0, -r * (q + th), 0],
            [0, r, 0, r * dq],
            [0, -r * zl, 0, -r * (q + th)],
        ])
        powers = (0, 0, 0, 0)
        det_expected = -(q + thl) ** 2
        kind = "l2-generic"

    shift = LaurentSymbol.from_coeffs({0: -lam, 1: 1.0})
    symbol, _ = build_g_tilde(space, shift, G=G)
    res = FactorizationResult(kind, lam, G, symbol, minus, plus_inv, plus,
                              powers, complex(det_expected), warnings)
    res.extras = {"q": complex(q), "theta_lam": thl, "gap": float(gap),
                  "minus_degree": 0, "region": "closed-disc"}
    return res


# --------------------------------------------------------------------------
# verification and the resolvent
# --------------------------------------------------------------------------

def verify_factorization(res):
    """Measure everything the factorization claims, on its own grid.

    Returns a dict of residuals: the factor identity both ways (the
    second through the stored plus factor P), X P = I, the plus
    factor's condition bound, the half-plane supports of the factors,
    and the determinant laws (constant and equal to the closed form, or
    R^2 pointwise for the meromorphic family).
    """
    lhs = res.symbol.matmul(res.plus_inverse)
    rhs = res.minus
    if any(res.diag_powers):
        rhs = rhs.scale_columns(
            monomial_diag_values(res.diag_powers, res.grid))
    out = {"identity_residual": lhs.max_abs_diff(rhs)}

    out["plus_cond"] = frobenius_cond(
        "inverse", sq_frobenius(res.plus_inverse.values),
        sq_frobenius(res.plus.values))
    xp = res.plus_inverse.matmul(res.plus).values
    xp[np.arange(4), np.arange(4)] -= 1                 # X P - I
    out["plus_identity_residual"] = float(np.max(np.abs(xp)))
    recon = rhs.matmul(res.plus)
    out["reconstruction_residual"] = recon.max_abs_diff(res.symbol)

    out["plus_tail"] = float(np.sqrt(res.plus_inverse.max_tail(
        lambda f: f < 0)))
    deg = res.extras.get("minus_degree")
    if deg is not None:
        out["minus_tail"] = float(np.sqrt(res.minus.max_tail(
            lambda f, d=deg: f > d)))

    det_minus = res.minus.det_values()
    det_plusinv = res.plus_inverse.det_values()
    rv = res.extras.get("r_values")
    if rv is not None:
        out["det_minus_dev"] = float(np.max(np.abs(det_minus - rv ** 2)))
        out["det_plus_inverse_dev"] = float(
            np.max(np.abs(det_plusinv - rv ** 2)))
    elif res.det_expected is not None:
        out["det_minus_dev"] = float(
            np.max(np.abs(det_minus - res.det_expected)))
        out["det_plus_inverse_dev"] = float(
            np.max(np.abs(det_plusinv - res.det_expected)))
    return out


def resolvent_apply(space, lam, h_coords, G=None, factors=None):
    """Solve the compression of (z - lam) applied to f = h by factors.

    Lifts h into the extension as H = (0, 0, h1, h2), solves M Y = H as
    Y = P G^{-1} H = conj(theta) (P[:, 2] h1 + P[:, 3] h2), projects Y
    onto the analytic half, applies rows 0 and 1 of the stored plus
    inverse X and reads the band coordinates back off them.  The minus
    factor's condition bound takes M^{-1} = P G^{-1} one column at a
    time, with G^{-1} = [[theta I, 0], [-C, conj(theta) I]] and C the
    symbol's lower-left block.  ``factors`` is
    ``canonical_factors(space, lam, G)`` when the caller already holds
    it; otherwise the factors are built here as row literals, one row
    at a time, and never stacked.  Both read the entries by [i][j] with
    the same arithmetic, so they give the same bits.  A coordinate
    vector of the wrong length is refused before any factor is built.
    Returns (coords, diagnostics).
    """
    if factors is not None and (factors.lam != complex(lam)
                                or (G and factors.grid != G)):
        raise ValueError(
            f"factors at lam={factors.lam}, G={factors.grid} do not match "
            f"lam={complex(lam)}, G={G}")
    Gq = factors.grid if factors is not None else G or space.extension_grid()
    h = np.asarray(h_coords, dtype=complex)
    h1, h2 = space.synth_bands(h, Gq)
    if factors is None:
        res = _canonical_literals(space, lam, Gq)
        S, M, X, P = (getattr(res, name) for name in _FACTORS)
    else:
        res = factors
        S, M, X, P = (getattr(res, name).values for name in _FACTORS)
    th = space.theta.sample(Gq)
    tb = S[0][0]                                # conj(theta)

    m_sq = sq_frobenius(M)
    # row i of P gives row i of Y and of M^{-1}'s columns; each column
    # group's squared norm sums in the row-major order of sq_frobenius
    Y = np.empty((4, Gq), dtype=complex)
    inv_sq = [0, 0, 0]                          # columns (2, 3), 0 and 1
    rows = iter(P)
    for i in range(4):
        Pi = next(rows)
        r2, r3 = tb * Pi[2], tb * Pi[3]         # columns 2, 3 of M^{-1}
        Y[i] = r2 * h1 + r3 * h2
        inv_sq[0] = add_sq(add_sq(inv_sq[0], r2), r3)
        for j in (0, 1):                        # columns 0, 1 of M^{-1}
            inv_sq[j + 1] = add_sq(inv_sq[j + 1], th * Pi[j]
                                   - Pi[2] * S[2][j] - Pi[3] * S[3][j])
        del Pi, r2, r3                          # before the next row
    cond = frobenius_cond("solve", m_sq, inv_sq[0] + inv_sq[1] + inv_sq[2])
    warnings = list(res.warnings)
    if cond * np.finfo(float).eps > COND_WARN:
        warnings.append(
            f"minus factor condition bound {cond:.3e} times eps exceeds "
            f"{COND_WARN:.0e}; lam is near the point spectrum")
    analytic_project_values(Y, out=Y)
    coords = space.project_bands(apply_rows(list(islice(X, 2)), Y))

    hn = max(float(np.linalg.norm(h)), 1e-300)
    residual = float(np.linalg.norm(
        space.shift_matrix() @ coords - lam * coords - h)) / hn
    diagnostics = {"cond_minus": cond, "residual": residual, "grid": Gq,
                   "kind": res.kind, "region": res.extras["region"],
                   "warnings": warnings}
    return coords, diagnostics


__all__ = [
    "FactorizationResult", "build_g_r", "build_g_tilde",
    "canonical_factors", "meromorphic_factors", "hminus_split",
    "l2_factors", "verify_factorization",
    "resolvent_apply",
]
