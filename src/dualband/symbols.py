"""Scalar symbols on the unit circle.

Two families of objects:

* ``LaurentSymbol``, a function on the circle held exactly in one of two
  forms: a finite Laurent expansion, or a rational expression
  ``z^shift * num(z) / den(z)``.  Products, sums and circle conjugates
  stay exact; numbers combine as constant symbols (``as_symbol``).

* ``InnerFunction``, one flat record of an inner function: a unimodular
  ``const``, the Blaschke ``zeros`` and the atomic mass ``points``
  (theta = const * B * S, Garnett, *Bounded Analytic Functions*, ch. II).
  A product concatenates zeros and points and multiplies constants.
  ``is_monomial`` marks theta = const z^n, the one place that test is
  made.  Mass points are evaluation-only: asking for coefficients
  (``polynomials``, ``as_symbol``) raises, since no dyadic grid can
  resolve the essential singularity at a mass point.

Grid conventions: grids are the ``G``-th roots of unity, ``G`` a power of
two.  ``grid_fft(values)`` returns coefficients in standard FFT layout
(index ``m`` holds frequency ``m`` for ``m < G/2``, else ``m - G``), so
the analytic half is the slice ``[..., :G//2]``.  Both transforms are
one pocketfft call each: ``grid_fft`` scales by 1/G inside the transform
(``norm="forward"``) and ``grid_ifft`` is the unscaled sum.  A power of
two scales exactly, so this gives the same bits as scaling after an
unscaled transform, without a second pass over the array.
Quadrature means the plain grid average, which integrates trigonometric
polynomials below the Nyquist frequency exactly.

Two grid rules pick ``G`` when the caller does not:

* The dense quadrature rule, ``choose_grid`` here, read through
  ``ModelSpaceBasis.default_grid`` and ``DualBandSpace.default_grid``:
  exact Laurent operands add their spans; a rational refines from its
  own first grid, the power of two at or above eight times its
  |shift| + num.size + den.size, and the result takes one extra
  doubling.  The trapezoidal rule converges geometrically for a
  rational, at a rate its poles set, so its own data fix where to
  start.  A grid above ``GRID_CAP`` raises ``CoefficientError``.  It
  serves the compressions on K_theta and on the dual-band space, and
  every coefficient read made without a G (``fourier_coeffs``,
  ``coeff_dict``, ``tail_energy``).  The guard doubling squares a
  rational's geometric alias (Trefethen and Weideman, SIAM Review 56,
  2014), so coefficients down to about 1e-15 are the symbol's own.
* The extension rule, ``DualBandSpace.extension_grid``: the quadrature
  grid of the space and g (for the R family, g is R) with eight more
  frequencies of span, raised to the power of two at or above four
  times the coefficient window.  It serves every four-by-four symbol
  (``extension`` and ``factorization``) and has no floor of its own.
  The lam-dependent factor profiles need none: a space's theta is a
  finite Blaschke product, and both profiles are rationals with theta's
  poles only.  Inside the disc the profile is the difference quotient
  (theta(z) - theta(lam)) / (z - lam).  Outside it is
  (1 - tau theta(z)) / (z - lam) with tau = conj(theta(1/conj(lam))),
  and the reflection identity theta(z) conj(theta(1/conj(z))) = 1 makes
  its pole at lam removable.  The quadrature rule resolves theta, so it
  resolves both profiles.

Sampling convention: ``sample(G)`` reads an object on the size-G grid.
It is computed once per grid size (``memo``), kept on the object and
returned read-only.  A symbol samples by one inverse FFT of its
coefficients, each folded to FFT index k mod G (colliding ones add): on
the G-th roots of unity z**k = z**(k mod G), so this is exact for every
G, spans above G/2 included; a rational divides its folded numerator by
its folded denominator.  ``eval_at`` is for points off the grid.  Grid
readers take the grid size, not the points: ``difference_quotient``
reads ``theta.sample(G)`` for every new lam and serves only the
factorizations; the spectrum path samples nothing per lam.
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import CoefficientError, PoleError

TAU_ROOT = 1e-9      # denominator roots must stay this far from the circle
TAU_DISC = 1e-12     # Blaschke zeros must stay inside by this margin
TAU_EVAL = 1e-10     # pointwise evaluation agreement tolerance
TAU_ALIAS = 1e-12    # band-energy threshold for the grid refinement policy
GRID_CAP = 2 ** 20


_GRIDS = {}


def grid_points(G):
    """The G-th roots of unity, counterclockwise from 1: one read-only
    array per G."""
    z = _GRIDS.get(G)
    if z is None:
        z = np.exp(2j * np.pi * np.arange(G) / G)
        z.flags.writeable = False
        _GRIDS[G] = z
    return z


def grid_fft(values, out=None):
    """Samples on the dyadic grid -> Fourier coefficients, FFT layout,
    along the last axis; the 1/G scale is applied inside the transform.
    ``out`` (it may be ``values`` itself) receives the result."""
    return np.fft.fft(np.asarray(values, dtype=complex), norm="forward",
                      out=out)


def grid_ifft(coeffs, out=None):
    """Inverse of ``grid_fft``, along the last axis: unscaled.  ``out``
    (it may be ``coeffs`` itself) receives the result."""
    return np.fft.ifft(np.asarray(coeffs, dtype=complex), norm="forward",
                       out=out)


def memo(store, G, evaluate):
    """store[G], set once to the read-only evaluate(grid_points(G))."""
    got = store.get(G)
    if got is None:
        got = evaluate(grid_points(G))
        got.flags.writeable = False
        store[G] = got
    return got


def fft_freqs(G):
    """Frequency carried by each FFT index: 0..G/2-1, then -G/2..-1."""
    m = np.arange(G)
    return np.where(m < G // 2, m, m - G)


def analytic_project_values(values, out=None):
    """Pointwise projection onto nonnegative frequencies (Riesz P+),
    along the last axis.  Both transforms run in one array: ``out``
    when given (it may be ``values`` itself), else a new one."""
    c = grid_fft(values, out=out)
    c[..., c.shape[-1] // 2:] = 0.0
    return grid_ifft(c, out=c)


def _trim(arr):
    """Drop exactly-zero leading/trailing coefficients; keep at least one."""
    arr = np.asarray(arr, dtype=complex)
    nz = np.flatnonzero(arr)
    if nz.size == 0:
        return np.zeros(1, dtype=complex), 0
    return arr[nz[0]:nz[-1] + 1], int(nz[0])


def _check_den(den, root_check=True):
    den, lead = _trim(den)
    if lead:
        raise PoleError("denominator vanishes at z = 0")
    if root_check and den.size > 1:
        # a tiny leading coefficient overflows the companion matrix; that
        # is reported below as a CoefficientError, not as a float warning
        with np.errstate(all="ignore"):
            if np.count_nonzero(den) == 2:
                # d0 + dm z^m: every root has modulus |d0 / dm|^(1/m)
                moduli = abs(den[0] / den[-1]) ** (1.0 / (den.size - 1))
            else:
                try:
                    moduli = np.abs(np.roots(den[::-1]))
                except np.linalg.LinAlgError:
                    moduli = np.array([np.nan])
        if not np.all(np.isfinite(moduli)):
            raise CoefficientError(
                f"the roots of a degree-{den.size - 1} denominator cannot "
                "be located in double precision")
        gap = float(np.min(np.abs(moduli - 1.0)))
        if gap <= TAU_ROOT:
            raise PoleError(
                f"denominator has a root {gap:.1e} from the unit circle, "
                f"within TAU_ROOT = {TAU_ROOT:.0e}")
    return den


class LaurentSymbol:
    """A scalar function on the unit circle, held exactly.

    kind == "laurent":  value = sum coeffs[i] * z**(offset + i)
    kind == "rational": value = z**shift * num(z) / den(z)

    A rational built from given coefficients (``rational``, or the
    constructor) root-checks its denominator: no root may lie within
    TAU_ROOT of the circle, else PoleError.  A binomial d0 + dm z^m has
    every root at modulus |d0 / dm|^(1/m); any other denominator goes
    through ``np.roots``.  A denominator whose roots double precision
    cannot locate (a tiny top coefficient overflows the companion matrix)
    raises CoefficientError.  Products, sums and circle conjugates
    (``__mul__``, ``__add__``, ``conj``) skip that check (``_derived``):
    their denominator is a product of checked denominators, or a checked
    one reflected, whose roots are the roots of the factors, or the
    factor roots reflected in the circle.  A root-check of a degree-128
    denominator that is not a binomial costs one eigenvalue solve of a
    128 x 128 companion matrix, which every product would repeat.
    """

    __slots__ = ("kind", "coeffs", "offset", "num", "den", "shift",
                 "_samples")

    def __init__(self, kind, coeffs=None, offset=0, num=None, den=None,
                 shift=0, _root_check=True):
        self.kind = kind
        self._samples = {}
        if kind == "laurent":
            self.coeffs, lead = _trim(coeffs)
            self.offset = int(offset) + lead
        elif kind == "rational":
            num, lead = _trim(num)
            self.num = num
            self.shift = int(shift) + lead
            self.den = _check_den(den, _root_check)
        else:
            raise ValueError(f"unknown symbol kind {kind!r}")

    # ---------------------------------------------------------------- build
    @classmethod
    def from_coeffs(cls, coeffs, offset=0):
        if isinstance(coeffs, dict):
            if not coeffs:
                return cls("laurent", coeffs=[0.0], offset=0)
            lo = min(coeffs)
            arr = np.zeros(max(coeffs) - lo + 1, dtype=complex)
            for j, c in coeffs.items():
                arr[j - lo] = c
            return cls("laurent", coeffs=arr, offset=lo)
        return cls("laurent", coeffs=coeffs, offset=offset)

    @classmethod
    def monomial(cls, k, c=1.0):
        return cls("laurent", coeffs=[c], offset=k)

    @classmethod
    def constant(cls, c):
        return cls("laurent", coeffs=[c], offset=0)

    @classmethod
    def rational(cls, num, den, shift=0):
        return cls("rational", num=num, den=den, shift=shift)

    @classmethod
    def _derived(cls, num, den, shift):
        """A rational whose denominator was root-checked in its factors:
        trimmed and checked at z = 0 like any other, but no np.roots."""
        return cls("rational", num=num, den=den, shift=shift,
                   _root_check=False)

    # ----------------------------------------------------------- inspection
    def support(self):
        """(lowest, highest) frequency for the laurent kind."""
        if self.kind != "laurent":
            raise CoefficientError("support is only exact for laurent symbols")
        return self.offset, self.offset + self.coeffs.size - 1

    def span(self):
        """Largest |frequency| that carries mass, when exactly known."""
        if self.kind == "laurent":
            lo, hi = self.support()
            return max(abs(lo), abs(hi))
        return None

    # ----------------------------------------------------------- evaluation
    def eval_at(self, z):
        z = np.asarray(z, dtype=complex)
        if self.kind == "laurent":
            out = np.zeros(z.shape, dtype=complex)
            for i in np.flatnonzero(self.coeffs).tolist():
                out = out + self.coeffs[i] * z ** (self.offset + i)
            return out if out.shape else complex(out)
        denv = np.polyval(self.den[::-1], z)
        if np.any(np.abs(denv) < 1e-13):
            raise PoleError("evaluation at a pole of the symbol")
        numv = np.polyval(self.num[::-1], z)
        out = z ** self.shift * numv / denv
        return out if out.shape else complex(out)

    def sample(self, G):
        """Values on the size-G dyadic grid."""
        return memo(self._samples, G, self._grid_values)

    def _grid_values(self, z):
        """Values on the grid z: inverse FFTs of the folded coefficients."""
        if self.kind == "laurent":
            return _fold_ifft(self.coeffs, self.offset, z.size)
        denv = _fold_ifft(self.den, 0, z.size)
        if np.any(np.abs(denv) < 1e-13):
            raise PoleError("evaluation at a pole of the symbol")
        return _fold_ifft(self.num, self.shift, z.size) / denv

    # ----------------------------------------------------------- transforms
    def fourier_coeffs(self, G=None):
        """Fourier coefficients over [-G/2, G/2), as (coeffs, lowest_index).

        Without a G they are read on the quadrature grid,
        ``choose_grid([self])``: exact for the laurent kind, and for the
        rational kind aliased by about 1e-16 at most, near +-G/2.  A G
        the caller gives is used as it stands; one at or below twice the
        span aliases, as plain FFT sampling does.
        """
        G = G or choose_grid([self])
        c = grid_fft(self.sample(G))
        return np.concatenate([c[G // 2:], c[:G // 2]]), -(G // 2)

    def coeff_dict(self, G=None, tol=0.0):
        c, lo = self.fourier_coeffs(G)
        keep = np.flatnonzero(np.abs(c) > tol)
        return dict(zip((lo + keep).tolist(), c[keep]))

    # ------------------------------------------------------------ operators
    def __mul__(self, other):
        a, b = self, as_symbol(other)
        if a.kind == "laurent" and b.kind == "laurent":
            return LaurentSymbol.from_coeffs(
                np.convolve(a.coeffs, b.coeffs), a.offset + b.offset)
        ar, br = a._as_rational(), b._as_rational()
        return LaurentSymbol._derived(
            np.convolve(ar.num, br.num), np.convolve(ar.den, br.den),
            ar.shift + br.shift)

    __rmul__ = __mul__

    def __add__(self, other):
        a, b = self, as_symbol(other)
        if a.kind == "laurent" and b.kind == "laurent":
            lo = min(a.offset, b.offset)
            hi = max(a.offset + a.coeffs.size, b.offset + b.coeffs.size)
            out = np.zeros(hi - lo, dtype=complex)
            out[a.offset - lo:a.offset - lo + a.coeffs.size] += a.coeffs
            out[b.offset - lo:b.offset - lo + b.coeffs.size] += b.coeffs
            return LaurentSymbol.from_coeffs(out, lo)
        ar, br = a._as_rational(), b._as_rational()
        m = min(ar.shift, br.shift)
        left = np.convolve(ar.num, br.den)
        right = np.convolve(br.num, ar.den)
        width = max(ar.shift - m + left.size, br.shift - m + right.size)
        num = np.zeros(width, dtype=complex)
        num[ar.shift - m:ar.shift - m + left.size] += left
        num[br.shift - m:br.shift - m + right.size] += right
        return LaurentSymbol._derived(num, np.convolve(ar.den, br.den), m)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (as_symbol(other) * (-1.0))

    def __rsub__(self, other):
        return (self * (-1.0)) + other

    def conj(self):
        """The circle conjugate: z -> conj(value(z)) for |z| = 1."""
        if self.kind == "laurent":
            return LaurentSymbol.from_coeffs(
                np.conj(self.coeffs[::-1]),
                -(self.offset + self.coeffs.size - 1))
        num = np.conj(self.num[::-1])
        den = np.conj(self.den[::-1])
        shift = -(self.shift + self.num.size - 1) + (self.den.size - 1)
        return LaurentSymbol._derived(num, den, shift)

    def _as_rational(self):
        if self.kind == "rational":
            return self
        return LaurentSymbol._derived(self.coeffs, [1.0], self.offset)

    # ----------------------------------------------------------- analysis
    def tail_energy(self, band, G=None):
        """Energy sum(|c_j|^2) over the frequency mask band(frequencies)."""
        c, lo = self.fourier_coeffs(G)
        idx = np.arange(lo, lo + c.size)
        return float(np.sum(np.abs(c[band(idx)]) ** 2))

    def __repr__(self):
        if self.kind == "laurent":
            return f"LaurentSymbol(laurent, support={self.support()})"
        return (f"LaurentSymbol(rational, deg_num={self.num.size - 1}, "
                f"deg_den={self.den.size - 1}, shift={self.shift})")


def as_symbol(obj):
    """obj itself when it is a LaurentSymbol; a number becomes a constant."""
    if isinstance(obj, LaurentSymbol):
        return obj
    if isinstance(obj, numbers.Number):
        return LaurentSymbol.constant(obj)
    raise TypeError(f"expected a number or a LaurentSymbol, not "
                    f"{type(obj).__name__}")


def _fold_ifft(coeffs, lo, G):
    """sum_i coeffs[i] * z**(lo + i) on the size-G grid, folded mod G."""
    c = np.zeros(G, dtype=complex)
    np.add.at(c, (lo + np.arange(coeffs.size)) % G, coeffs)
    return grid_ifft(c, out=c)


def _next_pow2(n):
    G = 8
    while G < n:
        G *= 2
    return G


def band_energy(values):
    """Energy in the top/bottom eighth of the frequency window."""
    G = values.size
    c = grid_fft(values)
    f = fft_freqs(G)
    mask = (f >= 3 * G // 8) | (f < -3 * G // 8)
    return float(np.sum(np.abs(c[mask]) ** 2))


def refine_grid(obj, start):
    """Double the grid from start until the outer-eighth coefficient
    energy is at most TAU_ALIAS.

    Returns (G, achieved_band_energy).  Raises CoefficientError when
    GRID_CAP is reached without convergence (for instance near an
    essential singularity on the circle).
    """
    G = start
    while True:
        e = band_energy(obj.sample(G))
        if e <= TAU_ALIAS:
            return G, e
        if G >= GRID_CAP:
            raise CoefficientError(
                f"grid refinement stalled at G={G}, band energy {e:.3e}")
        G *= 2


def choose_grid(objs, extra_span=0):
    """Common quadrature grid for products of the given symbols.

    Exact Laurent operands contribute their summed spans (products convolve
    supports); a rational is refined individually from a first grid set by
    its own degree and shift, and the result receives one extra doubling
    as a product-aliasing guard.  Raises CoefficientError when the grid
    this needs exceeds GRID_CAP.
    """
    span_total = extra_span
    inexact = []
    for o in objs:
        if o.kind == "laurent":
            span_total += o.span()
        else:
            inexact.append(o)
    G = max(64, _next_pow2(2 * span_total + 8))
    for o in inexact:
        # the outer eighth that refine_grid tests then lies at three times
        # the extent of num and den or beyond: neither folds into it, and
        # it holds only the rational's own geometric tail
        start = _next_pow2(8 * (abs(o.shift) + o.num.size + o.den.size))
        Go, _ = refine_grid(o, start=start)
        G = max(G, 2 * Go)
    if G > GRID_CAP:
        raise CoefficientError(
            f"the quadrature needs G={G}, above the cap {GRID_CAP}")
    return G


# --------------------------------------------------------------------------
# inner functions
# --------------------------------------------------------------------------

class InnerFunction:
    """An inner function const * B(z) * S(z), held as one flat record.

    B(z) = prod (z - a_k) / (1 - conj(a_k) z) over ``zeros``, |a_k| < 1
    S(z) = exp( sum mu_j (z + xi_j)/(z - xi_j) ) over ``points``, the
           mass points (xi_j, mu_j), |xi_j| = 1, mu_j > 0

    ``const`` is unimodular.  A record without points is a finite Blaschke
    product; ``is_monomial`` marks theta = const z^n (n >= 1 zeros, all at
    the origin, no points), set once: ``zeros`` is a read-only array and
    ``points`` a tuple of (xi, mu) pairs.  Build through ``blaschke``,
    ``monomial`` and ``atomic``, which check their arguments; ``product``
    concatenates zeros and points and multiplies the constants.  Mass
    points are evaluation-only: ``polynomials`` and ``as_symbol`` raise
    CoefficientError on them.
    """

    __slots__ = ("const", "zeros", "points", "is_monomial", "_samples")

    def __init__(self, const=1.0, zeros=(), points=()):
        self.const = complex(const)
        self.zeros = np.array(zeros, dtype=complex)
        self.zeros.flags.writeable = False
        self.points = tuple(points)
        self.is_monomial = bool(self.zeros.size and not self.zeros.any()
                                and not self.points)
        self._samples = {}

    # ---------------------------------------------------------------- build
    @classmethod
    def blaschke(cls, zeros, const=1.0):
        zeros = np.asarray(zeros, dtype=complex)
        if zeros.size == 0:
            raise ValueError("a Blaschke factor needs at least one zero")
        if np.any(np.abs(zeros) > 1.0 - TAU_DISC):
            raise ValueError("Blaschke zeros must lie inside the disc")
        if abs(abs(const) - 1.0) > TAU_EVAL:
            raise ValueError("Blaschke front constant must be unimodular")
        return cls(const, zeros)

    @classmethod
    def monomial(cls, n):
        """z^n as a Blaschke product with an n-fold zero at the origin."""
        if n < 1:
            raise ValueError("inner monomial needs n >= 1")
        return cls.blaschke([0.0] * n)

    @classmethod
    def atomic(cls, points):
        pts = [(complex(xi), float(mu)) for xi, mu in points]
        if not pts:
            raise ValueError("an atomic factor needs at least one mass point")
        for xi, mu in pts:
            if abs(abs(xi) - 1.0) > TAU_EVAL:
                raise ValueError("atomic mass points must sit on the circle")
            if mu <= 0:
                raise ValueError("atomic masses must be positive")
        return cls(points=pts)

    @classmethod
    def product(cls, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("empty inner product")
        const = 1.0 + 0j
        for f in factors:
            const *= f.const
        return cls(const, np.concatenate([f.zeros for f in factors]),
                   [p for f in factors for p in f.points])

    # ----------------------------------------------------------- evaluation
    def eval_at(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.full(z.shape, self.const, dtype=complex)
        for a in self.zeros:
            out = out * (z - a) / (1.0 - np.conj(a) * z)
        if self.points:
            out = out * np.exp(self._exponent(z))
        return out if out.shape else complex(out)

    def _exponent(self, z):
        """sum mu (z + xi) / (z - xi) over the mass points: S = exp of it."""
        s = np.zeros(z.shape, dtype=complex)
        for xi, mu in self.points:
            d = z - xi
            if np.any(np.abs(d) < 1e-13):
                raise PoleError("atomic inner function at its mass point")
            s = s + mu * (z + xi) / d
        return s

    def derivative_at(self, z):
        z = np.asarray(z, dtype=complex)
        # product rule over the Blaschke factors; stable at the zeros
        facs = np.array([(z - a) / (1.0 - np.conj(a) * z)
                         for a in self.zeros])
        ders = np.array([(1.0 - abs(a) ** 2) / (1.0 - np.conj(a) * z) ** 2
                         for a in self.zeros])
        out = np.zeros(z.shape, dtype=complex)
        for j in range(len(self.zeros)):
            rest = np.prod(np.delete(facs, j, axis=0), axis=0)
            out = out + ders[j] * rest
        out = self.const * out
        if self.points:
            # (B S)' = B' S + B S', with S' = S sum -2 mu xi / (z - xi)^2;
            # S first, which raises PoleError at a mass point
            S = np.exp(self._exponent(z))
            ds = sum(mu * (-2.0 * xi) / (z - xi) ** 2
                     for xi, mu in self.points)
            out = (out + self.const * np.prod(facs, axis=0) * ds) * S
        return out if out.shape else complex(out)

    def sample(self, G):
        """Values on the size-G dyadic grid.  On theta = const z^n
        (``is_monomial``) these are the exact grid powers
        const z_{jn mod G}; ``eval_at`` keeps the factor loop for points
        off the grid."""
        if self.is_monomial:
            n = self.zeros.size
            return memo(self._samples, G, lambda z: self.const * z[
                np.arange(G) * n % G])
        return memo(self._samples, G, self.eval_at)

    def value_at_zero(self):
        v = self.const * np.prod(-self.zeros)
        if self.points:
            v = v * np.exp(-sum(mu for _, mu in self.points))
        return complex(v)

    # ----------------------------------------------------------- structure
    def boundary_spectrum(self):
        """Circle points where the function cannot be continued analytically."""
        return [xi for xi, _ in self.points]

    def has_adc_at(self, lam):
        """Angular derivative / analytic continuation present at |lam| = 1."""
        lam = complex(lam)
        return not any(abs(lam - xi) <= 1e-12 for xi, _ in self.points)

    def polynomials(self):
        """(N, D) with theta = N / D, N = const prod (z - a_k) and
        D = prod (1 - conj(a_k) z): coefficients in ascending powers, both
        of length n + 1.  CoefficientError on mass points, which have no
        polynomial form."""
        if self.points:
            raise CoefficientError(
                "atomic singular inner functions have no coefficient form")
        num = np.array([self.const], dtype=complex)
        den = np.array([1.0], dtype=complex)
        for a in self.zeros:
            num = np.convolve(num, [-a, 1.0])
            den = np.convolve(den, [1.0, -np.conj(a)])
        return num, den

    def as_symbol(self):
        """Exact rational LaurentSymbol (finite Blaschke content only)."""
        return LaurentSymbol.rational(*self.polynomials())

    def __repr__(self):
        return (f"InnerFunction(degree={self.zeros.size}, "
                f"masses={len(self.points)})")


def difference_quotient(theta, lam, G):
    """(theta(z) - theta(lam)) / (z - lam) on the size-G grid.

    Reads theta.sample(G).  Grid nodes within 1e-13 of lam take the exact
    limit theta'(lam), filling the removable point; the quotient itself
    is well conditioned everywhere else on the grid.
    """
    lam = complex(lam)
    thl = theta.eval_at(lam)
    d = grid_points(G) - lam
    hit = np.abs(d) < 1e-13
    safe = np.where(hit, 1.0, d)
    out = (theta.sample(G) - thl) / safe
    if np.any(hit):
        out = np.where(hit, theta.derivative_at(lam), out)
    return out
