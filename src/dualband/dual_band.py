"""Dual-band subspaces and the compressions acting on them.

A dual-band space is M = phi * K_theta + psi * K_theta for unimodular
functions phi, psi whose ratio conj(phi) * psi annihilates the model
space compression (the two bands are then orthogonal).  The compression
of multiplication by g to M, expressed in the stacked band basis
{phi e_0 .. phi e_{n-1}, psi e_0 .. psi e_{n-1}}, coincides entry for
entry with the two-by-two block matrix

    W = [[ A_g,            A_{conj(phi) psi g} ],
         [ A_{conj(psi) phi g},  A_g           ]]

acting on two copies of K_theta, where A_h is the model-space
compression of h.  ``unitary_equiv_check`` measures this identity with
both sides computed independently.

The space also carries the antilinear symmetry C(phi k1 + psi k2) =
psi C_theta(k1) + phi C_theta(k2), under which every compression is
C-symmetric: T C = C T*.

A space may be "realized" (phi, psi given) or "free": only theta and the
split conj(psi) phi = aminus * conj(theta) + aplus * theta is supplied,
with aplus analytic and aminus co-analytic.  Free spaces support every
band-ratio construction (spectra, factorizations, resolvents) without
naming phi and psi; operator matrices are then formed in the two-copy
coordinates, which the block identity above makes unitarily faithful.

The compression of z, T_z = [[S, alpha K], [beta K, S]], is built in
closed form: S and K from theta's zeros and front constant
(``_shift_closed_form``), alpha and beta from the split.  It samples
nothing.  ``shift_quadrature_residual`` measures it against the
quadrature compression of z, built outside the space's store.

A space keeps the dense matrices it is asked for: T_z and its blocks
(S, K) in their own attributes, and the ``dualband_matrix`` and
``block_w`` results of its latest symbol g, keyed by (kind, g, G as
passed).  A call with a new g drops the previous g's matrices (T_z
stays), so the store stays bounded; it is freed with the space.  Kept
entries are read-only.

Dual-band coordinates are laid out [first band | second band], n each;
``synth_bands`` and ``project_bands`` are the one place that layout
meets grid samples, and ``synth_bands`` refuses any other length.
"""

from __future__ import annotations

import numpy as np

from .errors import (DegeneracyError, MissingDecompositionError,
                     OrthogonalityError, UnimodularityError)
from .model_space import ModelSpaceBasis, OperatorMatrix, ctheta_matrix, tto_matrix
from .shift_spectra import shift_constants
from .symbols import InnerFunction, LaurentSymbol, _next_pow2, as_symbol, memo

TOL_ORTHO = 1e-10
TOL_UNIMOD = 1e-10
TOL_DEGEN = 1e-6
TOL_SPLIT = 1e-10


class DualBandSpace:
    """Validated dual-band data; build through :func:`build_dualband`."""

    def __init__(self, theta, basis, phi, psi, aplus, aminus, ratios, mode,
                 report):
        self.theta = theta
        self.basis = basis
        self.phi = phi
        self.psi = psi
        self.aplus = aplus
        self.aminus = aminus
        # the band ratios (conj(phi) psi, conj(psi) phi), exact symbols
        self.ratios = ratios
        self.mode = mode
        self.report = report
        self.n = basis.n
        self._band_samples = {}
        self._split_constants = None
        self._dense = {}    # (kind, g, G) -> OperatorMatrix
        self._shift = None  # T_z, read-only once built
        self._shift_blocks = None   # its (S, K)

    # ------------------------------------------------------------ sampling
    def band_values(self, G):
        """(2n, G) samples of the stacked band basis (realized mode)."""
        if self.mode != "realized":
            raise MissingDecompositionError(
                "band samples need a realized space")
        return memo(self._band_samples, G, lambda z: np.vstack(
            [self.basis.values(G) * b.sample(G) for b in (self.phi, self.psi)]))

    def synth_bands(self, coords, G):
        """(2, G) samples of the two bands' K_theta functions whose
        coordinates are [first band | second band].  ValueError, before
        any grid work, unless there are 2n coordinates."""
        n = self.n
        coords = np.asarray(coords, dtype=complex)
        if coords.shape != (2 * n,):
            raise ValueError(
                f"dual-band coordinates have length 2n = {2 * n}, "
                f"got {np.size(coords)}")
        out = np.empty((2, G), dtype=complex)
        out[0] = self.basis.synth_values(coords[:n], G)
        out[1] = self.basis.synth_values(coords[n:], G)
        return out

    def project_bands(self, F):
        """[first band | second band] coordinates of the K_theta
        projections of the first two rows of a sample stack F."""
        return np.concatenate([self.basis.project_values(F[0]),
                               self.basis.project_values(F[1])])

    def split_values(self, G):
        """(conj(aplus), aminus) samples on the size-G grid."""
        if self.aplus is None or self.aminus is None:
            raise MissingDecompositionError(
                "this construction needs the band-ratio split")
        return np.conj(self.aplus.sample(G)), self.aminus.sample(G)

    def default_grid(self, symbols=(), extra_span=0):
        bands = (self.phi, self.psi) if self.mode == "realized" \
            else (self.aplus, self.aminus)
        return self.basis.default_grid([*symbols, *bands],
                                       extra_span=extra_span)

    def extension_grid(self, g=None, n_ext=0):
        """Grid of the four-by-four extension symbols of g (or of the
        shift family when g is None) with coefficient window n_ext: the
        quadrature grid with eight more frequencies of span, raised to
        the power of two at or above four times the window."""
        return max(_next_pow2(4 * (n_ext + 1)),
                   self.default_grid([g] if g is not None else (),
                                     extra_span=8))

    # ------------------------------------------------ split scalar values
    def split_constants(self):
        """(A_plus(0), conj-value of aminus at index 0) used by spectra.

        The second value is the evaluation at the origin of the circle
        conjugate of the co-analytic half.  Computed on first call.
        """
        if self._split_constants is None:
            if self.aplus is None or self.aminus is None:
                raise MissingDecompositionError(
                    "spectral formulas need the analytic/co-analytic split")
            self._split_constants = (complex(self.aplus.eval_at(0.0)),
                                     complex(self.aminus.conj().eval_at(0.0)))
        return self._split_constants

    # ------------------------------------------------------------ the shift
    def shift_matrix(self):
        """Read-only matrix of T_z, the compression of z, built once in
        closed form (``_shift_closed_form``).  It needs the split: a
        realized space without one raises MissingDecompositionError.

        T_z is kept on the space apart from the compressions of the
        latest g, and is freed with the space.  Its build leaves the
        latest g's matrices in place.  The band basis is orthonormal, so
        the compression of z - lam is exactly shift_matrix() - lam * I at
        every lam.
        """
        if self._shift is None:
            c = shift_constants(self)
            S, K = self.shift_blocks()
            self._shift = np.block([[S, c.alpha * K], [c.beta * K, S]])
            self._shift.flags.writeable = False
        return self._shift

    def shift_blocks(self):
        """Read-only (S, K) with T_z = [[S, alpha K], [beta K, S]]: S the
        compression of z to K_theta, K = k0 c0^H (``_shift_closed_form``),
        built once.  They need only theta."""
        if self._shift_blocks is None:
            self._shift_blocks = _shift_closed_form(self.basis)
            for m in self._shift_blocks:
                m.flags.writeable = False
        return self._shift_blocks

    def _kept(self, kind, g, G, build):
        """The kept matrix of (kind, g, G); build() on first call.  Its
        entries are made read-only, and the matrices of any other g are
        dropped."""
        key = (kind, g, G)
        got = self._dense.get(key)
        if got is None:
            got = build()
            got.entries.flags.writeable = False
            for k in [k for k in self._dense if k[1] is not g]:
                del self._dense[k]
            self._dense[key] = got
        return got


def build_dualband(theta, phi=None, psi=None, aplus=None, aminus=None,
                   grid=None, tol_ortho=TOL_ORTHO, tol_unimod=TOL_UNIMOD):
    """Validate and assemble a dual-band space.

    Realized mode (phi and psi given) checks unimodularity of both bands,
    orthogonality of the bands over K_theta, and non-degeneracy (neither
    band ratio is a constant multiple of theta).  When theta is a power
    of z the split of conj(psi) phi into co-analytic and analytic halves
    around theta is extracted by frequency bookkeeping; otherwise a
    caller-supplied split is used.  Either split must reproduce the
    band ratio on the grid within TOL_SPLIT, else
    MissingDecompositionError.

    Free mode (no phi/psi) requires theta, aplus, aminus.
    """
    if not isinstance(theta, InnerFunction):
        raise TypeError("theta must be an InnerFunction")
    basis = ModelSpaceBasis(theta)
    n = basis.n
    phi, psi, aplus, aminus = (None if s is None else as_symbol(s)
                               for s in (phi, psi, aplus, aminus))
    report = {}

    if phi is None and psi is None:
        if aplus is None or aminus is None:
            raise MissingDecompositionError(
                "free mode needs both halves of the band-ratio split")
        _validate_split_tails(aplus, aminus, report)
        # the split determines the ratio exactly
        th = basis.theta_symbol
        bw = aminus * th.conj() + aplus * th
        return DualBandSpace(theta, basis, None, None, aplus, aminus,
                             (bw.conj(), bw), "free", report)
    if phi is None or psi is None:
        raise ValueError("realized mode needs both phi and psi")

    G = grid or basis.default_grid([phi, psi], extra_span=4)
    for name, band in (("phi", phi), ("psi", psi)):
        dev = float(np.max(np.abs(np.abs(band.sample(G)) - 1.0)))
        report[f"unimodular_dev_{name}"] = dev
        if dev > tol_unimod:
            raise UnimodularityError(f"{name} is not unimodular: dev={dev:.3e}")

    fw = phi.conj() * psi
    bw = fw.conj()
    ortho = float(np.max(np.abs(tto_matrix(basis, fw, G=G).entries)))
    report["orthogonality_max_entry"] = ortho
    if ortho > tol_ortho:
        raise OrthogonalityError(
            f"bands are not orthogonal: max compression entry {ortho:.3e}")

    thv = theta.sample(G)
    for name, ratio in (("fw", fw), ("bw", bw)):
        rv = ratio.sample(G)
        c = np.mean(rv * np.conj(thv))
        dist = float(np.max(np.abs(rv - c * thv)))
        report[f"degeneracy_dist_{name}"] = dist
        if dist <= TOL_DEGEN:
            raise DegeneracyError(
                f"band ratio ({name}) collapses onto theta, distance {dist:.3e}")

    if aplus is not None and aminus is not None:
        _validate_split_tails(aplus, aminus, report)
        origin = "supplied"
    elif basis.is_monomial:
        aplus, aminus = _extract_split_monomial(bw, n)
        origin = "extracted"
    if aplus is not None and aminus is not None:
        res = _split_residual(theta, bw, aplus, aminus, G)
        report["split_residual"] = res
        if res > TOL_SPLIT:
            raise MissingDecompositionError(
                f"{origin} split does not reproduce the band ratio: {res:.3e}")
    # otherwise the split stays absent; spectral formulas will demand it

    return DualBandSpace(theta, basis, phi, psi, aplus, aminus, (fw, bw),
                         "realized", report)


def _validate_split_tails(aplus, aminus, report):
    bad_plus = aplus.tail_energy(lambda j: j < 0)
    bad_minus = aminus.tail_energy(lambda j: j > 0)
    report["aplus_coanalytic_energy"] = bad_plus
    report["aminus_analytic_energy"] = bad_minus
    if bad_plus > TOL_SPLIT ** 2:
        raise MissingDecompositionError(
            f"aplus carries negative frequencies: energy {bad_plus:.3e}")
    if bad_minus > TOL_SPLIT ** 2:
        raise MissingDecompositionError(
            f"aminus carries positive frequencies: energy {bad_minus:.3e}")


def _split_residual(theta, ratio_bw, aplus, aminus, G):
    th = theta.sample(G)
    rec = aminus.sample(G) * np.conj(th) + aplus.sample(G) * th
    return float(np.max(np.abs(ratio_bw.sample(G) - rec)))


def _extract_split_monomial(ratio_bw, n):
    """Split conj(psi) phi = aminus z^-n + aplus z^n by frequency shift."""
    # the ratio's coefficients are read on its quadrature grid, and those
    # at or below 1e-15 are dropped; split_residual reports what that
    # truncation leaves out
    coeffs = ratio_bw.coeff_dict(tol=1e-15)
    plus = {j - n: c for j, c in coeffs.items() if j >= n}
    minus = {j + n: c for j, c in coeffs.items() if j <= -n}
    mid = {j: c for j, c in coeffs.items() if -n < j < n}
    mid_energy = sum(abs(c) ** 2 for c in mid.values())
    if mid_energy > TOL_SPLIT ** 2:
        raise OrthogonalityError(
            f"band ratio has energy {mid_energy:.3e} inside the spectral gap")
    return (LaurentSymbol.from_coeffs(plus or {0: 0.0}),
            LaurentSymbol.from_coeffs(minus or {0: 0.0}))


# --------------------------------------------------------------------------
# compressions
# --------------------------------------------------------------------------

def pm_apply(space, f, G=None):
    """Coordinates of the orthogonal projection of f onto the space."""
    G = G or space.default_grid([f])
    B = space.band_values(G)
    return (B.conj() @ f.sample(G)) / G


def block_w(space, g, G=None):
    """The two-by-two block matrix over two copies of K_theta, kept on
    the space with read-only entries."""
    return space._kept("block_w", g, G, lambda: _block_assembly(space, g, G))


def _block_assembly(space, g, G):
    G = G or space.default_grid([g], extra_span=g.span() or 0)
    basis = space.basis
    fw, bw = space.ratios
    A = tto_matrix(basis, g, G=G).entries
    B12 = tto_matrix(basis, fw * g, G=G).entries
    B21 = tto_matrix(basis, bw * g, G=G).entries
    return OperatorMatrix(np.block([[A, B12], [B21, A]]))


def dualband_matrix(space, g, G=None):
    """Matrix of the compression of multiplication by g, kept on the
    space with read-only entries.

    Realized spaces integrate directly against the stacked band basis.
    Free spaces wrap the kept block form, whose entries only require
    theta and the split; the two coordinate systems are unitarily
    identified column for column.
    """
    if space.mode != "realized":
        return space._kept("dualband", g, G, lambda: block_w(space, g, G=G))
    return space._kept("dualband", g, G,
                       lambda: _band_quadrature(space, g, G))


def _band_quadrature(space, g, G):
    G = G or space.default_grid([g], extra_span=g.span() or 0)
    B = space.band_values(G)
    return OperatorMatrix(((B * g.sample(G)) @ B.conj().T).T / G)


def _shift_closed_form(basis):
    """(S, K), the blocks of T_z, from theta's zeros and front constant.

    T_z = [[S, alpha K], [beta K, S]] with S the compression of z to
    K_theta, K = k0 c0^H, k0 = conj(e(0)) the coordinates of the
    reproducing kernel at the origin, and c0 those of
    C k0 = (theta - theta(0)) / z.  S is lower triangular, S[i, i] = a_i
    and, for i > j, S[i, j] = w_i w_j prod_{j<k<i} (-conj(a_k)),
    w_k = sqrt(1 - |a_k|^2).  Each row of that product is the row above
    times -conj(a_{i-1}), with a 1 on the subdiagonal, so zeros at the
    origin divide nothing.
    """
    a = basis.zeros
    n = basis.n
    w = np.sqrt(1.0 - np.abs(a) ** 2)
    P = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        P[i, :i - 1] = P[i - 1, :i - 1] * -np.conj(a[i - 1])
        P[i, i - 1] = 1.0
    S = w[:, None] * P * w[None, :] + np.diag(a)
    # k0_l = w_l prod_{j<l} (-conj(a_j)), c0_l = c w_l prod_{j>l} (-a_j)
    k0 = w * np.concatenate([[1.0], np.cumprod(-np.conj(a[:-1]))])
    c0 = basis.theta.const * w * np.concatenate(
        [np.cumprod(-a[:0:-1])[::-1], [1.0]])
    return S, np.outer(k0, np.conj(c0))


def shift_quadrature_residual(space):
    """max |shift_matrix() - the quadrature compression of z|: the closed
    form against the band quadrature (realized) or the block assembly
    (free).  None when the space has no split.  The quadrature is built
    outside the space's store, so the latest g's matrices stay kept."""
    if space.aplus is None or space.aminus is None:
        return None
    build = _band_quadrature if space.mode == "realized" else _block_assembly
    Q = build(space, LaurentSymbol.monomial(1), None).entries
    return float(np.max(np.abs(space.shift_matrix() - Q)))


def unitary_equiv_check(space, g, G=None):
    """max |direct dual-band matrix - assembled block matrix|."""
    T = dualband_matrix(space, g, G=G)
    W = block_w(space, g, G=G)
    return float(np.max(np.abs(T.entries - W.entries)))


def is_zero_operator(space, g, tol=1e-10):
    """The compression vanishes iff all four blocks vanish."""
    W = block_w(space, g)
    n = space.n
    blocks = {
        "diag": W.entries[:n, :n], "upper": W.entries[:n, n:],
        "lower": W.entries[n:, :n], "diag2": W.entries[n:, n:],
    }
    norms = {k: float(np.max(np.abs(v))) for k, v in blocks.items()}
    return all(v <= tol for v in norms.values()), norms


# --------------------------------------------------------------------------
# the antilinear symmetry
# --------------------------------------------------------------------------

def cm_matrix(space, G=None):
    """J with C(v) = J conj(v): block antidiagonal swap of the two bands
    composed with the model-space conjugation in each."""
    R = ctheta_matrix(space.basis, G=G)
    n = space.n
    J = np.zeros((2 * n, 2 * n), dtype=complex)
    J[:n, n:] = R
    J[n:, :n] = R
    return J


def cm_symmetry_residual(space, g, G=None):
    """max |T J - J T^t|; zero exactly when T C = C T*."""
    T = dualband_matrix(space, g, G=G).entries
    J = cm_matrix(space, G=G)
    return float(np.max(np.abs(T @ J - J @ T.T)))


__all__ = [
    "DualBandSpace", "build_dualband", "pm_apply", "block_w",
    "dualband_matrix", "shift_quadrature_residual", "unitary_equiv_check",
    "is_zero_operator", "cm_matrix", "cm_symmetry_residual",
]
