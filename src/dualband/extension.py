"""The four-by-four extension of a dual-band compression.

The compression of multiplication by g is equivalent, after extension,
to the block Toeplitz operator with matrix symbol

    [ conj(theta) I2            0        ]
    [ g * B                  theta I2    ]

where B is the two-by-two band-ratio matrix [[1, fw], [bw, 1]] with
fw = conj(phi) psi and bw = conj(psi) phi.  For the shift family
g = z - lam the off-diagonal ratios may be replaced by their split
representatives, which changes the third and fourth kernel components
by analytic corrections only.

This module moves data across that equivalence: kernels lift to kernels
of the block Toeplitz operator, project back, detect range membership,
pass to adjoint kernels by the reflection x -> conj(z) * conj(x), and
invert through it.

Layout: a symbol is one row literal, with a number for each entry that
is constant on the grid.  ``kernel_lift`` and ``kernel_project`` use the
literal as it is and apply it over its eight live entries
(``matsym.apply_rows``); ``build_G`` stacks it into a MatrixSymbol for
the finite sections, the adjoint maps and other whole-stack users.  A
vector of the extension is one (4, .) stack, grid samples or an
analytic coefficient window, and every Fourier transform takes the
whole stack in one call.
``kernel_lift`` builds its four components in one preallocated (4, G)
stack and records on the vector what its residual was checked on: the
space and g (by identity), lam, the grid, a copy of the window and the
residual (``_LiftRecord``, 4 (n_ext + 1) numbers).  ``kernel_project``
trusts that record only when it matches its own call and the window is
still bitwise equal; any other vector (edited after the lift, built by
hand, from ``adjoint_kernel_map``, or with another lam, grid or space)
takes the full residual check.  The tolerance test runs either way.

Dual-band coordinates [first band | second band] pass to and from their
(2, G) band samples only through ``DualBandSpace.synth_bands`` and
``DualBandSpace.project_bands``.

Working set: a lift holds the symbol's four live arrays and one (4, G)
block.  The block takes the samples, is transformed in place into their
coefficients, and takes the window's samples back for the residual
check; the residual product G F is one more (4, G) block, transformed
in place.  A projection whose lift record holds synthesizes only the two
band components it projects.  At G = 16384 a lift peaks at 13 length-G
arrays and such a projection at 3.  No buffer outlives a call.

Grids: every four-by-four symbol here is gridded by the extension rule,
``DualBandSpace.extension_grid``: the quadrature grid of the space and g
with eight more frequencies of span, raised to the power of two at or
above four times the coefficient window.  There is no fixed floor; a
kernel lift's grid grows with its window, which stops at 1024 with
``CutoffError``.  The dense matrices these routines compare against keep
the quadrature rule, ``DualBandSpace.default_grid`` over
``symbols.choose_grid``.  The grid conventions in :mod:`dualband.symbols`
describe both rules and why the quadrature rule suffices for the
lam-dependent factor profiles.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dual_band import dualband_matrix
from .errors import CutoffError, NonKernelInputError, SingularOperatorError
from .matsym import MatrixSymbol, apply_rows
from .symbols import grid_fft, grid_ifft, grid_points

# antilinear reflection bookkeeping: columns of the inverse-conjugate
# symbol are signed swaps of the transpose-conjugate symbol
PI1 = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
               dtype=complex)
PI2 = np.array([[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
               dtype=complex)

TOL_KERNEL = 1e-8
TOL_TAIL = 1e-10


def build_G(space, g=None, lam=None, G=None):
    """Grid the extension symbol.

    With g: rows (tb,0,0,0), (0,tb,0,0), (g, g*fw, th, 0), (g*bw, g, 0, th).
    With lam: the shift form ``split_form_symbol`` of z - lam.
    """
    G = G or space.extension_grid(g)
    return MatrixSymbol.rows(G, _extension_rows(space, g, lam, G))


def _extension_rows(space, g, lam, G):
    """The row literal that ``build_G`` stacks."""
    if (g is None) == (lam is None):
        raise ValueError("pass exactly one of g or lam")
    th = space.theta.sample(G)
    if g is None:
        return _split_form_rows(th, grid_points(G) - complex(lam),
                                *space.split_values(G))
    gv = g.sample(G)
    fw, bw = (r.sample(G) for r in space.ratios)
    return _extension_symbol(th, np.conj(th), gv, gv * fw, gv * bw)


def split_form_symbol(space, gv):
    """Extension symbol of g in split form, from its grid samples gv.

    The off entries g*fw and g*bw become g*conj(aplus)*tb and
    g*aminus*tb, which requires the split.
    """
    G = gv.size
    return MatrixSymbol.rows(G, _split_form_rows(
        space.theta.sample(G), gv, *space.split_values(G)))


def _split_form_rows(th, gv, Apb, Am):
    """Row literal of ``split_form_symbol`` from the samples of theta,
    g, conj(aplus) and aminus."""
    tb = np.conj(th)
    return _extension_symbol(th, tb, gv, gv * Apb * tb, gv * Am * tb)


def _extension_symbol(th, tb, gv, off12, off21):
    return [
        [tb, 0, 0, 0],
        [0, tb, 0, 0],
        [gv, off12, th, 0],
        [off21, gv, 0, th],
    ]


@dataclass
class ExtensionVector:
    """Four analytic coefficient windows over [0, n_ext]."""

    comps: np.ndarray            # (4, n_ext + 1)
    n_ext: int
    meta: dict = field(default_factory=dict)

    def window_tail(self):
        half = self.n_ext // 2
        return float(np.sum(np.abs(self.comps[:, half + 1:]) ** 2))

    def values_on(self, G):
        return _samples(self.comps, G)

    def norm(self):
        return float(np.linalg.norm(self.comps))


def _samples(comps, G, out=None):
    """(k, G) grid samples of k coefficient windows comps (k, n_ext + 1):
    one inverse transform, run in place in ``out`` (k, G) when given,
    else in a new array."""
    N = comps.shape[-1]
    if G < 2 * N:
        raise CutoffError("grid too small for the coefficient window")
    if out is None:
        out = np.zeros((len(comps), G), dtype=complex)
    else:
        out[:, N:] = 0
    out[:, :N] = comps
    return grid_ifft(out, out=out)


def _window(values, n_ext):
    """Analytic coefficients [0, n_ext] of a stack of grid samples.  The
    transform runs in place: ``values`` is left holding all of its
    coefficients."""
    return grid_fft(values, out=values)[..., :n_ext + 1].copy()


def rh_residual(Gsym, vec):
    """Per-component analytic energy of G F; zero on the kernel.

    Accepts an ExtensionVector or a raw (4, G) sample stack; returns the
    largest component value of || P+ (G F) ||, NaN when one is NaN.
    """
    F = vec.values_on(Gsym.grid) if isinstance(vec, ExtensionVector) else vec
    return _analytic_energy(Gsym.values, F)


def _analytic_energy(rows, F):
    """``rh_residual`` of the symbol rows (a literal or a stack) on the
    (4, G) samples F."""
    GF = apply_rows(rows, F)
    c = grid_fft(GF, out=GF)[:, :F.shape[-1] // 2]
    # one sum per component: a sum along the stack's axis changes the bits
    return float(np.max([np.sqrt(np.sum(np.abs(ci) ** 2)) for ci in c]))


@dataclass(frozen=True)
class _LiftRecord:
    """What ``kernel_lift`` checked: the space and g (by identity), lam,
    the grid, a copy of the window and the residual it found there."""
    space: object
    g: object
    lam: object
    grid: int
    window: np.ndarray
    residual: float

    def holds(self, space, g, lam, grid, comps):
        """True when the check was made on this call and this window; a
        NaN in the window never matches."""
        return (self.space is space and self.g is g and self.lam == lam
                and self.grid == grid
                and np.array_equal(self.window, comps))


def kernel_lift(space, coords, g=None, lam=None, n_ext=128):
    """Lift dual-band kernel coordinates to the extension kernel.

    The first two components are the band projections of the input; the
    last two are minus the analytic parts of conj(theta) times the third
    and fourth symbol rows applied to them.  The window doubles until its
    upper half carries no energy, and each window takes the extension
    rule's grid.  One (4, G) block holds the samples, then their
    coefficients, then the window's samples for the residual check.  The
    vector records what its residual was checked on (``_LiftRecord``),
    for ``kernel_project``.
    """
    while True:
        Gq = space.extension_grid(g, n_ext)
        rows = _extension_rows(space, g, lam, Gq)
        S = np.empty((4, Gq), dtype=complex)
        S[:2] = space.synth_bands(coords, Gq)
        tb = rows[0][0]
        for i in (2, 3):
            S[i] = tb * (rows[i][0] * S[0] + rows[i][1] * S[1])
        comps = _window(S, n_ext)
        comps[2:] = -comps[2:]
        vec = ExtensionVector(comps, n_ext)
        if np.sqrt(vec.window_tail()) <= TOL_TAIL:
            break
        if n_ext >= 1024:
            raise CutoffError(
                f"coefficient window will not close: tail {vec.window_tail():.3e}")
        n_ext *= 2
    res = _analytic_energy(rows, _samples(comps, Gq, out=S))
    vec.meta["rh_residual"] = res
    vec.meta["grid"] = Gq
    vec.meta["lift"] = _LiftRecord(space, g, lam, Gq, comps.copy(), res)
    return vec


def kernel_project(space, vec, g=None, lam=None, G=None):
    """Extension kernel vector -> dual-band coordinates.

    Rejects vectors that fail the kernel residual check: the projection
    formula is only meaningful on the kernel.  A vector that
    ``kernel_lift`` returned for this space, g, lam and grid, with its
    window unchanged, carries that check, and it is not run again; only
    the two band components it projects are then sampled.
    """
    Gq = G or vec.meta.get("grid") or space.extension_grid(g, vec.n_ext)
    rec = vec.meta.get("lift")
    if rec is not None and rec.holds(space, g, lam, Gq, vec.comps):
        res = rec.residual
        F = _samples(vec.comps[:2], Gq)
    else:
        F = vec.values_on(Gq)
        res = _analytic_energy(_extension_rows(space, g, lam, Gq), F)
    scale = max(vec.norm(), 1e-300)
    if not res <= TOL_KERNEL * scale:  # a NaN residual fails too
        raise NonKernelInputError(
            f"input has kernel residual {res:.3e} (scale {scale:.3e})")
    return space.project_bands(F)


# --------------------------------------------------------------------------
# finite sections
# --------------------------------------------------------------------------

def finite_section_matrix(Gsym, n_ext):
    """Truncated block Toeplitz matrix of the extension symbol.

    Component-major layout: row (i, m) -> i * (n_ext + 1) + m.
    """
    N = n_ext + 1
    if Gsym.grid < 2 * N:
        raise CutoffError("grid too coarse for the requested section")
    idx = np.subtract.outer(np.arange(N), np.arange(N)) % Gsym.grid
    blocks = grid_fft(Gsym.values)[:, :, idx]         # (4, 4, N, N)
    return blocks.transpose(0, 2, 1, 3).reshape(4 * N, 4 * N)


def u0_window(space, h_coords, Gsym, n_ext):
    """Coefficient windows of the lifted right-hand side (0, 0, h1, h2).

    Solving the extension operator against this lift puts the band
    components of the dual-band solution in the first two components.
    """
    U = np.zeros((4, n_ext + 1), dtype=complex)
    U[2:] = _window(space.synth_bands(h_coords, Gsym.grid), n_ext)
    return U.ravel()


def _section_solve(space, g, h, n_ext):
    """Least-squares solve of the finite section of g's extension against
    the lift of h: the solution windows, with their grid in meta, and
    the relative residual of the section equation."""
    Gsym = build_G(space, g=g, G=space.extension_grid(g, n_ext))
    TN = finite_section_matrix(Gsym, n_ext)
    H = u0_window(space, h, Gsym, n_ext)
    sol, *_ = np.linalg.lstsq(TN, H, rcond=None)
    vec = ExtensionVector(sol.reshape(4, n_ext + 1), n_ext)
    vec.meta["grid"] = Gsym.grid
    residual = float(np.linalg.norm(TN @ sol - H)) / \
        max(float(np.linalg.norm(H)), 1e-300)
    return vec, residual


@dataclass
class RangeCertificate:
    in_range: bool
    residual: float
    preimage: np.ndarray
    rank: int
    extension_residual: float
    agree: bool


def range_test(space, g, h_coords, n_ext=128):
    """Decide whether h lies in the range of the compression.

    Decides on the direct matrix via an SVD rank cut at 1e-8 of the top
    singular value, h being in the range when its relative distance from
    that range is at most 1e-8, then cross-checks against a finite
    section of the extension operator.
    """
    h = np.asarray(h_coords, dtype=complex)
    T = dualband_matrix(space, g).entries
    U, s, Vh = np.linalg.svd(T)
    rank = int(np.sum(s > 1e-8 * max(s[0], 1e-300)))
    Ur = U[:, :rank]
    hn = max(float(np.linalg.norm(h)), 1e-300)
    residual = float(np.linalg.norm(h - Ur @ (Ur.conj().T @ h))) / hn
    in_range = residual <= 1e-8
    x = Vh.conj().T[:, :rank] @ ((Ur.conj().T @ h) / s[:rank])

    _, ext_residual = _section_solve(space, g, h, n_ext)
    agree = (ext_residual <= 1e-6) == in_range
    return RangeCertificate(in_range, residual, x, rank, ext_residual, agree)


# --------------------------------------------------------------------------
# adjoint kernels
# --------------------------------------------------------------------------

def adjoint_kernel_map(space, vec, g=None, lam=None):
    """Kernel of the extension -> kernel of its adjoint.

    F+ in the kernel has a co-analytic partner F- = G F+.  The reflected
    vector conj(z) * conj(F-) is analytic, and its signed component swap
    lies in the kernel of the adjoint symbol.  Works on the vector's grid
    in meta, else on the extension rule's.  Returns the swapped vector
    with its adjoint-side residual in meta.
    """
    Gq = vec.meta.get("grid") or space.extension_grid(g, vec.n_ext)
    Gsym = build_G(space, g=g, lam=lam, G=Gq)
    Fm = apply_rows(Gsym.values, vec.values_on(Gq))
    zb = np.conj(grid_points(Gq))
    psi_plus = np.conj(Fm) * zb
    X = grid_fft(PI2 @ psi_plus)
    # the reflected vector can decay slower than the input; grow its window
    # until the dropped amplitude is negligible
    n_ext = vec.n_ext
    while True:
        out = ExtensionVector(X[:, :n_ext + 1].copy(), n_ext)
        if np.sqrt(out.window_tail()) <= TOL_TAIL or 4 * (n_ext + 1) > Gq:
            break
        n_ext *= 2
    adj = MatrixSymbol(np.conj(np.transpose(Gsym.values, (1, 0, 2))))
    out.meta["rh_residual"] = rh_residual(adj, out)
    out.meta["grid"] = Gq
    return out


def adjoint_symbol_identity_residual(Gsym):
    """max |inverse of conj(G) - PI1 conj(G)^t PI2| over the grid."""
    conjG = MatrixSymbol(np.conj(Gsym.values))
    inv, _ = conjG.pointwise_inverse()
    adjT = np.conj(np.transpose(Gsym.values, (1, 0, 2)))
    swapped = np.einsum("ik,kjG,jl->ilG", PI1, adjT, PI2)
    return float(np.max(np.abs(inv.values - swapped)))


# --------------------------------------------------------------------------
# inversion
# --------------------------------------------------------------------------

@dataclass
class InverseCertificate:
    """``cond``: the minus factor's ``cond_minus`` on the factorization
    route, s_max / s_min of the dense compression on the finite-section
    route (the section itself has a numerical kernel that the
    least-squares solve steps around, so its cond says nothing).
    ``warnings``: those of ``resolvent_apply`` on the factorization
    route, such as a minus factor too ill conditioned for its contract."""
    method: str
    residual: float
    direct_gap: float
    cond: float
    notes: str = ""
    warnings: list = field(default_factory=list)


def _shift_parameters(g):
    """(scale, lam) when g = scale * (z - lam) exactly, else None."""
    if g.kind != "laurent":
        return None
    lo, hi = g.support()
    if lo < 0 or hi > 1 or hi < 1:
        return None
    c1 = g.coeffs[-1]
    c0 = g.coeffs[0] if lo == 0 else 0.0
    if c1 == 0:
        return None
    return complex(c1), complex(-c0 / c1)


def inverse_via_extension(space, g, h_coords, n_ext=128):
    """Solve the compression through the extension.

    For shift symbols with an available split this routes through the
    factorization-based resolvent; otherwise a finite section of the
    extension operator is solved, which is flagged in the certificate.
    The certificate reports the equation residual and the gap to the
    direct dense solve.
    """
    h = np.asarray(h_coords, dtype=complex)
    T = dualband_matrix(space, g).entries
    s = np.linalg.svd(T, compute_uv=False)
    if s[-1] <= 1e-10 * max(s[0], 1e-300):
        raise SingularOperatorError("the compression is numerically singular")
    direct = np.linalg.solve(T, h)

    shift = _shift_parameters(g)
    if shift is not None and space.aplus is not None \
            and space.aminus is not None:
        from .factorization import resolvent_apply
        scale, lam = shift
        coords, diag = resolvent_apply(space, lam, h)
        coords = coords / scale
        method, cond, notes = "factorization", diag["cond_minus"], ""
        warnings = diag["warnings"]
    else:
        vec, _ = _section_solve(space, g, h, n_ext)
        coords = space.project_bands(vec.values_on(vec.meta["grid"]))
        cond = float(s[0] / s[-1])
        method, notes = "finite-section", "no factorization route for this symbol"
        warnings = []

    hn = max(float(np.linalg.norm(h)), 1e-300)
    residual = float(np.linalg.norm(T @ coords - h)) / hn
    gap = float(np.linalg.norm(coords - direct)) / \
        max(float(np.linalg.norm(direct)), 1e-300)
    return coords, InverseCertificate(method, residual, gap, cond, notes,
                                      warnings)


__all__ = [
    "build_G", "split_form_symbol", "ExtensionVector", "rh_residual",
    "kernel_lift", "kernel_project", "finite_section_matrix", "range_test",
    "RangeCertificate", "adjoint_kernel_map",
    "adjoint_symbol_identity_residual", "inverse_via_extension",
    "InverseCertificate", "u0_window", "PI1", "PI2",
]
