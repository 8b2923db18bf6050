"""Hankel expressions for dual-band compressions with analytic symbols.

When the two-by-two symbol matrix

    Phi = [[g, conj(phi) psi g], [conj(psi) phi g, g]]

is entrywise analytic, the compression is unitarily equivalent to the
block Hankel operator built from conj(theta) Phi, so its operator norm
is a largest singular value of a finite block of anti-diagonal
coefficient slices.  When additionally one band ratio lies in
theta H^infinity the block matrix is triangular: the spectrum is the
image of the zeros of theta under g, each with doubled multiplicity,
and the inverse has the closed triangular form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual_band import block_w, dualband_matrix
from .errors import CoefficientError, SingularOperatorError
from .shift_spectra import spectral_key

TOL_ANALYTIC = 1e-10


def _analytic_tail(sym):
    return float(np.sqrt(sym.tail_energy(lambda j: j < 0)))


def _anti_analytic(c, lo, depth):
    """Coefficients of indices -1, -2, ..., -depth from an array c whose
    first entry has index lo; those outside c, and exact zeros, read +0."""
    out = np.zeros(depth, dtype=complex)
    pos = -1 - lo - np.arange(min(depth, -lo))
    out[:pos.size] = c[pos]
    out[~(np.abs(out) > 0)] = 0.0
    return out


@dataclass
class HankelNormReport:
    norm: float              # largest singular value of the block Hankel
    matrix_norm: float       # dense dual-band matrix two-norm
    gap: float
    block: np.ndarray        # the (2n, 2n) block Hankel matrix


def hankel_norm(space, g, tol_analytic=TOL_ANALYTIC):
    """Operator norm of the compression through the block Hankel matrix.

    Requires every entry of the symbol matrix to be analytic; the
    offending entry is named otherwise.  Entry (i, j) of each scalar
    block is the coefficient of index -(i + j + 1) of conj(theta) times
    the corresponding symbol entry.  For a monomial theta those vanish
    beyond its degree; in general the block is cut where the
    coefficients drop below 1e-14, so the largest singular value
    carries that truncation error at worst.
    """
    fw, bw = space.ratios
    entries = {(0, 0): g, (0, 1): g * fw, (1, 0): g * bw, (1, 1): g}
    names = {(0, 0): "diagonal g", (0, 1): "g * conj(phi) psi",
             (1, 0): "g * conj(psi) phi", (1, 1): "diagonal g"}
    for key in ((0, 0), (0, 1), (1, 0)):
        tail = _analytic_tail(entries[key])
        if tail > tol_analytic:
            raise CoefficientError(
                f"symbol entry {names[key]} is not analytic: "
                f"co-analytic tail {tail:.3e}")

    tbs = space.basis.theta_symbol.conj()
    # (coefficients, lowest index) of conj(theta) g once: both diagonal
    # entries are g
    coeffs = {key: (tbs * entries[key]).fourier_coeffs()
              for key in ((0, 0), (0, 1), (1, 0))}
    coeffs[(1, 1)] = coeffs[(0, 0)]
    depth = space.n
    for c, lo in coeffs.values():
        neg = lo + np.flatnonzero(np.abs(c[:-lo]) > 1e-14)
        if neg.size:
            depth = max(depth, -int(neg[0]))
    if depth > 4096:
        raise CoefficientError(
            f"anti-analytic coefficients reach index {-depth}; "
            "the Hankel block would be impractically large")
    # H[i, j] = c[i + j], with c zero from index depth on
    ij = np.add.outer(np.arange(depth), np.arange(depth))
    blocks = {}
    for key, (c, lo) in coeffs.items():
        h = np.zeros(2 * depth - 1, dtype=complex)
        h[:depth] = _anti_analytic(c, lo, depth)
        blocks[key] = h[ij]
    full = np.block([[blocks[(0, 0)], blocks[(0, 1)]],
                     [blocks[(1, 0)], blocks[(1, 1)]]])
    sigma = float(np.linalg.svd(full, compute_uv=False)[0])
    dense = float(np.linalg.norm(dualband_matrix(space, g).entries, 2))
    return HankelNormReport(sigma, dense, abs(sigma - dense), full)


# --------------------------------------------------------------------------
# the triangular regime
# --------------------------------------------------------------------------

@dataclass
class AnalyticSpectrumReport:
    values: list             # distinct spectrum points
    multiplicities: dict     # value -> algebraic multiplicity in the matrix
    triangle: str            # "lower" or "upper"
    dense_eigs: list
    match_gap: float         # largest distance of a cluster mean
    scatter: float           # largest distance of a single dense eigenvalue


def _triangle_side(space, tol):
    tbs = space.basis.theta_symbol.conj()
    fw, bw = space.ratios
    fw_tail = _analytic_tail(tbs * fw)
    bw_tail = _analytic_tail(tbs * bw)
    if fw_tail <= tol:
        return "lower", fw_tail, bw_tail
    if bw_tail <= tol:
        return "upper", fw_tail, bw_tail
    raise CoefficientError(
        "neither band ratio is divisible by theta "
        f"(tails {fw_tail:.3e} forward, {bw_tail:.3e} backward); "
        "the triangular spectrum formula does not apply")


def analytic_spectrum(space, g, tol=TOL_ANALYTIC):
    """Spectrum of the compression when one band ratio kills a corner.

    With g analytic and conj(phi) psi (or its conjugate) in
    theta H^infinity, the block matrix is triangular with two equal
    diagonal blocks, so the spectrum is g evaluated at the zeros of
    theta, every point twice.  Each dense eigenvalue joins the cluster
    of its nearest closed-form value, and ``match_gap`` is the largest
    distance of a cluster's mean from its value, infinite when a
    cluster's size is not that value's multiplicity.  A repeated
    eigenvalue of a defective matrix comes back from a dense solver
    smeared over a radius of about sqrt(eps); the cluster mean is
    accurate to machine order.  ``scatter`` keeps the largest distance
    of a single dense eigenvalue.
    """
    side, _, _ = _triangle_side(space, tol)
    g_tail = _analytic_tail(g)
    if g_tail > tol:
        raise CoefficientError(
            f"g is not analytic (co-analytic tail {g_tail:.3e}); "
            "the spectral mapping needs an analytic symbol")
    raw = [complex(g.eval_at(z)) for z in space.theta.zeros]
    values = []
    mult = {}
    for v in raw:
        hit = next((u for u in values if abs(u - v) <= 1e-9), None)
        if hit is None:
            values.append(v)
            mult[v] = 2
        else:
            mult[hit] += 2

    W = dualband_matrix(space, g).entries
    dense = sorted((complex(e) for e in np.linalg.eigvals(W)),
                   key=spectral_key)
    clusters = {v: [] for v in values}
    for e in dense:
        clusters[min(values, key=lambda v: abs(e - v))].append(e)
    if any(len(es) != mult[v] for v, es in clusters.items()):
        gap = np.inf
    else:
        gap = max(abs(np.mean(es) - v) for v, es in clusters.items())
    scatter = max(min(abs(e - v) for v in values) for e in dense)
    return AnalyticSpectrumReport(values, mult, side, dense, float(gap),
                                  float(scatter))


def triangular_w_inverse(space, g, tol=TOL_ANALYTIC):
    """Closed-form inverse of the triangular block matrix.

    For W = [[A, 0], [B, A]] the inverse is [[Ai, 0], [-Ai B Ai, Ai]]
    with Ai the inverse of the diagonal block (mirrored for the upper
    triangle).  Returns (W_inverse, info) with the verification
    residual max |W W_inverse - I|.
    """
    side, _, _ = _triangle_side(space, tol)
    n = space.n
    W = block_w(space, g).entries
    A, B12, B21 = W[:n, :n], W[:n, n:], W[n:, :n]
    s = np.linalg.svd(A, compute_uv=False)
    if s[-1] <= 1e-12 * max(s[0], 1e-300):
        raise SingularOperatorError(
            "the diagonal block is singular; no triangular inverse")
    Ai = np.linalg.inv(A)
    Wi = np.zeros((2 * n, 2 * n), dtype=complex)
    Wi[:n, :n] = Ai
    Wi[n:, n:] = Ai
    if side == "lower":
        Wi[n:, :n] = -Ai @ B21 @ Ai
    else:
        Wi[:n, n:] = -Ai @ B12 @ Ai
    residual = float(np.max(np.abs(W @ Wi - np.eye(2 * n))))
    return Wi, {"triangle": side, "residual": residual,
                "cond_diag": float(s[0] / s[-1])}


__all__ = [
    "hankel_norm", "HankelNormReport", "analytic_spectrum",
    "AnalyticSpectrumReport", "triangular_w_inverse",
]
