"""Model spaces of finite Blaschke products.

For an inner function theta of degree n, the model space K_theta is the
n-dimensional complement of theta * H^2 inside H^2.  We work in the
orthonormal basis built from the ordered zero list (a_0, ..., a_{n-1}):

    e_k(z) = sqrt(1 - |a_k|^2) / (1 - conj(a_k) z) * prod_{j<k} b_j(z),

where b_j is the elementary Blaschke factor for a_j.  When every zero is
at the origin this is the monomial basis {1, z, ..., z^{n-1}}.

Inner products are grid averages over dyadic grids, which are exact for
trigonometric polynomials below the Nyquist frequency and alias-bounded
otherwise via the quadrature rule ``choose_grid`` in :mod:`dualband.symbols`.

On the monomial basis (theta = c z^n, ``InnerFunction.is_monomial``) the grid
average <f, z^k> is the FFT coefficient of f at index k mod G, so the
basis transforms are slices of one FFT and build no (n, G) basis
samples:

    project_values(f)   = grid_fft(f)[k mod G],            k < n
    synth_values(c, G)  = grid_ifft of c folded mod G       (_fold_ifft)
    tto_matrix(g)[l, k] = grid_fft(g samples)[(l - k) mod G]

the last being the Toeplitz matrix of g's grid coefficients (Sarason,
"Algebraic properties of truncated Toeplitz operators", 2007).  The
folds give the same grid sum as the sampled basis for every G, G < n
included.  The basis samples themselves (``values``) are then the exact
grid powers z_j^k = z_{jk mod G}.  ``values`` and ``eval_at`` stay for
the band samples (``DualBandSpace.band_values``), the conjugation
(``ctheta_matrix``) and off-grid points, so the block-assembly check
(``dual_band.unitary_equiv_check``) still compares two differently
computed quadratures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symbols import InnerFunction, _fold_ifft, choose_grid, grid_fft, memo


@dataclass
class OperatorMatrix:
    """A dense matrix in the coordinates of an orthonormal basis."""

    entries: np.ndarray


class ModelSpaceBasis:
    """Orthonormal basis data for K_theta, theta a finite Blaschke product.

    theta's zeros order the basis; ``zeros`` and ``is_monomial`` are
    theta's own.  A theta with mass points, or with no zeros, raises
    ValueError.
    """

    def __init__(self, theta):
        if not isinstance(theta, InnerFunction):
            raise TypeError("theta must be an InnerFunction")
        if theta.points:
            raise ValueError("model space bases need a finite Blaschke product")
        if theta.zeros.size < 1:
            raise ValueError("theta must have degree at least one")
        self.theta = theta
        self.theta_symbol = theta.as_symbol()   # exact rational form, built once
        self.zeros = theta.zeros
        self.n = theta.zeros.size
        self.is_monomial = theta.is_monomial
        self._samples = {}
        self._ctheta = {}

    def values(self, G):
        """(n, G) array of basis samples on the size-G grid."""
        if self.is_monomial:
            return memo(self._samples, G, lambda z: z[
                np.outer(np.arange(self.n), np.arange(G)) % G])
        return memo(self._samples, G, self.eval_at)

    def eval_at(self, z):
        """(n, m) basis values at any points z off the poles; for w in
        the disc, conj(e(w)) are the coordinates of the kernel k_w."""
        out = np.empty((self.n, z.size), dtype=complex)
        tail = np.ones(z.size, dtype=complex)
        for k, a in enumerate(self.zeros):
            den = 1.0 - np.conj(a) * z
            out[k] = np.sqrt(1.0 - abs(a) ** 2) / den * tail
            tail = tail * (z - a) / den
        return out

    def default_grid(self, symbols=(), extra_span=0):
        """A quadrature grid adequate for products of basis functions with
        the given symbols."""
        objs = list(symbols)
        if not self.is_monomial:
            objs.append(self.theta_symbol)
        return choose_grid(objs, extra_span=extra_span + 2 * self.n + 2)

    def project_values(self, fvals):
        """Coefficients <f, e_k> from samples of f."""
        G = fvals.size
        if self.is_monomial:
            return grid_fft(fvals)[np.arange(self.n) % G]
        # conj(V @ conj(f)) is V.conj() @ f without a conjugated copy of
        # the (n, G) basis; 0 - imag, not a negation, keeps the sign of
        # an exactly zero imaginary part, so the bits are the same
        w = self.values(G) @ np.conj(fvals)
        np.subtract(0.0, w.imag, out=w.imag)
        return w / G

    def synth_values(self, coeffs, G):
        """Samples of sum_k coeffs[k] e_k on the size-G grid.  ValueError,
        before any grid work, unless there are n coefficients."""
        coeffs = np.asarray(coeffs, dtype=complex)
        if coeffs.shape != (self.n,):
            raise ValueError(f"K_theta coordinates have length n = "
                             f"{self.n}, got {coeffs.size}")
        if self.is_monomial:
            return _fold_ifft(coeffs, 0, G)
        return coeffs @ self.values(G)


def tto_matrix(basis, g, G=None):
    """Matrix of the compression of multiplication by g to K_theta.

    Entry (l, k) is <g e_k, e_l>: on the monomial basis the grid
    coefficient of g at index (l - k) mod G.
    """
    G = G or basis.default_grid([g])
    if basis.is_monomial:
        k = np.arange(basis.n)
        return OperatorMatrix(
            grid_fft(g.sample(G))[(k[:, None] - k[None, :]) % G])
    V = basis.values(G)
    return OperatorMatrix(((V * g.sample(G)) @ V.conj().T).T / G)


def ctheta_matrix(basis, G=None):
    """Antilinear conjugation C f = theta * conj(z f) in basis coordinates.

    Returns the matrix R with (C v)_coords = R @ conj(v_coords); R is
    complex symmetric and R @ conj(R) is the identity.  R is kept on the
    basis per grid size (``memo``) and returned read-only.
    """
    G = G or basis.default_grid()

    def evaluate(z):
        V = basis.values(G)
        CV = basis.theta.sample(G) * np.conj(z) * np.conj(V)   # C(e_k) rows
        return (V.conj() @ CV.T) / G       # R[l, k] = <C e_k, e_l>

    return memo(basis._ctheta, G, evaluate)


__all__ = [
    "OperatorMatrix", "ModelSpaceBasis",
    "tto_matrix", "ctheta_matrix",
]
