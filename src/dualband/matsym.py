"""Matrix-valued functions held entrywise on a common dyadic grid.

Factor verification, pointwise inversion and Riesz projections all work
on sampled entries; per-entry Fourier data comes from the grid FFT, so a
MatrixSymbol is only as band-limited as its construction grid allows.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatchError, SingularOperatorError
from .symbols import fft_freqs, grid_fft, grid_points


class MatrixSymbol:
    """values[i, j] holds the samples of entry (i, j) on the shared grid."""

    def __init__(self, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 3:
            raise ValueError("expected an (rows, cols, G) sample array")
        self.values = values
        self.shape = values.shape[:2]
        self.grid = values.shape[2]

    # ------------------------------------------------------------- algebra
    def matmul(self, other):
        if isinstance(other, MatrixSymbol):
            if other.grid != self.grid:
                raise GridMismatchError("matrix symbols on different grids")
            a = np.moveaxis(self.values, 2, 0)
            b = np.moveaxis(other.values, 2, 0)
            return MatrixSymbol(np.moveaxis(a @ b, 0, 2))
        raise TypeError("matmul expects another MatrixSymbol")

    def matvec_values(self, vec_values):
        """Apply pointwise to a stacked vector of samples (c, G)."""
        vec_values = np.asarray(vec_values, dtype=complex)
        a = np.moveaxis(self.values, 2, 0)              # (G, r, c)
        v = np.moveaxis(vec_values, 1, 0)[..., None]    # (G, c, 1)
        return np.moveaxis((a @ v)[..., 0], 0, 1)

    def _conditioned(self, what, cond_cap):
        """The (G, r, c) stack of samples and its worst condition number;
        raises SingularOperatorError when that exceeds cond_cap."""
        a = np.moveaxis(self.values, 2, 0)
        sv = np.linalg.svd(a, compute_uv=False)
        smin = sv[:, -1].min()
        cond = float(sv[:, 0].max() / max(smin, 1e-300))
        if smin <= 0 or cond > cond_cap:
            raise SingularOperatorError(
                f"pointwise {what} is ill conditioned: cond={cond:.3e}")
        return a, cond

    def solve_values(self, vec_values, cond_cap=1e12):
        """Pointwise solve M(z) x(z) = v(z); returns (x, worst condition)."""
        a, cond = self._conditioned("solve", cond_cap)
        v = np.moveaxis(np.asarray(vec_values, dtype=complex), 1, 0)[..., None]
        x = np.linalg.solve(a, v)[..., 0]
        return np.moveaxis(x, 0, 1), cond

    def pointwise_inverse(self, cond_cap=1e12):
        a, cond = self._conditioned("inverse", cond_cap)
        inv = np.linalg.inv(a)
        return MatrixSymbol(np.moveaxis(inv, 0, 2)), cond

    def scale_columns(self, col_values):
        """Right-multiply by diag(col_values[j]) of per-column samples."""
        out = self.values.copy()
        for j in range(self.shape[1]):
            out[:, j, :] *= col_values[j]
        return MatrixSymbol(out)

    # ------------------------------------------------------------ analysis
    def det_values(self):
        return np.linalg.det(np.moveaxis(self.values, 2, 0))

    def entry_coeffs(self, i, j):
        """FFT-layout Fourier coefficients of entry (i, j)."""
        return grid_fft(self.values[i, j])

    def entry_tail(self, i, j, band):
        """Energy of entry (i, j) over the frequency mask band(freqs)."""
        c = self.entry_coeffs(i, j)
        return float(np.sum(np.abs(c[band(fft_freqs(self.grid))]) ** 2))

    def max_tail(self, band):
        return max(self.entry_tail(i, j, band)
                   for i in range(self.shape[0])
                   for j in range(self.shape[1]))

    def max_abs_diff(self, other):
        return float(np.max(np.abs(self.values - other.values)))


def monomial_diag_values(powers, G):
    """Samples of diag(z^k) for the given integer powers."""
    z = grid_points(G)
    return [z ** int(k) for k in powers]


__all__ = ["MatrixSymbol", "monomial_diag_values"]
