"""Matrix-valued functions held entrywise on a common dyadic grid.

Factor verification, pointwise inversion and Riesz projections all work
on sampled entries; per-entry Fourier data comes from the grid FFT, so a
MatrixSymbol is only as band-limited as its construction grid allows.

Pointwise solves and inverses take one LAPACK ``inv`` of the (G, r, c)
sample stack and guard it with the condition bound

    cond_F = max_z ||M(z)||_F * max_z ||M(z)^{-1}||_F.

Since ||A||_2 <= ||A||_F <= sqrt(r) ||A||_2 for r x r matrices, it lies
between the spectral cond_2 = max_z s_1 / min_z s_r and r cond_2 (4 for
the extension symbols), so a refusal at a given cap is never looser
than one on cond_2.
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
        """The (G, c, r) stack of pointwise inverses and the bound
        max_z ||M(z)||_F * max_z ||M(z)^{-1}||_F, which lies between the
        spectral max_z s_1 / min_z s_r and r times it.  Raises
        SingularOperatorError at an exactly singular point, on a
        non-finite bound (NaN or inf entries, overflowing norms) and
        when the bound exceeds cond_cap."""
        a = np.moveaxis(self.values, 2, 0)
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            raise SingularOperatorError(
                f"pointwise {what} meets a singular point") from None
        with np.errstate(over="ignore", invalid="ignore"):
            fro2 = [(s.real ** 2 + s.imag ** 2).sum(axis=(1, 2)).max()
                    for s in (a, inv)]
            cond = float(np.sqrt(fro2[0] * fro2[1]))
        if not np.isfinite(cond) or cond > cond_cap:
            raise SingularOperatorError(
                f"pointwise {what} is ill conditioned: cond={cond:.3e}")
        return inv, cond

    def solve_values(self, vec_values, cond_cap=1e12):
        """Pointwise solve M(z) x(z) = v(z); returns (x, condition bound)."""
        inv, cond = self._conditioned("solve", cond_cap)
        v = np.moveaxis(np.asarray(vec_values, dtype=complex), 1, 0)[..., None]
        return np.moveaxis((inv @ v)[..., 0], 0, 1), cond

    def pointwise_inverse(self, cond_cap=1e12):
        """Pointwise inverse symbol and its condition bound."""
        inv, cond = self._conditioned("inverse", cond_cap)
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

    def max_tail(self, band):
        """Largest energy of one entry over the frequency mask band(freqs)."""
        c = grid_fft(self.values)[..., band(fft_freqs(self.grid))]
        # the mask leaves c strided; a contiguous copy sums each entry in
        # the same order, and to the same bits, as a one-entry sum
        energy = np.ascontiguousarray(np.abs(c) ** 2)
        return float(np.max(np.sum(energy, axis=2)))

    def max_abs_diff(self, other):
        return float(np.max(np.abs(self.values - other.values)))


def monomial_diag_values(powers, G):
    """Samples of diag(z^k) for the given integer powers."""
    z = grid_points(G)
    return [z ** int(k) for k in powers]


__all__ = ["MatrixSymbol", "monomial_diag_values"]
