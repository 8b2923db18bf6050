"""Matrix-valued functions held entrywise on a common dyadic grid.

Factor verification, pointwise products and Riesz projections all work
on sampled entries; per-entry Fourier data comes from the grid FFT, so a
MatrixSymbol is only as band-limited as its construction grid allows.

Symbols are written as row literals: each entry is a length-G sample
array or a number, and a number is that constant on the whole grid.  A
number 0 is therefore an entry that is exactly zero on the grid.  The
shift paths (``factorization.resolvent_apply``, ``extension.kernel_lift``
and ``kernel_project``) keep their closed-form symbols as literals and
read only the entries they need; ``MatrixSymbol.rows`` stacks a literal
into the (r, c, G) layout where whole-stack algebra runs, which is
factor verification and the other public users of a MatrixSymbol.

Layout: the shift paths hold a bounded number of length-G arrays at
once, however many entries their symbols have.  A literal may be any
iterable of rows, a generator that builds each row when it is read
included; sums over entries run as the entries are made (``add_sq``,
the step of ``sq_frobenius``); (r, G) blocks take their Fourier
transforms in place (``symbols.grid_fft`` and ``grid_ifft`` with
``out``).  No buffer outlives a call: there is no cache or module-level
buffer.  The C heap hands the memory freed at the end of a call back to
the system, and the next call faults it in again, so a smaller working
set saves kernel time as well as memory.

One routine applies a symbol to a stack of sample vectors,
``apply_rows``: entry by entry over whole sample rows, skipping every
number 0 of a literal; a stack is applied through its ``values``.  One
routine sums pointwise squared Frobenius norms, ``sq_frobenius``: a
literal entry by entry in row-major order, a stack by one numpy sum
over its leading axes, which adds in the same order, so a literal and
its stack give the same bits.

The factor path takes no pointwise inverse: every factorization in
:mod:`dualband.factorization` stores its plus factor P = X^{-1} in
closed form next to X, and the resolvent inverts the minus factor as
M^{-1} = P G^{-1}.  Those inverses are not the adjugate formula
adj(M) / det(M), which is Cramer's rule and not backward stable
(Higham, Accuracy and Stability of Numerical Algorithms, sec. 14.6): X's
Schur complement on its constant 2 x 2 block is itself a constant 2 x 2
matrix, so no grid point carries a cancellation.  Their condition goes
through the same gate as a LAPACK inverse (``frobenius_cond``),

    cond_F = max_z ||M(z)||_F * max_z ||M(z)^{-1}||_F.

Since ||A||_2 <= ||A||_F <= sqrt(r) ||A||_2 for r x r matrices, it lies
between the spectral cond_2 = max_z s_1 / min_z s_r and r cond_2 (4 for
the extension symbols), so a refusal at a given cap is never looser
than one on cond_2.

Pointwise inverses and solves of a general symbol
(``pointwise_inverse``, ``solve_values``) take one LAPACK ``inv`` of the
(G, r, c) sample stack behind that gate.  The extension's adjoint check
is the one caller of ``pointwise_inverse`` in the package;
``solve_values`` has none.

Products (``matmul``) and determinants (``det_values``) of stacks work
entry by entry on whole length-G sample rows of the (r, c, G) layout,
with no per-point LAPACK call.  A product skips every term whose factor
entry is exactly zero on the grid (the extension and factor symbols have
2 to 8 such entries of 16), which changes no bit of the sum.  A
determinant is the Laplace expansion into complementary 2 x 2 minors of
rows 0-1 and 2-3.
"""

from __future__ import annotations

import numpy as np

from .errors import GridMismatchError, SingularOperatorError
from .symbols import fft_freqs, grid_fft

COND_CAP = 1e12


class MatrixSymbol:
    """values[i, j] holds the samples of entry (i, j) on the shared grid."""

    def __init__(self, values):
        values = np.asarray(values, dtype=complex)
        if values.ndim != 3:
            raise ValueError("expected an (rows, cols, G) sample array")
        self.values = values
        self.shape = values.shape[:2]
        self.grid = values.shape[2]

    @classmethod
    def rows(cls, G, rows):
        """Symbol from a literal of rows on the size-G grid; each entry is
        a length-G sample array or a number, constant on the grid."""
        values = np.empty((len(rows), len(rows[0]), G), dtype=complex)
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                values[i, j] = entry
        return cls(values)

    # ------------------------------------------------------------- algebra
    def matmul(self, other):
        """Pointwise product, entry by entry over whole sample rows.

        out[i, k] sums a[i, j] * b[j, k] in increasing j, skipping each
        term whose factor entry is exactly zero on the whole grid, which
        leaves every bit of the sum unchanged.  With a non-finite sample
        in either operand nothing is skipped, so 0 * inf still gives NaN
        wherever the stacked ``@`` would.
        """
        if not isinstance(other, MatrixSymbol):
            raise TypeError("matmul expects another MatrixSymbol")
        if other.grid != self.grid:
            raise GridMismatchError("matrix symbols on different grids")
        (r, m), (m2, k) = self.shape, other.shape
        if m != m2:
            raise ValueError(f"cannot multiply {r}x{m} by {m2}x{k} symbols")
        a, b = self.values, other.values
        live_a, live_b = _live_entries(a), _live_entries(b)
        if live_a is None or live_b is None:    # 0 * inf, 0 * nan stay NaN
            live_a, live_b = [[True] * m] * r, [[True] * k] * m
        out = np.zeros((r, k, self.grid), dtype=complex)
        term = np.empty(self.grid, dtype=complex)
        for i in range(r):
            for l in range(k):
                js = [j for j in range(m) if live_a[i][j] and live_b[j][l]]
                if js:
                    np.multiply(a[i, js[0]], b[js[0], l], out=out[i, l])
                for j in js[1:]:
                    np.multiply(a[i, j], b[j, l], out=term)
                    out[i, l] += term
        return MatrixSymbol(out)

    def _conditioned(self, what):
        """The (G, c, r) stack of pointwise inverses and its
        ``frobenius_cond`` bound.  Raises SingularOperatorError at an
        exactly singular point too."""
        a = np.moveaxis(self.values, 2, 0)
        try:
            inv = np.linalg.inv(a)
        except np.linalg.LinAlgError:
            raise SingularOperatorError(
                f"pointwise {what} meets a singular point") from None
        cond = frobenius_cond(what, sq_frobenius(self.values),
                              sq_frobenius(np.moveaxis(inv, 0, 2)))
        return inv, cond

    def solve_values(self, vec_values):
        """Pointwise solve M(z) x(z) = v(z); returns (x, condition bound)."""
        inv, cond = self._conditioned("solve")
        v = np.moveaxis(np.asarray(vec_values, dtype=complex), 1, 0)[..., None]
        return np.moveaxis((inv @ v)[..., 0], 0, 1), cond

    def pointwise_inverse(self):
        """Pointwise inverse symbol and its condition bound."""
        inv, cond = self._conditioned("inverse")
        return MatrixSymbol(np.moveaxis(inv, 0, 2)), cond

    # ------------------------------------------------------------ analysis
    def det_values(self):
        """Pointwise determinant of a 4 x 4 symbol, by the Laplace
        expansion along rows 0-1 into complementary 2 x 2 minors."""
        if self.shape != (4, 4):
            raise ValueError("det_values expects a 4x4 symbol")
        v = self.values
        pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        s = [v[0, p] * v[1, q] - v[0, q] * v[1, p] for p, q in pairs]
        c = [v[2, p] * v[3, q] - v[2, q] * v[3, p] for p, q in pairs]
        return (s[0] * c[5] - s[1] * c[4] + s[2] * c[3]
                + s[3] * c[2] - s[4] * c[1] + s[5] * c[0])

    def max_tail(self, band):
        """Largest energy of one entry over the frequency mask band(freqs)."""
        c = grid_fft(self.values)[..., band(fft_freqs(self.grid))]
        # the mask leaves c strided; a contiguous copy sums each entry in
        # the same order, and to the same bits, as a one-entry sum
        energy = np.ascontiguousarray(np.abs(c) ** 2)
        return float(np.max(np.sum(energy, axis=2)))

    def max_abs_diff(self, other):
        return float(np.max(np.abs(self.values - other.values)))


def _is_zero(entry):
    """True for a number 0, the structural zero of a row literal."""
    return np.ndim(entry) == 0 and entry == 0


def apply_rows(rows, vec_values):
    """Apply a row literal, or the rows of an (r, c, G) stack, pointwise
    to a stacked vector of samples (c, G); returns the (r, G) stack.

    out[i] sums rows[i][j] * vec[j] in increasing j over the live
    entries: a number 0 is skipped even where vec[j] is NaN.  Every
    column of the extension and factor symbols has a live entry, so a
    NaN in any component still reaches the output.
    """
    vec_values = np.asarray(vec_values, dtype=complex)
    out = np.zeros((len(rows), vec_values.shape[-1]), dtype=complex)
    for i, row in enumerate(rows):
        terms = [(e, v) for e, v in zip(row, vec_values) if not _is_zero(e)]
        if terms:
            np.multiply(*terms[0], out=out[i])
        for e, v in terms[1:]:
            out[i] += e * v
    return out


def _live_entries(values):
    """Rows of flags marking the entries of an (r, c, G) stack that are
    not exactly zero on the whole grid, or None when a sample is NaN or
    inf: the sum of all samples is then not finite.  A finite sum that
    overflows also gives None, which only costs the skipping."""
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.isfinite(values.sum()):
            return None
    return values.any(axis=2).tolist()


def sq_frobenius(rows):
    """Pointwise squared Frobenius norm of a row literal or an (r, c, G)
    stack: the sum of |entry|^2 in row-major entry order.  A stack takes
    one numpy sum over its leading axes, which adds in that order; a
    literal adds entry by entry, so it gives the same bits as its stack.
    A literal may be any iterable of rows, a generator included: each row
    is dropped before the next one is read.  In a literal a number stays
    a number and a number 0 adds nothing; the result is a number when
    every entry is one."""
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(rows, np.ndarray):
            return (rows.real ** 2 + rows.imag ** 2).sum(
                axis=tuple(range(rows.ndim - 1)))
        total = 0
        for row in rows:
            for e in row:
                if not _is_zero(e):
                    total = add_sq(total, e)
            row = e = None  # a generator builds its next row without them
        return total


def add_sq(total, entry):
    """total + |entry|^2: the step ``sq_frobenius`` takes on each live
    entry of a literal, for a sum that runs over entries as they are
    made."""
    with np.errstate(over="ignore", invalid="ignore"):
        return total + (entry.real * entry.real + entry.imag * entry.imag)


def frobenius_cond(what, sq_norms, sq_inverse_norms):
    """The bound max_z ||M(z)||_F * max_z ||M(z)^{-1}||_F from the
    pointwise squared norms of M and of its inverse; it lies between the
    spectral max_z s_1 / min_z s_r and r times it.  Raises
    SingularOperatorError on a non-finite bound (NaN or inf entries,
    overflowing norms) and when the bound exceeds COND_CAP."""
    with np.errstate(over="ignore", invalid="ignore"):
        cond = float(np.sqrt(np.max(sq_norms) * np.max(sq_inverse_norms)))
    if not np.isfinite(cond) or cond > COND_CAP:
        raise SingularOperatorError(
            f"pointwise {what} is ill conditioned: cond={cond:.3e}")
    return cond


__all__ = ["MatrixSymbol", "add_sq", "apply_rows", "frobenius_cond",
           "sq_frobenius"]
