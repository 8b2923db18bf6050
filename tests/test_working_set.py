"""Working sets of the shift paths on a large grid.

``resolvent_apply``, ``kernel_lift`` and ``kernel_project`` hold a
bounded number of length-G sample arrays at once: factor rows are built
as they are read, and (4, G) blocks are transformed in place.  On the
twist band at n = 64 (G = 16384, one complex sample array 256 KiB) the
peak traced allocation of each call stays within a budget counted in
such arrays, and each call gives the bits of the whole-array
computation it replaces.
"""

import tracemalloc

import numpy as np
import pytest

from dualband import (InnerFunction, LaurentSymbol, NonKernelInputError,
                      build_dualband, canonical_factors, kernel_lift,
                      kernel_project, point_spectrum, resolvent_apply)
from dualband.extension import _extension_rows
from dualband.matsym import apply_rows, frobenius_cond, sq_frobenius
from dualband.symbols import analytic_project_values, grid_fft

Z = LaurentSymbol.monomial
N, A = 64, 0.5
# peak traced bytes of one call, in length-G complex arrays
BUDGET = {"resolvent": 27, "lift": 14, "project": 5}
LAMS = (0.3 * np.exp(0.7j), 2.5 * np.exp(0.7j))    # inside, outside


@pytest.fixture(scope="module")
def twist():
    """(space, eigenpoint, h) on the twist band at n = 64, a = 0.5."""
    num = [0.0] * (2 * N + 1)
    den = [0.0] * (2 * N + 1)
    num[0], num[2 * N] = -A, 1.0
    den[0], den[2 * N] = 1.0, -A
    psi = Z(N).conj() * LaurentSymbol.rational(num, den)
    sp = build_dualband(InnerFunction.monomial(N), phi=Z(0), psi=psi)
    p = point_spectrum(sp, cross_check=False).points[3]
    rng = np.random.default_rng(29)
    h = rng.standard_normal(2 * N) + 1j * rng.standard_normal(2 * N)
    return sp, p, h


def same_bits(x, y):
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint8),
                                                  y.view(np.uint8))


def peak_arrays(G, call):
    """Peak traced allocation of call(), in length-G complex arrays.  A
    first call fills the per-grid memos, so only the call's own working
    set is counted."""
    call()
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * G)


class TestBudget:
    @pytest.mark.parametrize("lam", LAMS)
    def test_resolvent(self, twist, lam):
        sp, _, h = twist
        G = sp.extension_grid()
        assert G == 16384
        used = peak_arrays(G, lambda: resolvent_apply(sp, lam, h))
        assert used <= BUDGET["resolvent"]

    def test_lift(self, twist):
        sp, p, _ = twist
        vec = kernel_lift(sp, p.coords[0], lam=p.lam)
        used = peak_arrays(vec.meta["grid"],
                           lambda: kernel_lift(sp, p.coords[0], lam=p.lam))
        assert used <= BUDGET["lift"]

    def test_project(self, twist):
        sp, p, _ = twist
        vec = kernel_lift(sp, p.coords[0], lam=p.lam)
        used = peak_arrays(vec.meta["grid"],
                           lambda: kernel_project(sp, vec, lam=p.lam))
        assert used <= BUDGET["project"]


def whole_array_resolvent(space, lam, h):
    """The resolvent from the stacked factors, every column of M^{-1}
    and all of Y held at once: the computation ``resolvent_apply``
    streams."""
    res = canonical_factors(space, lam)
    S, M, X, P = (f.values for f in (res.symbol, res.minus,
                                     res.plus_inverse, res.plus))
    h1, h2 = space.synth_bands(h, res.grid)
    th = space.theta.sample(res.grid)
    tb = np.conj(th)
    right = [[tb * P[i][2], tb * P[i][3]] for i in range(4)]
    Y = np.array([r2 * h1 + r3 * h2 for r2, r3 in right])
    inv_sq = sq_frobenius(right)
    for j in (0, 1):
        inv_sq = inv_sq + sq_frobenius(
            [[th * P[i][j] - P[i][2] * S[2][j] - P[i][3] * S[3][j]]
             for i in range(4)])
    cond = frobenius_cond("solve", sq_frobenius(M), inv_sq)
    coords = space.project_bands(
        apply_rows(X[:2], analytic_project_values(Y)))
    return coords, cond


class TestSameBits:
    @pytest.mark.parametrize("lam", LAMS)
    def test_resolvent(self, twist, lam):
        sp, _, h = twist
        coords, diag = resolvent_apply(sp, lam, h)
        want, cond = whole_array_resolvent(sp, lam, h)
        assert same_bits(coords, want)
        assert same_bits(diag["cond_minus"], cond)

    def test_lift(self, twist):
        sp, p, _ = twist
        vec = kernel_lift(sp, p.coords[0], lam=p.lam)
        G = vec.meta["grid"]
        rows = _extension_rows(sp, None, p.lam, G)
        S = np.empty((4, G), dtype=complex)
        S[:2] = sp.synth_bands(p.coords[0], G)
        for i in (2, 3):
            S[i] = rows[0][0] * (rows[i][0] * S[0] + rows[i][1] * S[1])
        comps = grid_fft(S)[:, :vec.n_ext + 1]
        comps[2:] = -comps[2:]
        assert same_bits(vec.comps, comps)
        GF = grid_fft(apply_rows(rows, vec.values_on(G)))[:, :G // 2]
        want = np.max([np.sqrt(np.sum(np.abs(c) ** 2)) for c in GF])
        assert same_bits(vec.meta["rh_residual"], float(want))

    def test_two_row_projection(self, twist):
        sp, p, _ = twist
        vec = kernel_lift(sp, p.coords[0], lam=p.lam)
        want = sp.project_bands(vec.values_on(vec.meta["grid"]))
        assert same_bits(kernel_project(sp, vec, lam=p.lam), want)

    def test_an_edited_window_takes_the_full_check(self, twist, monkeypatch):
        import dualband.extension as ext
        sp, p, _ = twist
        vec = kernel_lift(sp, p.coords[0], lam=p.lam)
        calls = []
        energy = ext._analytic_energy

        def counting(*args):
            calls.append(1)
            return energy(*args)

        monkeypatch.setattr(ext, "_analytic_energy", counting)
        want = kernel_project(sp, vec, lam=p.lam)
        assert calls == []
        vec.comps *= 2.0                # still a kernel vector
        assert kernel_project(sp, vec, lam=p.lam) == pytest.approx(
            2.0 * want, abs=1e-12)
        assert calls == [1]
        vec.comps[2, 5] += 1.0          # no longer one
        with pytest.raises(NonKernelInputError):
            kernel_project(sp, vec, lam=p.lam)
        assert calls == [1, 1]


@pytest.fixture(scope="module", params=["free", "realized"])
def blaschke_space(request):
    """A space over 32 random zeros, |a| <= 0.5: a non-monomial theta."""
    rng = np.random.default_rng(5)
    zeros = 0.5 * np.sqrt(rng.random(32)) * np.exp(2j * np.pi * rng.random(32))
    theta = InnerFunction.blaschke(zeros)
    if request.param == "free":
        return build_dualband(theta, aplus=LaurentSymbol.constant(0.8),
                              aminus=LaurentSymbol.constant(0.6))
    return build_dualband(theta, phi=Z(0), psi=Z(1) * theta.as_symbol())


class TestNonMonomialProjection:
    """``project_values`` on a non-monomial theta reads the (n, G) basis
    without a conjugated copy of it, and gives the bits of
    ``V.conj() @ f / G``."""

    G = 2048

    def stacks(self):
        rng = np.random.default_rng(11)
        G = self.G
        yield rng.standard_normal((2, G)) + 1j * rng.standard_normal((2, G))
        yield rng.standard_normal((2, G)) + 0j
        yield np.zeros((2, G), dtype=complex)
        yield np.full((2, G), -0.0 + 0j)

    def test_same_bits_as_the_conjugated_basis(self, blaschke_space):
        sp = blaschke_space
        V = sp.basis.values(self.G)
        for F in self.stacks():
            want = np.concatenate([(V.conj() @ F[0]) / self.G,
                                   (V.conj() @ F[1]) / self.G])
            assert same_bits(sp.project_bands(F), want)
        # a basis row and |e_0|^2 have imaginary parts that cancel exactly
        for f in (V[5].copy(), (np.conj(V[0]) * V[0])):
            assert same_bits(sp.basis.project_values(f),
                             (V.conj() @ f) / self.G)

    def test_no_copy_of_the_basis(self, blaschke_space):
        sp = blaschke_space
        f = np.random.default_rng(3).standard_normal(self.G) + 0j
        used = peak_arrays(self.G, lambda: sp.basis.project_values(f))
        assert used <= 2
