"""The default quadrature grid against a fine one, over drawn spaces.

Each space's default grid comes from its own symbols' data (the
quadrature rule of ``symbols.choose_grid``); the dense compressions on
that grid must agree with the same compressions at G = 2**14.  Zeros
stay within |a| <= 0.7: nearer the circle the expanded theta itself
loses digits, and grids of 2**14 and 2**15 disagree with each other.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dualband import (InnerFunction, LaurentSymbol, block_w,  # noqa: E402
                      build_dualband, ctheta_matrix)

FINE = 2 ** 14
TOL = 1e-13

unit = st.floats(-1.0, 1.0, allow_nan=False)
cplx = st.builds(complex, unit, unit)
# a zero of modulus near 1e-308 leaves the expanded denominator a top
# coefficient that overflows its root check (a CoefficientError, tested
# in test_symbols); moduli start at 1e-3 or are exactly 0
zero = st.builds(lambda r, t: r * np.exp(2j * np.pi * t),
                 st.one_of(st.just(0.0), st.floats(1e-3, 0.7)),
                 st.floats(0.0, 1.0))


@st.composite
def spaces(draw):
    zeros = draw(st.lists(zero, min_size=1, max_size=8))
    theta = InnerFunction.blaschke(zeros)
    if draw(st.booleans()):
        return build_dualband(theta, phi=LaurentSymbol.constant(1.0),
                              psi=LaurentSymbol.monomial(1) *
                              theta.as_symbol())
    plus = draw(st.lists(cplx, min_size=1, max_size=2))
    minus = draw(st.lists(cplx, min_size=1, max_size=2))
    return build_dualband(theta,
                          aplus=LaurentSymbol.from_coeffs(plus, 0),
                          aminus=LaurentSymbol.from_coeffs(minus,
                                                           1 - len(minus)))


symbols = st.builds(LaurentSymbol.from_coeffs,
                    st.lists(cplx, min_size=1, max_size=4),
                    st.integers(-2, 0))


@settings(max_examples=100, deadline=None, derandomize=True,
          database=None)
@given(spaces(), symbols)
def test_default_grid_agrees_with_fine_grid(sp, g):
    W = block_w(sp, g).entries
    assert np.max(np.abs(W - block_w(sp, g, G=FINE).entries)) < TOL
    R = ctheta_matrix(sp.basis)
    assert np.max(np.abs(R - ctheta_matrix(sp.basis, G=FINE))) < TOL
