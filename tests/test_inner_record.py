"""The flat inner-function record against the factor-wise product.

``InnerFunction.product`` keeps one record: the constants multiply, the
zeros and the mass points concatenate.  Its evaluation, derivative and
value at the origin must agree with the product of its factors, read
factor by factor (``TestMassPointsRefused`` in test_symbols checks
that every refusal of mass points survives the flattening).
"""

from collections import Counter

import numpy as np
import pytest

pytest.importorskip("hypothesis")
mpmath = pytest.importorskip("mpmath")
from hypothesis import given, settings, strategies as st  # noqa: E402

from dualband import InnerFunction  # noqa: E402

TOL = 1e-13

angle = st.floats(0.0, 1.0)
on_circle = st.builds(lambda t: complex(np.exp(2j * np.pi * t)), angle)


def in_disc(r_max):
    # moduli are exactly 0 or at least 1e-3: products of tiny moduli
    # underflow, and an underflowed value has no relative accuracy
    return st.builds(lambda r, t: r * np.exp(2j * np.pi * t),
                     st.one_of(st.just(0.0), st.floats(1e-3, r_max)), angle)


zero = in_disc(0.9)
blaschke = st.builds(InnerFunction.blaschke,
                     st.lists(zero, min_size=1, max_size=4), on_circle)
atomic = st.builds(InnerFunction.atomic,
                   st.lists(st.tuples(on_circle, st.floats(0.1, 2.0)),
                            min_size=1, max_size=2))
factors = st.lists(st.one_of(blaschke, atomic), min_size=1, max_size=3)
points = st.lists(in_disc(0.8), min_size=1, max_size=6).map(np.array)


def close(got, want, scale):
    return np.all(np.abs(got - want) <= TOL * scale)


def oracle_derivative(fs, z):
    """theta'(z) of the product of fs, by mpmath.diff at 40 digits."""
    def theta(w):
        v = mpmath.mpc(1)
        for f in fs:
            v *= mpmath.mpc(f.const)
            for a in f.zeros:
                a = mpmath.mpc(complex(a))
                v *= (w - a) / (1 - mpmath.conj(a) * w)
            for xi, mu in f.points:
                v *= mpmath.exp(mu * (w + xi) / (w - xi))
        return v

    with mpmath.workdps(40):
        return np.array([complex(mpmath.diff(theta, mpmath.mpc(complex(p))))
                         for p in z])


@settings(max_examples=200, deadline=None, derandomize=True,
          database=None)
@given(factors, points)
def test_record_agrees_with_factorwise_product(fs, z):
    theta = InnerFunction.product(fs)
    vals = [f.eval_at(z) for f in fs]
    ders = [f.derivative_at(z) for f in fs]
    want = np.prod(vals, axis=0)
    assert close(theta.eval_at(z), want, np.abs(want))
    # product rule, factor by factor; scaled by its terms' sizes, since
    # the terms may cancel
    terms = [d * np.prod(vals[:j] + vals[j + 1:], axis=0)
             for j, d in enumerate(ders)]
    scale = np.sum(np.abs(terms), axis=0)
    got = theta.derivative_at(z)
    assert close(got, np.sum(terms, axis=0), scale)
    # the oracle's finite difference leaves far below 1e-30 where the
    # derivative vanishes, as it does at a multiple zero
    assert close(got, oracle_derivative(fs, z), scale + 1e-30)
    want0 = np.prod([f.value_at_zero() for f in fs])
    assert close(theta.value_at_zero(), want0, abs(want0))
    assert Counter(theta.boundary_spectrum()) == Counter(
        xi for f in fs for xi in f.boundary_spectrum())

