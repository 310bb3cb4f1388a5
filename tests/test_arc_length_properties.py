"""Arc length against an independent reference.

`arc_length` integrates one piecewise Chebyshev series of |C'| per curve.
The reference is scipy's adaptive Gauss-Kronrod `quad` at 1e-14, run over
[0, u] split where |C'| is least and at points closing in on it, so that a
near cusp does not limit the reference. Both read |C'| from the same
kernel, so they differ by the rules alone. The curves are regular: a cusp
that falls between a piece's outermost sample and its end is invisible to
the samples (on [[0.99999, 1], [0, 1], [1, 1]], whose C' vanishes at
u = 0.4999975, the length is 2.5e-11 short; the doubling Gauss-Legendre
rule used before was off by up to 1.3e-6 on such curves).
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.polynomial import Polynomial
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from agv_path_kit import BezierCurve, PathSegment, Tangential, arc_length, profile_segment
from agv_path_kit.curve import _CHEB_DEPTH, _CHEB_M, _CHEB_WIDTH

COORDINATE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
# |S(u) - reference(u)| at most this fraction of the curve's length.
BOUND = 1e-12


def speed(curve: BezierCurve):
    return lambda u: float(np.hypot(*curve.derivatives_many(np.array([u]), 1, lowest=1)[1][0]))


def slowest(curve: BezierCurve) -> tuple[float, float]:
    """Where |C'| is least on [0, 1], and that least value. Candidates are the
    ends and the real roots in [0, 1] of d|C'|^2/du, from the power form of the
    hodograph; each is refined by a bounded scalar search on |C'| about it."""
    m = curve.degree - 1
    u, rest = Polynomial([0.0, 1.0]), Polynomial([1.0, -1.0])
    basis = [math.comb(m, j) * u**j * rest**(m - j) for j in range(m + 1)]
    hx, hy = (sum((h * b for h, b in zip(column, basis)), Polynomial([0.0]))
              for column in curve._derivative_net(1).T)
    roots = (hx * hx + hy * hy).deriv().roots() if m else []
    candidates = [0.0, 1.0] + [float(r.real) for r in roots if abs(r.imag) <= 1e-6
                               and 0.0 <= r.real <= 1.0]
    f, best = speed(curve), []
    for c in candidates:
        found = minimize_scalar(f, bounds=(max(c - 1e-3, 0.0), min(c + 1e-3, 1.0)),
                                method="bounded", options={"xatol": 1e-15})
        best += [(c, f(c)), (float(found.x), float(found.fun))]
    return min(best, key=lambda pair: pair[1])


def reference(curve: BezierCurve, us, at: float) -> np.ndarray:
    """quad's length over [0, u] for each u, split at ``at`` and at 1e-2..1e-9
    on either side of it."""
    marks = sorted({at} | {at + side * 10.0**-k for k in range(2, 10) for side in (-1, 1)})
    f = speed(curve)
    lengths = []
    for u in us:
        edges = [0.0] + [m for m in marks if 0.0 < m < u] + [u]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # quad's IntegrationWarning on a length of 0
            lengths.append(sum(quad(f, a, b, epsabs=1e-14, epsrel=1e-14, limit=200)[0]
                               for a, b in zip(edges, edges[1:])))
    return np.array(lengths)


@st.composite
def regular_curves(draw):
    """Degree 1 to 9, with |C'| at least 1e-7 max|H_j| on [0, 1] and max|H_j| above
    1e-100; in one case of three |C'| is brought down to 1e-6, 1e-3 or 0.1 of
    |C'(u0)| at some u0 by the ramp of `test_curve_properties.near_cusp_curves`."""
    degree = draw(st.integers(1, 9))
    points = draw(arrays(float, (degree + 1, 2), elements=COORDINATE))
    if degree > 1 and draw(st.integers(0, 2)) == 0:
        u0 = draw(st.floats(0.0, 1.0))
        d1 = BezierCurve(points).derivatives_many(np.array([u0]), 1, lowest=1)[1][0]
        gap = draw(st.sampled_from([1e-6, 1e-3, 0.1])) * float(np.hypot(*d1))
        angle = draw(st.floats(-math.pi, math.pi))
        drift = d1 - gap * np.array([math.cos(angle), math.sin(angle)])
        points = points - np.arange(degree + 1)[:, None] / degree * drift
    curve = BezierCurve(points)
    at, least = slowest(curve)
    scale = np.hypot(*curve._derivative_net(1).T).max()
    assume(scale > 1e-100 and least >= 1e-7 * scale)  # far from subnormal samples
    return curve, at


@settings(deadline=None, max_examples=60)
@given(regular_curves(), st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3))
def test_length_matches_an_adaptive_reference(case, us):
    curve, at = case
    us = np.array(sorted(us) + [1.0])
    expected = reference(curve, us, at)
    got = arc_length(curve, 0.0, us)
    assert np.all(np.abs(got - expected) <= BOUND * expected[-1])


def lifted_cusp(lift: float) -> BezierCurve:
    """The cubic on [(0, 0), (1, 1), (2, -0.5), (4, 0)] less the line u C'(0.3),
    whose C' vanishes at u = 0.3, with that zero lifted along the normal of C''(0.3)
    by ``lift`` |C'(0.3)|: then min |C'| is exactly that, at u = 0.3."""
    net = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, -0.5), (4.0, 0.0)])
    d1, d2 = (d[0] for d in BezierCurve(net).derivatives_many(np.array([0.3]), 2, lowest=1)[1:])
    normal = np.array([-d2[1], d2[0]]) / np.hypot(*d2)
    drift = d1 - lift * np.hypot(*d1) * normal
    return BezierCurve(net - np.arange(4)[:, None] / 3.0 * drift)


# Largest error over 40 ends as a fraction of the length, lifts 0.1, 1e-3 and
# 1e-6: 1.3e-12, 6.4e-12 and 1.3e-9 for the doubling 24-point Gauss-Legendre
# rule that arc length used before, 1.4e-16, 3.2e-16 and 2.4e-16 now.
@pytest.mark.parametrize("lift", [0.1, 1e-3, 1e-6])
def test_near_cusp_lengths_hold_to_rounding(lift):
    curve = lifted_cusp(lift)
    us = np.linspace(0.0, 1.0, 41)[1:]
    expected = reference(curve, us, at=0.3)
    got = arc_length(curve, 0.0, us)
    assert np.abs(got - expected).max() <= 1e-14 * expected[-1]


def counted_evaluations(monkeypatch, fn):
    """``fn()`` and the node counts of the curve evaluations it made."""
    sizes, original = [], BezierCurve.derivatives_many

    def counting(curve, us, order, **kwargs):
        sizes.append(np.size(us))
        return original(curve, us, order, **kwargs)

    monkeypatch.setattr(BezierCurve, "derivatives_many", counting)
    result = fn()
    monkeypatch.undo()
    return result, sizes


def test_a_cusp_stops_at_the_depth_cap(monkeypatch):
    # The unlifted cubic has |C'(0.3)| = 4.7e-16: the piece holding the kink
    # never converges, so bisection ends at the cap, two pieces a depth.
    curve = lifted_cusp(0.0)
    us = np.linspace(0.0, 1.0, 1001)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, sizes = counted_evaluations(monkeypatch, lambda: arc_length(curve, 0.0, us))
    assert len(sizes) == _CHEB_DEPTH + 1 and max(sizes) <= 2 * _CHEB_M
    assert np.isfinite(s).all() and (np.diff(s) >= 0.0).all()
    assert abs(s[-1] - reference(curve, [1.0], at=0.3)[0]) <= 1e-14 * s[-1]


def test_subnormal_samples_bisect_a_bounded_number_of_pieces(monkeypatch):
    # Here no tail meets the test, since the bounds underflow; the width cap
    # ends the bisection.
    curve = BezierCurve([[2.2250738585e-313, 0.0], [0.0, 0.0]])
    s, sizes = counted_evaluations(monkeypatch, lambda: arc_length(curve, 0.0, [0.5, 1.0]))
    assert max(sizes) <= 2 * _CHEB_WIDTH * _CHEB_M and len(sizes) <= _CHEB_DEPTH + 1
    assert np.isfinite(s).all() and 0.0 < s[0] < s[1]


@pytest.mark.parametrize("u", [0.0, 0.3, 0.5, 1.0])
def test_an_empty_interval_has_length_zero(u):
    for curve in (lifted_cusp(0.0), lifted_cusp(1e-3), BezierCurve([(0, 0), (3, 4)])):
        assert arc_length(curve, u, u) == 0.0
        assert arc_length(curve, u, np.array([u, u])).tolist() == [0.0, 0.0]


def test_profile_arc_length_never_decreases(layout_exponential):
    segments = [ls.segment for ls in layout_exponential.segments]
    # `PathSegment` accepts the cusp: no node of its sampling lands near enough.
    segments.append(PathSegment(lifted_cusp(0.0), Tangential(), 1.5))
    for segment in segments:
        s = profile_segment(segment, layout_exponential.vehicle, 1000).s
        assert s[0] == 0.0 and (np.diff(s) >= 0.0).all()
