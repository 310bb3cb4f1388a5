"""Repair candidates as moved control-point rows, held to the vector route.

`repair._jet_net` computes the points an endpoint jet moves in Python
floats, and the candidate builders return control nets as lists of [x, y]
rows, not curves. These properties compare them with the vector route bit
for bit (signed zeros included):

- `prescribe_endpoint_jet` against the endpoint-jet map written as numpy
  vector expressions;
- the row net `_jet_net` returns (None for a non-finite moved point), its
  displacement and its hodograph certificate against the same map, ``np.sum``
  and the certificate written as array expressions;
- each candidate against its jets written as numpy vector expressions, then
  `prescribe_endpoint_jet`, `BezierCurve` and `irregular_parameter`, with the
  displacement taken on those curves: the moved points, the admissibility,
  the parameters and the displacement must be equal. Given beta1 alone, a
  candidate solves the other parameters by least squares on columns of
  Python floats; the vector route writes the same columns and offsets as
  arrays.

Float arithmetic and numpy's elementwise loops round alike on every SIMD
path, so CI runs this file with numpy's AVX-512 loops switched off too.

The least squares the candidates solve runs on Python floats: the box form
(1-3 columns, a bound pair each) is held to the normal equations inside the
box and to scipy's `lsq_linear` on a face, and the sheared form of the
right side's (beta2, beta3) to a fine scan of its box.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import (BezierCurve, ExponentialAnticipated, RepairProblem,
                          Tangential, prescribe_endpoint_jet)
from agv_path_kit import repair as R
from agv_path_kit.curve import (REGULAR_SPEED, _EPS, _dot, _hodograph_certifies,
                                irregular_parameter)

from conftest import random_regular_curve
from test_continuity import ctx_for

COORDINATE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def factors(n: int) -> tuple[float, float, float]:
    return float(n), float(n * (n - 1)), float(n * (n - 1) * (n - 2))


def numpy_prescribe(points, end, d1, d2=None, d3=None) -> np.ndarray:
    """The endpoint-jet map as numpy vector expressions."""
    n = points.shape[0] - 1
    f1, f2, f3 = factors(n)
    pts = points.copy()
    if end == "start":
        p0 = pts[0]
        pts[1] = p0 + d1 / f1
        if d2 is not None:
            pts[2] = d2 / f2 + 2.0 * pts[1] - p0
        if d3 is not None:
            pts[3] = d3 / f3 + 3.0 * pts[2] - 3.0 * pts[1] + p0
    else:
        pn = pts[n]
        pts[n - 1] = pn - d1 / f1
        if d2 is not None:
            pts[n - 2] = d2 / f2 + 2.0 * pts[n - 1] - pn
        if d3 is not None:
            pts[n - 3] = pn - 3.0 * pts[n - 1] + 3.0 * pts[n - 2] - d3 / f3
    return pts


@settings(deadline=None, max_examples=200)
@given(st.integers(3, 9).flatmap(lambda n: arrays(float, (n + 1, 2), elements=COORDINATE)),
       st.sampled_from(["start", "end"]), st.integers(1, 3),
       arrays(float, (3, 2), elements=COORDINATE))
def test_prescribed_points_equal_the_vector_expressions(net, end, order, jet):
    new = prescribe_endpoint_jet(BezierCurve(net), end, *jet[:order])
    assert bits(new.control_points) == bits(numpy_prescribe(net, end, *jet[:order]))


def numpy_certifies(net: np.ndarray) -> bool:
    """The hodograph certificate as array expressions: every direction's dot
    products with the hodograph points as one (D, H) array, each a product
    pair summed as `_dot` sums it. The lengths are `math.hypot`'s, the
    certificate's own rounding (np.hypot differs in the last bit)."""
    n = net.shape[0] - 1
    hodograph = n * (net[1:] - net[:-1])
    directions = np.vstack((net[-1] - net[0], hodograph))
    lengths = np.array([math.hypot(x, y) for x, y in directions.tolist()])
    threshold = REGULAR_SPEED + 64.0 * _EPS * n * float(lengths[1:].max())
    dots = directions[:, :1] * hodograph[:, 0] + directions[:, 1:] * hodograph[:, 1]
    return bool(np.any(dots.min(axis=1) > threshold * lengths))


@settings(deadline=None, max_examples=300)
@given(st.integers(3, 9).flatmap(lambda n: arrays(float, (n + 1, 2), elements=COORDINATE)),
       st.sampled_from(["start", "end"]), st.integers(1, 3),
       arrays(float, (3, 2), elements=COORDINATE | st.sampled_from([1.7e308, -1.7e308])))
@example(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0], [3.0, 1.0]]), "start", 3,
         np.full((3, 2), 1.7e308))
def test_row_nets_equal_the_array_forms(net, end, order, jet):
    rows = R._jet_net(net.tolist(), end, jet[:order].tolist())
    with np.errstate(over="ignore", invalid="ignore"):
        expected = numpy_prescribe(net, end, *jet[:order])
        moves = float(np.sum((net - expected)**2))
    if not np.isfinite(expected).all():
        assert rows is None
        return
    assert bits(rows) == bits(expected)
    assert bits(R._displacement(net.tolist(), rows)) == bits(moves)
    with np.errstate(over="ignore", invalid="ignore"):  # a huge net's hodograph overflows
        assert _hodograph_certifies(rows) == numpy_certifies(expected)


def displacement(before: BezierCurve, after: BezierCurve) -> float:
    return float(np.sum((before.control_points - after.control_points)**2))


def vector_tangential(ctx, side, beta, bounds):
    """The tangential candidate on the vector route: (beta triple, left curve,
    right curve) or None. Given (beta1,) alone, (beta2, beta3) are solved
    from the moved points written as arrays: affine in (beta2, beta3) on the
    left, in (beta2, beta3 - 3 beta2^2 / beta1) on the right."""
    b1 = float(beta[0])
    if side == "right":
        curve, end, lj = ctx.right.curve, "start", ctx.left_jet
        d1 = lj.d1 / b1

        def jet(b2, b3):
            d2 = (lj.d2 - b2 * d1) / b1**2
            return d1, d2, (lj.d3 - 3.0 * b1 * b2 * d2 - b3 * d1) / b1**3
        # (d2, d3) per unit beta2 and per unit beta3* = beta3 - 3 beta2^2 / beta1
        slopes = [(-d1 / b1**2, -3.0 * lj.d2 / b1**4), (np.zeros(2), -d1 / b1**3)]
    else:
        curve, end, rj = ctx.left.curve, "end", ctx.right_jet

        def jet(b2, b3):
            return (b1 * rj.d1, b1**2 * rj.d2 + b2 * rj.d1,
                    b1**3 * rj.d3 + 3.0 * b1 * b2 * rj.d2 + b3 * rj.d1)
        slopes = [(rj.d1, 3.0 * b1 * rj.d2), (np.zeros(2), rj.d1)]
    if len(beta) > 1:
        b2, b3 = float(beta[1]), float(beta[2])
    else:
        _, f2, f3 = factors(curve.degree)
        sign, moved = (1.0, [2, 3]) if end == "start" else (-1.0, [-3, -4])
        columns = [np.concatenate((s2 / f2, 3.0 * s2 / f2 + sign * s3 / f3)) for s2, s3 in slopes]
        zero = prescribe_endpoint_jet(curve, end, *jet(0.0, 0.0)).control_points
        b = (curve.control_points[moved] - zero[moved]).ravel()
        b2, b3 = (R._box_least_squares(columns, b, bounds) if side == "left"
                  else R._sheared_least_squares(columns, b, 3.0 / b1, bounds))
    new = prescribe_endpoint_jet(curve, end, *jet(b2, b3))
    if irregular_parameter(new) is not None:
        return None
    if side == "right":
        return (b1, b2, b3), ctx.left.curve, new
    return (b1, b2, b3), new, ctx.right.curve


def vector_exponential(ctx, x, bound):
    """The exponential candidate on the vector route: (multipliers, left
    curve, right curve) or None. Given (beta1,) alone, (x_d1L, x_d2L, x_d2R)
    are solved along v from the moved points written as arrays."""
    v, n = ctx.left_jet.d1, ctx.right.mode.n
    if len(x) == 1:
        b1 = float(x[0])
        left, right = ctx.left.curve.control_points, ctx.right.curve.control_points
        f1l, f2l, f3l = factors(ctx.left.curve.degree)
        f1r, f2r, f3r = factors(ctx.right.curve.degree)
        w = f3l / (b1**3 * n**2 * f3r)
        # Per unit multiplier, and at zero multipliers: P(m-1), P(m-2), Q1, Q2, Q3.
        a = np.array([[-1.0 / f1l, 0.0, 0.0],
                      [-2.0 / f1l, 1.0 / f2l, 0.0],
                      [1.0 / (b1 * f1r), 0.0, 0.0],
                      [2.0 / (b1 * f1r), 0.0, 1.0 / f2r],
                      [3.0 / (b1 * f1r) - 3.0 * w / f1l, 3.0 * w / f2l, 3.0 / f2r]])
        zero = np.array([left[-1], left[-1], right[0], right[0],
                         right[0] + w * (left[-1] - left[-4])])
        moved = np.vstack((left[[-2, -3]], right[1:4]))
        lo, hi = R._BETA1_BOUNDS
        x1, x2, x4 = R._box_least_squares(
            a.T, _dot((moved - zero).T, v) / _dot(v, v),
            [(max(lo, lo * b1), min(hi, hi * b1)), (-bound, bound), (-bound, bound)])
        x = x1, x2, float(np.clip(x1 / b1, lo, hi)), x4
    x1, x2, x3, x4 = (float(value) for value in x)
    new_left = prescribe_endpoint_jet(ctx.left.curve, "end", x1 * v, x2 * v)
    if irregular_parameter(new_left) is not None:
        return None
    beta1 = x1 / x3
    d3_right = new_left._derivative_net(3)[-1] / (beta1**3 * n**2)
    new_right = prescribe_endpoint_jet(ctx.right.curve, "start", x3 * v, x4 * v, d3_right)
    if irregular_parameter(new_right) is not None:
        return None
    return (x1, x2, x3, x4), new_left, new_right


def assert_same_candidate(problem, built, expected):
    """``built`` (row nets) equals ``expected`` (curves) bit for bit; a side
    left alone is its own rows of ``problem._rows``."""
    assert (built is None) == (expected is None)
    if built is None:
        return
    assert bits(built[0]) == bits(expected[0])
    ctx, total = problem.ctx, 0.0
    for net, curve, segment, rows in zip(built[1:], expected[1:], (ctx.left, ctx.right),
                                         problem._rows):
        assert (net is rows) == (curve is segment.curve)
        assert bits(net) == bits(curve.control_points)
        total += displacement(segment.curve, curve)
    assert bits(R._displacement(problem._rows[0], built[1])
                + R._displacement(problem._rows[1], built[2])) == bits(total)


@st.composite
def junctions(draw, right_mode):
    """Two random curves of degrees 4-9 (the left one 3-9) meeting at a point,
    with their tangents free."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = random_regular_curve(rng, degree=draw(st.integers(3, 9)))
    right = random_regular_curve(rng, degree=draw(st.integers(4, 9)))
    if draw(st.booleans()):
        left, right = (BezierCurve(c.control_points * (1.0, -1.0)) for c in (left, right))
    right = BezierCurve(right.control_points - right.control_points[0]
                        + left.control_points[-1])
    return left, right, right_mode


def tangential_bounds(ctx) -> float:
    return R._COEFFICIENT_BOUND * max(1.0, float(np.linalg.norm(ctx.left_jet.d2))
                                      / float(np.linalg.norm(ctx.left_jet.d1)))


@settings(deadline=None, max_examples=150)
@given(junctions(Tangential(0.0)), st.sampled_from(["right", "left"]),
       st.floats(0.1, 10.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
       st.sampled_from([None, 1e-6, 1e-2, 1.0]))
def test_tangential_candidate_equals_the_vector_route(two_wheel_vehicle, junction, side,
                                                      b1, b2, b3, clip):
    left, right, mode = junction
    ctx = ctx_for(left, right, two_wheel_vehicle, mode)
    edited = right if side == "right" else left
    if edited.degree < 4:
        return
    cb = tangential_bounds(ctx)
    problem = RepairProblem(ctx, "min_displacement", side)
    # clip None runs the search's full triple; otherwise (beta2, beta3) are
    # solved within +-clip times their search bounds, small enough to hit a
    # face (on the right side, to fire the clip rule).
    beta, bounds = ((b1, b2 * cb, b3 * 3.0 * cb), None) if clip is None \
        else ((b1,), ((-cb * clip, cb * clip), (-3.0 * cb * clip, 3.0 * cb * clip)))
    assert_same_candidate(problem, R._tangential_candidate(problem, beta, bounds),
                          vector_tangential(ctx, side, beta, bounds))


@settings(deadline=None, max_examples=150)
@given(st.floats(1.05, 4.0).flatmap(lambda n: junctions(ExponentialAnticipated(0.0, n))),
       st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(-1.0, 1.0),
       st.floats(-1.0, 1.0), st.sampled_from([None, 1e-3, 0.1, 10.0]))
def test_exponential_candidate_equals_the_vector_route(two_wheel_vehicle, junction,
                                                       x1, x3, x2, x4, bound):
    left, right, mode = junction
    ctx = ctx_for(left, right, two_wheel_vehicle, Tangential(0.0), mode)
    problem = RepairProblem(ctx, "min_displacement")
    # bound None runs the search's four multipliers; otherwise beta1 is
    # x1 / x3 and (x_d1L, x_d2L, x_d2R) are solved in a box whose
    # second-order sides are small enough to hit a face.
    x = (x1, 10.0 * x2, x3, 10.0 * x4) if bound is None else (x1 / x3,)
    assert_same_candidate(problem, R._exponential_candidate(problem, x, bound or 10.0),
                          vector_exponential(ctx, x, bound or 10.0))


def test_draws_reach_clipped_and_interior_solutions(two_wheel_vehicle):
    # Both properties compare solutions on a face of the box (on the right
    # side, with the clip rule fired) as well as inside it: count both kinds
    # on fixed draws.
    rng = np.random.default_rng(18)
    kinds = {"right": set(), "left": set(), "exponential": set()}
    for _ in range(30):
        left = random_regular_curve(rng, degree=int(rng.integers(4, 10)))
        right = random_regular_curve(rng, degree=int(rng.integers(4, 10)))
        right = BezierCurve(right.control_points - right.control_points[0]
                            + left.control_points[-1])
        ctx = ctx_for(left, right, two_wheel_vehicle)
        cb = tangential_bounds(ctx)
        for side in ("right", "left"):
            for clip in (1e-6, 1.0):
                bounds = ((-cb * clip, cb * clip), (-3.0 * cb * clip, 3.0 * cb * clip))
                built = vector_tangential(ctx, side, (rng.uniform(0.5, 2.0),), bounds)
                if built is not None:
                    kinds[side].add(any(abs(b) == hi for b, (_, hi) in zip(built[0][1:], bounds)))
        ctx = ctx_for(left, right, two_wheel_vehicle, Tangential(0.0),
                      ExponentialAnticipated(0.0, 1.7))
        for bound in (1e-3, 10.0):
            built = vector_exponential(ctx, (rng.uniform(0.5, 2.0),), bound)
            if built is not None:
                kinds["exponential"].add(bound in np.abs(built[0][1::2]))
    assert kinds == {"right": {True, False}, "left": {True, False},
                     "exponential": {True, False}}


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 3).flatmap(lambda cols: st.tuples(
    arrays(float, (cols + 2, cols), elements=st.floats(-10.0, 10.0)),
    arrays(float, cols + 2, elements=st.floats(-100.0, 100.0)),
    arrays(float, cols, elements=st.floats(-10.0, 10.0)),
    arrays(float, cols, elements=st.floats(1e-6, 20.0)))))
def test_box_least_squares_against_the_normal_equations_and_scipy(problem):
    # The candidates solve 2 columns on 4 rows (beta2, beta3), 1 column on
    # 4 rows (beta3 alone) and 3 columns on 5 rows (x_d1L, x_d2L, x_d2R),
    # each column with its own bounds. Inside the box the solution is the
    # normal equations' one; on a face its cost is no more than scipy's, up
    # to rounding relative to the cost and to |b|^2 (an exact fit costs ~0).
    lsq_linear = pytest.importorskip("scipy.optimize").lsq_linear
    a, b, lo, width = problem
    # Well-conditioned columns whose squares do not underflow, as the
    # candidates' are.
    assume(np.abs(a).max(axis=0).min() > 1e-3 and np.linalg.cond(a) < 1e3)
    hi = lo + width
    z = np.array(R._box_least_squares(a.T.tolist(), b.tolist(), list(zip(lo, hi))))
    assert np.all((lo <= z) & (z <= hi))
    if np.all((lo < z) & (z < hi)):
        assert np.allclose(z, np.linalg.solve(a.T @ a, a.T @ b), rtol=1e-9, atol=1e-9)
    else:
        def cost(x):
            return float(np.sum((a @ x - b)**2))
        reference = lsq_linear(a, b, bounds=(lo, hi), method="bvls").x
        assert cost(z) <= cost(reference) + 1e-12 * max(cost(reference), float(b @ b))


@settings(deadline=None, max_examples=300)
@given(arrays(float, (4, 2), elements=st.floats(-10.0, 10.0)),
       arrays(float, 4, elements=st.floats(-100.0, 100.0)), st.floats(0.3, 30.0),
       arrays(float, 2, elements=st.floats(-10.0, 10.0)),
       arrays(float, 2, elements=st.floats(1e-3, 20.0)))
def test_sheared_least_squares_against_a_scan(a, b, shear, lo, width):
    # The right side's (beta2, beta3) on 4 rows, shear = 3 / beta1: the cost
    # |a (z1, z2 - shear z1^2) - b|^2 over a box. At each z1 of a fine scan
    # of its side the best z2 is one clipped column; the solution lies in the
    # box and costs no more than the scan's best, up to rounding.
    assume(np.abs(a).max(axis=0).min() > 1e-3 and np.linalg.cond(a) < 1e3)
    hi = lo + width
    z = R._sheared_least_squares(a.T.tolist(), b.tolist(), shear, list(zip(lo, hi)))
    assert np.all((lo <= z) & (z <= hi))

    def cost(z1, z2):
        residual = (np.multiply.outer(z1, a[:, 0])
                    + np.multiply.outer(z2 - shear * z1**2, a[:, 1]) - b)
        return np.sum(residual**2, axis=-1)
    z1 = np.linspace(lo[0], hi[0], 20001)
    free = (b - np.multiply.outer(z1, a[:, 0])) @ a[:, 1] / (a[:, 1] @ a[:, 1]) + shear * z1**2
    scan = float(cost(z1, np.clip(free, lo[1], hi[1])).min())
    assert cost(*z) <= scan + 1e-12 * max(scan, float(b @ b))
