"""Junction repair: move control points until the continuity conditions hold.

The endpoint derivatives of a degree-n Bezier curve are linear in the
control points nearest that end, so a prescribed endpoint jet maps to an
exact control-point update that leaves the rest of the curve untouched.
Repair picks the prescription's free parameters (shape parameters, or
scalar multipliers of the junction tangent for the exponential rule set) by
bounded multi-start direct search, minimizing either estimated travel time
or control-point displacement; `repair_junction` picks the rule set from
the junction's mode pair. Under displacement, beta1 fixed, every other
parameter moves the control points affinely, or so after a change of
variable (variable projection: Golub and Pereyra, SIAM J. Numer. Anal.
1973). They are solved by least squares inside the search, which runs over
beta1 alone (for the exponential rule, beta1 = x_d1L / x_d1R): one start,
a bracket about it and Brent's method (`optimize.minimize` on one bound
pair), in 10-27 evaluations on the bundled layouts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .continuity import (SMOOTH, ContinuityReport, JunctionContext, Tolerances,
                         analyze_junction, _extract_curve_route)
from . import optimize
from .curve import (BezierCurve, _BezierStack, _dot, _hodograph_certifies, _pow, _rhs,
                    sampled_irregular_parameter)
from .errors import RepairInfeasibleError
from .kinematics import limit_profile_fast
from .motion import ExponentialAnticipated, Tangential, _end_parameter, _NodePlan, wrap_angle
from .vehicle import PathSegment, VehicleModel

__all__ = [
    "RepairProblem",
    "RepairResult",
    "prescribe_endpoint_jet",
    "repair_junction",
    "repair_tangential",
    "repair_exponential",
    "estimate_travel_time",
]

_TIME_GL_NODES, _TIME_GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_TIME_PANELS = 16
# The 192 quadrature nodes: 12 Gauss-Legendre nodes on each of 16 equal panels.
_TIME_HALF = 0.5 / _TIME_PANELS
_TIME_US = ((np.arange(_TIME_PANELS) + 0.5)[:, None] / _TIME_PANELS
            + _TIME_HALF * _TIME_GL_NODES[None, :]).ravel()
_TIME_US.setflags(write=False)
# Search bounds keep the repair near the original: beta1 and x_d1_* lie in
# _BETA1_BOUNDS, the rest within +-_COEFFICIENT_BOUND (tangential: times
# max(1, |d2| / |d1|) of the left jet, and beta3 three times that).
_BETA1_BOUNDS = (0.1, 10.0)
_COEFFICIENT_BOUND = 10.0


def _endpoint_factors(degree: int) -> tuple[float, float, float]:
    return (float(degree),
            float(degree * (degree - 1)),
            float(degree * (degree - 1) * (degree - 2)))


def _jet_net(points: list, end: str, jet) -> list | None:
    """The [x, y] rows ``points`` with the jet (d1, ..., dk) of (x, y) float pairs
    prescribed at ``end``: new rows for points 1..k from that end, the rest shared.

    Each coordinate is float arithmetic grouped as numpy evaluates the vector
    formulas: from the start P1 = P0 + d1/f1, P2 = (d2/f2 + 2 P1) - P0,
    P3 = ((d3/f3 + 3 P2) - 3 P1) + P0; from the end P1 = P0 - d1/f1, the same
    P2, P3 = ((P0 - 3 P1) + 3 P2) - d3/f3. None if a moved point is not finite.
    """
    f1, f2, f3 = _endpoint_factors(len(points) - 1)
    start = end == "start"
    p0 = points[0] if start else points[-1]
    rows = [p1 := [a + d / f1 if start else a - d / f1 for a, d in zip(p0, jet[0])]]
    if len(jet) > 1:
        rows.append(p2 := [d / f2 + 2.0 * b - a for a, b, d in zip(p0, p1, jet[1])])
    if len(jet) > 2:
        rows.append([d / f3 + 3.0 * c - 3.0 * b + a if start else a - 3.0 * b + 3.0 * c - d / f3
                     for a, b, c, d in zip(p0, p1, p2, jet[2])])
    if not all(math.isfinite(x) for row in rows for x in row):
        return None
    k = len(rows)
    return [p0, *rows, *points[k + 1:]] if start else [*points[:-k - 1], *rows[::-1], p0]


def prescribe_endpoint_jet(curve: BezierCurve, end: str, d1=None, d2=None,
                           d3=None) -> BezierCurve:
    """Return a copy of ``curve`` whose endpoint derivatives match the targets.

    Only the k control points nearest the chosen end move, where k is the
    highest prescribed order; the endpoint itself stays fixed. Prescribing
    order k needs degree >= k. The moved points come from `_jet_net`, the
    rule the repair candidates use too.
    """
    _end_parameter(end)
    order = 3 if d3 is not None else 2 if d2 is not None else 1 if d1 is not None else 0
    if order == 0:
        return curve
    if d3 is not None and d2 is None or d2 is not None and d1 is None:
        raise ValueError("prescribed derivatives must be contiguous from order 1")
    n = curve.degree
    if n < order:
        raise ValueError(f"degree {n} cannot carry an order-{order} endpoint jet")
    jet = [np.broadcast_to(np.asarray(d, float), (2,)).tolist() for d in (d1, d2, d3)[:order]]
    net = _jet_net(curve.control_points.tolist(), end, jet)
    if net is None:
        raise ValueError("control points must be finite")
    return BezierCurve(net)


def _travel_times(curves, us: np.ndarray, mode, v_segment: float,
                  vehicle: VehicleModel) -> list[float]:
    """Travel time of each curve, from one speed-limit pass at ``us``: one `BezierCurve`
    at _TIME_US, or a `_BezierStack` at its node plan's ``nodes``, K blocks of _TIME_US,
    whose curves' values equal their own passes' bit for bit."""
    v_max, speed = limit_profile_fast(curves, mode, v_segment, vehicle, us)
    v, c = (a.reshape(-1, _TIME_PANELS, _TIME_GL_NODES.size) for a in (v_max, speed))
    with np.errstate(divide="ignore", invalid="ignore"):  # only collapsed rows meet these
        times = _TIME_HALF * np.add.reduce(np.add.reduce(c / v * _TIME_GL_WEIGHTS, axis=-1),
                                           axis=-1)
        if not (v_max.min() > 0.0 and v_max.max() < math.inf):  # some row collapsed
            times[~np.all((v > 0.0) & np.isfinite(v), axis=(1, 2))] = math.inf
    return times.tolist()


def estimate_travel_time(segment: PathSegment, vehicle: VehicleModel) -> float:
    """Lower-bound travel time: integral of |C'(u)| / v_max(u) over the segment.

    Fixed composite Gauss-Legendre quadrature; acceleration limits are
    deliberately ignored so the value responds smoothly to shape changes.
    Returns inf when the limit profile collapses to zero on the sample set.
    """
    return _travel_times(segment.curve, _TIME_US, segment.mode, segment.v_max, vehicle)[0]


@dataclass
class RepairProblem:
    """One junction repair request.

    ``side`` selects which segment's control points move for the tangential
    rule set ("right" edits the downstream curve, "left" the upstream one);
    the exponential rule set always edits both sides.
    """

    ctx: JunctionContext
    objective: str = "min_travel_time"   # or "min_displacement"
    side: str = "right"

    def __post_init__(self):
        if self.objective not in ("min_travel_time", "min_displacement"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {self.side!r}")

    @cached_property
    def _rows(self) -> tuple[list, list]:
        """The left and right control points as [x, y] float rows, converted once."""
        return tuple(s.curve.control_points.tolist() for s in (self.ctx.left, self.ctx.right))


@dataclass
class RepairResult:
    """Outcome of a successful repair.

    ``evaluations`` counts objective evaluations over all search starts;
    ``converged`` says whether the winning start met the optimizer's
    tolerances (a search over beta1 alone: Brent's tolerance of 1e-10 on
    beta1) rather than its evaluation budget of 400 per start.
    """

    new_left_curve: BezierCurve
    new_right_curve: BezierCurve
    parameters: dict
    objective_value: float
    report_after: ContinuityReport
    moved_points: list[dict] = field(default_factory=list)
    evaluations: int = 0
    converged: bool = False


def _moved_points(before: BezierCurve, after: BezierCurve, side: str) -> list[dict]:
    pairs = zip(before.control_points.tolist(), after.control_points.tolist())
    return [{"side": side, "index": i, "before": b, "after": a}
            for i, (b, a) in enumerate(pairs) if b != a]


def _displacement(before: list, after: list) -> float:
    """Squared control-point moves of one side's rows, in ``np.sum``'s order; 0.0 for ``before``."""
    return 0.0 if after is before else float(np.add.reduce(
        [(a - b) * (a - b) for p, q in zip(before, after) for a, b in zip(p, q)]))


def _regular(net: list) -> bool:
    """`irregular_parameter`'s verdict, building a curve only if uncertified."""
    return _hodograph_certifies(net) or sampled_irregular_parameter(BezierCurve(net)) is None


def _inner(u, v) -> float:
    """The sum of products of two float sequences, as a `math.fsum`."""
    return math.fsum(map(operator.mul, u, v))


def _box_least_squares(columns, b, bounds) -> list[float]:
    """argmin |A z - b|^2 over bounds[i][0] <= z_i <= bounds[i][1], for A of full column rank.

    A has one to three ``columns``, float sequences as long as ``b``, and
    ``bounds`` holds one (low, high) pair per column. The normal equations
    are solved by Gauss-Jordan elimination. The problem is convex, so when
    their solution leaves the box the minimum lies on a face: the cheapest
    of the faces' minima, each found the same way with one column held at
    one of its bounds. One column clips (NaN to its low bound).
    """
    k = len(columns)
    g = [[_inner(u, v) for v in columns] + [_inner(u, b)] for u in columns]
    for i in range(k):
        for j in range(k):
            if j != i:
                f = g[j][i] / g[i][i]
                g[j] = [x - f * y for x, y in zip(g[j], g[i])]
    z = [row[k] / row[i] for i, row in enumerate(g)]
    if all(lo <= x <= hi for x, (lo, hi) in zip(z, bounds)):
        return z
    if k == 1:
        return [bounds[0][1] if z[0] > bounds[0][1] else bounds[0][0]]
    faces = []
    for i, pair in enumerate(bounds):
        for bound in pair:
            rest = _box_least_squares([*columns[:i], *columns[i + 1:]],
                                      [y - x * bound for x, y in zip(columns[i], b)],
                                      [*bounds[:i], *bounds[i + 1:]])
            faces.append([*rest[:i], bound, *rest[i:]])

    def cost(face):
        residual = [_inner(row, face) - y for row, y in zip(zip(*columns), b)]
        return _inner(residual, residual)
    return min(faces, key=cost)


def _sheared_least_squares(columns, b, shear: float, bounds) -> list[float]:
    """argmin |c1 z1 + c2 (z2 - shear z1^2) - b|^2 over the box ``bounds``.

    In (z1, z2 - shear z1^2) the cost is a convex quadratic, so its
    unconstrained minimum stands when its z lies in the box. Otherwise the
    minimum lies on the box's boundary. On a z1 side, z2 is one clipped
    column. On a z2 side the residual is quadratic in z1 and the cost a
    quartic, least at the side's ends (covered by the z1 sides) or at a real
    root of its derivative; each root's real part, clipped to the side, is a
    candidate, and the cheapest candidate wins.
    """
    c1, c2 = columns
    z1, z2 = _box_least_squares(columns, b, [(-math.inf, math.inf)] * 2)
    z2 += shear * (z1 * z1)
    (lo1, hi1), (lo2, hi2) = bounds
    if lo1 <= z1 <= hi1 and lo2 <= z2 <= hi2:
        return [z1, z2]
    points = [[z1, *_box_least_squares([c2], [y - x * z1 + w * (shear * (z1 * z1))
                                              for x, w, y in zip(c1, c2, b)], bounds[1:])]
              for z1 in (lo1, hi1)]
    a = [-shear * w for w in c2]
    for z2 in (lo2, hi2):
        c = [w * z2 - y for w, y in zip(c2, b)]   # residual a z1^2 + c1 z1 + c
        roots = np.roots([2.0 * _inner(a, a), 3.0 * _inner(a, c1),
                          _inner(c1, c1) + 2.0 * _inner(a, c), _inner(c1, c)])
        points += [[min(max(float(r.real), lo1), hi1), z2] for r in roots]

    def cost(z):
        s = z[1] - shear * (z[0] * z[0])
        return math.fsum((x * z[0] + w * s - y)**2 for x, w, y in zip(c1, c2, b))
    return min(points, key=cost)


def _tangential_candidate(problem: RepairProblem, beta, bounds):
    """Nets with the third-order junction jet rewritten for a beta triple.

    ``beta`` is (beta1, beta2, beta3), or (beta1,) with (beta2, beta3) solved
    for least displacement within ``bounds``, their two (low, high) pairs.
    A fixed beta1 fixes the first control point from the junction, and the
    second and third move affinely in (beta2, beta3) when the left side is
    edited, so that is one box least squares. On the right side they are
    affine in (beta2, beta3*), beta3* = beta3 - 3 beta2^2 / beta1, which is
    not a box in beta3: `_sheared_least_squares` solves that. Returns (beta
    triple, left net, right net) or None. The jets are Python floats, each
    formula grouped left to right as written.
    """
    b1 = float(beta[0])
    if b1 <= 0.0:
        return None
    ctx, (left, right) = problem.ctx, problem._rows
    if problem.side == "right":
        points, end = right, "start"
        _, l1, l2, l3 = ctx.left_jet._floats
        d1 = [x / b1 for x in l1]

        def jet(b2, b3):
            d2 = [(y - b2 * x) / b1**2 for x, y in zip(d1, l2)]
            return [d1, d2, [(z - 3.0 * b1 * b2 * y - b3 * x) / b1**3
                             for x, y, z in zip(d1, d2, l3)]]
    else:
        points, end = left, "end"
        _, r1, r2, r3 = ctx.right_jet._floats

        def jet(b2, b3):
            return [[_rhs(k, b1, b2, b3, *ds[:k]) for ds in zip(r1, r2, r3)] for k in (1, 2, 3)]
    if len(beta) > 1:
        b2, b3 = float(beta[1]), float(beta[2])
    else:
        if (zero := _jet_net(points, end, jet(0.0, 0.0))) is None:
            return None
        # d2 and d3 per unit beta2 and per unit beta3*
        slopes = ([([-x / b1**2 for x in d1], [-3.0 * y / b1**4 for y in l2]),
                   ([0.0, 0.0], [-x / b1**3 for x in d1])] if end == "start"
                  else [(r1, [3.0 * b1 * y for y in r2]), ([0.0, 0.0], r1)])
        # The moves of points 2 and 3 from the junction: d2 / f2, 3 d2 / f2 +- d3 / f3.
        _, f2, f3 = _endpoint_factors(len(points) - 1)
        sign, (i2, i3) = (1.0, (2, 3)) if end == "start" else (-1.0, (-3, -4))
        columns = [[*(x / f2 for x in s2), *(3.0 * x / f2 + sign * y / f3 for x, y in zip(s2, s3))]
                   for s2, s3 in slopes]
        b = [a - z for i in (i2, i3) for a, z in zip(points[i], zero[i])]
        b2, b3 = (_box_least_squares(columns, b, bounds) if end == "end"
                  else _sheared_least_squares(columns, b, 3.0 / b1, bounds))
    net = _jet_net(points, end, jet(b2, b3))
    if net is None or not _regular(net):
        return None
    if problem.side == "right":
        return (b1, b2, b3), left, net
    return (b1, b2, b3), net, right


def _require_matching_offsets(ctx: JunctionContext):
    """Refuse a junction whose angle offsets differ by more than `check` accepts."""
    if abs(wrap_angle(ctx.left.mode.alpha - ctx.right.mode.alpha)) > Tolerances.default().angle:
        raise RepairInfeasibleError("angle offsets must match across the junction")


def _require_degree(ctx: JunctionContext, side: str, lowest: int, rule: str):
    """Refuse an edited curve too short for ``rule`` to keep its far end."""
    segment, name = (ctx.left, ctx.left_id) if side == "left" else (ctx.right, ctx.right_id)
    if segment.curve.degree < lowest:
        raise RepairInfeasibleError(f"{rule} repair needs degree >= {lowest} on segment "
                                    f"{name!r}, which has degree {segment.curve.degree}")


def _search(problem: RepairProblem, candidate, starts, bounds, names,
            what: str) -> RepairResult:
    """Minimize the objective over ``candidate``'s parameters; verify the winner.

    ``candidate(x)`` gives (full parameters, left net, right net), a side
    left alone being its own rows in ``problem._rows``, or None, which scores
    1e9. The objective scores nets: displacement over the edited sides, or
    under ``min_travel_time`` one stacked pass per side over the edited nets
    of all lockstep starts, on the side's node plan, built on its first pass.
    Only the winner becomes `BezierCurve`s, with its parameters under ``names``.
    """
    ctx = problem.ctx
    fixed, plans = (None, *problem._rows), {}

    def objective(xs):
        built = [candidate(x) for x in xs]
        if problem.objective == "min_displacement":
            return [1e9 if b is None else _displacement(fixed[1], b[1])
                    + _displacement(fixed[2], b[2]) for b in built]
        values = [1e9 if b is None else 0.0 for b in built]
        for index, segment in ((2, ctx.right), (1, ctx.left)):
            rows = [i for i, b in enumerate(built)
                    if b is not None and b[index] is not fixed[index]]
            if rows:
                plan = plans.get(index) or plans.setdefault(
                    index, _NodePlan(segment.curve.degree, segment.mode, _TIME_US, len(starts)))
                stack = _BezierStack([built[i][index] for i in rows], plan)
                times = _travel_times(stack, stack.nodes, segment.mode, segment.v_max,
                                      ctx.vehicle)
                for i, time in zip(rows, times):
                    values[i] += time
        return values

    result = optimize.minimize(objective, starts, bounds)
    if result.fun >= 1e9:
        raise RepairInfeasibleError(f"no admissible {what} found in bounds")
    params, *nets = candidate(result.x)
    left, right = (segment.curve if net is points else BezierCurve(net)
                   for segment, net, points in zip((ctx.left, ctx.right), nets, fixed[1:]))
    report = analyze_junction(JunctionContext(
        PathSegment(left, ctx.left.mode, ctx.left.v_max),
        PathSegment(right, ctx.right.mode, ctx.right.v_max),
        ctx.vehicle, ctx.left_id, ctx.right_id))
    if report.verdict != SMOOTH:
        raise RepairInfeasibleError(
            f"repair verification failed (verdict {report.verdict})")
    moved = (_moved_points(ctx.left.curve, left, "left")
             + _moved_points(ctx.right.curve, right, "right"))
    return RepairResult(left, right, dict(zip(names, params)), result.fun, report,
                        moved, result.nfev, result.status == 0)


def repair_tangential(problem: RepairProblem) -> RepairResult:
    """Restore shared second-order continuity for tangential-mode segments.

    Rewrites the edited curve's junction jet from the fixed side's jet and a
    shape-parameter triple; the triple is chosen by bounded multi-start
    search on the objective. Under ``min_displacement`` the search runs
    over beta1 alone, with (beta2, beta3) solved by least squares for each
    candidate. The repaired junction is re-verified and must come back smooth.
    """
    ctx = problem.ctx
    if not (isinstance(ctx.left.mode, Tangential)
            and isinstance(ctx.right.mode, Tangential)):
        raise RepairInfeasibleError("tangential repair requires tangential modes")
    _require_matching_offsets(ctx)
    _require_degree(ctx, problem.side, 4, "tangential")
    seed = np.array(_extract_curve_route(ctx.left_jet, ctx.right_jet))
    if seed[0] <= 0.0:
        raise RepairInfeasibleError("junction tangents oppose; repair undefined")
    _, d1, d2, _ = ctx.left_jet._floats
    cb = _COEFFICIENT_BOUND * max(1.0, math.sqrt(_dot(d2, d2)) / math.sqrt(_dot(d1, d1)))
    bounds = [_BETA1_BOUNDS, (-cb, cb), (-cb * 3.0, cb * 3.0)]
    if problem.objective == "min_displacement":
        # Displacement is near-quadratic around the least-squares seed.
        starts, bounds, solved = [seed[:1]], bounds[:1], bounds[1:]
    else:
        starts = [seed * (scale, 1.0, 1.0) for scale in (1.0, 0.5, 2.0)]
        solved = None
    return _search(problem, lambda beta: _tangential_candidate(problem, beta, solved),
                   starts, bounds, ("beta1", "beta2", "beta3"), "shape parameters")


def _exponential_candidate(problem: RepairProblem, x, bound: float):
    """Both curves rebuilt from tangent multipliers (x_d1L, x_d2L, x_d1R, x_d2R).

    All first and second junction derivatives become scalar multiples of the
    original upstream tangent v, forcing zero endpoint curvature on both sides
    while preserving the junction heading; the downstream third derivative
    follows from the orientation-rate matching relation with the
    reparameterization factor n. Given only beta1 = x_d1L / x_d1R, the moved
    points (the left P(m-1), P(m-2) and the right Q1, Q2, Q3) are affine in
    (x_d1L, x_d2L, x_d2R) along v: a 5 x 3 box least squares, with x_d1L
    where x_d1R = x_d1L / beta1 stays in _BETA1_BOUNDS and the others within
    ``bound``. That x_d1R is clamped into its bounds, since it may round one
    ulp out. Returns (multipliers, left net, right net) or None.
    """
    ctx = problem.ctx
    v = ctx.left_jet._floats[1]
    if len(x) == 1:
        b1, (left, right) = float(x[0]), problem._rows
        (p3, p2, p1, pn), (q0, q1, q2, q3) = left[-4:], right[:4]
        f1l, f2l, f3l = _endpoint_factors(len(left) - 1)
        f1r, f2r, f3r = _endpoint_factors(len(right) - 1)
        # Q3 moves by w per unit of the left's third difference at its end.
        w = f3l / (_pow(b1, 3) * _pow(ctx.right.mode.n, 2) * f3r)
        # Along v, per unit multiplier and at zero multipliers: P(m-1), P(m-2), Q1, Q2, Q3.
        columns = [[-1.0 / f1l, -2.0 / f1l, 1.0 / (b1 * f1r), 2.0 / (b1 * f1r),
                    3.0 / (b1 * f1r) - 3.0 * w / f1l],
                   [0.0, 1.0 / f2l, 0.0, 0.0, 3.0 * w / f2l],
                   [0.0, 0.0, 0.0, 1.0 / f2r, 3.0 / f2r]]
        zero = [pn, pn, q0, q0, [a + w * (b - d) for a, b, d in zip(q0, pn, p3)]]
        q = _dot(v, v)
        b = [_dot([a - z for a, z in zip(old, at)], v) / q
             for old, at in zip((p1, p2, q1, q2, q3), zero)]
        lo, hi = _BETA1_BOUNDS
        x1, x2, x4 = _box_least_squares(
            columns, b, [(max(lo, lo * b1), min(hi, hi * b1)), (-bound, bound), (-bound, bound)])
        x = x1, x2, min(max(x1 / b1, lo), hi), x4
    x1, x2, x3, x4 = (float(value) for value in x)
    if not (x1 > 0.0 and x3 > 0.0):
        return None
    # The right C'''(0) is the new left C'''(1) over scale; none fits if it is inf.
    if not (scale := _pow(x1 / x3, 3) * _pow(ctx.right.mode.n, 2)) < math.inf:
        return None
    left = _jet_net(problem._rows[0], "end", [[x1 * c for c in v], [x2 * c for c in v]])
    if left is None or not _regular(left):
        return None
    # C'''(1) of the new left net, differenced from its last 4 points as `_derivative_net` does.
    m = len(left) - 1
    d3_right = [(m - 2) * ((m - 1) * (m * (d - c) - m * (c - b))
                           - (m - 1) * (m * (c - b) - m * (b - a))) / scale
                for a, b, c, d in zip(*left[-4:])]
    right = _jet_net(problem._rows[1], "start",
                     [[x3 * c for c in v], [x4 * c for c in v], d3_right])
    if right is None or not _regular(right):
        return None
    return (x1, x2, x3, x4), left, right


def repair_exponential(problem: RepairProblem) -> RepairResult:
    """Restore continuity for a tangential -> anticipated-exponential junction.

    Under ``min_displacement`` the search runs over beta1 = x_d1L / x_d1R
    alone, with (x_d1L, x_d2L, x_d2R) solved by least squares for each
    candidate.
    """
    ctx = problem.ctx
    if not isinstance(ctx.right.mode, ExponentialAnticipated):
        raise RepairInfeasibleError(
            "exponential repair expects the anticipated exponential mode downstream")
    if not isinstance(ctx.left.mode, Tangential):
        raise RepairInfeasibleError("exponential repair expects a tangential mode upstream")
    _require_matching_offsets(ctx)
    _require_degree(ctx, "left", 3, "exponential")
    _require_degree(ctx, "right", 4, "exponential")
    v = ctx.left_jet._floats[1]
    q = _dot(v, v)
    seed = np.array([1.0] + [_dot(d, v) / q for d in (ctx.left_jet._floats[2],
                                                      *ctx.right_jet._floats[1:3])])
    cb, (lo, hi) = _COEFFICIENT_BOUND, _BETA1_BOUNDS
    if problem.objective == "min_displacement":
        # The seed's x_d1L / x_d1R, each clipped first: x_d1R's seed may be 0.
        x1, x3 = (min(max(float(seed[i]), lo), hi) for i in (0, 2))
        starts, bounds = [[x1 / x3]], [(lo / hi, hi / lo)]
    else:
        starts = [np.array([seed[0] * scale, seed[1], seed[2] / scale, seed[3]])
                  for scale in (1.0, 0.75, 1.25)]
        bounds = [_BETA1_BOUNDS, (-cb, cb), _BETA1_BOUNDS, (-cb, cb)]
    result = _search(problem, lambda x: _exponential_candidate(problem, x, cb),
                     starts, bounds,
                     ("x_d1_left", "x_d2_left", "x_d1_right", "x_d2_right"),
                     "multipliers")
    p = result.parameters
    p["beta1"] = p["x_d1_left"] / p["x_d1_right"]
    p["n"] = ctx.right.mode.n
    return result


def repair_junction(problem: RepairProblem) -> RepairResult:
    """Repair with the rule set for the junction's mode pair.

    An anticipated exponential mode downstream takes `repair_exponential`,
    tangential modes on both sides take `repair_tangential`, and any other
    pair raises RepairInfeasibleError naming both mode types.
    """
    left, right = problem.ctx.left.mode, problem.ctx.right.mode
    if isinstance(right, ExponentialAnticipated):
        return repair_exponential(problem)
    if isinstance(left, Tangential) and isinstance(right, Tangential):
        return repair_tangential(problem)
    raise RepairInfeasibleError(f"no repair rule for mode pair "
                                f"({type(left).__name__}, {type(right).__name__})")
