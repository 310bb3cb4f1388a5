"""Planar Bezier curve engine.

Evaluation with exact polynomial derivatives, piecewise Chebyshev arc length,
signed curvature and its arc-length derivative, and the raw geometric
continuity conditions that relate one-sided derivatives at a junction
through shape parameters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import SingularParameterizationError

__all__ = [
    "Point2",
    "BezierCurve",
    "CurveJet",
    "ShapeParameters",
    "evaluate",
    "arc_length",
    "curvature",
    "curvature_arc_derivative",
    "check_geometric_continuity",
    "irregular_parameter",
]

# Below this first-derivative norm a parameterization is treated as singular.
SINGULAR_SPEED = 1e-12
# A regular parameterization keeps |C'| above this everywhere on [0, 1].
REGULAR_SPEED = 1e-9
_REGULARITY_SAMPLES = 1024  # uniform intervals at whose ends sampling checks |C'|
_REGULARITY_U = np.linspace(0.0, 1.0, _REGULARITY_SAMPLES + 1)
_REGULARITY_U.setflags(write=False)
_EPS = float(np.finfo(float).eps)

# Arc length's first-kind Chebyshev points on [-1, 1], and DCT rows weighing sample j
# into coefficients k = 0..m-1 (c_0 doubled): from math.cos, so no ufunc's dispatch.
_CHEB_M, _CHEB_TAIL, _CHEB_DEPTH, _CHEB_WIDTH = 33, 4e-15, 32, 64
_CHEB_X = np.array([math.cos(math.pi * (j + 0.5) / _CHEB_M) for j in range(_CHEB_M)])
_CHEB_DCT = np.array([[2.0 / _CHEB_M * math.cos(math.pi * k * (j + 0.5) / _CHEB_M)
                       for k in range(_CHEB_M)] for j in range(_CHEB_M)])


@dataclass(frozen=True)
class Point2:
    """A planar point in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point components must be finite, got ({self.x}, {self.y})")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y], dtype=float)


@dataclass(frozen=True)
class CurveJet:
    """Position and parameter-derivatives of a planar curve at one u.

    ``d1``, ``d2``, ``d3`` are per unit-u, unit-u^2 and unit-u^3 respectively.
    """

    position: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    d3: np.ndarray

    def __post_init__(self):
        for name in ("position", "d1", "d2", "d3"):
            v = np.asarray(getattr(self, name), dtype=float)
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    @cached_property
    def _floats(self) -> tuple[list[float], ...]:
        """position, d1, d2, d3 as (x, y) lists of Python floats, converted once."""
        return tuple(v.tolist() for v in (self.position, self.d1, self.d2, self.d3))

    @classmethod
    def _of_rows(cls, rows: np.ndarray) -> list["CurveJet"]:
        """A jet per row of a read-only (E, 4, 2) array: fields view it, floats from one tolist."""
        jets = [cls.__new__(cls) for _ in rows]
        for jet, row, floats in zip(jets, rows, rows.tolist()):
            jet.__dict__.update(zip(("position", "d1", "d2", "d3"), row), _floats=tuple(floats))
        return jets


@dataclass(frozen=True)
class ShapeParameters:
    """Scalars relating one-sided derivatives at a junction (beta1 > 0)."""

    beta1: float
    beta2: float = 0.0
    beta3: float | None = None

    def __post_init__(self):
        if not (self.beta1 > 0.0):
            raise ValueError(f"beta1 must be positive, got {self.beta1}")


def _control_array(control_points) -> np.ndarray:
    if isinstance(control_points, np.ndarray):
        arr = np.array(control_points, dtype=float)
    else:
        arr = np.array([p.as_array() if isinstance(p, Point2)
                        else np.asarray(p, dtype=float) for p in control_points],
                       dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("control points must be planar (x, y) pairs")
    if arr.shape[0] < 2:
        raise ValueError("a Bezier curve needs at least two control points (degree >= 1)")
    if not np.all(np.isfinite(arr)):
        raise ValueError("control points must be finite")
    return arr


def _parameter(u: float) -> float:
    """``u`` as a float, refused unless it lies in [0, 1] (NaN included)."""
    u = float(u)
    if not 0.0 <= u <= 1.0:
        raise ValueError(f"curve parameter must lie in [0, 1], got {u}")
    return u


@lru_cache(maxsize=None)
def _binomials(n: int) -> np.ndarray:
    """Binomial coefficients C(n, 0..n), built the first time degree n is evaluated."""
    row = np.array([math.comb(n, k) for k in range(n + 1)], dtype=float)
    row.setflags(write=False)
    return row


def _derivative_net(nets: list[np.ndarray], k: int) -> np.ndarray:
    """Entry k of ``nets``, the derivative nets of a control net (point axis
    first), extending the list up to k by differencing."""
    while len(nets) <= k:
        q = nets[-1]
        n = q.shape[0] - 1
        nets.append(n * (q[1:] - q[:-1]))
    return nets[k]


def _basis(n: int, us: np.ndarray, order: int, lowest: int = 0) -> list[np.ndarray | None]:
    """Bernstein bases of degrees n - lowest, ..., n - min(order, n) at ``us``: entry k is
    the (m+1, 1, *us.shape) table C(m, j) u^j (1-u)^(m-j), m = n - k, a net's (x, y) axis
    broadcasting along axis 1, from one pair of power tables (up to degree n - lowest)
    that serves every order. Entries below ``lowest`` are None."""
    us = us[None]
    top = max(n - lowest, 0)
    up = np.empty((top + 1,) + us.shape)
    down = np.empty((top + 1,) + us.shape)
    up[0] = down[0] = 1.0
    rest = 1.0 - us
    for j in range(1, top + 1):
        up[j] = up[j - 1] * us
        down[j] = down[j - 1] * rest
    column = (slice(None),) + (None,) * us.ndim
    return [None] * lowest + [_binomials(m)[column] * up[:m + 1] * down[m::-1]
                              for m in range(n - lowest, n - min(order, n) - 1, -1)]


@lru_cache(maxsize=16)
def _regularity_tables(n: int) -> tuple[np.ndarray | None, ...]:
    """Read-only tables of C' at `_REGULARITY_U` for degree n, built on first use."""
    tables = tuple(_basis(n, _REGULARITY_U, 1, 1))
    tables[1].setflags(write=False)
    return tables


def _bernstein(net, n: int, tables: list, order: int, lowest: int,
               shape: tuple) -> list[np.ndarray | None]:
    """Derivatives lowest..order of degree-n Bezier nets, each (2, *shape), from the
    `_basis` ``tables`` of nodes of ``shape``: sum_j C(m, j) u^j (1-u)^(m-j) D_k[j] over
    D_k = ``net(k)``, the k-th derivative net (degree m = n - k; point axis first, then
    (x, y)). Each order is one product, summed by ``np.add.reduce`` along the point axis,
    the outermost, so each element sums in j order, from -0.0, which adds to the first
    term exactly (+0.0 would turn a -0.0 sum into +0.0): each entry depends on its own u
    and net only. Entries below ``lowest`` are None and cost nothing. At u = 0 and u = 1
    an entry is the net's end point plus the others times +0.0 (`_end_rows` reads ends).
    """
    return [None if k < lowest else np.zeros((2,) + shape) if k > n
            else np.add.reduce(net(k) * tables[k], axis=0, initial=-0.0)
            for k in range(order + 1)]


class BezierCurve:
    """Immutable planar Bezier curve of arbitrary degree >= 1.

    Instances compare and hash by identity. Control points are never mutated
    after construction, so the derivative nets each curve keeps stay valid.
    """

    def __init__(self, control_points):
        self._points = _control_array(control_points)
        self._points.setflags(write=False)
        self._nets = [self._points]

    @property
    def control_points(self) -> np.ndarray:
        return self._points

    @property
    def degree(self) -> int:
        return self._points.shape[0] - 1

    def __repr__(self):
        return f"BezierCurve(degree={self.degree})"

    def _derivative_net(self, k: int) -> np.ndarray:
        """Control net of the k-th derivative curve, k <= degree, built on first use."""
        return _derivative_net(self._nets, k)

    def derivatives_many(self, us: np.ndarray, order: int, *,
                         lowest: int = 0) -> list[np.ndarray | None]:
        """Arrays (N, 2) of the lowest-th..order-th derivative at each u.

        Entry k is the k-th derivative; the entries below ``lowest`` are None
        and are not computed (see `_bernstein`). A caller that reads no
        position passes ``lowest=1``.
        """
        us = np.atleast_1d(np.asarray(us, dtype=float))
        if us.ndim > 1:
            raise ValueError(f"parameters must be a scalar or 1-D, got shape {us.shape}")
        n = self.degree
        tables = (_regularity_tables(n) if us is _REGULARITY_U and (order, lowest) == (1, 1)
                  else _basis(n, us, order, lowest))
        return [None if value is None else value.T for value in _bernstein(
            lambda k: self._derivative_net(k)[:, :, None], n, tables, order, lowest, us.shape)]

    def jet(self, u: float, order: int = 3) -> CurveJet:
        return evaluate(self, u, order)

    def point(self, u: float) -> np.ndarray:
        return self.derivatives_many(np.array([_parameter(u)]), 0)[0][0]

    def split(self, s: float) -> tuple["BezierCurve", "BezierCurve"]:
        """Subdivide at parameter ``s`` into two curves of the same degree."""
        if not 0.0 < s < 1.0:
            raise ValueError(f"split parameter must lie strictly inside (0, 1), got {s}")
        rows = [self._points]
        while rows[-1].shape[0] > 1:
            q = rows[-1]
            rows.append((1.0 - s) * q[:-1] + s * q[1:])
        left = np.array([row[0] for row in rows])
        right = np.array([row[-1] for row in reversed(rows)])
        return BezierCurve(left), BezierCurve(right)

    def elevated(self) -> "BezierCurve":
        """Equivalent curve of degree + 1."""
        p = self._points
        n = self.degree
        t = np.arange(1, n + 1)[:, None] / (n + 1)
        inner = t * p[:-1] + (1.0 - t) * p[1:]
        return BezierCurve(np.vstack([p[:1], inner, p[-1:]]))


def _end_rows(ends) -> np.ndarray:
    """C, C', C'', C''' at each ``(curve, u)`` end, u = 0 or 1: a read-only (E, 4, 2) array.

    Each row is the first (u = 0) or last (u = 1) point of its derivative
    net, zeros above the degree; the nets of one degree are differenced as
    one stacked net.
    """
    rows = np.zeros((len(ends), 4, 2))
    degrees: dict[int, list[int]] = {}
    for i, (curve, _) in enumerate(ends):
        degrees.setdefault(curve.degree, []).append(i)
    for n, members in degrees.items():
        nets = [np.stack([ends[i][0].control_points for i in members], axis=1)]
        last, curves = np.array([ends[i][1] != 0.0 for i in members]), np.arange(len(members))
        for k in range(min(n, 3) + 1):
            rows[members, k] = _derivative_net(nets, k)[last * (n - k), curves]
    rows.setflags(write=False)
    return rows


class _BezierStack:
    """K control nets of one degree, evaluated together: node block k on net k.

    It stands in for a `BezierCurve` in `kinematics.limit_profile_fast`, so repair
    scores candidate nets without a curve each: ``us`` holds K blocks of nodes, and
    the rows of each result follow them. Each net broadcasts as (m+1, 2, K, 1) against
    a (m+1, 1, K, N) basis, or a ``plan``'s (m+1, 1, 1, N), so every row equals the
    single curve's result bit for bit. With a `motion._NodePlan` of K blocks or more,
    under its mode, a call at ``nodes`` (its row for K blocks) takes its tables and,
    on a joined row, keeps the g(u) half for the call that `motion._orientation` then
    makes at the g(u) blocks `law` lends it.
    """

    def __init__(self, nets, plan=None):
        points = np.array(nets, dtype=float)
        self._count, self.degree = len(nets), points.shape[1] - 1
        self._nets = [np.ascontiguousarray(points.transpose(1, 2, 0)[..., None])]
        self._plan, self._held = plan, None
        size = len(nets) * plan.width if plan else 0
        self.nodes, *self._law = [block[:size] for block in plan.blocks] if plan else [None]

    def law(self, us: np.ndarray) -> list[np.ndarray] | None:
        """The plan's g, g', g'' for K blocks when ``us`` is ``nodes``, else None."""
        return self._law if self._law and us is self.nodes else None

    def derivatives_many(self, us: np.ndarray, order: int, *,
                         lowest: int = 0) -> list[np.ndarray | None]:
        held, self._held = self._held, None
        net, plan = (lambda k: _derivative_net(self._nets, k)), self._plan
        if held and us is self._law[0] and lowest >= 1 and order <= 3:
            values = held
        elif plan and us is self.nodes and lowest >= 1 and order <= 3:
            values = _bernstein(net, self.degree, plan.tables, 3, 1,
                                (self._count, plan.width * (1 + bool(self._law))))
            self._held = self._law and [v if v is None else v[..., plan.width:] for v in values]
            values = [v if v is None else v[..., :plan.width] for v in values]
        else:
            blocks = np.asarray(us, dtype=float).reshape(self._count, -1)
            values = _bernstein(net, self.degree, _basis(self.degree, blocks, order, lowest),
                                order, lowest, blocks.shape)
        return [None if k < lowest or value is None else value.reshape(2, -1).T
                for k, value in enumerate(values[:order + 1])]


def evaluate(curve: BezierCurve, u: float, order: int = 3) -> CurveJet:
    """Exact position and derivatives of ``curve`` at ``u``.

    Derivatives beyond the requested order are reported as zero; derivatives
    beyond the curve degree are exactly zero.
    """
    u = _parameter(u)
    if not 0 <= order <= 3:
        raise ValueError(f"derivative order must be in 0..3, got {order}")
    ds = curve.derivatives_many(np.array([u]), order)
    vals = [d[0] for d in ds] + [np.zeros(2)] * (3 - order)
    return CurveJet(vals[0], vals[1], vals[2], vals[3])


def _hodograph_certifies(p: list) -> bool:
    """True when the hodograph of the [x, y] rows ``p`` proves |C'(u)| > REGULAR_SPEED on [0, 1].

    C'(u) is a convex combination of the hodograph points H_j, so a unit
    direction e with min_j e.H_j above the threshold bounds e.C'(u), and
    hence |C'(u)|, from below. The directions tried are the chord and each
    H_j, unnormalized: min_j d.H_j > T |d| is the same test. The margin of
    64 eps n max|H| on T covers the rounding of the test and of the sampled
    evaluation, so a certified curve also passes every sampled check. It
    runs on Python floats, with no BLAS call, up to the first certifying d,
    whose norm is taken only when d is tried.
    """
    n = len(p) - 1
    hodograph = [(n * (b[0] - a[0]), n * (b[1] - a[1])) for a, b in zip(p, p[1:])]
    threshold = REGULAR_SPEED + 64.0 * _EPS * n * max([math.hypot(x, y) for x, y in hodograph])
    for d in [(p[-1][0] - p[0][0], p[-1][1] - p[0][1])] + hodograph:
        if min([_dot(d, h) for h in hodograph]) > threshold * math.hypot(*d):
            return True
    return False


def irregular_parameter(curve: BezierCurve) -> float | None:
    """None if ``curve`` is regularly parameterized, else where |C'| is smallest.

    The hodograph certificate decides most curves without evaluating them;
    the rest go to `sampled_irregular_parameter`, at the nodes `PathSegment`
    validates with. The certificate only ever accepts curves the sampled
    check accepts, so the verdict is `PathSegment`'s.
    """
    if _hodograph_certifies(curve.control_points.tolist()):
        return None
    return sampled_irregular_parameter(curve)


def sampled_irregular_parameter(curve: BezierCurve) -> float | None:
    """Regularity by sampling alone, the rule `PathSegment` validates with.

    |C'| is sampled at the _REGULARITY_SAMPLES + 1 uniform nodes of
    _REGULARITY_U, u = 0 and u = 1 among them, through `derivatives_many`,
    whose kernel takes their tables from `_regularity_tables` (one entry
    per degree): the curve is regular (None) when every sample exceeds
    REGULAR_SPEED, and irregular near the node of the smallest sample.
    """
    d1 = curve.derivatives_many(_REGULARITY_U, 1, lowest=1)[1]
    speed = np.hypot(d1[:, 0], d1[:, 1])
    if speed.min() <= REGULAR_SPEED:
        return float(_REGULARITY_U[int(np.argmin(speed))])
    return None


def arc_length(curve: BezierCurve, u1: float = 0.0,
               u2: float | np.ndarray = 1.0) -> float | np.ndarray:
    """Arc length of ``curve`` over [u1, u2] in meters: S(u2) - S(u1), S one piecewise
    Chebyshev antiderivative of |C'| (Chebfun's cumsum with splitting).

    Each depth samples |C'| (b - a)/2 on its pieces [a, b] in one curve evaluation.
    A piece is bisected, up to _CHEB_DEPTH times, while one of its last three
    coefficients exceeds _CHEB_TAIL times the mean sample plus the rounding of the
    samples, 64 eps n max|H_j| (b - a)/2 (the margin of `_hodograph_certifies`). A
    NaN splits nothing, nor does a depth with over _CHEB_WIDTH such pieces (subnormal
    samples never pass). S(u) is the integrated series of u's piece by Clenshaw's
    recurrence plus the earlier pieces, each its series at x = 1 less x = -1. The
    error is absolute, a few eps of the length on a regular curve. Each length of an
    array ``u2`` is the scalar call's bit for bit, since S depends on the curve alone;
    u1 == u2 gives 0.0.
    """
    ends = np.asarray(u2, dtype=float)
    flat = ends.ravel()
    if not (0.0 <= u1 and np.all((u1 <= flat) & (flat <= 1.0))):
        raise ValueError(f"need 0 <= u1 <= u2 <= 1, got ({u1}, {u2})")
    noise = 64.0 * _EPS * curve.degree * float(np.hypot(*curve._derivative_net(1).T).max())
    lo, hi, kept = np.zeros(1), np.ones(1), []
    for depth in range(_CHEB_DEPTH + 1):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        d1 = curve.derivatives_many((mid[:, None] + half[:, None] * _CHEB_X).ravel(), 1,
                                    lowest=1)[1]
        terms = (np.hypot(*d1.T).reshape(-1, _CHEB_M) * half[:, None])[:, :, None] * _CHEB_DCT
        while terms.shape[1] > 1:  # pairwise sums over j, in an order fixed by m
            k = terms.shape[1] // 2
            terms = np.concatenate((terms[:, :k] + terms[:, k:2 * k], terms[:, 2 * k:]), axis=1)
        c = terms[:, 0]
        split = np.abs(c[:, -3:]).max(axis=1) > _CHEB_TAIL * 0.5 * c[:, 0] + noise * half
        split &= depth < _CHEB_DEPTH and np.count_nonzero(split) <= _CHEB_WIDTH
        kept.append((lo[~split], c[~split]))
        if not split.any():
            break
        lo, hi = np.concatenate((lo[split], mid[split])), np.concatenate((mid[split], hi[split]))
    lo, c = (np.concatenate(parts) for parts in zip(*kept))
    c = np.concatenate((c[np.argsort(lo)], np.zeros((lo.size, 2))), axis=1)
    coefs = (c[:, :-2] - c[:, 2:]) / (2.0 * np.arange(1, _CHEB_M + 1))  # C_k, k = 1..m
    edges = np.append(np.sort(lo), 1.0)
    count, us = lo.size, np.concatenate(([float(u1)], flat))
    piece = np.minimum(np.searchsorted(edges, us, side="right") - 1, count - 1)
    mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * (edges[1:] - edges[:-1])
    rows = np.concatenate((np.arange(count), np.arange(count), piece))
    x = np.concatenate((-np.ones(count), np.ones(count), (us - mid[piece]) / half[piece]))
    two_x, b1, b2 = x + x, np.zeros(x.size), np.zeros(x.size)
    # Clenshaw, k = m..1; one piece's C_k are added as floats: the same sums, no gather.
    for ck in coefs[0, ::-1].tolist() if count == 1 else (ck[rows] for ck in coefs.T[::-1]):
        b = two_x * b1
        b -= b2
        b += ck
        b1, b2 = b, b1
    values = x * b1 - b2
    left, right, inner = values[:count], values[count:2 * count], values[2 * count:]
    s = np.concatenate(([0.0], np.cumsum(right - left)[:-1]))[piece] + (inner - left[piece])
    lengths = s[1:] - s[0]
    return float(lengths[0]) if ends.ndim == 0 else lengths.reshape(ends.shape)


# The planar products: (x, y) parts are floats (one vector) or same-shape arrays
# (column views of stacked rows), each product and sum rounded once in this
# order, so no BLAS kernel or FMA enters. A norm is the sqrt of `_dot(a, a)`.
def _dot(a, b):
    """a . b of (x, y) pairs."""
    return a[0] * b[0] + a[1] * b[1]


def _cross(a, b):
    """det(a, b) of (x, y) pairs."""
    return a[0] * b[1] - a[1] * b[0]


def _pow(x, k: int):
    """x**k, or +-inf where a Python float's ``**`` overflows and raises."""
    try:
        return x**k
    except OverflowError:
        return math.copysign(math.inf, x) if k % 2 else math.inf


def _rhs(order: int, beta1, beta2, beta3, d1, d2=None, d3=None):
    """Right-hand side of the order-1, 2 or 3 continuity condition on the leaving
    side's d1..d3, per coordinate or elementwise: beta1 d1, beta1^2 d2 + beta2 d1,
    or beta1^3 d3 + 3 beta1 beta2 d2 + beta3 d1."""
    if order == 1:
        return beta1 * d1
    if order == 2:
        return _pow(beta1, 2) * d2 + beta2 * d1
    return _pow(beta1, 3) * d3 + 3.0 * beta1 * beta2 * d2 + beta3 * d1


def _scaled_jet(jet: CurveJet, what: str):
    """k = 2^floor(log2 |C'|) and C', C'', C''' over k: exact, and no power of |C'|/k overflows."""
    _, d1, d2, d3 = jet._floats
    speed = math.hypot(*d1)
    if speed <= SINGULAR_SPEED:
        raise SingularParameterizationError(
            f"{what} undefined where the first derivative vanishes")
    k = math.ldexp(1.0, math.frexp(speed)[1] - 1)
    return k, *([x / k for x in d] for d in (d1, d2, d3))


def curvature(jet: CurveJet) -> float:
    """Signed curvature in 1/m; positive for counter-clockwise turning."""
    k, d1, d2, _ = _scaled_jet(jet, "curvature")
    return _cross(d1, d2) / math.hypot(*d1)**3 / k


def curvature_arc_derivative(jet: CurveJet) -> float:
    """d(kappa)/ds in 1/m^2, expanded analytically from the curvature formula."""
    k, d1, d2, d3 = _scaled_jet(jet, "curvature derivative")
    q = _dot(d1, d1)
    return (_cross(d1, d3) / q**2 - 3.0 * _cross(d1, d2) * _dot(d1, d2) / q**3) / k / k


def _continuity_defects(left: CurveJet, right: CurveJet, beta1: float,
                        beta2: float, beta3: float | None,
                        order: int) -> tuple[list[float], list[float]]:
    """Raw defect vectors of the order-0..order continuity conditions.

    Returns (residual norms, right-hand-side norms) as lists of floats.
    ``beta1`` may carry any sign here; positivity is a caller-level concern.
    The third-order condition uses the chain-rule coefficient 3*beta1*beta2,
    i.e. the betas are the derivatives of a common reparameterization at the junction.
    """
    lefts, rights = left._floats, right._floats
    residuals, scales = [], []
    for k in range(order + 1):
        rhs = [_rhs(k, beta1, beta2, beta3, *d) for d in zip(*rights[1:k + 1])] if k else rights[0]
        defect = [a - b for a, b in zip(lefts[k], rhs)]
        residuals.append(math.sqrt(_dot(defect, defect)))
        scales.append(math.sqrt(_dot(rhs, rhs)))
    return residuals, scales


def check_geometric_continuity(left: CurveJet, right: CurveJet,
                               params: ShapeParameters, order: int = 2) -> np.ndarray:
    """Defect norms of the geometric continuity conditions, order by order.

    ``left`` is the jet approaching the junction (u -> 1-), ``right`` the jet
    leaving it (u -> 0+). Entry k is the norm of the order-k condition's
    defect; the caller compares against its own tolerances.
    """
    if not 0 <= order <= 3:
        raise ValueError(f"continuity order must be in 0..3, got {order}")
    if order >= 3 and params.beta3 is None:
        raise ValueError("beta3 is required to check third-order continuity")
    residuals, _ = _continuity_defects(left, right, params.beta1, params.beta2,
                                       params.beta3, order)
    return np.array(residuals)
