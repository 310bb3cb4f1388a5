"""Bounded direct search, with the starts of a search in lockstep.

A box of two or more parameters takes Nelder-Mead. Each start follows
scipy's bounded ``minimize(method="Nelder-Mead")`` (scipy 1.17,
non-adaptive) step for step: the same coefficients and initial simplex, the
same clipping into the bounds, ordering, convergence test and evaluation
budget. A start therefore visits the same points and ends with the same
result, bit for bit: the simplex is a list of float lists, and each step is
float arithmetic in the order numpy evaluates scipy's.

A box of one parameter takes a bracket and Brent's method (Brent,
Algorithms for Minimization without Derivatives, 1973). From the start,
steps that grow by the golden ratio walk downhill until the value rises or
a bound is reached; Brent's bounded method then runs on that bracket, step
for step as scipy's ``fminbound`` (``xtol`` 1e-10) in Python floats, and
the start ends with the least value it evaluated. On the bundled
least-displacement repairs this takes 10-27 evaluations, where
Nelder-Mead's two-point simplex takes 62-75.

The starts of one search advance together: each live start proposes its
next point, and one objective call scores all of those points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["SearchResult", "minimize"]

# Reflection, expansion, contraction and shrink coefficients.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
# Initial simplex steps: relative for a nonzero component, absolute for a zero one.
_NONZERO_STEP, _ZERO_STEP = 0.05, 0.00025
# Evaluation budget per start, and the tolerances on x and on simplex values.
_MAXFEV, _XATOL, _FATOL = 400, 1e-10, 1e-12
# Bracketing steps grow by the golden ratio; Brent's golden section takes the
# fraction (3 - sqrt 5) / 2 of an interval, and its tolerance is relative to
# sqrt(2.2e-16), as in scipy.
_GROWTH = 0.5 * (1.0 + math.sqrt(5.0))
_GOLDEN_MEAN, _SQRT_EPS = 0.5 * (3.0 - math.sqrt(5.0)), math.sqrt(2.2e-16)


@dataclass(frozen=True)
class SearchResult:
    """The best start's value ``fun`` at ``x`` and its ``status`` (0: the
    tolerances were met, 1: the evaluation budget ran out); ``nfev`` counts
    objective evaluations over all starts."""

    fun: float
    x: np.ndarray
    nfev: int
    status: int


class _Exhausted(Exception):
    """A start asked for an evaluation past its budget."""


def _clip(x, lower, upper) -> list[float]:
    """``np.clip`` on floats: max with the low bound, then min with the high
    one, each keeping a NaN and taking the bound on a tie."""
    low = (v if v > lo or v != v else lo for v, lo in zip(x, lower))
    return [t if t < hi or t != t else hi for t, hi in zip(low, upper)]


def _sorted(sim: list, fsim: list[float]) -> tuple[list, list[float]]:
    """``sim``, ``fsim`` by ``fsim``: stable where all sorts agree, else by np.argsort as scipy."""
    order = sorted(range(len(fsim)), key=fsim.__getitem__)
    if not all(fsim[i] < fsim[j] for i, j in zip(order, order[1:])):
        order = np.argsort(fsim).tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _nelder_mead(x0, lower, upper):
    """One start as a generator: it yields each point to evaluate, is sent
    that point's value, and returns (fun, x, evaluations, status)."""
    maxfev, calls = _MAXFEV, 0

    def value_at(x):
        nonlocal calls
        if calls >= maxfev:
            raise _Exhausted
        calls += 1
        return (yield x)

    def trial(a, c):  # a xbar - c worst, clipped; a - (-c) w is a + c w bit for bit
        return _clip([a * b - c * w for b, w in zip(xbar, sim[-1])], lower, upper)

    x0 = _clip(x0, lower, upper)
    n = len(x0)
    steps = [(1 + _NONZERO_STEP) * v if v != 0 else _ZERO_STEP for v in x0]
    # Steps past an upper bound are reflected into the box, not only clipped.
    sim = [_clip([2 * hi - v if v > hi else v for v, hi in zip(x, upper)], lower, upper)
           for x in [x0] + [x0[:k] + [steps[k]] + x0[k + 1:] for k in range(n)]]
    fsim = [np.inf] * (n + 1)
    try:
        for k in range(n + 1):
            fsim[k] = yield from value_at(sim[k])
    except _Exhausted:
        pass
    # Sorted twice, as scipy does: argsort need not keep ties in place.
    for _ in range(2):
        sim, fsim = _sorted(sim, fsim)

    while calls < maxfev:
        try:
            if (all(abs(a - b) <= _XATOL for x in sim[1:] for a, b in zip(x, sim[0]))
                    and all(abs(fsim[0] - f) <= _FATOL for f in fsim[1:])):
                break
            xbar = sim[0]  # np.add.reduce(sim[:-1], 0) / n adds the rows in order
            for x in sim[1:-1]:
                xbar = [a + b for a, b in zip(xbar, x)]
            xbar = [a / n for a in xbar]
            xr = trial(1 + _RHO, _RHO)
            fxr = yield from value_at(xr)
            if fxr < fsim[0]:
                xe = trial(1 + _RHO * _CHI, _RHO * _CHI)
                fxe = yield from value_at(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                # Contract outside the worst vertex if xr beats it, else inside.
                outside = fxr < fsim[-1]
                xc = trial(1 + _PSI * _RHO, _PSI * _RHO) if outside else trial(1 - _PSI, -_PSI)
                fxc = yield from value_at(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    # Shrink. A budget cut inside this loop leaves the moved
                    # vertex with its old value, as scipy does.
                    for j in range(1, n + 1):
                        sim[j] = _clip([a + _SIGMA * (b - a) for a, b in zip(sim[0], sim[j])],
                                       lower, upper)
                        fsim[j] = yield from value_at(sim[j])
        except _Exhausted:
            pass
        # Outside the try, as in scipy: a break on convergence skips this sort.
        sim, fsim = _sorted(sim, fsim)
    return float(np.min(fsim)), sim[0], calls, int(calls >= maxfev)


def _fminbound(a: float, b: float, maxfun: int):
    """Brent's bounded method on [a, b] as a generator of [x] points, step for
    step as scipy's ``fminbound(xtol=_XATOL, maxfun=maxfun)``: the same points,
    and it returns scipy's (x, fun, evaluations)."""
    fulc = nfc = xf = x = a + _GOLDEN_MEAN * (b - a)
    rat = e = 0.0
    fx = ffulc = fnfc = yield [x]
    num, xm = 1, 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q, r, e = abs(q), e, rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm - xf >= 0.0 else -tol1
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = _GOLDEN_MEAN * e
        # Never a step below tol1: scipy's xf + sign(rat) max(|rat|, tol1), 0 counting as +.
        step = abs(rat) if not abs(rat) < tol1 else tol1
        x = xf + step if rat >= 0.0 else xf - step
        fu = yield [x]
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc, nfc, fnfc, xf, fx = nfc, fnfc, xf, fx, x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc, nfc, fnfc = nfc, fnfc, x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + _XATOL / 3.0
        tol2 = 2.0 * tol1
        if num >= maxfun:
            break
    return xf, fx, num


def _bracketed_brent(x0, lower, upper):
    """One start over one parameter as a generator, with `_nelder_mead`'s
    protocol: walk downhill from the clipped start to a bracket, then run
    `_fminbound` on it; returns the least value evaluated with its [x]."""
    (lo,), (hi,) = lower, upper
    (xa,) = _clip(x0, lower, upper)
    fa = yield [xa]
    # A first step of Nelder-Mead's size; up, unless the room is below.
    h = _NONZERO_STEP * abs(xa) or _ZERO_STEP
    xb = xa + h if xa + h <= hi or hi - xa >= xa - lo else xa - h
    (xb,) = _clip([xb], lower, upper)
    fb = yield [xb]
    calls = 2
    if fb > fa:  # uphill: turn around
        xa, xb, fb = xb, xa, fa
    xc = xb
    while calls < _MAXFEV:
        (xc,) = _clip([xb + _GROWTH * (xb - xa)], lower, upper)
        if xc == xb:  # the walk reached a bound
            break
        fc = yield [xc]
        calls += 1
        if not fc < fb:
            break
        xa, xb, fb = xb, xc, fc
    best, status = (fb, xb), 1
    if _MAXFEV - calls >= 2:  # fminbound may take one evaluation past a budget of 1
        xf, fx, num = yield from _fminbound(min(xa, xc), max(xa, xc), _MAXFEV - calls)
        calls += num
        status = int(calls >= _MAXFEV)
        if not fb < fx:
            best = (fx, xf)
    return best[0], [best[1]], calls, status


def minimize(objective, starts, bounds) -> SearchResult:
    """Minimize ``objective`` over the box ``bounds`` from each of ``starts``.

    ``bounds`` holds one finite (low, high) pair per parameter; a start
    outside them is clipped into them, and every point evaluated lies in
    them. ``objective`` takes a list of S points, one float list per live
    start, which it must not modify, and returns their S values. One pair
    takes `_bracketed_brent`, which stops when Brent's interval meets
    ``_XATOL``; more take `_nelder_mead`, which stops when its simplex meets
    ``_XATOL`` and ``_FATOL``. Either stops after ``_MAXFEV`` evaluations.
    The winner has the least (value, x), compared as tuples, and the first
    such start wins a tie.
    """
    lower, upper = ([float(v) for v in side] for side in zip(*bounds))
    search = _bracketed_brent if len(lower) == 1 else _nelder_mead
    runs = [search([float(v) for v in x0], lower, upper) for x0 in starts]
    pending, results = {}, [None] * len(runs)

    def advance(i, value):
        try:
            pending[i] = runs[i].send(value)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    for i in range(len(runs)):
        advance(i, None)
    while pending:
        live = list(pending)
        for i, value in zip(live, objective([pending[i] for i in live])):
            advance(i, float(value))
    fun, x, _, status = min(results, key=lambda r: (r[0], tuple(r[1])))
    return SearchResult(fun, np.array(x), sum(r[2] for r in results), status)
