"""Bounded Nelder-Mead direct search, with the starts of a search in lockstep.

Each start follows scipy's bounded ``minimize(method="Nelder-Mead")`` (scipy
1.17, non-adaptive) step for step: the same coefficients and initial
simplex, the same clipping into the bounds, ordering, convergence test and
evaluation budget. A start therefore visits the same points and ends with
the same result, bit for bit. The starts of one search advance together:
each live start proposes its next point, and one objective call scores all
of those points as the rows of one array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SearchResult", "minimize"]

# Reflection, expansion, contraction and shrink coefficients.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
# Initial simplex steps: relative for a nonzero component, absolute for a zero one.
_NONZERO_STEP, _ZERO_STEP = 0.05, 0.00025
# Evaluation budget per start, and the simplex tolerances on x and on values.
_MAXFEV, _XATOL, _FATOL = 400, 1e-10, 1e-12


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

    x0 = np.clip(x0, lower, upper)
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + _NONZERO_STEP) * y[k] if y[k] != 0 else _ZERO_STEP
        sim[k + 1] = y
    # Steps past an upper bound are reflected into the box, not only clipped.
    sim = np.clip(np.where(sim > upper, 2 * upper - sim, sim), lower, upper)
    fsim = np.full((n + 1,), np.inf, dtype=float)
    try:
        for k in range(n + 1):
            fsim[k] = yield from value_at(sim[k])
    except _Exhausted:
        pass
    # Sorted twice, as scipy does: argsort need not keep ties in place.
    for _ in range(2):
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)

    while calls < maxfev:
        try:
            if (np.max(np.abs(sim[1:] - sim[0])) <= _XATOL
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= _FATOL):
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = np.clip((1 + _RHO) * xbar - _RHO * sim[-1], lower, upper)
            fxr = yield from value_at(xr)
            if fxr < fsim[0]:
                xe = np.clip((1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1],
                             lower, upper)
                fxe = yield from value_at(xe)
                if fxe < fxr:
                    sim[-1], fsim[-1] = xe, fxe
                else:
                    sim[-1], fsim[-1] = xr, fxr
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                shrink = False
                if fxr < fsim[-1]:
                    # Outside contraction.
                    xc = np.clip((1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1],
                                 lower, upper)
                    fxc = yield from value_at(xc)
                    if fxc <= fxr:
                        sim[-1], fsim[-1] = xc, fxc
                    else:
                        shrink = True
                else:
                    # Inside contraction.
                    xcc = np.clip((1 - _PSI) * xbar + _PSI * sim[-1], lower, upper)
                    fxcc = yield from value_at(xcc)
                    if fxcc < fsim[-1]:
                        sim[-1], fsim[-1] = xcc, fxcc
                    else:
                        shrink = True
                if shrink:
                    # A budget cut inside this loop leaves the moved vertex
                    # with its old value, as scipy does.
                    for j in range(1, n + 1):
                        sim[j] = np.clip(sim[0] + _SIGMA * (sim[j] - sim[0]),
                                         lower, upper)
                        fsim[j] = yield from value_at(sim[j])
        except _Exhausted:
            pass
        # Outside the try, as in scipy: a break on convergence skips this sort.
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return float(np.min(fsim)), sim[0], calls, int(calls >= maxfev)


def minimize(objective, starts, bounds) -> SearchResult:
    """Minimize ``objective`` over the box ``bounds`` from each of ``starts``.

    ``bounds`` holds one finite (low, high) pair per parameter; a start
    outside them is clipped into them. ``objective`` takes an (S, D) array
    of points, one row per live start, and returns their S values. Each
    start stops when its simplex meets the tolerances or after ``_MAXFEV``
    evaluations. The winner has the least (value, x), compared
    as tuples, and the first such start wins a tie.
    """
    lower, upper = np.array(bounds, dtype=float).T
    runs = [_nelder_mead(np.asarray(x0, dtype=float), lower, upper) for x0 in starts]
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
        for i, value in zip(live, objective(np.array([pending[i] for i in live]))):
            advance(i, float(value))
    fun, x, _, status = min(results, key=lambda r: (r[0], tuple(r[1].tolist())))
    return SearchResult(fun, x, sum(r[2] for r in results), status)
