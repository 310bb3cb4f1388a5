"""The in-house bounded searches against scipy's, bit for bit.

Over two or more parameters `optimize.minimize` follows scipy's bounded
``minimize(method="Nelder-Mead")`` step for step, so one start must give
scipy's ``x``, ``fun``, ``nfev`` and ``status`` exactly, and starts run in
lockstep must give the best of the separate scipy runs. The objectives are
smooth, non-smooth, piecewise constant (ties everywhere), or carry a 1e9
plateau like a repair search's inadmissible candidates. On the plateau every
step ends in a shrink, so the small budgets below cut some runs in the
middle of a shrink, where scipy leaves a moved vertex with its old value.
Two more are inf on part of the box, as a collapsed travel time scores, one
of them with a 1e9 region too: there one simplex holds equal inf values, or
equal 1e9 values, whose order comes from np.argsort as in scipy.

Over one parameter it brackets a minimum from the start and runs Brent's
bounded method on the bracket; that stage must give scipy ``fminbound``'s
``x``, ``fun`` and evaluation count on the same bracket, on smooth, kinked,
plateau, inf and bound-minimum objectives, and the whole search must stay
in the box and report a spent budget.
"""

import math
import warnings

import numpy as np
import pytest

from agv_path_kit import optimize

scipy_optimize = pytest.importorskip("scipy.optimize")


def objective_family(kind, rng, dim):
    center = rng.uniform(-1.0, 3.0, dim)
    scale = rng.uniform(0.5, 4.0, dim)
    if kind == "smooth":
        return lambda x: float(np.sum(scale * (x - center)**2) + (x[0] - x[-1])**2)
    if kind == "non-smooth":
        return lambda x: float(np.sum(scale * np.abs(x - center)) + np.max(x))
    if kind == "steps":
        # Piecewise constant: ties between trial points and between starts.
        return lambda x: float(np.floor(np.sum(scale * (x - center)**2)))
    cut = rng.uniform(0.0, 1.0)
    if kind == "collapsed":
        # A collapsed travel time (inf) wherever the last parameter passes the cut.
        return lambda x: math.inf if x[-1] > cut else float(np.sum(scale * (x - center)**2))
    if kind == "tied":
        # inf below a cut on the first parameter, 1e9 past one on the last.
        return lambda x: (math.inf if x[0] < cut - 0.5 else 1e9 if x[-1] > cut
                          else float(np.sum(scale * (x - center)**2)))

    def plateau(x):
        # Inadmissible (1e9) wherever the first parameter falls below the cut.
        return 1e9 if x[0] < cut else float(np.sum(scale * (x - center)**2))
    return plateau


def random_starts(rng, low, high):
    """A start inside, one on a bound, one just outside, and one with zeros."""
    inside = rng.uniform(low, high)
    on = np.where(rng.random(low.size) < 0.5, low, high)
    near = high + rng.uniform(0.0, 1e-3, low.size)
    zeros = inside.copy()
    zeros[rng.integers(0, low.size)] = 0.0
    return [inside, on, near, zeros]


def scipy_run(fun, x0, bounds, maxfev):
    with warnings.catch_warnings():
        # scipy warns about a start outside the bounds, then clips it as we do.
        warnings.simplefilter("ignore")
        res = scipy_optimize.minimize(fun, x0, method="Nelder-Mead", bounds=bounds,
                                      options={"maxfev": maxfev, "xatol": 1e-10,
                                               "fatol": 1e-12})
    return float(res.fun), np.asarray(res.x), int(res.nfev), int(res.status)


def assert_equals_scipy(got, want):
    want_fun, want_x, want_nfev, want_status = want
    assert got.x.tobytes() == want_x.tobytes()
    assert repr(got.fun) == repr(want_fun)
    assert (got.nfev, got.status) == (want_nfev, want_status)


def run(monkeypatch, objective, starts, bounds, maxfev):
    """`optimize.minimize` with an evaluation budget of ``maxfev`` per start."""
    monkeypatch.setattr(optimize, "_MAXFEV", maxfev)
    return optimize.minimize(objective, starts, bounds)


def rows(fun, calls=None):
    """The batch objective over ``fun``, which gets each point as an array as
    scipy hands it one; the points themselves come as float lists."""
    def objective(points):
        if calls is not None:
            calls.append(len(points))
        return [fun(np.array(x)) for x in points]
    return objective


def case(seed, kind):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    low = rng.uniform(-2.0, 1.0, dim)
    # Zero lies inside the box, so the zero-component start is a real start.
    low = np.minimum(low, -0.1)
    high = low + rng.uniform(0.5, 4.0, dim)
    return objective_family(kind, rng, dim), random_starts(rng, low, high), \
        list(zip(low.tolist(), high.tolist()))


KINDS = ("smooth", "non-smooth", "steps", "plateau", "collapsed", "tied")


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("maxfev", [3, 9, 10, 17, 40, 400])
def test_one_start_equals_scipy(monkeypatch, seed, kind, maxfev):
    fun, starts, bounds = case(seed, kind)
    for x0 in starts:
        assert_equals_scipy(run(monkeypatch, rows(fun), [x0], bounds, maxfev),
                            scipy_run(fun, x0, bounds, maxfev))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", range(4, 8))
@pytest.mark.parametrize("maxfev", [10, 400])
def test_lockstep_starts_equal_separate_scipy_runs(monkeypatch, seed, kind, maxfev):
    fun, starts, bounds = case(seed, kind)
    runs = [scipy_run(fun, x0, bounds, maxfev) for x0 in starts]
    best = min(range(len(runs)), key=lambda i: (runs[i][0], tuple(runs[i][1].tolist()), i))
    calls = []
    got = run(monkeypatch, rows(fun, calls), starts, bounds, maxfev)
    assert got.x.tobytes() == runs[best][1].tobytes()
    assert repr(got.fun) == repr(runs[best][0])
    assert got.status == runs[best][3]
    assert got.nfev == sum(run[2] for run in runs)
    # One objective call per step, each with one row per start still running.
    assert len(calls) == max(run[2] for run in runs)
    assert calls == sorted(calls, reverse=True) and calls[0] == len(starts)
    assert sum(calls) == got.nfev


def test_a_start_that_meets_the_tolerances_reports_status_zero(monkeypatch):
    fun, x0, bounds = (lambda x: float(np.sum((x - 0.5)**2))), np.array([0.2, 0.9]), \
        [(0.0, 1.0), (0.0, 1.0)]
    got = run(monkeypatch, rows(fun), [x0], bounds, 10_000)
    assert got.status == 0 and got.nfev < 10_000
    assert_equals_scipy(got, scipy_run(fun, x0, bounds, 10_000))


@pytest.mark.parametrize("seed", range(4))
def test_converging_starts_with_tied_values_equal_scipy(monkeypatch, seed):
    # Piecewise constant: the simplex ends on a flat step, all values tied.
    fun, starts, bounds = case(seed, "steps")
    for x0 in starts:
        want = scipy_run(fun, x0, bounds, 10_000)
        assert want[3] == 0
        assert_equals_scipy(run(monkeypatch, rows(fun), [x0], bounds, 10_000), want)


def test_equal_values_go_to_the_start_with_the_least_x():
    # A flat objective: every start ends with the value 0.0, near where it began.
    bounds = [(0.0, 1.0), (0.0, 1.0)]
    starts = [np.array([0.8, 0.8]), np.array([0.2, 0.3]), np.array([0.2, 0.7])]
    got = optimize.minimize(rows(lambda x: 0.0), starts, bounds)
    want = scipy_run(lambda x: 0.0, starts[1], bounds, 400)
    assert got.fun == 0.0 and got.x.tobytes() == want[1].tobytes()


def test_draws_reach_tied_inf_and_1e9_values(monkeypatch):
    # The inf kinds above put equal inf values, and equal 1e9 values, in one
    # simplex, where the order is np.argsort's: count both on their draws.
    seen, sort = set(), optimize._sorted

    def spy(sim, fsim):
        seen.update(value for value in (math.inf, 1e9) if fsim.count(value) > 1)
        return sort(sim, fsim)

    monkeypatch.setattr(optimize, "_sorted", spy)
    for seed in range(8):
        for kind in ("collapsed", "tied"):
            fun, starts, bounds = case(seed, kind)
            run(monkeypatch, rows(fun), starts, bounds, 400)
    assert seen == {math.inf, 1e9}


def scalar_family(kind, rng, low, high):
    """One-parameter objectives on [low, high]; the minimum inside unless ``bound``."""
    center, scale = rng.uniform(low, high), rng.uniform(0.5, 4.0)
    if kind == "smooth":
        return lambda x: scale * (x - center)**2 + math.sin(3.0 * x)
    if kind == "kinked":
        # Two quadratics that meet at the minimum, as when a solve switches faces.
        return lambda x: scale * (x - center)**2 if x < center else 3.0 * scale * (x - center)**2
    if kind == "plateau":
        cut = rng.uniform(low, center)
        return lambda x: 1e9 if x < cut else scale * (x - center)**2
    if kind == "inf":
        cut = rng.uniform(center, high)
        return lambda x: math.inf if x > cut else scale * (x - center)**2
    beyond = high + rng.uniform(0.0, 1.0)
    return lambda x: scale * (x - beyond)**2


def scalar_case(seed, kind):
    rng = np.random.default_rng(seed)
    low = rng.uniform(-2.0, 1.0)
    high = low + rng.uniform(0.5, 4.0)
    fun = scalar_family(kind, rng, low, high)
    inside = rng.uniform(low, high)
    starts = [inside, low, high, high + rng.uniform(0.0, 1e-3), 0.0 if low < 0.0 < high else inside]
    return fun, starts, [(low, high)]


SCALAR_KINDS = ("smooth", "kinked", "plateau", "inf", "bound")


def fminbound(fun, a, b, maxfun):
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        # inf - inf in scipy's parabola is nan on numpy floats, which warn.
        warnings.simplefilter("ignore")
        x, fx, _, nfev = scipy_optimize.fminbound(fun, a, b, xtol=1e-10, maxfun=maxfun,
                                                  full_output=True, disp=0)
    return float(x), float(fx), int(nfev)


def brent_stages(monkeypatch):
    """Record each Brent stage's bracket, budget and result."""
    stages, stage = [], optimize._fminbound

    def spy(a, b, maxfun):
        result = yield from stage(a, b, maxfun)
        stages.append(((a, b, maxfun), result))
        return result

    monkeypatch.setattr(optimize, "_fminbound", spy)
    return stages


def scalar_run(monkeypatch, fun, x0, bounds, maxfev):
    """One start over one parameter; returns the result and the points evaluated."""
    points = []

    def objective(xs):
        points.extend(x[0] for x in xs)
        return [fun(x[0]) for x in xs]
    return run(monkeypatch, objective, [[x0]], bounds, maxfev), points


@pytest.mark.parametrize("kind", SCALAR_KINDS)
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("maxfev", [5, 8, 12, 400])
def test_brent_stage_equals_fminbound_on_its_bracket(monkeypatch, seed, kind, maxfev):
    fun, starts, bounds = scalar_case(seed, kind)
    (low, high), = bounds
    stages = brent_stages(monkeypatch)
    for x0 in starts:
        before = len(stages)
        got, points = scalar_run(monkeypatch, fun, x0, bounds, maxfev)
        # Every point lies in the box, and the first is the start clipped into it.
        assert all(low <= x <= high for x in points)
        assert points[0] == min(max(x0, low), high)
        assert got.nfev == len(points) <= maxfev
        # The budget ran out, or left too little for a Brent stage to start.
        assert got.status == int(len(points) == maxfev or len(stages) == before)
        # The result is the least value evaluated, with its point.
        assert got.fun == min(map(fun, points)) and fun(got.x[0]) == got.fun
    assert stages or maxfev < 12
    for (a, b, maxfun), (x, fx, nfev) in stages:
        want_x, want_fx, want_nfev = fminbound(fun, a, b, maxfun)
        assert low <= a <= b <= high
        assert (x.hex(), repr(fx), nfev) == (want_x.hex(), repr(want_fx), want_nfev)


@pytest.mark.parametrize("seed", range(6))
def test_a_minimum_on_a_bound_ends_on_the_bound(monkeypatch, seed):
    fun, starts, bounds = scalar_case(seed, "bound")
    for x0 in starts:
        got, _ = scalar_run(monkeypatch, fun, x0, bounds, 400)
        assert got.x[0] == bounds[0][1] and got.status == 0


@pytest.mark.parametrize("kind", SCALAR_KINDS)
def test_scalar_searches_meet_the_tolerance_in_few_evaluations(monkeypatch, kind):
    fun, starts, bounds = scalar_case(0, kind)
    for x0 in starts:
        got, _ = scalar_run(monkeypatch, fun, x0, bounds, 400)
        assert got.status == 0 and got.nfev < 80


@pytest.mark.parametrize("maxfev", [3, 4, 6, 9])
def test_a_spent_budget_reports_status_one(monkeypatch, maxfev):
    # A Brent stage needs more than these budgets leave it, or gets none.
    got, points = scalar_run(monkeypatch, lambda x: (x - 0.3)**2, 0.9, [(0.0, 1.0)], maxfev)
    assert got.status == 1 and got.nfev == len(points) <= maxfev


@pytest.mark.parametrize("kind", SCALAR_KINDS)
def test_lockstep_scalar_starts_equal_separate_runs(monkeypatch, kind):
    fun, starts, bounds = scalar_case(1, kind)
    runs = [scalar_run(monkeypatch, fun, x0, bounds, 400)[0] for x0 in starts]
    best = min(runs, key=lambda r: (r.fun, r.x[0]))
    got = run(monkeypatch, rows(lambda x: fun(float(x[0]))), [[x0] for x0 in starts], bounds, 400)
    assert (got.x.tobytes(), repr(got.fun), got.status) == \
        (best.x.tobytes(), repr(best.fun), best.status)
    assert got.nfev == sum(r.nfev for r in runs)
