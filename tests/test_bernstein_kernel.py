"""The Bernstein kernel sums each derivative order in j order, bit for bit.

`curve._bernstein` forms each derivative order as one product over the point
axis and sums it with ``np.add.reduce`` from -0.0. Every entry must equal the
explicit loop value = D_k[0] b[0], then value += D_k[j] b[j] for j = 1..m, on
every shape the program evaluates: a curve's nodes, and a stack's K blocks on
rows of their own or on one shared row whose tables a node plan holds (also
the joined row [u | g(u)] of an exponential law). Nets hold -0.0, subnormal
and 1e300 coordinates, so their derivative nets also hold infinities and
NaNs, and rows hold u = +0.0, -0.0 and 1. Equality is bitwise, signed zeros
and NaN positions included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import ExponentialAnticipated, ExponentialDelayed, Tangential, curve
from agv_path_kit.curve import BezierCurve, _basis, _BezierStack, _derivative_net
from agv_path_kit.motion import _NodePlan

ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                                   1e300, -1e300, 1.7e308]),
                  st.floats(-1e3, 1e3))
NODE = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))
ROWS = st.integers(1, 6).flatmap(lambda size: arrays(float, size, elements=NODE))
LAWS = st.one_of(st.just(Tangential(0.0)), *(
    st.builds(law, st.just(0.0), st.sampled_from([1.5, 2.0, 3.0]))
    for law in (ExponentialDelayed, ExponentialAnticipated)))


def bits(a) -> tuple:
    """Values, sign bits and NaN positions: equal tuples mean equal bits up to NaN payload."""
    a = np.asarray(a)
    return (np.nan_to_num(a, nan=0.0).tolist(), np.signbit(a).tolist(), np.isnan(a).tolist())


def looped(net: np.ndarray, row: np.ndarray, order: int, lowest: int) -> list:
    """Entries lowest..order at ``row`` of one (n+1, 2) net, each (N, 2), by the j loop."""
    n, nets = net.shape[0] - 1, [net]
    tables = _basis(n, row, order, lowest)
    out = []
    for k in range(order + 1):
        if k < lowest:
            out.append(None)
            continue
        if k > n:
            out.append(np.zeros((row.size, 2)))
            continue
        d, b = _derivative_net(nets, k)[:, :, None], tables[k]
        value = d[0] * b[0]
        for j in range(1, n - k + 1):
            value += d[j] * b[j]
        out.append(value.T)
    return out


def assert_entries(result, reference):
    assert len(result) == len(reference)
    for value, expected in zip(result, reference):
        assert (value is None) == (expected is None)
        if value is not None:
            assert value.shape == expected.shape and bits(value) == bits(expected)


def nets_of(degree: int, count: int):
    # Nets of signed zeros alone give derivative nets whose sums are -0.0.
    net = st.one_of(arrays(float, (degree + 1, 2), elements=ENTRY),
                    arrays(float, (degree + 1, 2), elements=st.sampled_from([0.0, -0.0])))
    return st.lists(net, min_size=count, max_size=count)


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 12), st.data(), ROWS, st.integers(0, 5))
def test_curve_entries_equal_the_j_loop(degree, data, row, order):
    net = data.draw(nets_of(degree, 1))[0]
    lowest = data.draw(st.integers(0, order))
    with np.errstate(all="ignore"):
        result = BezierCurve(net).derivatives_many(row, order, lowest=lowest)
        assert_entries(result, looped(net, row, order, lowest))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 12), st.integers(1, 4), st.data(), st.integers(0, 5), st.booleans())
def test_stack_entries_on_block_rows_equal_the_j_loop(degree, count, data, order, shared):
    nets = data.draw(nets_of(degree, count))
    rows = [data.draw(ROWS)] * count if shared else [
        data.draw(arrays(float, 3, elements=NODE)) for _ in range(count)]
    lowest = data.draw(st.integers(0, order))
    with np.errstate(all="ignore"):
        result = _BezierStack(nets).derivatives_many(np.concatenate(rows), order, lowest=lowest)
        blocks = np.cumsum([0] + [row.size for row in rows])
        for i, (net, row) in enumerate(zip(nets, rows)):
            part = [None if v is None else v[blocks[i]:blocks[i + 1]] for v in result]
            assert_entries(part, looped(net, row, order, lowest))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 12), st.integers(1, 4), st.data(), ROWS, LAWS)
def test_stack_entries_on_a_node_plan_equal_the_j_loop(degree, count, data, row, mode):
    # A plan holds its row's tables up to the third derivative; under an
    # exponential law it holds those of [u | g(u)], returns the u half and keeps
    # the g(u) half for the call at g(u).
    nets = data.draw(nets_of(degree, count))
    order = data.draw(st.integers(1, 3))
    lowest = data.draw(st.integers(1, order))
    stack = _BezierStack(nets, _NodePlan(degree, mode, row, count))
    law = stack.law(stack.nodes)
    with np.errstate(all="ignore"), pytest.MonkeyPatch.context() as patch:
        patch.setattr(curve, "_basis", None)  # the plan's tables serve both calls
        at_u = stack.derivatives_many(stack.nodes, order, lowest=lowest)
        at_g = stack.derivatives_many(stack.nodes if law is None else law[0], 3, lowest=1)
    image = row if law is None else law[0][:row.size]
    with np.errstate(all="ignore"):
        for i, net in enumerate(nets):
            block = slice(i * row.size, (i + 1) * row.size)
            assert_entries([None if v is None else v[block] for v in at_u],
                           looped(net, row, order, lowest))
            assert_entries([None if v is None else v[block] for v in at_g],
                           looped(net, image, 3, 1))
