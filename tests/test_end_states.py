"""`check_junctions`' end-state pass equals one junction at a time, bit for bit.

`check_junctions` reads every distinct segment end of its junctions once and
runs each orientation law once per mode class over the stacked end rows,
with per-row alpha and n. Every context it hands to `analyze_junction` must
equal, attribute by attribute and byte for byte (signed zeros, infinities
and NaN included), the `JunctionContext` built for that junction alone, and
its end jets must equal the single-end law on the net end points.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agv_path_kit import (BezierCurve, Crab, ExponentialAnticipated, ExponentialDelayed,
                          JunctionContext, PathSegment, Tangential, VehicleModel, Wheel,
                          parse_layout)
from agv_path_kit import continuity, motion
from agv_path_kit.continuity import analyze_junction, check_junctions
from agv_path_kit.errors import DegenerateGeometryError
from agv_path_kit.layouts import bundled_layout_names, bundled_layout_text
from agv_path_kit.motion import _orientation

VEHICLE = VehicleModel((Wheel("w1", (1.0, 0.5), 1.7, 0.8), Wheel("w2", (-1.0, -0.5), 1.7, 0.8)))
ALPHA = st.floats(-3.0, 3.0)
# n in (1, 2) makes theta'' infinite at the flat end; 1.5, 2.5 and 3.0 give
# exponents n - 1 and n - 2 of 0.5 and 2.0, numpy's scalar fast paths.
N = st.one_of(st.sampled_from([1.5, 2.0, 2.5, 3.0]), st.floats(1.01, 1.99), st.floats(1.01, 5.0))
MODES = st.one_of(st.builds(Tangential, ALPHA), st.builds(Crab, ALPHA),
                  st.builds(ExponentialDelayed, ALPHA, N),
                  st.builds(ExponentialAnticipated, ALPHA, N))


def raw(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def context_bytes(ctx) -> tuple:
    """Every attribute of a context: identities for the inputs, bytes for the jets."""
    jets = tuple(raw(getattr(jet, name)) for jet in (ctx.left_jet, ctx.right_jet)
                 for name in ("position", "d1", "d2", "d3"))
    mode_jets = tuple(raw(getattr(jet, name)) for jet in (ctx.left_mode_jet, ctx.right_mode_jet)
                      for name in ("theta", "dtheta", "ddtheta"))
    return ((id(ctx.left), id(ctx.right), id(ctx.vehicle), ctx.left_id, ctx.right_id)
            + jets + mode_jets + (raw(ctx.position_gap),))


def single_end(segment: PathSegment, u: float) -> tuple:
    """One end by the law with the mode's own scalars, on the net end points."""
    curve = segment.curve
    end = 0 if u == 0.0 else -1
    rows = [curve._derivative_net(k)[end][None] if k <= curve.degree else np.zeros((1, 2))
            for k in range(4)]
    mode = segment.mode
    law = _orientation(mode, curve, np.array([u]), 2, rows, mode.alpha, getattr(mode, "n", None))
    return tuple(raw(row[0]) for row in rows) + tuple(raw(t[0]) for t in law)


def end_bytes(curve_jet, mode_jet) -> tuple:
    return (tuple(raw(getattr(curve_jet, name)) for name in ("position", "d1", "d2", "d3"))
            + tuple(raw(getattr(mode_jet, name)) for name in ("theta", "dtheta", "ddtheta")))


def run_pass(junctions):
    """`check_junctions`' reports and the contexts it handed to `analyze_junction`."""
    seen = []

    def recording(ctx, tol=None):
        seen.append(ctx)
        return analyze_junction(ctx, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(continuity, "analyze_junction", recording)
        reports = check_junctions(junctions, VEHICLE)
    return reports, seen


def assert_pass_equals_single(junctions):
    with np.errstate(all="ignore"):
        reports, contexts = run_pass(iter(junctions))
        contexts = iter(contexts)
        assert len(reports) == len(junctions)
        for (left_id, left, right_id, right), report in zip(junctions, reports):
            try:
                single = JunctionContext(left, right, VEHICLE, left_id, right_id)
            except DegenerateGeometryError as exc:
                assert report.notes == [str(exc)] and report.beta is None
                continue
            ctx = next(contexts)
            assert context_bytes(ctx) == context_bytes(single)
            assert end_bytes(ctx.left_jet, ctx.left_mode_jet) == single_end(left, 1.0)
            assert end_bytes(ctx.right_jet, ctx.right_mode_jet) == single_end(right, 0.0)
            assert repr(report.to_dict()) == repr(analyze_junction(single).to_dict())
        assert next(contexts, None) is None


@st.composite
def networks(draw):
    """Segments between a few far-apart nodes, and labelled junctions among them.

    Degrees run from 1 (higher net rows zero) to 6. A junction mostly joins a
    segment to one that starts where it ends, so ends are shared by forks
    and merges; the others are refused for their gap.
    """
    nodes = draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                          min_size=2, max_size=4, unique=True))
    coordinate = st.floats(-4.0, 4.0)
    segments = []
    for _ in range(draw(st.integers(1, 6))):
        start, end = draw(st.permutations(range(len(nodes))))[:2]
        inner = draw(st.lists(st.tuples(coordinate, coordinate), max_size=5))
        try:
            segments.append((start, end, PathSegment(
                BezierCurve([nodes[start], *inner, nodes[end]]), draw(MODES), 1.0)))
        except ValueError:  # an irregular curve
            continue
    junctions = []
    for _ in range(draw(st.integers(0, 8)) if segments else 0):
        i = draw(st.integers(0, len(segments) - 1))
        following = [j for j, seg in enumerate(segments) if seg[0] == segments[i][1]]
        j = draw(st.sampled_from(following) if following and draw(st.integers(0, 3))
                 else st.integers(0, len(segments) - 1))
        junctions.append((f"s{i}", segments[i][2], f"s{j}", segments[j][2]))
    return junctions


@settings(deadline=None, max_examples=300)
@given(networks())
def test_pass_equals_one_junction_at_a_time(junctions):
    assert_pass_equals_single(junctions)


def split_segments(modes, curve=None):
    """Consecutive pieces of one curve, piece k under ``modes[k]``."""
    curve = curve or BezierCurve([(0, 0), (1, 0.3), (2, 1), (3, 0.8), (4, 1.5)])
    pieces = []
    for _ in modes[1:]:
        head, curve = curve.split(0.4)
        pieces.append(head)
    pieces.append(curve)
    return [PathSegment(piece, mode, 1.0) for piece, mode in zip(pieces, modes)]


def test_every_mode_class_degree_and_flat_end():
    """All four laws on degree 1 to 3 nets, with n = 1.5 and 1.7 flat ends
    (theta'' infinite), a fork sharing an end, and a refused gap in the middle."""
    modes = [Tangential(0.2), ExponentialDelayed(-0.1, 1.5), ExponentialAnticipated(0.1, 1.7),
             Crab(-0.3), ExponentialAnticipated(0.0, 2.5), Tangential(-0.0)]
    infinite = 0
    for net in ([(0, 0), (4, 1.5)], [(0, 0), (2, 2), (4, 1.5)],
                [(0, 0), (1, 1), (2, 0), (3, 1)]):
        segs = split_segments(modes, BezierCurve(net))
        far = PathSegment(BezierCurve([(10, 10), (11, 10)]), Tangential(0.0), 1.0)
        junctions = [(f"s{k}", a, f"s{k + 1}", b) for k, (a, b) in enumerate(zip(segs, segs[1:]))]
        junctions[2:2] = [("s0", segs[0], "far", far), ("s1", segs[1], "s2b", segs[2])]
        assert_pass_equals_single(junctions)
        with np.errstate(all="ignore"):
            reports = check_junctions(junctions, VEHICLE)
        assert "do not share a junction point" in reports[2].notes[0]
        infinite += sum(math.isinf(r.mode_g2) for r in reports)
    assert infinite >= 3


def test_zero_junctions():
    assert check_junctions([], VEHICLE) == []
    assert check_junctions(iter(()), VEHICLE) == []


@pytest.mark.parametrize("name", bundled_layout_names())
def test_bundled_reports_equal_one_junction_at_a_time(name):
    doc = parse_layout(bundled_layout_text(name))
    single = [analyze_junction(JunctionContext(left, right, doc.vehicle, left_id, right_id))
              for left_id, left, right_id, right in doc.junctions()]
    assert ([r.to_dict() for r in check_junctions(doc.junctions(), doc.vehicle)]
            == [r.to_dict() for r in single])


@pytest.mark.parametrize("copies", [1, 4])
def test_one_law_call_per_mode_class_and_no_curve_evaluation(monkeypatch, copies):
    """The pass evaluates no curve and runs each law once, whatever the junction count."""
    segs = split_segments([Tangential(0.2), ExponentialDelayed(0.0, 1.5), Crab(0.1),
                           ExponentialAnticipated(0.0, 2.5), Tangential(0.0)])
    far = PathSegment(BezierCurve([(10, 10), (11, 10)]), Tangential(0.0), 1.0)
    junctions = [(f"s{k}", a, f"s{k + 1}", b) for k, (a, b) in enumerate(zip(segs, segs[1:]))]
    junctions = (junctions + [("s0", segs[0], "far", far)]) * copies
    counts = {"eval": 0, "law": 0, "analyze": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(BezierCurve, "derivatives_many",
                        counted("eval", BezierCurve.derivatives_many))
    law = counted("law", motion._orientation)
    monkeypatch.setattr(motion, "_orientation", law)
    monkeypatch.setattr(continuity, "_orientation", law)
    monkeypatch.setattr(continuity, "analyze_junction",
                        counted("analyze", continuity.analyze_junction))
    with np.errstate(all="ignore"):
        reports = check_junctions(junctions, VEHICLE)
    assert counts == {"eval": 0, "law": 4, "analyze": 4 * copies}
    assert sum(r.beta is None and math.isinf(r.curve_g1) for r in reports) == copies
