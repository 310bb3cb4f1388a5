"""Self-time arithmetic and wrapper installation of the traced run."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402


def test_self_time_subtracts_the_union_of_direct_children():
    tree = [
        ["op", 0.0, 10.0, -1, "x"],
        ["cli.parse", 1.0, 4.0, 0, "x"],
        ["curve.eval", 2.0, 3.0, 1, "x"],
        ["curve.eval", 3.0, 6.0, 0, "x"],      # overlaps the previous sibling
        ["curve.eval", 8.0, 9.0, 0, "x"],
        ["curve.eval", 9.5, 11.0, 0, "x"],     # reaches past its parent
    ]
    selfs, calls = spans.self_times(tree)
    assert selfs["op"] == pytest.approx(10.0 - (5.0 + 1.0 + 0.5))
    assert selfs["cli.parse"] == pytest.approx(2.0)
    assert selfs["curve.eval"] == pytest.approx(1.0 + 3.0 + 1.0 + 1.5)
    assert calls == {"op": 1, "cli.parse": 1, "curve.eval": 4}


def test_layer_metrics_are_per_round_with_ratios_of_totals():
    tree = [["repair.repair", 0.0, 4.0, -1, "a"], ["curve.eval", 1.0, 2.0, 0, "a"],
            ["repair.repair", 4.0, 8.0, -1, "b"]]
    counts = {"repair.evals": 100, "curve.eval_points": 500}
    m = spans.layer_metrics(tree, counts, rounds=2)
    assert m["repair.repairs"] == 1.0
    assert m["repair.self_s"] == pytest.approx(3.5)
    assert m["repair.evals_per_repair"] == 50.0
    assert m["curve.points_per_eval"] == 5.0
    assert m["curve.points_per_sample"] == 0.0


def test_install_rebinds_every_namespace_and_uninstall_restores():
    import agv_path_kit
    from agv_path_kit import cli, curve, kinematics
    from agv_path_kit.layouts import bundled_layout_text

    originals = (cli.parse_layout, agv_path_kit.parse_layout, kinematics.arc_length,
                 curve.BezierCurve.derivatives_many)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cli.parse_layout is not originals[0]
        assert agv_path_kit.parse_layout is cli.parse_layout
        assert kinematics.arc_length is curve.arc_length is not originals[2]
        tracer.op_id = "t"
        doc = cli.parse_layout(bundled_layout_text("two_wheel_g1"))
    finally:
        tracer.uninstall()
    assert (cli.parse_layout, agv_path_kit.parse_layout, kinematics.arc_length,
            curve.BezierCurve.derivatives_many) == originals
    names = [s[spans.NAME] for s in tracer.spans]
    assert names[0] == "cli.parse" and names.count("vehicle.segment_init") == 2
    # Each segment validates 1025 first-order points.
    assert tracer.counts["curve.eval_points"] == 2 * 1025 * 2
    assert len(doc.segments) == 2
