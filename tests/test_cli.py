"""Layout parsing/serialization and the three CLI subcommands."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import agv_path_kit
from agv_path_kit import (BezierCurve, ContinuityReport, Crab, ExponentialAnticipated,
                          ExponentialDelayed, LayoutError, PathSegment, ShapeParameters,
                          Tangential, VehicleModel, Wheel, cli, parse_layout, serialize_layout)
from agv_path_kit.cli import main
from agv_path_kit.layout import LayoutSegment, serialize_check
from agv_path_kit.layouts import (bundled_layout_names, bundled_layout_path,
                                  bundled_layout_text)

from conftest import NOMINAL_INITIAL_LEFT


def minimal_doc():
    return {
        "schema_version": 1,
        "name": "mini",
        "vehicle": {"wheels": [
            {"id": "w1", "position_m": [1.0, 0.5], "v_max_mps": 1.7,
             "omega_max_degps": 45.0},
            {"id": "w2", "position_m": [-1.0, -0.5], "v_max_mps": 1.7,
             "omega_max_degps": 45.0},
        ]},
        "segments": [
            {"id": "a", "control_points_m": [[0.0, 0.0], [3.0, 0.0]],
             "mode": {"type": "tangential", "alpha_deg": 0.0},
             "v_max_mps": 1.5},
            {"id": "b", "control_points_m": [[3.0, 0.0], [6.0, 0.0]],
             "mode": {"type": "tangential", "alpha_deg": 0.0},
             "v_max_mps": 1.5},
        ],
    }


class TestParsing:
    def test_minimal_document(self):
        doc = parse_layout(json.dumps(minimal_doc()))
        assert doc.name == "mini"
        assert [ls.id for ls in doc.segments] == ["a", "b"]
        assert doc.adjacency == (("a", "b"),)

    def test_round_trip_is_byte_stable(self):
        text1 = serialize_layout(parse_layout(json.dumps(minimal_doc())))
        text2 = serialize_layout(parse_layout(text1))
        assert text1 == text2

    def test_round_trip_preserves_values(self):
        doc = parse_layout(bundled_layout_text("six_wheel_exponential"))
        again = parse_layout(serialize_layout(doc))
        for a, b in zip(doc.segments, again.segments):
            assert np.array_equal(a.segment.curve.control_points,
                                  b.segment.curve.control_points)
            assert a.segment.mode == b.segment.mode
        assert doc.adjacency == again.adjacency

    def test_bundled_initial_layout_has_exact_nominal_points(self, layout_g1):
        pts = layout_g1.segments[0].segment.curve.control_points
        assert np.array_equal(pts, NOMINAL_INITIAL_LEFT)

    def test_exponential_n_must_exceed_one(self):
        doc = minimal_doc()
        doc["segments"][1]["mode"] = {"type": "exponential_anticipated",
                                      "alpha_deg": 0.0, "n": 1.0}
        with pytest.raises(LayoutError) as err:
            parse_layout(json.dumps(doc))
        assert "n must exceed 1" in str(err.value)
        assert "segments[1].mode.n" in str(err.value)

    def test_unknown_mode_tag(self):
        doc = minimal_doc()
        doc["segments"][0]["mode"]["type"] = "sideways"
        with pytest.raises(LayoutError) as err:
            parse_layout(json.dumps(doc))
        assert "segments[0].mode.type" in str(err.value)

    def test_single_control_point_rejected(self):
        doc = minimal_doc()
        doc["segments"][0]["control_points_m"] = [[0.0, 0.0]]
        with pytest.raises(LayoutError) as err:
            parse_layout(json.dumps(doc))
        assert "control_points_m" in str(err.value)

    def test_missing_field_located(self):
        doc = minimal_doc()
        del doc["segments"][0]["v_max_mps"]
        with pytest.raises(LayoutError) as err:
            parse_layout(json.dumps(doc))
        assert "segments[0]" in str(err.value)

    def test_duplicate_segment_ids(self):
        doc = minimal_doc()
        doc["segments"][1]["id"] = "a"
        with pytest.raises(LayoutError):
            parse_layout(json.dumps(doc))

    def test_adjacency_references_validated(self):
        doc = minimal_doc()
        doc["adjacency"] = [["a", "zzz"]]
        with pytest.raises(LayoutError) as err:
            parse_layout(json.dumps(doc))
        assert "adjacency[0]" in str(err.value)

    def test_wrong_schema_version(self):
        doc = minimal_doc()
        doc["schema_version"] = 99
        with pytest.raises(LayoutError):
            parse_layout(json.dumps(doc))

    def test_invalid_json(self):
        with pytest.raises(LayoutError):
            parse_layout("{not json")

    def test_bundled_registry(self):
        from agv_path_kit.layouts import bundled_layout_names
        names = bundled_layout_names()
        assert set(names) == {"two_wheel_g1", "two_wheel_smoothed",
                              "six_wheel_exponential"}
        for name in names:
            parse_layout(bundled_layout_text(name))
        with pytest.raises(KeyError):
            bundled_layout_text("no_such_layout")


class TestCheckCommand:
    def test_g1_layout_fails(self, capsys):
        code = main(["check", str(bundled_layout_path("two_wheel_g1"))])
        out = capsys.readouterr().out
        assert code == 1
        assert "discontinuous" in out

    def test_smoothed_layout_passes(self, capsys):
        code = main(["check", str(bundled_layout_path("two_wheel_smoothed"))])
        out = capsys.readouterr().out
        assert code == 0
        assert "smooth" in out

    def test_json_format_carries_same_verdict(self, capsys):
        code = main(["check", str(bundled_layout_path("two_wheel_g1")),
                     "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["junctions"][0]["verdict"] == "discontinuous"
        assert payload["ok"] is False

    def test_schema_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        doc = minimal_doc()
        doc["segments"] = []
        bad.write_text(json.dumps(doc))
        assert main(["check", str(bad)]) == 2

    def test_missing_file_exits_2(self, capsys):
        assert main(["check", "/nonexistent/layout.json"]) == 2

    def test_allow_rest_accepts_first_order_junction(self, tmp_path, capsys):
        # crab-crab junction with matching tangents but a curvature break:
        # smooth only from rest
        doc = minimal_doc()
        doc["segments"][0]["control_points_m"] = [
            [0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.6]]
        doc["segments"][1]["control_points_m"] = [
            [3.0, 0.6], [4.0, 1.2], [5.0, 0.2], [6.0, 0.0]]
        for seg in doc["segments"]:
            seg["mode"] = {"type": "crab", "alpha_deg": 10.0}
        layout = tmp_path / "rest.json"
        layout.write_text(json.dumps(doc))
        assert main(["check", str(layout)]) == 1
        out = capsys.readouterr().out
        assert "smooth_at_rest_only" in out
        assert main(["check", str(layout), "--allow-rest"]) == 0


class TestRepairCommand:
    def test_repair_g1_layout_then_check_passes(self, tmp_path, capsys):
        out_file = tmp_path / "repaired.json"
        code = main(["repair", str(bundled_layout_path("two_wheel_g1")),
                     "--out", str(out_file)])
        assert code == 0
        assert main(["check", str(out_file)]) == 0
        payload = json.loads(out_file.read_text())
        assert payload["annotations"]["repair"]["verdict_after"] == "smooth"
        assert payload["annotations"]["repair"]["moved_points"]

    def test_repair_smooth_layout_is_identity(self, tmp_path, capsys):
        out_file = tmp_path / "again.json"
        code = main(["repair", str(bundled_layout_path("two_wheel_smoothed")),
                     "--objective", "min_displacement", "--out", str(out_file)])
        assert code == 0
        before = parse_layout(bundled_layout_text("two_wheel_smoothed"))
        after = parse_layout(out_file.read_text())
        for a, b in zip(before.segments, after.segments):
            assert np.abs(a.segment.curve.control_points
                          - b.segment.curve.control_points).max() < 1e-9

    def test_unknown_junction_exits_2(self, capsys):
        code = main(["repair", str(bundled_layout_path("two_wheel_g1")),
                     "--junction", "x:y"])
        assert code == 2

    def test_unsupported_mode_pair_exits_1(self, tmp_path, capsys):
        doc = json.loads(bundled_layout_text("two_wheel_g1"))
        doc["segments"][0]["mode"] = {"type": "crab", "alpha_deg": 0.0}
        layout = tmp_path / "crab_tangential.json"
        layout.write_text(json.dumps(doc))
        assert main(["repair", str(layout)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: repair infeasible: no repair rule for mode pair "
                       "(Crab, Tangential)\n")

    @pytest.mark.parametrize("objective", ["min_travel_time", "min_displacement"])
    @pytest.mark.parametrize("name, rule", [("two_wheel_g1", "tangential"),
                                            ("six_wheel_exponential", "exponential")])
    def test_cubic_edited_side_is_refused_by_name(self, tmp_path, capsys, name, rule,
                                                  objective):
        # Both rules move three points of s2 next to the junction; a cubic
        # would move its far end too, so the repair is refused before the search.
        doc = json.loads(bundled_layout_text(name))
        doc["segments"][1]["control_points_m"] = doc["segments"][1]["control_points_m"][:4]
        layout = tmp_path / "cubic.json"
        layout.write_text(json.dumps(doc))
        assert main(["repair", str(layout), "--objective", objective]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: repair infeasible: {rule} repair needs degree >= 4 on "
                       f"segment 's2', which has degree 3\n")


class TestProfileCommand:
    def read_csv(self, path):
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        rows = [line.split(",") for line in lines[1:]]
        return header, rows

    def column(self, header, rows, name):
        idx = header.index(name)
        return np.array([float(r[idx]) for r in rows])

    def test_smoothed_layout_continuous_steering(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = main(["profile", str(bundled_layout_path("two_wheel_smoothed")),
                     "--samples", "1000", "--out", str(out)])
        assert code == 0
        header, rows = self.read_csv(out)
        for wid in ("w1", "w2"):
            delta = self.column(header, rows, f"delta_deg_{wid}")
            assert np.abs(np.diff(delta)).max() < 0.5

    def test_g1_layout_refused_without_diagnostic(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = main(["profile", str(bundled_layout_path("two_wheel_g1")),
                     "--out", str(out)])
        assert code == 1

    def test_g1_diagnostic_shows_steering_jump(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        code = main(["profile", str(bundled_layout_path("two_wheel_g1")),
                     "--samples", "1000", "--diagnostic", "--out", str(out)])
        assert code == 0
        header, rows = self.read_csv(out)
        delta = self.column(header, rows, "delta_deg_w1")
        jumps = np.abs(np.diff(delta))
        assert jumps.max() > 10.0 * np.median(jumps[jumps > 0] + 1e-12)

    def test_straight_layout_constant_heading(self, tmp_path, capsys):
        layout = tmp_path / "straight.json"
        layout.write_text(json.dumps(minimal_doc()))
        out = tmp_path / "profile.csv"
        code = main(["profile", str(layout), "--samples", "200",
                     "--out", str(out)])
        assert code == 0
        header, rows = self.read_csv(out)
        delta = self.column(header, rows, "delta_deg_w1")
        assert np.abs(delta).max() < 1e-12

    def test_byte_deterministic(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert main(["profile", str(bundled_layout_path("two_wheel_smoothed")),
                         "--samples", "300", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_columns_declared(self, tmp_path, capsys):
        out = tmp_path / "profile.csv"
        main(["profile", str(bundled_layout_path("two_wheel_smoothed")),
              "--samples", "50", "--out", str(out)])
        header, _ = self.read_csv(out)
        for name in ("u", "s_m", "t_s", "v_mps", "v_max_mps", "binding"):
            assert name in header
        for wid in ("w1", "w2"):
            for prefix in ("v_w_mps", "omega_w_degps", "delta_deg",
                           "omega_ratio", "R_v", "kappa_w"):
                assert f"{prefix}_{wid}" in header


@pytest.mark.parametrize("wid", ["w,1", 'w"1', "w\n1"])
def test_profile_quotes_text_cells_that_hold_csv_delimiters(wid, tmp_path, capsys):
    # A wheel id is any JSON string, and header names and binding labels carry it:
    # such a cell is quoted as RFC 4180 says, and every other byte stays the same.
    outputs = {}
    for name in ("w1", wid):
        doc = json.loads(bundled_layout_text("two_wheel_smoothed"))
        doc["vehicle"]["wheels"][0].update(id=name, v_max_mps=0.5)   # traction(<id>) binds
        layout = tmp_path / "layout.json"
        layout.write_text(json.dumps(doc))
        assert main(["profile", str(layout), "--samples", "40"]) == 0
        outputs[name] = capsys.readouterr().out
    assert '"' not in outputs["w1"]
    assert '"v_w_mps_' + wid.replace('"', '""') + '"' in outputs[wid]
    plain = [line.split(",") for line in outputs["w1"].splitlines()]
    rows = list(csv.reader(io.StringIO(outputs[wid], newline="")))
    assert [len(row) for row in rows] == [len(plain[0])] * len(plain)
    assert rows == [[cell.replace("w1", wid) for cell in row] for row in plain]
    assert f"traction({wid})" in (row[rows[0].index("binding")] for row in rows)


@pytest.mark.parametrize("a_max", ["1e-300", "1e16", "1e300", "inf"])
@pytest.mark.parametrize("name", bundled_layout_names())
def test_profile_at_extreme_acceleration_bounds(name, a_max, capsys):
    # The closed form w = 2 a s + running-min(v_max^2 - 2 a s) loses every speed to
    # 2 a s at 1e16 and makes inf * 0 = NaN at inf; the planner's rule must not.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["profile", str(bundled_layout_path(name)), "--diagnostic",
                     "--samples", "100", "--a-max", a_max])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    v, v_max = header.index("v_mps"), header.index("v_max_mps")
    if float(a_max) >= 1e16:        # the bound binds nowhere: no rest junction, 0 at the ends
        assert [row[v] for row in rows] == ["0.0"] + [row[v_max] for row in rows[1:-1]] + ["0.0"]


@pytest.mark.parametrize("limit", [1e-200, 1e300])
def test_profile_keeps_limits_whose_square_leaves_the_float_range(limit, tmp_path, capsys):
    # v^2 of such a limit is 0 or inf: a speed the rule does not lower comes back as
    # it was, where sqrt(v^2) would collapse it to 0 or overflow.
    doc = json.loads(bundled_layout_text("two_wheel_smoothed"))
    for item in doc["segments"] + doc["vehicle"]["wheels"]:
        item["v_max_mps"] = limit
    for wheel in doc["vehicle"]["wheels"]:
        wheel["omega_max_degps"] = limit
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["profile", str(layout), "--samples", "50", "--a-max", "inf"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    v, v_max = header.index("v_mps"), header.index("v_max_mps")
    assert [row[v] for row in rows] == ["0.0"] + [row[v_max] for row in rows[1:-1]] + ["0.0"]



@pytest.mark.parametrize("item", ["segment", "wheel"])
def test_profile_time_past_the_float_range_is_inf(item, tmp_path, capsys):
    # Under a subnormal speed limit 2 ds / (v_i + v_i+1) leaves the float range:
    # that time is +inf, with no RuntimeWarning, and t stays +inf from there on.
    doc = json.loads(bundled_layout_text("two_wheel_smoothed"))
    (doc["segments"] if item == "segment" else doc["vehicle"]["wheels"])[0]["v_max_mps"] = 1e-320
    layout = tmp_path / "layout.json"
    layout.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["profile", str(layout), "--samples", "20"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    t = [float(row[header.index("t_s")]) for row in rows]
    assert t[0] == 0.0 and t[-1] == math.inf
    assert all(a < b or a == b == math.inf for a, b in zip(t, t[1:]))

def run_cli(argv):
    """Exit code of the CLI, whether ``main`` returns it or argparse exits."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


SMOOTHED = str(bundled_layout_path("two_wheel_smoothed"))
LAYOUT_DIR = str(bundled_layout_path("two_wheel_smoothed").parent)


def gap_doc():
    """Two straight segments whose ends are 1 cm apart: JunctionContext refuses them."""
    doc = minimal_doc()
    doc["segments"][1]["control_points_m"] = [[3.01, 0.0], [6.0, 0.0]]
    return doc


def test_layout_names_resolve_from_cli_and_layout_modules():
    from agv_path_kit import cli, layout
    for name in ("parse_layout", "serialize_layout", "LayoutDocument",
                 "LayoutSegment"):
        assert getattr(cli, name) is getattr(layout, name)


def test_document_junctions_follow_adjacency():
    doc = minimal_doc()
    doc["segments"].append({"id": "c", "control_points_m": [[3.0, 0.0], [3.0, 3.0]],
                            "mode": {"type": "crab", "alpha_deg": 0.0},
                            "v_max_mps": 1.0})
    doc["adjacency"] = [["a", "c"], ["a", "b"]]
    parsed = parse_layout(json.dumps(doc))
    junctions = list(parsed.junctions())
    assert [(j[0], j[2]) for j in junctions] == [("a", "c"), ("a", "b")]
    assert junctions[0][1] is parsed.segment_by_id("a").segment
    assert junctions[0][3] is parsed.segment_by_id("c").segment
    unknown = dataclasses.replace(parsed, adjacency=(("a", "b"), ("a", "zz")))
    with pytest.raises(KeyError, match="zz"):
        list(unknown.junctions())


def test_check_reports_refused_junction(tmp_path, capsys):
    layout = tmp_path / "gap.json"
    layout.write_text(json.dumps(gap_doc()))
    note = ("segments 'a' and 'b' do not share a junction point "
            "(gap 1.000e-02 m)")
    assert main(["check", str(layout)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "a:b  discontinuous  g0=inf m  curve_g1=inf curve_g2=inf"
        "  mode_g1=inf mode_g2=inf",
        f"    note: {note}",
        "FAIL: 1 junction(s) checked"]
    assert main(["check", str(layout), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    (junction,) = payload["junctions"]
    assert junction["junction"] == "a:b"
    assert junction["verdict"] == "discontinuous"
    assert junction["notes"] == [note]
    assert junction["beta"] is None
    assert junction["g0_position_m"] == float("inf")


def test_zero_tolerance_is_not_replaced_by_the_default(capsys):
    # The smoothed junction's residuals are tiny but not zero.
    assert main(["check", SMOOTHED]) == 0
    assert main(["check", SMOOTHED, "--tol", "0"]) == 1


@pytest.mark.parametrize("value", ["abc", "-1e-6", "nan"])
@pytest.mark.parametrize("command", ["check", "repair", "profile"])
def test_bad_tolerance_environment_exits_2(monkeypatch, capsys, command, value):
    monkeypatch.setenv("AGV_PATH_KIT_TOL", value)
    assert run_cli([command, SMOOTHED]) == 2
    assert "AGV_PATH_KIT_TOL" in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    pytest.param(["profile", SMOOTHED, "--samples", "1"], "--samples", id="samples-1"),
    pytest.param(["profile", SMOOTHED, "--samples", "1000001"], "--samples",
                 id="samples-above-maximum"),
    # numpy cannot size 10^20 samples: argparse refuses the count before any allocation.
    pytest.param(["profile", SMOOTHED, "--samples", "99999999999999999999"], "--samples",
                 id="samples-past-numpy"),
    pytest.param(["profile", SMOOTHED, "--a-max", "-1"], "--a-max", id="a-max-negative"),
    pytest.param(["profile", SMOOTHED, "--a-max", "0"], "--a-max", id="a-max-zero"),
    pytest.param(["profile", SMOOTHED, "--a-max", "nan"], "--a-max", id="a-max-nan"),
    pytest.param(["profile", SMOOTHED, "--tol", "-1"], "--tol", id="profile-tol-negative"),
    pytest.param(["check", SMOOTHED, "--tol", "-1"], "--tol", id="check-tol-negative"),
    pytest.param(["check", SMOOTHED, "--tol", "inf"], "--tol", id="check-tol-inf"),
    pytest.param(["check", LAYOUT_DIR], LAYOUT_DIR, id="check-directory"),
    pytest.param(["repair", LAYOUT_DIR], LAYOUT_DIR, id="repair-directory"),
    pytest.param(["profile", LAYOUT_DIR], LAYOUT_DIR, id="profile-directory"),
])
def test_bad_flag_or_path_exits_2(argv, named, capsys):
    assert run_cli(argv) == 2
    err = capsys.readouterr().err
    assert named in err
    assert "Traceback" not in err


def test_memory_error_while_profiling_exits_2(monkeypatch, capsys):
    from agv_path_kit import cli

    def exhausted(*args, **kwargs):
        raise MemoryError
    monkeypatch.setattr(cli, "plan_velocity", exhausted)
    assert run_cli(["profile", SMOOTHED, "--samples", "999999"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --samples 999999: not enough memory")
    assert len(err.splitlines()) == 1


def test_diagnostic_hint_only_where_diagnostic_helps(capsys):
    # --diagnostic profiles past discontinuous junctions, not past a collapsed limit.
    g1 = str(bundled_layout_path("two_wheel_g1"))
    assert run_cli(["profile", g1, "--samples", "50"]) == 1
    assert capsys.readouterr().err == (
        "error: 1 junction(s) are discontinuous; repair the layout or request a "
        "diagnostic profile (use --diagnostic to profile anyway)\n")
    for flags in ([], ["--diagnostic"]):
        assert run_cli(["profile", SMOOTHED, "--samples", "50", "--a-max", "5e-324",
                        *flags]) == 1
        assert capsys.readouterr().err == (
            "error: speed limit collapses to zero over an interval of positive length\n")


@pytest.mark.parametrize("mutation, location", [
    # (path into the document, value written there), location the error names
    pytest.param((("adjacency",), [[["a"], "s2"]]), "adjacency[0]", id="list-id"),
    pytest.param((("adjacency",), [[{"x": 1}, "s2"]]), "adjacency[0]", id="object-id"),
    pytest.param((("adjacency",), [["s1", 2]]), "adjacency[0]", id="number-id"),
    pytest.param((("segments", 0, "control_points_m", 1, 0), True),
                 "segments[0].control_points_m[1]", id="true-control-point"),
    pytest.param((("segments", 1, "control_points_m", 2, 1), False),
                 "segments[1].control_points_m[2]", id="false-control-point"),
    pytest.param((("vehicle", "wheels", 0, "position_m", 0), True),
                 "vehicle.wheels[0].position_m", id="true-position"),
    pytest.param((("vehicle", "wheels", 1, "position_m", 1), False),
                 "vehicle.wheels[1].position_m", id="false-position"),
    pytest.param((("name",), 7), "name", id="number-name"),
    pytest.param((("name",), None), "name", id="null-name"),
    pytest.param((("schema_version",), True), "schema_version", id="true-schema-version"),
])
@pytest.mark.parametrize("command", ["check", "repair", "profile"])
def test_non_string_adjacency_id_exits_2(tmp_path, capsys, command, mutation, location):
    """Mistyped layout values, not only adjacency ids, exit 2 at their location."""
    doc = json.loads(bundled_layout_text("two_wheel_smoothed"))
    path, value = mutation
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    layout = tmp_path / "bad_value.json"
    layout.write_text(json.dumps(doc))
    assert run_cli([command, str(layout)]) == 2
    err = capsys.readouterr().err
    assert f"error: {location}: " in err
    assert "Traceback" not in err


def test_cli_import_leaves_scipy_unloaded():
    # No command needs scipy: every command starts without it.
    src = str(Path(agv_path_kit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, agv_path_kit.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


@pytest.mark.parametrize("objective", ["min_travel_time", "min_displacement"])
def test_repair_runs_without_scipy(objective, tmp_path):
    # With scipy unimportable, repair writes the same bytes as with it.
    src = str(Path(agv_path_kit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    layout = str(bundled_layout_path("two_wheel_g1"))
    runs = []
    for block in ("", "sys.modules['scipy'] = None; "):
        cwd = tmp_path / ("blocked" if block else "plain")
        cwd.mkdir()
        code = (f"import sys; {block}from agv_path_kit.cli import main; "
                f"sys.exit(main(['repair', {layout!r}, '--objective', {objective!r}, "
                f"'--out', 'repaired.json']))")
        done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                              capture_output=True)
        assert done.returncode == 0, done.stderr
        runs.append((done.stdout, done.stderr, (cwd / "repaired.json").read_bytes()))
    assert runs[0] == runs[1]
    assert runs[0][1] == b""


def test_check_and_repair_bytes_do_not_depend_on_the_blas_kernel():
    # Every planar product is elementwise float arithmetic, never a BLAS
    # ddot or gemv, so no kernel choice (FMA or not) reaches an output.
    # OPENBLAS_CORETYPE=Prescott picks a kernel without FMA; it acts only on
    # a DYNAMIC_ARCH OpenBLAS, such as numpy's wheels.
    src = str(Path(agv_path_kit.__file__).resolve().parents[1])
    runs = [[command, str(bundled_layout_path(name)), *flags]
            for name in bundled_layout_names()
            for command, *flags in (("check", "--format", "json"), ("repair",))]
    code = ("from agv_path_kit.cli import main\n"
            f"for argv in {runs!r}:\n"
            "    print('exit', main(argv), flush=True)\n")
    outputs = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_CORETYPE"}
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              env={**env, "PYTHONPATH": src, **kernel})
        assert done.returncode == 0, done.stderr
        outputs.append((done.stdout, done.stderr))
    assert outputs[0] == outputs[1]
    assert outputs[0][0].count(b"exit ") == len(runs)


def test_repair_refused_junction_exits_2(tmp_path, capsys):
    layout = tmp_path / "gap.json"
    layout.write_text(json.dumps(gap_doc()))
    assert main(["repair", str(layout)]) == 2
    err = capsys.readouterr().err
    assert "junction a:b" in err
    assert "do not share a junction point" in err


def test_repair_output_keys_are_unchanged(tmp_path, capsys):
    out_file = tmp_path / "repaired.json"
    assert main(["repair", str(bundled_layout_path("six_wheel_exponential")),
                 "--objective", "min_displacement", "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("repaired junction s1:s2: verdict smooth, objective ")
    assert out.endswith(f"; wrote {out_file}\n")
    repair = json.loads(out_file.read_text())["annotations"]["repair"]
    assert list(repair) == ["junction", "objective", "objective_value", "parameters",
                            "moved_points", "verdict_after"]
    assert list(repair["parameters"]) == ["x_d1_left", "x_d2_left", "x_d1_right",
                                          "x_d2_right", "beta1", "n"]


def test_repair_junction_ids_may_contain_colons(tmp_path, capsys):
    doc = json.loads(bundled_layout_text("two_wheel_smoothed"))
    renamed = {"s1": "s:1", "s2": "s:2"}
    for seg in doc["segments"]:
        seg["id"] = renamed[seg["id"]]
    assert "adjacency" not in doc   # consecutive segments are adjacent
    layout = tmp_path / "colons.json"
    layout.write_text(json.dumps(doc))
    out_file = tmp_path / "repaired.json"
    assert main(["repair", str(layout), "--junction", "s:1:s:2",
                 "--objective", "min_displacement", "--out", str(out_file)]) == 0
    repair = json.loads(out_file.read_text())["annotations"]["repair"]
    assert repair["junction"] == "s:1:s:2"
    assert repair["verdict_after"] == "smooth"


def crab_fork_doc():
    """Crab trunk 'a' that forks at (3, 0) into 'b' (left) and 'c' (right)."""
    doc = minimal_doc()
    crab = {"type": "crab", "alpha_deg": 0.0}
    for seg in doc["segments"]:
        seg["mode"] = dict(crab)
    doc["segments"][1]["control_points_m"] = [[3.0, 0.0], [3.0, 3.0]]
    doc["segments"].append({"id": "c", "control_points_m": [[3.0, 0.0], [3.0, -3.0]],
                            "mode": dict(crab), "v_max_mps": 1.5})
    doc["adjacency"] = [["a", "b"], ["a", "c"]]
    return doc


@pytest.mark.parametrize("adjacency, named", [
    pytest.param([["a", "b"], ["a", "c"]], "segment 'a' forks", id="fork"),
    pytest.param([["a", "c"], ["b", "c"]], "segment 'c' is entered from both",
                 id="merge"),
    pytest.param([["a", "b"]], "segment 'c' is not on the chain", id="off-chain"),
])
def test_profile_refuses_unchained_adjacency(tmp_path, capsys, adjacency, named):
    doc = crab_fork_doc()
    doc["adjacency"] = adjacency
    layout = tmp_path / "fork.json"
    layout.write_text(json.dumps(doc))
    assert main(["check", str(layout)]) == 1      # the fork is still lintable
    capsys.readouterr()
    assert run_cli(["profile", str(layout), "--samples", "20"]) == 2
    captured = capsys.readouterr()
    assert named in captured.err
    assert "adjacency" in captured.err
    assert captured.out == ""


def test_profile_follows_adjacency_not_file_order(tmp_path, capsys):
    doc = json.loads(bundled_layout_text("two_wheel_smoothed"))
    doc["segments"].reverse()
    doc["adjacency"] = [["s1", "s2"]]
    layout = tmp_path / "reversed.json"
    layout.write_text(json.dumps(doc))
    ordered, reversed_ = tmp_path / "ordered.csv", tmp_path / "reversed.csv"
    assert main(["profile", SMOOTHED, "--samples", "50", "--out", str(ordered)]) == 0
    assert main(["profile", str(layout), "--samples", "50", "--out", str(reversed_)]) == 0
    assert reversed_.read_bytes() == ordered.read_bytes()


def test_closed_chain_starts_at_the_first_segment():
    doc = minimal_doc()
    doc["adjacency"] = [["b", "a"], ["a", "b"]]
    path = parse_layout(json.dumps(doc)).path()
    assert [s.curve.control_points[0, 0] for s in path.segments] == [0.0, 3.0]


def test_profile_gap_names_segment_ids_not_chain_positions(tmp_path, capsys):
    # Listed c, a, b; chained a -> b -> c; b and c are 0.5 m apart. Chain
    # positions 1 and 2 would be a and b in the file, so ids are named.
    doc = minimal_doc()
    for seg in doc["segments"]:
        seg["mode"] = {"type": "crab", "alpha_deg": 0.0}
    doc["segments"].insert(0, {"id": "c", "control_points_m": [[6.5, 0.0], [9.0, 0.0]],
                               "mode": {"type": "crab", "alpha_deg": 0.0},
                               "v_max_mps": 1.5})
    doc["adjacency"] = [["a", "b"], ["b", "c"]]
    layout = tmp_path / "gap.json"
    layout.write_text(json.dumps(doc))
    assert run_cli(["profile", str(layout), "--samples", "20"]) == 1
    captured = capsys.readouterr()
    assert "segments 'b' and 'c' are not position-connected" in captured.err
    assert "gap 5.000e-01 m" in captured.err
    assert captured.out == ""


def test_profile_accepts_the_gap_check_calls_g0_continuous(tmp_path, capsys):
    # check and profile share one G0 threshold: a 5e-7 m junction gap is
    # smooth to check, so profile connects the chain.
    doc = json.loads(bundled_layout_text("two_wheel_smoothed"))
    for seg in doc["segments"]:
        if seg["id"] == "s2":
            seg["control_points_m"] = [[x, y + 5e-7] for x, y in seg["control_points_m"]]
    layout = tmp_path / "gap.json"
    layout.write_text(json.dumps(doc))
    assert run_cli(["check", str(layout)]) == 0
    assert "g0=5.00e-07 m" in capsys.readouterr().out
    out = tmp_path / "profile.csv"
    assert run_cli(["profile", str(layout), "--samples", "20", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.exists()


def test_repeated_main_calls_match_fresh_interpreters(monkeypatch, capsys):
    # main reuses one parser: every call in this process, a usage error
    # among them, gives what a fresh interpreter gives for the same argv.
    monkeypatch.setenv("COLUMNS", "80")         # argparse wraps usage to it
    monkeypatch.delenv("AGV_PATH_KIT_TOL", raising=False)
    src = str(Path(agv_path_kit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    g1 = str(bundled_layout_path("two_wheel_g1"))
    sequence = [["check", SMOOTHED, "--tol", "-1"], ["check", SMOOTHED],
                ["check", g1, "--format", "json"],
                ["profile", SMOOTHED, "--samples", "1"],
                ["profile", g1, "--samples", "20", "--diagnostic"],
                ["repair", SMOOTHED, "--objective", "min_displacement"],
                ["check", g1, "--allow-rest"]]
    codes = []
    for argv in sequence:
        code = run_cli(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "agv_path_kit", *argv], env=env,
                               capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
        codes.append(code)
    assert codes == [2, 0, 1, 2, 0, 0, 1]


def test_main_runs_the_handler_bound_at_call_time(monkeypatch, capsys):
    # A handler rebound in the module after the parser is built still runs.
    from agv_path_kit import cli
    assert main(["check", SMOOTHED]) == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_check", lambda args: seen.append(args.layout) or 7)
    assert main(["check", SMOOTHED]) == 7
    assert seen == [SMOOTHED]


@pytest.mark.parametrize("objective", ["min_travel_time", "min_displacement"])
def test_repair_of_a_far_scaled_segment_is_infeasible_not_a_traceback(objective, tmp_path):
    # The left segment of two_wheel_g1 scaled by 1e110 about the junction:
    # candidates whose moved control points overflow are inadmissible, as
    # irregular ones are, so the search ends infeasible instead of raising.
    doc = json.loads(bundled_layout_text("two_wheel_g1"))
    points = doc["segments"][0]["control_points_m"]
    jx, jy = points[-1]
    doc["segments"][0]["control_points_m"] = [
        [jx + (x - jx) * 1e110, jy + (y - jy) * 1e110] for x, y in points[:-1]] + [[jx, jy]]
    layout = tmp_path / "far.json"
    layout.write_text(json.dumps(doc))
    src = str(Path(agv_path_kit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "agv_path_kit", "repair", str(layout),
                           "--objective", objective], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1].startswith("error: repair infeasible")


def _mutated(name: str, path, value) -> dict:
    """Bundled layout ``name`` as a dict, with ``value`` written at ``path``."""
    doc = json.loads(bundled_layout_text(name))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, error", [
    pytest.param(("segments", 0, "control_points_m", 1, 0),
                 "segments[0].control_points_m[1]: control point must be [x, y]",
                 id="control-point"),
    pytest.param(("vehicle", "wheels", 2, "position_m", 1),
                 "vehicle.wheels[2].position_m: position_m must be [x, y]", id="position"),
    pytest.param(("vehicle", "wheels", 1, "v_max_mps"),
                 "vehicle.wheels[1].v_max_mps: 'v_max_mps' must be a finite number",
                 id="wheel-v-max"),
    pytest.param(("vehicle", "wheels", 0, "omega_max_degps"),
                 "vehicle.wheels[0].omega_max_degps: 'omega_max_degps' must be a finite "
                 "number", id="omega-max"),
    pytest.param(("segments", 1, "v_max_mps"),
                 "segments[1].v_max_mps: 'v_max_mps' must be a finite number",
                 id="segment-v-max"),
    pytest.param(("segments", 0, "mode", "alpha_deg"),
                 "segments[0].mode.alpha_deg: 'alpha_deg' must be a finite number",
                 id="alpha"),
    pytest.param(("segments", 1, "mode", "n"),
                 "segments[1].mode.n: 'n' must be a finite number", id="n"),
])
@pytest.mark.parametrize("value", [10**400, -(2**1024)])
def test_integer_beyond_the_float_range_exits_2_at_its_location(tmp_path, capsys, path,
                                                                 error, value):
    layout = tmp_path / "huge.json"
    layout.write_text(json.dumps(_mutated("six_wheel_exponential", path, value)))
    assert run_cli(["check", str(layout)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


@pytest.mark.parametrize("text", [
    pytest.param(b'{"schema_version": 1' + b"0" * 5000 + b"}", id="5001-digit-integer"),
    pytest.param(b'\xff{"schema_version": 1}', id="not-utf-8"),
    pytest.param(b"[" * 100_000, id="nested-too-deep"),
])
def test_unreadable_json_exits_2(tmp_path, capsys, text):
    layout = tmp_path / "unreadable.json"
    layout.write_bytes(text)
    assert run_cli(["check", str(layout)]) == 2
    assert capsys.readouterr().err.startswith("error: not valid JSON: ")


def _located_error(points, location: str) -> str:
    """What the point-by-point rule says of a segment's points: the first one that
    is not a pair of JSON numbers a float holds is named; otherwise a NaN makes the
    curve refuse them. (Integers drawn here are far from the float range's edge.)"""
    for j, p in enumerate(points):
        if not (isinstance(p, list) and len(p) == 2 and all(
                type(c) is float or (type(c) is int and abs(c) < 2**1024) for c in p)):
            return f"{location}.control_points_m[{j}]: control point must be [x, y]"
    return f"{location}: control points must be finite"


BAD_COORDINATES = st.one_of(
    st.sampled_from([True, False, None, "1.5", [1.0], [], {"x": 1.0}, math.nan]),
    st.integers(2**1024, 2**1100), st.integers(-(2**1100), -(2**1024)),
    st.just("third"))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(bundled_layout_names()), st.data())
def test_a_bad_control_point_is_named_as_the_located_rule_names_it(name, data):
    # Only a pair of floats skips `_is_number` in the parse's one pass, so a
    # mutated layout gets the point-by-point rule's message and location.
    doc = json.loads(bundled_layout_text(name))
    i = data.draw(st.integers(0, len(doc["segments"]) - 1), label="segment")
    points = doc["segments"][i]["control_points_m"]
    for _ in range(data.draw(st.integers(1, 2), label="mutations")):
        j = data.draw(st.integers(0, len(points) - 1), label="point")
        value = data.draw(BAD_COORDINATES, label="value")
        if value == "third":
            points[j] = [*points[j], 0.0]
        else:
            points[j][data.draw(st.integers(0, 1), label="coordinate")] = value
    with pytest.raises(LayoutError) as info:
        parse_layout(json.dumps(doc))
    assert str(info.value) == _located_error(points, f"segments[{i}]")


SPECIAL_FLOATS = st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324,
                                  2.2250738585072e-308, 1e308, 1.7976931348623157e308])
FLOATS = st.one_of(SPECIAL_FLOATS, st.floats()).flatmap(
    lambda x: st.sampled_from([x, np.float64(x)]))  # reports carry numpy floats too
TEXTS = st.one_of(st.text(max_size=12),
                  st.sampled_from(['"', "\\", "a\nb", '"\t\r\x00', "é→😀", "s1:s2"]))
BETAS = st.one_of(st.none(), st.builds(
    ShapeParameters, st.floats(min_value=0.0, exclude_min=True), FLOATS,
    st.one_of(st.none(), FLOATS)))
REPORTS = st.builds(ContinuityReport, TEXTS, TEXTS, FLOATS, FLOATS, BETAS, FLOATS, FLOATS,
                    FLOATS, FLOATS, FLOATS, TEXTS, st.lists(TEXTS, max_size=3))


@settings(max_examples=300, deadline=None)
@given(TEXTS, st.lists(REPORTS, max_size=3), st.booleans())
def test_check_json_writer_prints_the_bytes_of_json_dumps(layout, reports, ok):
    document = {"layout": layout, "junctions": [r.to_dict() for r in reports], "ok": ok}
    assert serialize_check(layout, reports, ok) == json.dumps(document, indent=2)


def layout_dict(doc, annotations):
    """The layout document ``serialize_layout`` writes, as the dict ``json.dumps`` takes."""
    def mode(m):
        tag = {Tangential: "tangential", Crab: "crab", ExponentialDelayed: "exponential_delayed",
               ExponentialAnticipated: "exponential_anticipated"}[type(m)]
        return {"type": tag, "alpha_deg": math.degrees(m.alpha),
                **({"n": m.n} if tag.startswith("exponential") else {})}

    out = {
        "schema_version": 1,
        "name": doc.name,
        "vehicle": {"wheels": [{"id": w.id, "position_m": list(w.r_w), "v_max_mps": w.v_max,
                                "omega_max_degps": math.degrees(w.omega_max)}
                               for w in doc.vehicle.wheels]},
        "segments": [{"id": ls.id, "control_points_m": ls.segment.curve.control_points.tolist(),
                      "mode": mode(ls.segment.mode), "v_max_mps": ls.segment.v_max}
                     for ls in doc.segments],
        "adjacency": [list(pair) for pair in doc.adjacency],
    }
    if annotations:
        out["annotations"] = annotations
    return out


LAYOUT_FLOATS = st.floats(-1e6, 1e6).flatmap(lambda x: st.sampled_from([x, np.float64(x)]))
LAYOUT_MODES = st.one_of(
    st.builds(Tangential, st.floats(-math.pi, math.pi)),
    st.builds(Crab, st.floats(-math.pi, math.pi)),
    st.builds(ExponentialDelayed, st.floats(-math.pi, math.pi), st.floats(1.01, 5.0)),
    st.builds(ExponentialAnticipated, st.floats(-math.pi, math.pi), st.floats(1.01, 5.0)))
WHEELS = st.builds(Wheel, TEXTS, st.tuples(LAYOUT_FLOATS, LAYOUT_FLOATS),
                   st.floats(0.01, 10.0), st.floats(0.01, 10.0))
# Repair's annotation: ints, floats that may be non-finite, nested lists and dicts.
ANNOTATIONS = st.one_of(st.none(), st.builds(
    lambda junction, value, parameters, moved: {"repair": {
        "junction": junction, "objective": "min_travel_time", "objective_value": value,
        "parameters": parameters, "moved_points": moved, "verdict_after": "smooth"}},
    TEXTS, FLOATS, st.dictionaries(TEXTS, FLOATS, max_size=3),
    st.lists(st.fixed_dictionaries({
        "side": st.sampled_from(["left", "right"]), "index": st.integers(0, 9),
        "before": st.lists(FLOATS, min_size=2, max_size=2),
        "after": st.lists(FLOATS, min_size=2, max_size=2)}), max_size=3)))


@st.composite
def layout_documents(draw):
    """Layouts of one to three wheels and segments, any ids and any adjacency."""
    wheels = draw(st.lists(WHEELS, min_size=1, max_size=3))
    segments = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 4))
        points = np.column_stack([np.arange(degree + 1.0), draw(st.lists(
            st.floats(-1.0, 1.0), min_size=degree + 1, max_size=degree + 1))])
        segment = PathSegment(BezierCurve(points), draw(LAYOUT_MODES), draw(st.floats(0.1, 5.0)))
        segments.append(LayoutSegment(draw(TEXTS), segment))
    ids = [ls.id for ls in segments]
    adjacency = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=3))
    return agv_path_kit.LayoutDocument(draw(TEXTS), VehicleModel(tuple(wheels)),
                                       tuple(segments), tuple(adjacency))


@settings(max_examples=200, deadline=None)
@given(layout_documents(), ANNOTATIONS)
def test_layout_writer_prints_the_bytes_of_json_dumps(doc, annotations):
    expected = json.dumps(layout_dict(doc, annotations), indent=2) + "\n"
    assert serialize_layout(doc, annotations) == expected


def test_profile_angle_cells_are_the_degrees_of_each_value(monkeypatch, capsys):
    # One np.degrees per column prints math.degrees's bits in every cell, also for
    # non-finite angles and for those whose degrees overflow, with no RuntimeWarning.
    specials = [math.inf, -math.inf, math.nan, 1e306, -1.7976931348623157e308, 5e-324,
                -0.0, 0.0, 1.0, math.pi, 3.1e306]
    plan = cli.plan_velocity

    def planned(*args, **kwargs):
        profile = plan(*args, **kwargs)
        n = profile.s.size
        values = np.resize(np.array(specials), n)
        return dataclasses.replace(
            profile, wheel_steering_rates={k: values for k in profile.wheel_steering_rates},
            wheel_deltas={k: -values[::-1] for k in profile.wheel_deltas})

    monkeypatch.setattr(cli, "plan_velocity", planned)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["profile", str(bundled_layout_path("two_wheel_smoothed")), "--samples", "20"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    header, *rows = csv.reader(io.StringIO(out, newline=""))
    values = np.resize(np.array(specials), len(rows))
    for prefix, column in (("omega_w_degps", values), ("delta_deg", -values[::-1])):
        for name in (name for name in header if name.startswith(prefix)):
            cells = [row[header.index(name)] for row in rows]
            assert cells == [repr(math.degrees(x)) for x in column.tolist()]
