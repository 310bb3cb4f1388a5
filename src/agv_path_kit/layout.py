"""Layout documents: JSON parsing, validation, serialization and loading.

Layout documents are JSON, schema version 1: angles in degrees, meters and
seconds throughout (radians are internal only). Every validation failure
raises `LayoutError` with a path into the document.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .curve import BezierCurve
from .errors import LayoutError
from .motion import Crab, ExponentialAnticipated, ExponentialDelayed, Tangential
from .vehicle import (Path, PathSegment, VehicleModel, Wheel, _check_connected,
                      validate_vehicle)

__all__ = [
    "SCHEMA_VERSION",
    "LayoutDocument",
    "LayoutSegment",
    "parse_layout",
    "serialize_layout",
    "load_layout",
]

SCHEMA_VERSION = 1
_FLOAT_OVERFLOW = 2**1024 - 2**970  # the least integer that float() rounds past the range

_MODES = {"tangential": Tangential, "crab": Crab,
          "exponential_delayed": ExponentialDelayed,
          "exponential_anticipated": ExponentialAnticipated}


@dataclass(frozen=True)
class LayoutSegment:
    id: str
    segment: PathSegment


@dataclass(frozen=True)
class LayoutDocument:
    """A parsed layout: vehicle, ordered segments, and junction adjacency."""

    name: str
    vehicle: VehicleModel
    segments: tuple[LayoutSegment, ...]
    adjacency: tuple[tuple[str, str], ...]

    def segment_by_id(self, seg_id: str) -> LayoutSegment:
        for ls in self.segments:
            if ls.id == seg_id:
                return ls
        raise KeyError(seg_id)

    def junction_ids(self) -> list[str]:
        return [f"{a}:{b}" for a, b in self.adjacency]

    def junctions(self):
        """Labelled junctions ``(left_id, left, right_id, right)`` in adjacency order."""
        # One table per call; ids resolve as in `segment_by_id` (first wins, else KeyError).
        segments = {ls.id: ls.segment for ls in reversed(self.segments)}
        for left_id, right_id in self.adjacency:
            yield left_id, segments[left_id], right_id, segments[right_id]

    def path(self) -> Path:
        """The segments in the order the adjacency chains them.

        A chain that closes on itself starts at the first segment in the
        file. Raises `LayoutError` when the adjacency forks, merges or
        leaves a segment off the chain: a profile needs one unbranched path,
        and `ValueError` naming both segment ids when chained ends do not meet.
        """
        successor: dict[str, str] = {}
        predecessor: dict[str, str] = {}
        for left, right in self.adjacency:
            if left in successor:
                raise LayoutError(f"segment {left!r} forks into {successor[left]!r} "
                                  f"and {right!r}; a profile needs one unbranched "
                                  "chain", "adjacency")
            if right in predecessor:
                raise LayoutError(f"segment {right!r} is entered from both "
                                  f"{predecessor[right]!r} and {left!r}; a profile "
                                  "needs one unbranched chain", "adjacency")
            successor[left], predecessor[right] = right, left
        segments = {ls.id: ls.segment for ls in self.segments}
        start = next((sid for sid in segments if sid not in predecessor),
                     self.segments[0].id)
        order = [start]
        while successor.get(order[-1], start) != start:
            order.append(successor[order[-1]])
        on_chain = set(order)
        off = [sid for sid in segments if sid not in on_chain]
        if off:
            raise LayoutError(f"segment {off[0]!r} is not on the chain that starts at "
                              f"{start!r}; a profile needs one unbranched chain",
                              "adjacency")
        chain = tuple(segments[sid] for sid in order)
        _check_connected(chain, [repr(sid) for sid in order], Path.g0_tol)
        return Path(chain)


def _is_number(value) -> bool:
    """JSON numbers only: ``true`` and ``false`` are not read as 1 and 0, nor an
    integer past the float range as infinity."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, float) or abs(value) < _FLOAT_OVERFLOW))


def _require(obj: dict, key: str, kind, location: str):
    if key not in obj:
        raise LayoutError(f"missing required field {key!r}", location)
    value = obj[key]
    at = f"{location}.{key}" if location else key
    if kind is float:
        if not _is_number(value) or not math.isfinite(float(value)):
            raise LayoutError(f"{key!r} must be a finite number", at)
        return float(value)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise LayoutError(f"{key!r} must be of type {kind.__name__}", at)
    return value


def _parse_mode(obj, location: str):
    if not isinstance(obj, dict):
        raise LayoutError("mode must be an object", location)
    tag = _require(obj, "type", str, location)
    if tag not in _MODES:
        raise LayoutError(f"unknown mode tag {tag!r}; expected one of {tuple(_MODES)}",
                          f"{location}.type")
    alpha = math.radians(_require(obj, "alpha_deg", float, location))
    if tag in ("tangential", "crab"):
        return _MODES[tag](alpha)
    n = _require(obj, "n", float, location)
    if not n > 1.0:
        raise LayoutError(f"n must exceed 1, got {n}", f"{location}.n")
    return _MODES[tag](alpha, n)


def _parse_wheel(obj, idx: int) -> Wheel:
    loc = f"vehicle.wheels[{idx}]"
    if not isinstance(obj, dict):
        raise LayoutError("wheel must be an object", loc)
    wid = _require(obj, "id", str, loc)
    pos = _require(obj, "position_m", list, loc)
    if len(pos) != 2 or not all(_is_number(c) for c in pos):
        raise LayoutError("position_m must be [x, y]", f"{loc}.position_m")
    v_max = _require(obj, "v_max_mps", float, loc)
    omega_max_deg = _require(obj, "omega_max_degps", float, loc)
    if not v_max > 0.0:
        raise LayoutError("v_max_mps must be > 0", f"{loc}.v_max_mps")
    if not omega_max_deg > 0.0:
        raise LayoutError("omega_max_degps must be > 0", f"{loc}.omega_max_degps")
    return Wheel(wid, (float(pos[0]), float(pos[1])), v_max,
                 math.radians(omega_max_deg))


def parse_layout(data) -> LayoutDocument:
    """Parse and validate a layout document (JSON text, bytes, or dict)."""
    if isinstance(data, (bytes, str)):
        try:  # bad UTF-8 or JSON, too long an integer, or too deep a nesting
            data = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
        except (ValueError, RecursionError) as exc:
            raise LayoutError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise LayoutError("layout document must be a JSON object")
    version = _require(data, "schema_version", int, "")
    if version != SCHEMA_VERSION:
        raise LayoutError(f"unsupported schema_version {version}; this tool reads "
                          f"{SCHEMA_VERSION}", "schema_version")
    name = _require(data, "name", str, "") if "name" in data else ""
    vehicle_obj = _require(data, "vehicle", dict, "")
    wheels_obj = _require(vehicle_obj, "wheels", list, "vehicle")
    if not wheels_obj:
        raise LayoutError("vehicle needs at least one wheel", "vehicle.wheels")
    wheels = tuple(_parse_wheel(w, i) for i, w in enumerate(wheels_obj))
    vehicle = VehicleModel(wheels)
    for violation in validate_vehicle(vehicle):
        raise LayoutError(violation.message, f"vehicle.wheels({violation.wheel_id})")

    segments_obj = _require(data, "segments", list, "")
    if not segments_obj:
        raise LayoutError("layout needs at least one segment", "segments")
    segments = []
    seen_ids = set()
    for i, seg in enumerate(segments_obj):
        loc = f"segments[{i}]"
        if not isinstance(seg, dict):
            raise LayoutError("segment must be an object", loc)
        seg_id = _require(seg, "id", str, loc)
        if seg_id in seen_ids:
            raise LayoutError(f"duplicate segment id {seg_id!r}", f"{loc}.id")
        seen_ids.add(seg_id)
        pts = _require(seg, "control_points_m", list, loc)
        if len(pts) < 2:
            raise LayoutError("a curve needs at least two control points (degree >= 1)",
                              f"{loc}.control_points_m")
        for j, p in enumerate(pts):  # a pair of floats passes without `_is_number`
            if not (isinstance(p, list) and len(p) == 2 and (
                    (type(p[0]) is float and type(p[1]) is float) or all(map(_is_number, p)))):
                raise LayoutError("control point must be [x, y]",
                                  f"{loc}.control_points_m[{j}]")
        mode = _parse_mode(seg.get("mode"), f"{loc}.mode")
        v_max = _require(seg, "v_max_mps", float, loc)
        if not v_max > 0.0:
            raise LayoutError("v_max_mps must be > 0", f"{loc}.v_max_mps")
        try:
            segment = PathSegment(BezierCurve(np.array(pts, dtype=float)), mode, v_max)
        except ValueError as exc:
            raise LayoutError(str(exc), loc) from exc
        segments.append(LayoutSegment(seg_id, segment))

    adjacency_obj = data.get("adjacency")
    if adjacency_obj is None:
        adjacency = tuple((segments[k].id, segments[k + 1].id)
                          for k in range(len(segments) - 1))
    else:
        if not isinstance(adjacency_obj, list):
            raise LayoutError("adjacency must be a list of [left, right] pairs",
                              "adjacency")
        pairs = []
        for i, pair in enumerate(adjacency_obj):
            loc = f"adjacency[{i}]"
            if not (isinstance(pair, list) and len(pair) == 2):
                raise LayoutError("adjacency entry must be [left_id, right_id]", loc)
            for sid in pair:
                if not (isinstance(sid, str) and sid in seen_ids):
                    raise LayoutError(f"unknown segment id {sid!r}", loc)
            pairs.append(tuple(pair))
        adjacency = tuple(pairs)
    return LayoutDocument(name, vehicle, tuple(segments), adjacency)


def _scalar(value) -> str:
    """``json.dumps`` text of a str, float, int, bool or None: a float, ``np.float64``
    too, by ``float.__repr__``, a non-finite one as NaN or (-)Infinity."""
    if isinstance(value, float):
        return (float.__repr__(value) if math.isfinite(value) else "NaN" if value != value
                else "Infinity" if value > 0 else "-Infinity")
    if isinstance(value, str):
        return _json_str(value)
    if value is None or type(value) is bool:
        return "null" if value is None else "true" if value else "false"
    return int.__repr__(value)


def _block(items: list[str], pad: str, brackets: str = "[]") -> str:
    """A JSON list (or object) of entries already written, its first line at ``pad``."""
    inner = pad + "  "
    return (f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"
            if items else brackets)


def _json_text(value, pad: str = "") -> str:
    """``json.dumps(value, indent=2)`` for data of no fixed shape (repair annotations):
    dicts with str keys, lists and tuples, and `_scalar`'s types. ``pad`` is the
    indent of the line that ``value`` starts on."""
    inner = pad + "  "
    if isinstance(value, dict):
        return _block([f"{_json_str(k)}: {_json_text(v, inner)}" for k, v in value.items()],
                      pad, "{}")
    if isinstance(value, (list, tuple)):
        return _block([_json_text(v, inner) for v in value], pad)
    return _scalar(value)


def _object(pad: str, *fields) -> str:
    """`str.format` template of a JSON object whose first line is at ``pad``, as
    ``json.dumps(indent=2)`` writes it: a field is a key, whose value fills one
    slot, or a (key, template) pair, whose value is written by that template."""
    inner = pad + "  "
    lines = (f"{inner}{_json_str(f)}: {{}}" if isinstance(f, str)
             else f"{inner}{_json_str(f[0])}: {f[1]}" for f in fields)
    return "{{\n" + ",\n".join(lines) + f"\n{pad}}}}}"


# One template per record shape, indented for where the record sits in its document.
_REPORT = _object("    ", "junction", "g0_position_m", "g0_orientation_rad", "beta",
                  ("residuals", _object("      ", "curve_g1", "curve_g2", "curve_g3",
                                        "mode_g1", "mode_g2")), "verdict", "notes")
_BETA = _object("      ", "beta1", "beta2", "beta3")
_CHECK = _object("", "layout", "junctions", "ok")
_PAIR = ["{}", "{}"]  # a two-entry list's template is `_block` of two slots
_WHEEL = _object("      ", "id", ("position_m", _block(_PAIR, "        ")), "v_max_mps",
                 "omega_max_degps")
_SEGMENT = _object("    ", "id", "control_points_m", "mode", "v_max_mps")
_POINT, _ADJACENT = _block(_PAIR, "        "), _block(_PAIR, "    ")
_MODE = {False: _object("      ", "type", "alpha_deg"),
         True: _object("      ", "type", "alpha_deg", "n")}
_LAYOUT = [_object("", "schema_version", "name", ("vehicle", _object("  ", "wheels")),
                   "segments", "adjacency", *extra) for extra in ((), ("annotations",))]


def serialize_check(name: str, reports, ok: bool) -> str:
    """``json.dumps({"layout": name, "junctions": [r.to_dict() for r in reports],
    "ok": ok}, indent=2)``, the `check --format json` report, one template per junction."""
    f = _scalar
    junctions = [_REPORT.format(
        _json_str(f"{r.left_id}:{r.right_id}"), f(r.g0_position), f(r.g0_orientation),
        "null" if r.beta is None else _BETA.format(f(r.beta.beta1), f(r.beta.beta2),
                                                  f(r.beta.beta3)),
        f(r.curve_g1), f(r.curve_g2), f(r.curve_g3), f(r.mode_g1), f(r.mode_g2),
        f(r.verdict), _block([f(note) for note in r.notes], "      ")) for r in reports]
    return _CHECK.format(f(name), _block(junctions, "  "), f(ok))


def serialize_layout(doc: LayoutDocument, annotations: dict | None = None) -> str:
    """Canonical JSON text for a layout document (stable key order): the bytes of
    ``json.dumps(..., indent=2)`` and a newline, one template per record."""
    f = _scalar
    wheels = [_WHEEL.format(f(w.id), f(w.r_w[0]), f(w.r_w[1]), f(w.v_max),
                            f(math.degrees(w.omega_max))) for w in doc.vehicle.wheels]
    segments = []
    for ls in doc.segments:
        mode = ls.segment.mode
        tag = next(tag for tag, cls in _MODES.items() if isinstance(mode, cls))
        exponential = tag.startswith("exponential")
        points = [_POINT.format(f(x), f(y)) for x, y in ls.segment.curve.control_points.tolist()]
        segments.append(_SEGMENT.format(
            f(ls.id), _block(points, "      "),
            _MODE[exponential].format(f(tag), f(math.degrees(mode.alpha)),
                                      *((f(mode.n),) if exponential else ())),
            f(ls.segment.v_max)))
    adjacency = [_ADJACENT.format(f(a), f(b)) for a, b in doc.adjacency]
    fields = [f(SCHEMA_VERSION), f(doc.name), _block(wheels, "    "), _block(segments, "  "),
              _block(adjacency, "  ")]
    if annotations:
        fields.append(_json_text(annotations, "  "))
    return _LAYOUT[bool(annotations)].format(*fields) + "\n"


def load_layout(path: str) -> LayoutDocument:
    """Read and parse the layout file at ``path``."""
    with open(path, "rb") as fh:
        return parse_layout(fh.read())
