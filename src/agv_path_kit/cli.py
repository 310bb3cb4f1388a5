"""Command-line front end.

Three subcommands cover the workflow: ``check`` lints every junction and
sets the exit code, ``repair`` rewrites control points near a chosen
junction, and ``profile`` plans a velocity profile and writes per-sample
kinematic tracks as CSV. Layout files are read and written by
`agv_path_kit.layout`.

Exit codes: 0 success, 1 discontinuity or infeasible repair, 2 bad input
(malformed layout, unreadable path, bad flag or bad AGV_PATH_KIT_TOL).
"""

from __future__ import annotations

import argparse
import math
import sys
from functools import lru_cache

import numpy as np

from .continuity import (SMOOTH, SMOOTH_AT_REST_ONLY, JunctionContext,
                         Tolerances, check_junctions)
from .errors import (DegenerateGeometryError, DiscontinuousPathError,
                     LayoutError, RepairInfeasibleError)
from .layout import (LayoutDocument, LayoutSegment, load_layout, parse_layout,
                     serialize_check, serialize_layout)
from .profile import plan_velocity
from .repair import RepairProblem, repair_junction
from .vehicle import PathSegment

__all__ = [
    "LayoutDocument",
    "LayoutSegment",
    "parse_layout",
    "serialize_layout",
    "main",
]


def _csv_text(cell: str) -> str:
    """``cell`` as an RFC 4180 text field: quoted, with inner quotes doubled, when it
    holds a comma, a quote, CR or LF; as it is otherwise."""
    if any(ch in cell for ch in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def cmd_check(args) -> int:
    doc = load_layout(args.layout)
    reports = check_junctions(doc.junctions(), doc.vehicle, args.tolerances)
    acceptable = {SMOOTH}
    if args.allow_rest:
        acceptable.add(SMOOTH_AT_REST_ONLY)
    ok = all(r.verdict in acceptable for r in reports)
    if args.format == "json":
        print(serialize_check(doc.name or args.layout, reports, ok))
    else:
        for r in reports:
            print(f"{r.left_id}:{r.right_id}  {r.verdict}"
                  f"  g0={r.g0_position:.2e} m"
                  f"  curve_g1={r.curve_g1:.2e} curve_g2={r.curve_g2:.2e}"
                  f"  mode_g1={r.mode_g1:.2e} mode_g2={r.mode_g2:.2e}")
            for note in r.notes:
                print(f"    note: {note}")
        print(f"{'OK' if ok else 'FAIL'}: {len(reports)} junction(s) checked")
    return 0 if ok else 1


def cmd_repair(args) -> int:
    doc = load_layout(args.layout)
    junction_ids = doc.junction_ids()
    target = args.junction or (junction_ids[0] if junction_ids else None)
    if target is None:
        print("error: layout has no junctions", file=sys.stderr)
        return 2
    if target not in junction_ids:
        print(f"error: unknown junction {target!r}; have {junction_ids}",
              file=sys.stderr)
        return 2
    left_id, left, right_id, right = list(doc.junctions())[junction_ids.index(target)]
    try:
        ctx = JunctionContext(left, right, doc.vehicle, left_id, right_id)
    except DegenerateGeometryError as exc:
        print(f"error: junction {target}: {exc}", file=sys.stderr)
        return 2
    try:
        result = repair_junction(RepairProblem(ctx, objective=args.objective))
    except RepairInfeasibleError as exc:
        print(f"error: repair infeasible: {exc}", file=sys.stderr)
        return 1

    new_segments = []
    for ls in doc.segments:
        seg = ls.segment
        if ls.id == left_id:
            seg = PathSegment(result.new_left_curve, seg.mode, seg.v_max)
        elif ls.id == right_id:
            seg = PathSegment(result.new_right_curve, seg.mode, seg.v_max)
        new_segments.append(LayoutSegment(ls.id, seg))
    annotations = {"repair": {
        "junction": target,
        "objective": args.objective,
        "objective_value": result.objective_value,
        "parameters": result.parameters,
        "moved_points": result.moved_points,
        "verdict_after": result.report_after.verdict,
    }}
    text = serialize_layout(
        LayoutDocument(doc.name, doc.vehicle, tuple(new_segments), doc.adjacency),
        annotations)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"repaired junction {target}: verdict {result.report_after.verdict}, "
              f"objective {result.objective_value:.6g}; wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_profile(args) -> int:
    doc = load_layout(args.layout)
    try:
        path = doc.path()
    except LayoutError:             # adjacency is not one chain: main exits 2
        raise
    except ValueError as exc:       # chained segments that do not meet
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return _write_profile(doc, path, args)
    except DiscontinuousPathError as exc:  # --diagnostic bypasses the junction refusal only
        hint = " (use --diagnostic to profile anyway)" if "junction(s)" in str(exc) else ""
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"error: --samples {args.samples}: not enough memory for this layout", file=sys.stderr)
        return 2


_PROFILE_BLOCK_ROWS = 256  # profile CSV rows formatted and written per block


def _write_profile(doc: LayoutDocument, path, args) -> int:
    profile = plan_velocity(path, doc.vehicle, a_max=args.a_max, resolution=args.samples,
                            diagnostic=args.diagnostic, tol=args.tolerances)

    def cells(values):
        # Numbers print as Python float reprs, formatted one column block at a time.
        return map(repr, values.tolist())

    def degrees(values):
        # One np.degrees per column block, math.degrees's bits per cell; past the range is inf.
        with np.errstate(over="ignore"):
            return cells(np.degrees(values))

    # Wheel ids may hold CSV delimiters: quote each distinct binding label once.
    quoted = {label: _csv_text(label) for label in set(profile.binding)}
    header = ["u", "s_m", "t_s", "v_mps", "v_max_mps", "binding"]
    columns = [(profile.u, cells), (profile.s, cells), (profile.t, cells), (profile.v, cells),
               (profile.v_limit, cells),
               (profile.binding, lambda labels: map(quoted.__getitem__, labels))]
    for wid in (w.id for w in doc.vehicle.sorted_wheels()):
        header += [_csv_text(f"{name}_{wid}") for name in ("v_w_mps", "omega_w_degps",
                                                            "delta_deg", "omega_ratio",
                                                            "R_v", "kappa_w")]
        columns += [(profile.wheel_speeds[wid], cells),
                    (profile.wheel_steering_rates[wid], degrees),
                    (profile.wheel_deltas[wid], degrees), (profile.wheel_r_omega[wid], cells),
                    (profile.wheel_r_v[wid], cells), (profile.wheel_kappa[wid], cells)]

    def write(fh):
        # A block of rows at a time, so the text never outweighs the planned arrays.
        fh.write(",".join(header) + "\n")
        for start in range(0, profile.s.size, _PROFILE_BLOCK_ROWS):
            rows = slice(start, start + _PROFILE_BLOCK_ROWS)
            block = zip(*(as_text(values[rows]) for values, as_text in columns))
            fh.write("".join([",".join(row) + "\n" for row in block]))

    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            write(fh)
        print(f"wrote {profile.s.size} samples to {args.out} "
              f"(total {profile.total_length:.3f} m, {profile.total_time:.3f} s)")
    else:
        write(sys.stdout)
    return 0


def _number(accept, requirement: str, convert=float):
    """argparse type: ``convert(text)`` when ``accept`` holds, else a usage error."""
    def parse(text: str):
        try:
            if accept(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {requirement}, got {text!r}")
    return parse


_TOLERANCE = _number(lambda x: math.isfinite(x) and x >= 0.0, "a finite number >= 0")
_MAX_SAMPLES = 1_000_000  # 10^6 samples of a segment take about 1 GB with six wheels


@lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first `main` call and reused.

    It holds no handlers: `main` looks each one up by name when it runs.
    """
    parser = argparse.ArgumentParser(
        prog="agv-path-kit",
        description="Junction continuity checking, repair, and velocity "
                    "profiling for multi-steer AGV layouts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="lint every junction of a layout")
    p_check.add_argument("layout", help="layout JSON file")
    p_check.add_argument("--tol", type=_TOLERANCE, default=None,
                         help="relative tolerance override")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    p_check.add_argument("--allow-rest", action="store_true",
                         help="accept junctions that are smooth only from rest")

    p_repair = sub.add_parser("repair", help="re-optimize control points at a junction")
    p_repair.add_argument("layout")
    p_repair.add_argument("--junction", default=None,
                          help="junction id as left:right (default: first)")
    p_repair.add_argument("--objective", default="min_travel_time",
                          choices=("min_travel_time", "min_displacement"))
    p_repair.add_argument("--out", default=None, help="output layout file")

    p_profile = sub.add_parser("profile", help="plan a velocity profile, write CSV")
    p_profile.add_argument("layout")
    p_profile.add_argument("--samples", default=1000,
                           type=_number(lambda n: 2 <= n <= _MAX_SAMPLES,
                                        f"an integer from 2 to {_MAX_SAMPLES}", int),
                           help=f"samples per segment, 2 to {_MAX_SAMPLES} (about 1 KB "
                                "of memory per sample and segment)")
    p_profile.add_argument("--a-max", default=0.5,
                           type=_number(lambda x: x > 0.0, "a number > 0"),
                           help="acceleration bound, m/s^2")
    p_profile.add_argument("--out", default=None, help="output CSV file")
    p_profile.add_argument("--tol", type=_TOLERANCE, default=None)
    p_profile.add_argument("--diagnostic", action="store_true",
                           help="profile even when junctions are discontinuous")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    tol = getattr(args, "tol", None)
    try:
        args.tolerances = Tolerances.default() if tol is None else Tolerances(relative=tol)
    except ValueError as exc:
        parser.error(str(exc))
    handler = {"check": cmd_check, "repair": cmd_repair, "profile": cmd_profile}[args.command]
    try:
        return handler(args)
    except (LayoutError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
