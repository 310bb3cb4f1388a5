"""agv-path-kit benchmark: one workload, one seed, one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload lint|plan|repair --seed N --seconds S --trace 0|1

The run generates the workload's layouts from the seed (``generate.py``),
imports the program from the checkout's ``src/``, and then drives
``agv_path_kit.cli.main`` in-process, one op at a time (closed loop, one
client), in whole rounds over the workload's op list until ``--seconds``
have passed. Every op's output is checked (``oracle.py``). The last line of
standard output is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run (``spans.py``) with ``--trace 1``.
Scratch files go to ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

# Whole rounds keep the op mix of every run identical; this cap keeps a run
# of a much slower program inside the time a run may take.
HARD_LIMIT_S = 150.0
TAIL_BEYOND = 10          # ops per round above the reported tail percentile
SETUP_LAUNCHES = 5
IMPORTTIME_LAUNCHES = 3

# The host's speed drifts: on the machine the baseline was taken on, a fixed
# loop's time moved by up to 35% from one minute to the next, and the
# program's op times moved with it. Every timing is therefore reported at
# reference speed: scaled by CALIBRATION_REF_S over the median time of a
# fixed calibration loop run within CALIBRATION_WINDOW_S of it. The loop
# runs before an op whenever CALIBRATION_EVERY_S have passed since the last.
# CALIBRATION_REF_S is about the loop's median time on that machine.
CALIBRATION_REF_S = 0.010
CALIBRATION_EVERY_S = 0.25
CALIBRATION_WINDOW_S = 2.0

sys.path.insert(0, str(BENCH_DIR))
import generate  # noqa: E402
import numpy as np  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402


_CALIBRATION_NET = np.array([[0.0, 0.0], [1.0, 0.2], [2.0, 0.1], [3.0, 0.7],
                             [4.0, 1.0], [5.0, 1.4], [6.0, 2.0]])


def calibration_loop() -> float:
    """Seconds taken by a fixed piece of work shaped like the program's.

    Interpreted control flow around small-array numpy arithmetic: a frozen
    de Casteljau evaluation of a degree-6 net at the grid sizes the program
    uses, then a plain Python loop. It is the benchmark's own code, so a
    change to the program cannot change it.
    """
    start = perf_counter()
    for size, repeats in ((1025, 2), (257, 6), (24, 6), (4097, 2), (1, 6)):
        u = np.linspace(0.0, 1.0, size)[:, None, None]
        for _ in range(repeats):
            pts = np.repeat(_CALIBRATION_NET[None, :, :], size, axis=0)
            while pts.shape[1] > 1:
                pts = (1.0 - u) * pts[:, :-1, :] + u * pts[:, 1:, :]
            np.hypot(pts[:, 0, 0], pts[:, 0, 1]).sum()
    x = 0
    for i in range(30_000):
        x += i * i
    return perf_counter() - start


class SpeedProbe:
    """Calibration-loop samples over a run, and the speed scale they imply.

    Between ops the loop runs whenever CALIBRATION_EVERY_S have passed since
    the last sample; inside a long op a timer signal runs it at the same
    rate, and ``paused`` adds up the time those samples took so the op's
    time can exclude it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0

    def sample(self):
        start = perf_counter()
        took = calibration_loop()
        self.samples.append((start, took))
        return perf_counter() - start

    def maybe_sample(self):
        if not self.samples or perf_counter() - self.samples[-1][0] >= CALIBRATION_EVERY_S:
            self.sample()

    def _on_timer(self, signum, frame):
        self.paused += self.sample()

    @contextlib.contextmanager
    def sampling(self):
        """Sample on a timer while the body runs."""
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_EVERY_S, CALIBRATION_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float | None = None, end: float | None = None) -> float:
        """Reference-speed factor for an interval (the whole run if omitted)."""
        near = [k for t, k in self.samples if start is None or
                start - CALIBRATION_WINDOW_S <= t <= end + CALIBRATION_WINDOW_S]
        return CALIBRATION_REF_S / statistics.median(near or [k for _, k in self.samples])


def _child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("AGV_PATH_KIT_TOL", None)
    return env


def _launch(args: list[str]) -> tuple[float, float, str]:
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=_child_env(),
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, timeout=60, check=True)
    return start, perf_counter(), proc.stderr


def measure_setup(probe: SpeedProbe) -> float:
    """Median wall time of a fresh interpreter importing ``agv_path_kit.cli``.

    Calibration samples are taken around the launches; the caller scales
    the result with the whole run's samples, since a few 10 ms samples are
    noisier than the launches themselves.
    """
    _launch(["-c", "import agv_path_kit.cli"])   # compiles bytecode, warms the file cache
    times = []
    for _ in range(SETUP_LAUNCHES):
        probe.sample()
        start, end, _ = _launch(["-c", "import agv_path_kit.cli"])
        times.append(end - start)
    probe.sample()
    return statistics.median(times)


def measure_repair_import() -> float:
    """Median cumulative ``-X importtime`` of ``agv_path_kit.repair``, seconds."""
    values = []
    for _ in range(IMPORTTIME_LAUNCHES):
        _, _, err = _launch(["-X", "importtime", "-c", "import agv_path_kit.repair"])
        for line in err.splitlines():
            fields = [f.strip() for f in line.split("|")]
            if len(fields) == 3 and fields[2] == "agv_path_kit.repair":
                values.append(int(fields[1]) * 1e-6)
    return statistics.median(values)


# --------------------------------------------------------------------------
# One op: run, then check.

def _out_path(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def invoke(main, argv: list[str]):
    """Run the CLI in-process; returns (seconds, exit code, stdout, stderr, traceback)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 2)
    except Exception:  # any escape is a failed op; the traceback is its reason
        rc, error = None, traceback.format_exc()
    return perf_counter() - start, rc, out.getvalue(), err.getvalue(), error


def _read(path: str | None) -> str | None:
    if path is None or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


def verify(workload: str, op: dict, main, rc, stdout: str, stderr: str,
           error: str | None) -> tuple[list[str], str]:
    """Failure reasons and the bytes whose digest identifies the output."""
    if error is not None:
        return [f"traceback: {error.strip().splitlines()[-1]}"], ""
    reasons = ["traceback on stderr"] if "Traceback" in stderr else []
    expect = op["expect"]
    if workload == "lint":
        return reasons + oracle.check_lint(expect, rc, stdout), stdout
    produced = _read(_out_path(op["argv"]))
    if workload == "plan":
        return reasons + oracle.check_plan(expect, rc, produced), produced or stderr
    recheck = None
    if produced is not None:
        _, _, recheck, _, _ = invoke(main, ["check", _out_path(op["argv"]), "--format", "json"])
    return reasons + oracle.check_repair(expect, rc, _read(expect["layout"]), produced,
                                         recheck), produced or ""


class Runner:
    """Executes ops, checks outputs, and keeps per-op records.

    With a tracer, ``run(op, traced=True)`` installs the wrappers for the
    op's own call only, so output checks never add spans.
    """

    def __init__(self, workload: str, main, probe: SpeedProbe,
                 tracer: spans.Tracer | None = None):
        self.workload = workload
        self.main = main
        self.probe = probe
        self.tracer = tracer
        self.traced_main = tracer.wrap("op", main) if tracer else None
        self.records: list[dict] = []
        self.digests: dict[str, str] = {}
        self.failures: list[str] = []

    def run(self, op: dict, traced: bool = False):
        out = _out_path(op["argv"])
        if out is not None and os.path.exists(out):
            os.remove(out)
        gc.collect()
        self.probe.maybe_sample()
        started, paused = perf_counter(), self.probe.paused
        # No samples inside traced ops: they would land in the spans.
        with contextlib.nullcontext() if traced else self.probe.sampling():
            if traced:
                self.tracer.install()
                try:
                    seconds, rc, stdout, stderr, error = invoke(self.traced_main, op["argv"])
                finally:
                    self.tracer.uninstall()
            else:
                seconds, rc, stdout, stderr, error = invoke(self.main, op["argv"])
        seconds -= self.probe.paused - paused
        reasons, produced = verify(self.workload, op, self.main, rc, stdout, stderr, error)
        digest = hashlib.sha256(produced.encode()).hexdigest()
        earlier = self.digests.setdefault(op["key"], digest)
        if earlier != digest:
            reasons.append("output bytes differ from an earlier op on the same layout")
        if reasons:
            self.failures.append(f"{op['id']}: {'; '.join(reasons)}")
        self.records.append({"id": op["id"], "seconds": seconds, "start": started,
                             "failed": bool(reasons), "work": 0 if reasons else op["work"],
                             "traced": traced})

    def rescale(self):
        """Add each op's time at reference speed, once the last sample is in."""
        for r in self.records:
            r["scaled"] = r["seconds"] * self.probe.scale(r["start"], r["start"] + r["seconds"])


# --------------------------------------------------------------------------
# Metrics.

def end_to_end(records: list[dict], ops_per_round: int, setup_s: float,
               peak_rss_mb: float) -> tuple[dict, str]:
    times = sorted(r["scaled"] for r in records)
    count = len(times)
    rounds = max(1, count // ops_per_round)
    # The highest percentile with TAIL_BEYOND ops of each round beyond it.
    index = count - TAIL_BEYOND * rounds - 1
    percentile = 100.0 * (index + 1) / count
    failed = sum(r["failed"] for r in records)
    metrics = {
        "op_s_p50": (statistics.median(times), "s"),
        "op_s_tail": (times[index], "s"),
        "work_per_s": (sum(r["work"] for r in records) / sum(times), "1/s"),
        "ok_ratio": ((count - failed) / count, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    note = (f"op_s_tail is the p{percentile:.1f} op time: {count - index - 1} of "
            f"{count} ops ({rounds} round(s) of {ops_per_round}) lie beyond it")
    return metrics, note


def _print_metrics(metrics: dict):
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:.6g} {unit}")


def _result_line(records, metrics) -> str:
    failed = sum(r["failed"] for r in records)
    return json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(generate.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "agv_path_kit" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'agv_path_kit'} is missing",
              file=sys.stderr)
        return 2
    started = perf_counter()
    os.environ.pop("AGV_PATH_KIT_TOL", None)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    probe = SpeedProbe()
    if args.trace == 0:
        setup_raw_s = measure_setup(probe)
    else:
        repair_import_raw_s = measure_repair_import()
    ops = generate.generate(args.workload, args.seed, work)

    sys.path.insert(0, str(SRC))
    import agv_path_kit
    from agv_path_kit.cli import main as cli_main
    if Path(agv_path_kit.__file__).resolve().parent != SRC / "agv_path_kit":
        print(f"error: imported {agv_path_kit.__file__}, not the checkout's copy",
              file=sys.stderr)
        return 2

    os.chdir(work)
    tracer = spans.Tracer() if args.trace else None
    runner = Runner(args.workload, cli_main, probe, tracer)
    invoke(cli_main, ops[0]["argv"])        # warm-up, neither checked nor recorded
    rounds = 0
    peak_rss_mb = None
    t0 = perf_counter()
    while True:
        for k, op in enumerate(ops):
            if perf_counter() - started > HARD_LIMIT_S:
                break
            if tracer is None:
                runner.run(op)
                continue
            tracer.op_id = f"{op['id']}#{rounds}"
            # Alternate which of the pair runs first so neither gains.
            for traced in ((False, True) if (k + rounds) % 2 == 0 else (True, False)):
                runner.run(op, traced)
        else:
            rounds += 1
            if rounds == 1:
                # The grid caches fill during the first round; later rounds
                # only repeat it, so their number must not move this figure.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if perf_counter() - t0 < args.seconds:
                continue
        break
    measured_s = perf_counter() - t0
    probe.sample()
    runner.rescale()

    for line in runner.failures:
        print(f"FAILED {line}", file=sys.stderr)
    (work / "digests.json").write_text(json.dumps(runner.digests, indent=1, sort_keys=True))
    (work / "records.json").write_text(json.dumps(runner.records, indent=1))
    (work / "calibration.json").write_text(json.dumps(probe.samples))
    combined = hashlib.sha256("".join(f"{k}:{v}\n" for k, v in
                                      sorted(runner.digests.items())).encode()).hexdigest()
    print(f"workload {args.workload} seed {args.seed}: {len(runner.records)} ops in "
          f"{rounds} round(s) of {len(ops)}, {measured_s:.1f} s; "
          f"{len(runner.failures)} failed; output digest {combined[:16]}")

    print(f"host speed: calibration loop median {statistics.median(k for _, k in probe.samples):.5f} s "
          f"over {len(probe.samples)} samples (reference {CALIBRATION_REF_S} s); "
          f"times below are at reference speed")
    if tracer is None:
        if peak_rss_mb is None:             # cut inside the first round
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, note = end_to_end(runner.records, len(ops), setup_raw_s * probe.scale(),
                                   peak_rss_mb)
        print(note)
        print(f"as measured: op_s_p50 {statistics.median(r['seconds'] for r in runner.records):.6g} s, "
              f"setup_s {setup_raw_s:.6g} s")
    else:
        tracer.dump(work / "spans.tsv")
        layers = spans.layer_metrics(tracer.spans, tracer.counts, max(1, rounds))
        scale = probe.scale()
        layers = {name: value * scale if name.endswith("_s") else value
                  for name, value in layers.items()}
        layers["setup.repair_import_s"] = repair_import_raw_s * scale
        layers["trace.overhead"] = (
            statistics.median(r["scaled"] for r in runner.records if r["traced"])
            / statistics.median(r["scaled"] for r in runner.records if not r["traced"]) - 1.0)
        metrics = {name: (value, "s" if name.endswith("_s") else
                          "ratio" if name == "trace.overhead" else "count")
                   for name, value in layers.items()}
        print(f"per-layer metrics are per round; {len(tracer.spans)} spans in "
              f"{work / 'spans.tsv'}")
    _print_metrics(metrics)
    print(_result_line(runner.records, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
