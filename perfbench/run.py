#!/usr/bin/env python3
"""Benchmark of the apword CLI, end to end and per layer.

    python3 perfbench/run.py --workload scan-spin --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25 --trace 1

Every measured command is a fresh `python -m apword ...` process, as users run
it, so imports and caches start cold each time. With `--trace 0` the run
repeats the workload's command for `--seconds` seconds and reports end-to-end
metrics; with `--trace 1` it alternates plain and traced commands (see
trace_child.py) and reports per-layer metrics. Every output is checked (see
workloads.py). Times are scaled to a reference host speed (see HostProbe and
setup_sample; perfbench/README.md gives the measurements behind this). The
last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
Metric names and units are those declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".perfbench_tmp")
TRACE_CHILD = os.path.join(HERE, "trace_child.py")
SETUP_REPEATS = 5
CHILD_DEADLINE_S = 170.0  # a workload's run ends within 180 s; later children are killed
PY = [sys.executable]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


PROBE_REF_S = 0.001  # probe task time on a quiet host: sets the scale of command times
SETUP_REF_S = 0.1  # `python -c "import numpy"` on a quiet host: the scale of setup_s
PROBE_PERIOD_S = 0.02
_PROBE_WORD = np.random.default_rng(0).integers(0, 2, 1 << 18, dtype=np.uint8)


def _probe_task():
    """A fixed task of NumPy passes and bytecode that uses no apword code."""
    for d in (3, 17):
        np.flatnonzero(_PROBE_WORD[:-d] == _PROBE_WORD[d:])
    x = 0
    for i in range(5_000):
        x += i * i % 7


class HostProbe:
    """Times `_probe_task` every 20 ms in a thread while commands run.

    On a shared host other tenants slow the CLI by up to 40% for tens of
    seconds at a time, and run medians alone do not cancel that. Each measured
    time is multiplied by PROBE_REF_S over the mean task time while it ran.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, task seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self):
        while not self._stop.wait(PROBE_PERIOD_S):
            start = time.perf_counter()
            _probe_task()
            self.samples.append((start, time.perf_counter() - start))

    def scale(self, start: float, end: float) -> float:
        during = [dt for t, dt in self.samples if start <= t <= end] or [
            dt for _, dt in self.samples[-8:]]
        return PROBE_REF_S / statistics.fmean(during) if during else 1.0


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    scale: float  # PROBE_REF_S over the mean probe task time while it ran


def child(argv: list[str], stdout_path: str, deadline: float,
          probe: HostProbe | None = None) -> Sample:
    """Run one process to completion; its own CPU time and peak RSS from wait4.

    The process is killed if it is still running at `deadline` (perf_counter).
    """
    with open(stdout_path, "wb") as out, open(stdout_path + ".err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                  proc.returncode, probe.scale(start, start + wall) if probe else 1.0)


def layer_metrics(spans: list[dict], bytes_out: int) -> dict[str, float]:
    """Counts and self times per layer from one traced command's spans.

    A span's self time is its duration minus the time its child spans cover.
    """
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + s["t1"] - s["t0"]
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for s in spans:
        own = s["t1"] - s["t0"] - covered.get(s["id"], 0.0)
        self_s[s["layer"]] = self_s.get(s["layer"], 0.0) + own
        calls[s["layer"]] = calls.get(s["layer"], 0) + 1

    def named(name):
        return [s for s in spans if s["name"] == name]

    stream, kernel, rows = named("prefix"), named("max_ap_in_prefix"), named("a_of_d")
    verdicts: dict[str, int] = {}
    for s in named("verify_family"):
        for verdict, count in s["verdicts"].items():
            verdicts[verdict] = verdicts.get(verdict, 0) + count
    kernel_letters = sum(s["letters"] for s in kernel)
    exact = sum(s["exact"] for s in rows)
    return {
        "stream.calls": len(stream),
        "stream.letters": sum(s["letters"] for s in stream),
        "stream.regen_letters": sum(s["regen"] for s in stream),
        "stream.self_s": self_s.get("stream", 0.0),
        "stream.peak_array_mb": max((s["nbytes"] for s in stream), default=0) / 2**20,
        "progressions.kernel.calls": len(kernel),
        "progressions.kernel.letters": kernel_letters,
        "progressions.kernel.residue_iters": sum(s["iters"] for s in kernel),
        "progressions.kernel.self_s": self_s.get("progressions.kernel", 0.0),
        "progressions.kernel.ns_per_letter":
            1e9 * self_s.get("progressions.kernel", 0.0) / kernel_letters if kernel else 0.0,
        "progressions.schedule.rows": len(rows),
        "progressions.schedule.windows": len(kernel) / len(rows) if rows else 0.0,
        "progressions.schedule.exact_rows": exact,
        "progressions.schedule.exact_frac": exact / len(rows) if rows else 0.0,
        "progressions.schedule.self_s": self_s.get("progressions.schedule", 0.0),
        "progressions.verify.measured": sum(s["measured"] for s in named("verify_family")),
        "progressions.verify.predicted_only": verdicts.get("PREDICTED-ONLY", 0),
        "progressions.verify.pass": verdicts.get("PASS", 0),
        "progressions.verify.fail": verdicts.get("FAIL", 0),
        "substitution.calls": calls.get("substitution", 0),
        "substitution.self_s": self_s.get("substitution", 0.0),
        "groups.calls": calls.get("groups", 0),
        "groups.self_s": self_s.get("groups", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "cli.bytes_out": bytes_out,
    }


def _is_time(name: str) -> bool:
    return name.endswith(("_s", "ns_per_letter"))


def summary(values: list[float]) -> str:
    """Median, quartiles and each percentile with at least ten samples beyond it."""
    n = len(values)
    text = f"median {statistics.median(values):.4f}"
    if n >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        text += f", quartiles {q1:.4f}..{q3:.4f}"
    for p in (90, 99):
        if n * (100 - p) >= 1000:
            text += f", p{p} {statistics.quantiles(values, n=100)[p - 1]:.4f}"
    return text + f" (n={n})"


def run_workload(name: str, seed: int, seconds: float, trace: bool, toy: bool,
                 units: dict[str, str]):
    """Measure one workload; returns (attempted, failed, problems, metrics)."""
    import workloads  # imports apword, so only after main() has put src on sys.path

    deadline = time.perf_counter() + CHILD_DEADLINE_S
    work = os.path.join(SCRATCH, str(os.getpid()))
    os.makedirs(work, exist_ok=True)
    stdout_path = os.path.join(work, "stdout")
    out_path = os.path.join(work, "prefix.u8")
    spans_path = os.path.join(work, "spans.json")
    argv = workloads.command(name, seed, toy, out_path)
    checker = workloads.Checker(seed)
    print(f"# {name} seed={seed}: python -m apword {workloads.reference_key(argv)}")
    plain, traced, layers, outcomes = [], [], [], []

    def measured(command, probe):
        if os.path.exists(out_path):
            os.remove(out_path)
        sample = child(command, stdout_path, deadline, probe)
        with open(stdout_path, "rb") as fh:
            stdout = fh.read()
        outcomes.append(checker.check(argv, sample.exit_code, stdout, out_path))
        bytes_out = len(stdout) + (os.path.getsize(out_path) if os.path.exists(out_path) else 0)
        return sample, bytes_out

    setup_command = PY + ["-m", "apword", "--help"]
    reference_command = PY + ["-c", "import numpy"]

    def setup_sample() -> tuple[float, float]:
        """Setup time, unscaled and scaled by the reference process around it.

        Process start and imports have slow spells of their own that the
        probe task does not see; a process that only imports NumPy does.
        """
        before = child(reference_command, stdout_path, deadline).wall_s
        wall = child(setup_command, stdout_path, deadline).wall_s
        after = child(reference_command, stdout_path, deadline).wall_s
        return wall, wall * 2 * SETUP_REF_S / (before + after)

    try:
        child(setup_command, stdout_path, deadline)  # writes bytecode caches
        setup = []  # one before each command, so they spread over the run
        with HostProbe() as probe:
            start = time.perf_counter()
            while True:
                setup.append(setup_sample())
                plain.append(measured(PY + ["-m", "apword"] + argv, probe)[0])
                if trace:
                    sample, bytes_out = measured(
                        PY + [TRACE_CHILD, spans_path, "--"] + argv, probe)
                    traced.append(sample)
                    with open(spans_path, encoding="utf-8") as fh:
                        spans = json.load(fh)
                    layers.append({k: v * sample.scale if _is_time(k) else v
                                   for k, v in layer_metrics(spans, bytes_out).items()})
                elapsed = time.perf_counter() - start
                if elapsed * (len(plain) + 1) / len(plain) > seconds:
                    break
        setup += [setup_sample() for _ in range(SETUP_REPEATS - len(setup))]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(SCRATCH)  # only when no other run is using it

    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = list(dict.fromkeys(p for o in outcomes for p in o.problems))
    for note in dict.fromkeys(n for o in outcomes for n in o.notes):
        print(f"#   {note}")
    print(f"#   unscaled medians: wall_s {statistics.median(s.wall_s for s in plain):.4f} s,"
          f" setup_s {statistics.median(raw for raw, _ in setup):.4f} s;"
          f" time scale median {statistics.median(s.scale for s in plain):.3f}")
    series = {
        "wall_s": [s.wall_s * s.scale for s in plain],
        "cpu_s": [s.cpu_s * s.scale for s in plain],
        "setup_s": [scaled for _, scaled in setup],
        "peak_rss_mb": [s.rss_mb for s in plain],
        "ok_frac": [1.0 - failed / attempted],
    }
    if trace:
        for key in layers[0]:
            values = [m[key] for m in layers]
            if not _is_time(key):
                if len(set(values)) > 1:
                    print(f"#   warning: count {key} differs between traced runs: {values}")
                values = values[:1]
            series[key] = values
        series["trace.overhead_s"] = [statistics.median(s.wall_s * s.scale for s in traced)
                                      - statistics.median(series["wall_s"])]
        total = sum(statistics.median(series[k]) for k in series if k.endswith(".self_s"))
        shares = ", ".join(f"{k[:-7]} {100 * statistics.median(series[k]) / total:.1f}%"
                           for k in series if k.endswith(".self_s") and total > 0)
        print(f"#   traced self time {total:.3f} s: {shares}")
    missing = [k for k in units if k not in series]
    if missing:
        raise RuntimeError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {}
    for key in units:
        values = series[key]
        metrics[key] = {"value": statistics.median(values), "unit": units[key]}
        print(f"#   {key:40s} {units[key]:9s} {summary(values)}")
    for problem in problems[:20]:
        print(f"#   FAILED CHECK: {problem}")
    return attempted, failed, problems, metrics


def main(argv=None) -> int:
    # On SIGTERM, unwind so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs and caps, for the benchmark's self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "apword", "__init__.py")):
        print(f"error: no apword sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    key = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[key]}

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names if args.workload == "all" else [args.workload]:
        attempted, failed, problems, metrics = run_workload(
            name, args.seed, args.seconds, bool(args.trace), args.toy, units)
        result["correct"] &= failed == 0 and not problems
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = f"{name}/" if args.workload == "all" else ""
        result["metrics"].update({prefix + k: v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
