"""Self-test of the benchmark at toy size.

    python3 -m pytest perfbench -q

Runs every workload with tiny inputs and caps, checks that every metric
declared in BENCHMARK.json is printed by name with its unit, and that the
output checks catch deliberately corrupted outputs.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    DECLARED = json.load(fh)
NAMES = [w["name"] for w in DECLARED["workloads"]]


def _bench(root, *args):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", NAMES)
def test_toy_run_prints_every_metric_with_its_unit(name, trace):
    proc = _bench(ROOT, "--workload", name, "--seed", "1", "--seconds", "1",
                  "--trace", str(trace), "--toy")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name_, unit in units.items():
        assert f"{name_:40s} {unit:9s} median" in proc.stdout


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(str(tmp_path), "--workload", NAMES[0], "--seed", "0",
                  "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _toy_output(name, tmp_path):
    out_path = str(tmp_path / "prefix.u8")
    argv = workloads.command(name, 0, True, out_path)
    proc = subprocess.run([sys.executable, "-m", "apword", *argv], env=run.ENV,
                          capture_output=True, timeout=120)
    return argv, proc.returncode, proc.stdout, out_path


def _edit_row(stdout: bytes, d: int, edit) -> bytes:
    lines = stdout.decode().splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == str(d):
            lines[i] = ",".join(edit(cells))
    return ("\n".join(lines) + "\n").encode()


def test_apscan_checks_catch_corrupted_rows(tmp_path):
    checker = workloads.Checker(0)
    argv, code, stdout, _ = _toy_output("certify-tm2", tmp_path)
    assert checker.check(argv, code, stdout, None).failed == 0
    longer = _edit_row(stdout, 5, lambda c: [c[0], str(int(c[1]) + 1)] + c[2:])
    shorter = _edit_row(stdout, 3, lambda c: [c[0], str(int(c[1]) - 1)] + c[2:])
    moved = _edit_row(stdout, 3, lambda c: c[:2] + [str(int(c[2]) + 3)] + c[3:])
    missing = _edit_row(stdout, 7, lambda c: [])
    for corrupted in (longer, shorter, moved, missing):
        assert checker.check(argv, code, corrupted, None).failed >= 1
    assert checker.check(argv, 1, stdout, None).failed == 12

    argv, code, stdout, _ = _toy_output("scan-spin", tmp_path)
    assert checker.check(argv, code, stdout, None).failed == 0
    first_d = int(argv[argv.index("--range") + 1].split(":")[0])
    exact = _edit_row(stdout, first_d, lambda c: c[:4] + ["ExactUnderBound"])
    assert checker.check(argv, code, exact, None).failed == 1


def test_verify_checks_catch_corrupted_reports(tmp_path):
    checker = workloads.Checker(0)
    argv, code, stdout, _ = _toy_output("verify-rs", tmp_path)
    outcome = checker.check(argv, code, stdout, None)
    assert code == 2 and outcome.failed == 0 and len(outcome.notes) == 2  # known FAIL rows
    doc = json.loads(stdout)
    doc["reports"][4]["measured"] += 1
    assert checker.check(argv, code, json.dumps(doc).encode(), None).failed == 1
    assert checker.check(argv, 0, stdout, None).failed == outcome.attempted


def test_prefix_checks_catch_a_flipped_byte(tmp_path):
    checker = workloads.Checker(0)
    argv, code, stdout, out_path = _toy_output("prefix-rs", tmp_path)
    assert checker.check(argv, code, stdout, out_path).failed == 0
    with open(out_path, "r+b") as fh:
        fh.seek(1000)
        byte = fh.read(1)
        fh.seek(1000)
        fh.write(bytes([byte[0] ^ 1]))
    assert checker.check(argv, code, stdout, out_path).failed == 1


def test_self_time_subtracts_child_spans():
    spans = [
        {"id": 0, "parent": None, "layer": "cli", "name": "main", "t0": 0.0, "t1": 10.0},
        {"id": 1, "parent": 0, "layer": "progressions.schedule", "name": "a_of_d",
         "t0": 1.0, "t1": 9.0, "exact": True},
        {"id": 2, "parent": 1, "layer": "stream", "name": "prefix", "t0": 2.0, "t1": 4.0,
         "letters": 8, "regen": 0, "nbytes": 8},
        {"id": 3, "parent": 1, "layer": "progressions.kernel", "name": "max_ap_in_prefix",
         "t0": 5.0, "t1": 8.0, "letters": 8, "iters": 3},
    ]
    m = run.layer_metrics(spans, bytes_out=5)
    assert m["cli.self_s"] == 2.0
    assert m["progressions.schedule.self_s"] == 3.0
    assert m["stream.self_s"] == 2.0
    assert m["progressions.kernel.self_s"] == 3.0
    assert m["progressions.kernel.ns_per_letter"] == 3e9 / 8
    assert m["progressions.schedule.exact_frac"] == 1.0
