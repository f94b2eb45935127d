"""The four benchmark workloads and the checks on their outputs.

Each workload is one `python -m apword ...` command. The checks re-derive
every claim from `letter_at`, which reads a letter from the base-L digits of
its position, so they never go through the prefix generator or the AP kernel
that the timed command runs. The caller puts the repository's `src` on
`sys.path` before importing this module.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

from apword.catalog import get_builtin
from apword.cli import build_parser
from apword.progressions import EXACT, upper_bound
from apword.stream import letter_index_at

WORKLOADS = {
    "scan-spin": "apscan rs/spin over 200 differences from d=65: the AP kernel at "
                 "small d, no certification (spin coding is not injective)",
    "certify-tm2": "apscan tm:2 d=1..50 under a 2^24 cap: prefix regrowth and "
                   "ExactUnderBound certification",
    "verify-rs": "verify rs all families k=1..13: kernel at d up to 8193 on "
                 "hint-driven 2^26 windows",
    "prefix-rs": "prefix rs/spin 2^26 letters to a u8 file: one-shot prefix "
                 "generation and CLI output",
}

# Seed s scans d = 65+k .. 264+k with k = s % 64. Below d = 33 the kernel's
# temporaries, and so peak RSS, grow with 1/d; wider shifts change the cost.
SPIN_BASE, SPIN_SHIFTS = 64, 64
PREFIX_SAMPLES = 4096
TOY_SCAN = ["--initial-prefix", "4096", "--prefix-cap", "65536"]
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def command(name: str, seed: int, toy: bool, out_path: str) -> list[str]:
    """Arguments after `python -m apword` for one run of a workload."""
    if name == "scan-spin":
        lo = SPIN_BASE + seed % SPIN_SHIFTS + 1
        hi = lo + (19 if toy else 199)
        argv = ["apscan", "--builtin", "rs", "--coding", "spin", "--range", f"{lo}:{hi}"]
        return argv + TOY_SCAN if toy else argv
    if name == "certify-tm2":
        if toy:
            return ["apscan", "--builtin", "tm:2", "--range", "1:12",
                    "--initial-prefix", "4096", "--prefix-cap", str(2**20)]
        return ["apscan", "--builtin", "tm:2", "--range", "1:50", "--prefix-cap", str(2**24)]
    if name == "verify-rs":
        argv = ["verify", "--builtin", "rs", "--k-range", "1:9" if toy else "1:13"]
        return argv + TOY_SCAN if toy else argv
    if name == "prefix-rs":
        return ["prefix", "--builtin", "rs", "--coding", "spin",
                "--length", str(2**16 if toy else 2**26), "--format", "u8",
                "--out", out_path]
    raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def reference_key(argv: list[str]) -> str:
    """Key of a command in reference.json; output paths are not part of it."""
    if "--out" in argv:
        i = argv.index("--out")
        argv = argv[:i] + argv[i + 2:]
    return " ".join(argv)


@dataclass
class Outcome:
    """What the checks found in one command's output."""

    attempted: int
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def fail(self, count: int, message: str):
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(message)


class Checker:
    """Checks command outputs; identical outputs are checked once."""

    def __init__(self, seed: int):
        self.seed = seed
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            self.reference = json.load(fh)
        self._memo: dict[tuple, Outcome] = {}

    def check(self, argv: list[str], exit_code: int, stdout: bytes,
              out_path: str | None) -> Outcome:
        data = b""
        if out_path and os.path.exists(out_path):
            with open(out_path, "rb") as fh:
                data = fh.read()
        key = (tuple(argv), exit_code, hashlib.sha256(stdout).hexdigest(),
               hashlib.sha256(data).hexdigest())
        if key not in self._memo:
            self._memo[key] = self._check(argv, exit_code, stdout, data, key[3])
        return self._memo[key]

    def _check(self, argv, exit_code, stdout, data, digest) -> Outcome:
        args = build_parser().parse_args(argv)
        builtin = get_builtin(args.builtin)
        default = "spin" if args.command == "verify" and builtin.spin else None
        coding = builtin.coding(args.coding or default)
        fp = builtin.fixed_point()

        def symbol(n: int) -> int:
            x = letter_index_at(fp, n)
            return coding.table[x] if coding is not None else x

        if args.command == "apscan":
            lo, hi = (int(v) for v in args.range.split(":"))
            out = Outcome(attempted=hi - lo + 1)
            if exit_code != 0:
                out.fail(out.attempted, f"exit code {exit_code}, expected 0")
                return out
            _check_apscan(out, stdout.decode(errors="replace"), range(lo, hi + 1), args,
                          builtin, coding, symbol)
            return out
        if args.command == "verify":
            ref = self.reference["verify"].get(reference_key(argv))
            out = Outcome(attempted=len(ref) if ref else 1)
            if ref is None:
                out.fail(1, f"no reference for {reference_key(argv)!r}")
                return out
            _check_verify(out, exit_code, stdout.decode(errors="replace"), ref, symbol)
            return out
        out = Outcome(attempted=1)
        _check_prefix(out, exit_code, data, digest, args.length,
                      self.reference["prefix"].get(reference_key(argv)),
                      symbol, random.Random(self.seed))
        return out


def _witness_problem(symbol, d: int, length: int, start: int, prefix_len: int) -> str | None:
    """Why (d, length, start) is not a maximal progression inside prefix_len."""
    last = start + d * (length - 1)
    if length < 1 or start < 0 or last >= prefix_len:
        return f"progression {start}+{d}*i, {length} terms, leaves the prefix {prefix_len}"
    first = symbol(start)
    for i in range(1, length):
        if symbol(start + d * i) != first:
            return f"d={d}: position {start + d * i} breaks the progression from {start}"
    if start >= d and symbol(start - d) == first:
        return f"d={d}: progression from {start} extends to the left"
    if last + d < prefix_len and symbol(last + d) == first:
        return f"d={d}: progression from {start} extends to the right"
    return None


def _check_apscan(out: Outcome, text: str, ds: range, args, builtin, coding, symbol):
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    if not lines or lines[0] != "d,best_len,best_start,prefix_len,status":
        out.fail(out.attempted, "missing CSV header")
        return
    try:
        rows = [(int(d), int(n), int(s), int(p), status)
                for d, n, s, p, status in (line.split(",", 4) for line in lines[1:])]
    except ValueError:
        out.fail(out.attempted, "unparsable CSV row")
        return
    got = [row[0] for row in rows]
    if got != list(ds):
        out.fail(out.attempted, f"rows cover d={got[:3]}..., expected {ds.start}..{ds.stop - 1}")
        return
    injective = coding is None or coding.is_injective
    for d, best_len, best_start, prefix_len, status in rows:
        if status.startswith("Error:"):
            out.fail(1, f"d={d}: {status}")
            continue
        if status not in (EXACT, "LowerBoundOnly") or prefix_len > args.prefix_cap:
            problem = f"d={d}: status {status!r}, prefix_len {prefix_len}"
        else:
            problem = _witness_problem(symbol, d, best_len, best_start, prefix_len)
        if problem is None and status == EXACT:
            bound = upper_bound(builtin.substitution, d) if injective else None
            if bound is None or best_len > bound:
                problem = f"d={d}: ExactUnderBound {best_len} without a bound that covers it"
        if problem:
            out.fail(1, problem)


def _check_verify(out: Outcome, exit_code: int, text: str, ref: list[dict], symbol):
    try:
        reports = json.loads(text)["reports"]
    except (ValueError, KeyError):
        out.fail(out.attempted, "output is not a verify report")
        return
    if len(reports) != len(ref):
        out.fail(out.attempted, f"{len(reports)} reports, reference has {len(ref)}")
        return
    fields = ("family", "params", "d", "predicted_lower", "predicted_upper",
              "measured", "status", "verdict")
    for rep, exp in zip(reports, ref):
        label = f"{rep['family']} k={rep['params'][0]}"
        diff = [f for f in fields if rep.get(f) != exp[f]]
        if rep["verdict"] == "ERROR":
            out.fail(1, f"{label}: ERROR verdict")
            continue
        if diff:
            out.fail(1, f"{label}: {', '.join(diff)} differ from the recorded reference")
            continue
        if rep["measured"] is None:
            continue
        measured, lower = rep["measured"], int(rep["predicted_lower"])
        upper = rep["predicted_upper"]
        ok = measured >= lower and not (rep["status"] == EXACT and upper is not None
                                        and measured > int(upper))
        problem = _witness_problem(symbol, int(rep["d"]), measured, exp["best_start"],
                                   exp["prefix_len"])
        if problem is None and ok != (rep["verdict"] == "PASS"):
            problem = f"{label}: verdict {rep['verdict']} contradicts measured {measured}"
        if problem:
            out.fail(1, problem)
        elif rep["verdict"] == "FAIL":
            out.notes.append(f"known defect kept: {label} d={rep['d']} FAIL, measured "
                             f"{measured}, predicted lower bound {lower}, window "
                             f"{exp['prefix_len']}")
    expected_code = 2 if any(r["verdict"] == "FAIL" for r in reports) else 0
    if exit_code != expected_code:
        out.fail(out.attempted, f"exit code {exit_code}, expected {expected_code}")


def _check_prefix(out: Outcome, exit_code: int, data: bytes, digest: str, length: int,
                  ref_digest: str | None, symbol, rng: random.Random):
    if exit_code != 0:
        out.fail(1, f"exit code {exit_code}, expected 0")
    elif len(data) != length:
        out.fail(1, f"wrote {len(data)} bytes, expected {length}")
    elif digest != ref_digest:
        out.fail(1, f"sha256 {digest[:16]}... differs from the recorded digest")
    else:
        positions = [0, length - 1] + rng.sample(range(length), min(PREFIX_SAMPLES, length))
        bad = [p for p in positions if data[p] != symbol(p)]
        if bad:
            out.fail(1, f"{len(bad)} sampled letters differ from letter_at, first at {bad[0]}")
