#!/usr/bin/env python3
"""Record the outputs the checks compare against, from the current library.

    python3 perfbench/make_reference.py      # rewrites perfbench/reference.json

The reference holds, per command, the `verify` reports (with the witness start
and window of each measured row, which the CLI does not print) and the sha256
of each `prefix` file. It was recorded when the benchmark was added; re-record
it only in a change that changes the benchmark, never in one that claims a gain.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from apword.catalog import get_builtin  # noqa: E402
from apword.cli import build_parser  # noqa: E402
from apword.progressions import ScanPolicy, difference_families, verify_family  # noqa: E402
from apword.stream import prefix  # noqa: E402
from workloads import REFERENCE_PATH, command, reference_key  # noqa: E402


def verify_rows(argv: list[str]) -> list[dict]:
    args = build_parser().parse_args(argv)
    builtin = get_builtin(args.builtin)
    lo, hi = (int(v) for v in args.k_range.split(":"))
    members = difference_families(builtin.spin, range(lo, hi + 1))
    policy = ScanPolicy(args.initial_prefix, args.prefix_cap, args.r_override)
    reports = verify_family(builtin.fixed_point(), builtin.coding("spin"), members, policy)
    return [dict(r.to_json(),
                 best_start=r.measured.best_start if r.measured else None,
                 prefix_len=r.measured.prefix_len if r.measured else None)
            for r in reports]


def prefix_digest(argv: list[str]) -> str:
    args = build_parser().parse_args(argv)
    builtin = get_builtin(args.builtin)
    arr = prefix(builtin.fixed_point(), args.length, builtin.coding(args.coding))
    return hashlib.sha256(arr.astype(np.uint8).tobytes()).hexdigest()


def main() -> int:
    reference: dict[str, dict] = {"verify": {}, "prefix": {}}
    for toy in (True, False):
        argv = command("verify-rs", 0, toy, "")
        reference["verify"][reference_key(argv)] = verify_rows(argv)
        argv = command("prefix-rs", 0, toy, "out.u8")
        reference["prefix"][reference_key(argv)] = prefix_digest(argv)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
