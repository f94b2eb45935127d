"""Batch command-line front end emitting JSON, CSV, and DOT artifacts.

Exit codes: 0 success / all pass, 1 input error, 2 verification failure,
3 resource cap exceeded (also a verify member over it, when none fails).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .catalog import Builtin, get_builtin
from .errors import ParseError, ResourceCapError, SubstitutionError
from .groups import cycle_notation, generate_group, palindromicity
from .progressions import ScanPolicy, difference_families, scan, verify_family
from .spin import build_spin_substitution, spin_system_from_json
from .stream import Coding, check_prefix, factor
from .substitution import (
    aperiodicity_certificate,
    columns,
    is_bijective,
    is_primitive,
    json_substitution,
    min_pair_cover_power,
    pair_cover_bound,
    parse_substitution,
    read_json,
    recurrence_constants,
    recurrence_formula,
)
from .supersub import export_dot, graph_of_sets
from .vdw import VdwQuery, _cap_digits, vdw_lower, vdw_upper_report

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_VERIFY = 2
EXIT_RESOURCE = 3
_CHUNK = 2**20  # letters per write of `prefix`


class _CliError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # input errors must exit 1, not argparse's 2
        raise _CliError(message)


def _config_hash(args: argparse.Namespace) -> str:
    payload = json.dumps(
        {k: v for k, v in sorted(vars(args).items()) if not callable(v)},
        sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _header(args) -> str:
    return f"# apword {__version__} config={_config_hash(args)}"


def _load_target(args):
    """Builtin object when named, else a parsed substitution or spin matrix."""
    if args.builtin:
        return get_builtin(args.builtin)
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            source = fh.read()
    else:
        source = args.rules
    data = read_json(source) if source.lstrip().startswith("{") else None
    if data is not None and "matrix" in dict(data):
        sys_ = spin_system_from_json(data)
        return Builtin("user-spin", "user spin system", build_spin_substitution(sys_), spin=sys_)
    sub = parse_substitution(source) if data is None else json_substitution(data)
    return Builtin("user", "user substitution", sub)


def _coding_for(builtin, name):
    """`none` and the builtin's coding names first, then a JSON coding file."""
    if name in (None, "none") or name in builtin.codings() or not os.path.exists(name):
        return builtin.coding(name)
    with open(name, encoding="utf-8") as fh:
        return Coding.from_map(builtin.substitution, read_json(fh.read()))


def _resolve_out(path: str | None) -> str | None:
    """APWORD_OUT_DIR supplies the directory for bare relative output paths."""
    base = os.environ.get("APWORD_OUT_DIR")
    if path and base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(text: str, path: str | None):
    path = _resolve_out(path)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj, args, path):
    obj = {"tool": {"version": __version__, "config_hash": _config_hash(args)}, **obj}
    _emit(json.dumps(obj, indent=2, sort_keys=True) + "\n", path)


def cmd_analyze(args) -> int:
    builtin = _load_target(args)
    sub, fp = builtin.substitution, builtin.fixed_point()
    letters = sub.alphabet.letters
    kinds = [col.kind for col in columns(sub)]
    report: dict = {
        "name": builtin.name,
        "substitution": {
            "alphabet": list(letters),
            "length": sub.length,
            "rules": {letters[a]: sub.word(a) for a in range(sub.size)},
        },
        "fixed_point": {"seed": letters[fp.seed], "power": fp.power},
        "primitive": is_primitive(sub),
        "bijective": is_bijective(sub),
        "columns": {kind: kinds.count(kind) for kind in sorted(set(kinds))},
    }
    cert = aperiodicity_certificate(sub)
    report["aperiodicity"] = {"status": cert.status, "period": cert.period}
    if report["bijective"]:
        group = generate_group(sub)
        report["group"] = {
            "order": group.order,
            "exponent": group.exponent,
            "abelian": group.abelian,
            "transitive": group.transitive,
            "cyclic": group.is_cyclic,
            "generators": [cycle_notation(g, letters) for g in group.generators],
        }
        pal = palindromicity(sub)
        report["palindromicity"] = {
            "g_witness": None if pal.g_witness is None else cycle_notation(pal.g_witness, letters),
            "inverse_palindromic": pal.inverse_palindromic,
        }
    if report["primitive"]:
        L, n_bound = sub.length, pair_cover_bound(sub.size)
        try:  # R >= L^N >= 2^(N·⌊log2 L⌋): past MAX_DIGITS digits, R is not built
            _cap_digits("R", log2_floor=n_bound * (L.bit_length() - 1))
            r_text = str(_cap_digits("R", recurrence_formula(sub.size, L)[0]))
        except ResourceCapError:
            r_text = f"2*{L}^{n_bound}-{L}"
        entry = {"r_formula": r_text, "n_bound": n_bound}
        if args.exact_recurrence:
            rec = recurrence_constants(sub)
            entry.update(n_exact=rec.n_exact, zeta2=rec.zeta2_exact, r_exact=rec.r_exact)
        else:
            entry["n_exact"] = min_pair_cover_power(sub)
        report["recurrence"] = entry
    _json_dump(report, args, args.json)
    return EXIT_OK


def cmd_prefix(args) -> int:
    builtin = _load_target(args)
    fp = builtin.fixed_point()
    coding = _coding_for(builtin, args.coding)
    check_prefix(fp, args.length, args.prefix_cap)  # before any output is opened
    names = np.array(coding.names if coding else builtin.substitution.alphabet.letters, object)
    text = args.format == "text"
    out = _resolve_out(args.out)
    with open(out, "wb") if out else contextlib.nullcontext(sys.stdout.buffer) as fh:
        if text:
            fh.write(f"{_header(args)}\n".encode())
        for a in range(0, args.length, _CHUNK):  # the whole prefix is never held
            letters = factor(fp, a, min(a + _CHUNK, args.length), coding)
            if text:
                fh.write(((" " if a else "") + " ".join(names[letters].tolist())).encode())
            else:
                fh.write(memoryview(letters))
        if text:
            fh.write(b"\n")
    return EXIT_OK


def _policy(args) -> ScanPolicy:
    return ScanPolicy(initial_prefix=args.initial_prefix, prefix_cap=args.prefix_cap,
                      r_override=args.r_override)


def _parse_range(text: str) -> tuple[int, int]:
    lo, _, hi = text.partition(":")
    try:
        return int(lo), int(hi or lo)
    except ValueError:
        raise _CliError(f"bad range {text!r}, expected like 1:100") from None


def cmd_apscan(args) -> int:
    builtin = _load_target(args)
    fp = builtin.fixed_point()
    coding = _coding_for(builtin, args.coding)
    d_from, d_to = _parse_range(args.range)
    rows = scan(fp, coding, d_from, d_to, _policy(args))
    lines = [_header(args), "d,best_len,best_start,prefix_len,status"]
    lines += [f"{r.d},{r.best_len},{r.best_start},{r.prefix_len},{r.status}" for r in rows]
    _emit("\n".join(lines) + "\n", args.csv)
    return EXIT_OK


def cmd_verify(args) -> int:
    builtin = _load_target(args)
    target = builtin.spin if builtin.spin is not None else builtin.substitution
    k_from, k_to = _parse_range(args.k_range)
    names = args.families.split(",") if args.families else None
    members = difference_families(target, range(k_from, k_to + 1), names)
    coding = _coding_for(builtin, args.coding if args.coding else
                         ("spin" if builtin.spin else None))
    reports = verify_family(builtin.fixed_point(), coding, members, _policy(args))
    _json_dump({"name": builtin.name, "reports": [r.to_json() for r in reports]},
               args, args.json)
    return exit_code_for_reports(reports)


def exit_code_for_reports(reports) -> int:
    """2 if a member fails, else 3 if one hit the resource cap, else 0."""
    verdicts = {r.verdict for r in reports}
    if "FAIL" in verdicts:
        return EXIT_VERIFY
    return EXIT_RESOURCE if "ERROR" in verdicts else EXIT_OK


def cmd_vdw(args) -> int:
    if args.mode == "upper":
        report = vdw_upper_report(VdwQuery(args.c, args.L, args.M,
                                           args.R, args.exponent))
        report = {k: str(v) if isinstance(v, int) else v for k, v in report.items()}
        _json_dump({"vdw_upper": report}, args, args.json)
        return EXIT_OK
    res = vdw_lower(args.c, args.L, args.m)
    _json_dump({"vdw_lower": {
        "progression_length": str(res.progression_length),
        "window_length": str(res.window_length),
        "N0": res.n0,
        "ceil_B": res.ceil_b,
        "prime_power": res.prime_power,
    }}, args, args.json)
    return EXIT_OK


def cmd_graph(args) -> int:
    builtin = _load_target(args)
    g = graph_of_sets(builtin.substitution)
    if args.dot:
        _emit(_header(args) + "\n" + export_dot(g), args.dot)
    report = {
        "name": builtin.name,
        "column_number": g.column_number,
        "nodes": sorted(g.label(n) for n in g.nodes),
        "minimal": sorted(g.label(n) for n in g.minimal),
        "edges": {
            g.label(node): [g.label(t) for t in g.edges[node]]
            for node in sorted(g.nodes, key=g.label)
        },
    }
    _json_dump(report, args, args.json)
    return EXIT_OK


def _add_source_flags(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", help="named substitution, e.g. tm:3, rs, outlook6")
    src.add_argument("--file", help="substitution source file (text or JSON)")
    src.add_argument("--rules", help="inline substitution source text")


def _add_scan_flags(p: argparse.ArgumentParser):
    p.add_argument("--coding", help="coding name (spin, digit, partition, none) or JSON file")
    p.add_argument("--initial-prefix", type=int, default=2**20,
                   help="checked but no longer read: A(d) is read from the 2-word windows")
    p.add_argument("--prefix-cap", type=int, default=2**26,
                   help="budget on the letters of the kept 2-word windows; a row over it "
                        "reads this many prefix letters")
    p.add_argument("--r-override", type=int, default=None,
                   help="checked but no longer read: exactness comes from the 2-word cover")


def build_parser() -> _Parser:
    parser = _Parser(prog="apword", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="structure report for a substitution")
    _add_source_flags(p)
    p.add_argument("--json", help="output path (default stdout)")
    p.add_argument("--exact-recurrence", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("prefix", help="emit a fixed-point prefix")
    _add_source_flags(p)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--coding")
    p.add_argument("--format", choices=["text", "u8"], default="text")
    p.add_argument("--prefix-cap", type=int, default=2**30)
    p.add_argument("--out")
    p.set_defaults(func=cmd_prefix)

    p = sub.add_parser("apscan", help="A(d) rows over a difference range")
    _add_source_flags(p)
    _add_scan_flags(p)
    p.add_argument("--range", required=True, help="difference range a:b")
    p.add_argument("--csv", help="output path (default stdout)")
    p.set_defaults(func=cmd_apscan)

    p = sub.add_parser("verify", help="measure predicted difference families")
    _add_source_flags(p)
    _add_scan_flags(p)
    p.add_argument("--k-range", default="1:3", help="family parameter range a:b")
    p.add_argument("--families", help="comma-separated family names (default: all)")
    p.add_argument("--json", help="output path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("vdw", help="van der Waerden-type bound calculators")
    modes = p.add_subparsers(dest="mode", required=True)
    up = modes.add_parser("upper")
    up.add_argument("--c", type=int, required=True)
    up.add_argument("--L", type=int, required=True)
    up.add_argument("--M", type=int, required=True)
    up.add_argument("--R", type=int, default=None)
    up.add_argument("--exponent", type=int, default=None)
    up.add_argument("--json", help="output path (default stdout)")
    up.set_defaults(func=cmd_vdw)
    low = modes.add_parser("lower")
    low.add_argument("--c", type=int, required=True)
    low.add_argument("--L", type=int, required=True)
    low.add_argument("--m", type=int, required=True)
    low.add_argument("--json", help="output path (default stdout)")
    low.set_defaults(func=cmd_vdw)

    p = sub.add_parser("graph", help="graph of column image sets")
    _add_source_flags(p)
    p.add_argument("--dot", help="DOT output path")
    p.add_argument("--json", help="JSON output path (default stdout)")
    p.set_defaults(func=cmd_graph)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader stopped early; stdout goes to devnull so the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except (ParseError, SubstitutionError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
