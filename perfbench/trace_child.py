"""Run one apword CLI command with a span recorded at each layer boundary.

    python3 perfbench/trace_child.py SPANS.json -- apscan --builtin rs ...

Callers look functions up under the name they imported: `progressions` calls
its own `prefix`, not `stream.prefix`. So each public entry point is replaced
under every `apword` module attribute that binds it, before `apword.cli.main`
runs. Spans (name, layer, parent, start, end and a few counts) are kept in
memory and written to SPANS.json when the command returns.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import apword.cli  # noqa: E402  (imports every layer below)

LAYERS = {
    "stream": ("apword.stream", ["prefix"]),
    "progressions.kernel": ("apword.progressions", ["max_ap_in_prefix"]),
    "progressions.schedule": ("apword.progressions", [
        "scan", "verify_family", "difference_families", "a_of_d", "upper_bound",
        "_certified_window", "_certification_basis"]),
    "substitution": ("apword.substitution", [
        "column", "columns", "is_bijective", "is_primitive", "min_pair_cover_power",
        "recurrence_formula", "recurrence_constants", "aperiodicity_certificate"]),
    "groups": ("apword.groups", ["generate_group", "palindromicity"]),
    "cli": ("apword.cli", ["main"]),
}

SPANS: list[dict] = []
_stack: list[int] = []
_generated: dict[tuple, int] = {}  # (fixed point, coding) -> longest prefix so far


def _prefix_counts(a, result) -> dict:
    key = (a["fp"], a["coding"])
    before = _generated.get(key, 0)
    _generated[key] = max(before, a["length"])
    return {"letters": a["length"], "regen": min(a["length"], before),
            "nbytes": int(result.nbytes)}


def _kernel_counts(a, result) -> dict:
    n, d = result.prefix_len, a["d"]
    return {"letters": n, "iters": d if d < n else 0}


def _verify_counts(a, result) -> dict:
    verdicts: dict[str, int] = {}
    for r in result:
        verdicts[r.verdict] = verdicts.get(r.verdict, 0) + 1
    return {"verdicts": verdicts, "measured": sum(r.measured is not None for r in result)}


COUNTS = {
    "prefix": _prefix_counts,
    "max_ap_in_prefix": _kernel_counts,
    "a_of_d": lambda a, result: {"exact": result.status == apword.progressions.EXACT},
    "verify_family": _verify_counts,
}


def _traced(layer: str, fn):
    counts = COUNTS.get(fn.__name__)
    signature = inspect.signature(fn) if counts else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = {"id": len(SPANS), "parent": _stack[-1] if _stack else None,
                "layer": layer, "name": fn.__name__}
        SPANS.append(span)
        _stack.append(span["id"])
        span["t0"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["t1"] = time.perf_counter()
            _stack.pop()
        if counts:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            span.update(counts(bound.arguments, result))
        return result

    return wrapper


def install():
    """Replace every binding of each traced function inside the apword package."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "apword" or name.startswith("apword."))]
    for layer, (module_name, names) in LAYERS.items():
        module = sys.modules[module_name]
        for name in names:
            original = getattr(module, name)
            wrapper = _traced(layer, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 1
    install()
    try:
        return apword.cli.main(sys.argv[3:])
    finally:
        with open(sys.argv[1], "w", encoding="utf-8") as fh:
            json.dump(SPANS, fh)


if __name__ == "__main__":
    sys.exit(main())
