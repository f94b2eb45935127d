"""Maximum monochromatic arithmetic progressions at fixed difference.

Scans prefixes of (coded) substitution fixed points, certifies exactness when
a recurrence-complete window covers a theoretical upper bound, and generates
the predicted difference families together with their verification harness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import ResourceCapError, SubstitutionError
from .groups import PalindromicityReport, generate_group, identity_perm, palindromicity
from .spin import SpinSystem, hadamard4, rudin_shapiro, vandermonde
from .stream import Coding, FixedPointSpec, prefix
from .substitution import (
    Substitution,
    column,
    min_pair_cover_power,
    recurrence_formula,
    star_defect,
)
from .vdw import min_prime_power

EXACT = "ExactUnderBound"
LOWER = "LowerBoundOnly"
_PACK_CHUNK = 2**20  # letters compared per packing step; a multiple of 8 keeps it byte-aligned
_SPARSE_SHARE = 16  # the gallop lists the non-zero mask words once under 1/16 of them are left


@dataclass(frozen=True)
class APResult:
    d: int
    best_len: int
    best_start: int
    prefix_len: int
    status: str


@dataclass(frozen=True)
class ScanPolicy:
    initial_prefix: int = 2**20
    prefix_cap: int = 2**26
    r_override: int | None = None

    def __post_init__(self):
        # R < 1 would make every window "recurrence-complete" and certify anything
        if self.initial_prefix < 1 or self.prefix_cap < 1:
            raise SubstitutionError("initial prefix and prefix cap must be >= 1")
        if self.r_override is not None and self.r_override < 1:
            raise SubstitutionError("recurrence constant must be >= 1")


def _survivors(p: np.ndarray) -> tuple[np.ndarray, np.ndarray | None] | None:
    """(p, idx) for a mask p of uint64 words, or None if no bit is set.

    idx lists the non-zero words once fewer than 1/_SPARSE_SHARE of them are
    left, and is None while the mask is still dense.
    """
    alive = np.count_nonzero(p)
    if not alive:
        return None
    return p, (np.flatnonzero(p) if alive * _SPARSE_SHARE < len(p) else None)


def _and_shifted(p: np.ndarray, idx: np.ndarray | None,
                 shift: int) -> tuple[np.ndarray, np.ndarray | None] | None:
    """p & (p >> shift) on little-endian uint64 words, as the next (p, idx).

    Words past the end of p read as zero; None means no bit is left. A dense
    step (idx is None) returns a new mask of len(p) - shift // 64 words. A
    sparse step reads only the words at the sorted indices idx, the only
    non-zero words of p, and writes the survivors back into p in place. Shift
    counts are uint64 scalars: with a Python int, NumPy 1.x may promote
    uint64 >> int to float64.
    """
    q, r = divmod(shift, 64)
    if q >= len(p):
        return None
    if idx is None:
        out = p[q:] >> np.uint64(r)
        if r:
            out[:-1] |= p[q + 1:] << np.uint64(64 - r)
        out &= p[:len(out)]
        return _survivors(out)
    keep = idx[:np.searchsorted(idx, len(p) - q)]
    j = keep + q
    out = p[j] >> np.uint64(r)
    if r:
        c = np.searchsorted(keep, len(p) - q - 1)  # from c on, word j + 1 is past the end
        out[:c] |= p[j[:c] + 1] << np.uint64(64 - r)
    out &= p[keep]
    alive = out != 0
    if not alive.any():
        return None
    p[idx] = 0
    keep = keep[alive]
    p[keep] = out[alive]
    return p, keep


def max_ap_in_prefix(word, d: int) -> APResult:
    """Exact maximum progression inside a finite word, leftmost start on ties.

    Bit i of the mask p_k is set iff w[i] == w[i+d] == ... == w[i+k*d]. Since
    p_{k+s} = p_k & (p_k >> s*d) for every s <= k, k gallops up by doubling
    and back down by halving to the largest k with a set bit; the lowest set
    bit of that mask is the leftmost start. The mask is packed from the
    comparisons in fixed-size chunks straight into an array of little-endian
    uint64 words. A call takes O(log A(d)) steps whatever d is. While the
    mask is dense a step reads about n/8 bytes; once fewer than 1/16 of its
    words are non-zero, their indices are listed and every later step reads
    only those words, updating the mask in place, so no second mask-sized
    array is ever needed for the sparse tail.
    """
    if d < 1:
        raise SubstitutionError("difference must be >= 1")
    w = np.asarray(word)
    if w.ndim != 1:
        raise SubstitutionError("word must be one-dimensional")
    n = len(w)
    if n == 0:
        raise SubstitutionError("word must be non-empty")
    if d >= n:
        return APResult(d, 1, 0, n, LOWER)
    m = n - d
    mask = np.zeros((m + 63) // 64, dtype="<u8")
    packed = mask.view(np.uint8)
    for a in range(0, m, _PACK_CHUNK):
        b = min(a + _PACK_CHUNK, m)
        packed[a // 8:(b + 7) // 8] = np.packbits(w[a:b] == w[a + d:b + d], bitorder="little")
    state = _survivors(mask)
    del packed, mask  # either name would keep the first mask alive once the gallop replaces it
    if state is None:
        return APResult(d, 1, 0, n, LOWER)
    k = 1
    while (longer := _and_shifted(*state, k * d)) is not None:
        state, k = longer, 2 * k
    step = k // 2
    while step:
        if (longer := _and_shifted(*state, step * d)) is not None:
            state, k = longer, k + step
        step //= 2
    mask, idx = state
    i = int(idx[0]) if idx is not None else int((mask != 0).argmax())
    low = int(mask[i])
    return APResult(d, k + 1, 64 * i + (low & -low).bit_length() - 1, n, LOWER)


class PrefixSource:
    """Grow-once cache of a (coded) fixed-point prefix shared across scans."""

    def __init__(self, fp: FixedPointSpec, coding: Coding | None = None):
        self.fp = fp
        self.coding = coding
        self._arr: np.ndarray | None = None

    def get(self, n: int) -> np.ndarray:
        if self._arr is None or len(self._arr) < n:
            self._arr = prefix(self.fp, n, self.coding)
        return self._arr[:n]


@lru_cache(maxsize=None)
def _certification_basis(sub: Substitution) -> tuple[bool, int | None]:
    """Whether the upper-bound route applies to this substitution, plus its N."""
    if star_defect(sub) is not None or not generate_group(sub).abelian:
        return False, None
    return True, min_pair_cover_power(sub)


def upper_bound(sub: Substitution, d: int) -> int | None:
    """Smallest applicable theoretical bound on the progression length at d.

    Route one uses the minimal window exponent M with d <= L**M when the gcd
    of d with L**M is already stable at L**(N+M). Route two moves M up until
    the smallest maximal prime-power factor of L outgrows d, which forces the
    same stability. None when the substitution is outside the bijective
    Abelian setting.
    """
    if d < 1:
        raise SubstitutionError("difference must be >= 1")
    ok, N = _certification_basis(sub)
    if not ok:
        return None
    L = sub.length
    candidates = []

    M = 1
    while L**M < d:
        M += 1
    ell = gcd(d, L**M)
    if gcd(d, L ** (N + M)) == ell:
        candidates.append(L ** (N + M) // ell)

    q, _, _ = min_prime_power(L)
    M2 = 1
    while q**M2 <= d:
        M2 += 1
    ell2 = gcd(d, L**M2)
    if gcd(d, L ** (N + M2)) != ell2:
        raise SubstitutionError("prime-power window failed to stabilize the gcd")
    candidates.append(L ** (N + M2) // ell2)
    return min(candidates)


def _certified_window(sub: Substitution, coding: Coding | None, d: int,
                      r_override: int | None) -> int | None:
    """Prefix length that makes a scan at difference d provably exhaustive."""
    if coding is not None and not coding.is_injective:
        return None
    bound = upper_bound(sub, d)
    if bound is None:
        return None
    R = r_override if r_override is not None else recurrence_formula(sub.size, sub.length)[0]
    return (R + 1) * (d * bound + 1)


def a_of_d(fp: FixedPointSpec, coding: Coding | None, d: int,
           policy: ScanPolicy = ScanPolicy(), *, hint_lower: int | None = None,
           source: PrefixSource | None = None) -> APResult:
    """Scan a growing prefix until the best length is stable across a doubling.

    The window doubles from its start until it reaches the cap or the best
    length in the window equals the best length in its first half, the
    previous window. Only the larger window is scanned: the two lengths are
    equal exactly when a longest progression of the larger window lies in the
    first half, and then the leftmost one does too, since it ends first. So
    the scan stops once the leftmost witness ends before the previous window
    does.

    Status is ExactUnderBound only when the substitution admits an upper bound
    and the final window is recurrence-complete for it; plateaus alone never
    certify anything.
    """
    if d < 1:
        raise SubstitutionError("difference must be >= 1")
    if 2 * d + 1 > policy.prefix_cap:
        raise ResourceCapError(
            f"difference {d} does not fit two terms inside the cap {policy.prefix_cap}"
        )
    src = source if source is not None else PrefixSource(fp, coding)
    target = None
    if fp.power == 1:
        target = _certified_window(fp.sub, coding, d, policy.r_override)
    window = policy.initial_prefix
    if hint_lower:
        window = max(window, 64 * d * hint_lower)
    if target is not None and target <= policy.prefix_cap:
        window = max(window, target)
    window = min(window, policy.prefix_cap)
    while True:
        head, window = window, min(2 * window, policy.prefix_cap)
        best = max_ap_in_prefix(src.get(window), d)
        if window == policy.prefix_cap or best.best_start + (best.best_len - 1) * d < head:
            break
    if target is not None and best.prefix_len >= target:
        best = replace(best, status=EXACT)
    return best


@dataclass(frozen=True)
class DifferenceFamily:
    name: str
    params: tuple
    d: int
    predicted_lower: int
    predicted_upper: int | None
    source: str

    def __post_init__(self):
        if self.d < 1 or self.predicted_lower < 1:
            raise SubstitutionError("family members need d >= 1 and a positive bound")
        if self.predicted_upper is not None and self.predicted_upper < self.predicted_lower:
            raise SubstitutionError("upper bound below lower bound")


def is_cyclic_shift_substitution(sub: Substitution) -> bool:
    """Columns are exactly the shifts a -> a + i on a same-size alphabet."""
    L, c = sub.length, sub.size
    if L != c:
        return False
    return all(sub.rules[a][i] == (a + i) % L for a in range(c) for i in range(L))


def _sub_families(sub: Substitution, ks, names) -> list[DifferenceFamily]:
    group = generate_group(sub)
    if column(sub, 0).image != identity_perm(sub.size):
        raise SubstitutionError("difference families need the zeroth column to be the identity")
    L = sub.length
    e = group.exponent
    pal = palindromicity(sub)
    cyclic_tm = is_cyclic_shift_substitution(sub)

    available = {"identity"}
    if cyclic_tm:
        available.add("tm")
    elif pal.g_witness is not None and group.abelian:
        available.add("palindrome")
    wanted = set(names) if names else available
    for name in wanted - available:
        raise SubstitutionError(f"family {name!r} not applicable to this substitution")

    out = []
    for k in ks:
        if k < 1:
            raise SubstitutionError("family parameters must be >= 1")
        if "identity" in wanted:
            d = (L ** (k * e) - 1) // (L**k - 1)
            out.append(DifferenceFamily(
                "identity", (k,), d, L**k, upper_bound(sub, d), "identity-columns"))
        if "tm" in wanted:
            d = L**k - 1
            lower = L**k + (2 * L if k % L == 0 else 0)
            out.append(DifferenceFamily("tm", (k,), d, lower, upper_bound(sub, d),
                                        "cyclic-shift-refinement"))
        if "palindrome" in wanted:
            out.append(_palindrome_member(sub, k, 2, pal))
    return out


def palindromic_member(sub: Substitution, n: int, ell: int) -> DifferenceFamily:
    """General mirror-column member with an even window exponent."""
    if ell < 2 or ell % 2:
        raise SubstitutionError("window exponent must be even and >= 2")
    group = generate_group(sub)
    pal = palindromicity(sub)
    if pal.g_witness is None or not group.abelian:
        raise SubstitutionError("family 'palindrome' not applicable to this substitution")
    return _palindrome_member(sub, n, ell, pal)


def _palindrome_member(sub: Substitution, n: int, ell: int,
                       pal: PalindromicityReport) -> DifferenceFamily:
    L = sub.length
    d = (L ** (n * ell) - 1) // (L**n + 1)
    lower = L**n + (2 if pal.inverse_palindromic else 0)
    return DifferenceFamily("palindrome", (n, ell), d, lower, upper_bound(sub, d),
                            "mirror-columns")


def _spin_families(sys: SpinSystem, ks, names) -> list[DifferenceFamily]:
    L = sys.digits
    kinds: dict[str, tuple] = {}
    if sys == rudin_shapiro():
        kinds["plus"] = ("spin-matrix", lambda n: (2**n + 1, 2 ** (n - 1) + 2, None))
        kinds["minus"] = ("spin-matrix", lambda n: (
            2**n - 1, 2 ** (n - 1) + (1 if n % 2 == 0 else 3), None))
        kinds["pow"] = ("digit-scaling", lambda n: (2**n, 4, 4))
    elif sys == hadamard4():
        kinds["plus"] = ("spin-matrix", lambda n: (4**n + 1, 4 ** (n - 1) + 2, None))
        kinds["minus"] = ("spin-matrix", lambda n: (4**n - 1, 4 ** (n - 1) + 3, None))
        kinds["pow"] = ("digit-scaling", lambda n: (4**n, 6, 6))
    elif sys == vandermonde(L):
        kinds["vandermonde"] = ("spin-matrix", lambda n: (
            (L ** (n * L) - 1) // (L**n - 1), L ** (n - 1) + 1, None))
        kinds["pow"] = ("digit-scaling", lambda n: (L**n, L + 2, L + 2))
    else:
        raise SubstitutionError("no predicted families for this spin matrix")

    wanted = set(names) if names else set(kinds)
    for name in wanted - set(kinds):
        raise SubstitutionError(f"family {name!r} not applicable to this spin system")
    out = []
    for k in ks:
        if k < 1:
            raise SubstitutionError("family parameters must be >= 1")
        for name in sorted(wanted):
            source, gen = kinds[name]
            d, lower, upper = gen(k)
            out.append(DifferenceFamily(name, (k,), d, lower, upper, source))
    return out


def difference_families(target, ks, names=None) -> list[DifferenceFamily]:
    """Predicted difference family members for a substitution or spin system."""
    ks = list(ks)
    if not ks:
        raise SubstitutionError("empty parameter range")
    if isinstance(target, Substitution):
        return _sub_families(target, ks, names)
    if isinstance(target, SpinSystem):
        return _spin_families(target, ks, names)
    raise SubstitutionError(f"unsupported analysis target {type(target).__name__}")


@dataclass(frozen=True)
class BoundReport:
    family: DifferenceFamily
    measured: APResult | None
    verdict: str  # PASS | FAIL | PREDICTED-ONLY | ERROR

    def to_json(self) -> dict:
        return {
            "family": self.family.name,
            "params": list(self.family.params),
            "d": str(self.family.d),
            "predicted_lower": str(self.family.predicted_lower),
            "predicted_upper": None if self.family.predicted_upper is None
            else str(self.family.predicted_upper),
            "measured": None if self.measured is None else self.measured.best_len,
            "status": None if self.measured is None else self.measured.status,
            "verdict": self.verdict,
        }


def verify_family(fp: FixedPointSpec, coding: Coding | None,
                  members, policy: ScanPolicy = ScanPolicy()) -> list[BoundReport]:
    """Measure each member and compare against its predictions.

    Members whose smallest conceivable witness does not fit the prefix cap are
    reported as predictions without measurement; per-member scan errors are
    recorded without aborting the batch.
    """
    src = PrefixSource(fp, coding)
    reports = []
    for member in members:
        if member.d * max(member.predicted_lower, 2) + 1 > policy.prefix_cap:
            reports.append(BoundReport(member, None, "PREDICTED-ONLY"))
            continue
        try:
            measured = a_of_d(fp, coding, member.d, policy,
                              hint_lower=member.predicted_lower, source=src)
        except ResourceCapError:
            reports.append(BoundReport(member, None, "ERROR"))
            continue
        ok = measured.best_len >= member.predicted_lower
        if measured.status == EXACT and member.predicted_upper is not None:
            ok = ok and measured.best_len <= member.predicted_upper
        reports.append(BoundReport(member, measured, "PASS" if ok else "FAIL"))
    return reports


def scan(fp: FixedPointSpec, coding: Coding | None, d_from: int, d_to: int,
         policy: ScanPolicy = ScanPolicy()) -> list[APResult]:
    """A(d) rows for a difference range, deterministic and increasing in d."""
    if not 1 <= d_from <= d_to:
        raise SubstitutionError("need 1 <= d_from <= d_to")
    src = PrefixSource(fp, coding)
    rows = []
    for d in range(d_from, d_to + 1):
        try:
            rows.append(a_of_d(fp, coding, d, policy, source=src))
        except ResourceCapError as exc:
            rows.append(APResult(d, 0, 0, 0, f"Error:{exc}"))
    return rows
