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
_PACK_CHUNK = 2**20  # letters packed per step; a multiple of 8 keeps it byte-aligned
_BLOCK = 2**15  # mask words per block of a dense step: 256 KiB, so a block's operands stay in L2
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


@dataclass(frozen=True, eq=False)
class PackedWord:
    """The first n letters of a word as little-endian uint64 bit planes.

    Bit i of planes[b] is bit b of letter i. Letters below c take
    ceil(log2 c) planes, and at least one. Every plane ends in a zero guard
    word past the packed letters, so a shifted read of the word after the
    last one stays in bounds. PackedWord(w.planes, n) is a view of the first
    n letters of w: it shares the planes, whose bits from n on are the later
    letters, not zeros.
    """
    planes: np.ndarray
    n: int

    @classmethod
    def pack(cls, word) -> PackedWord:
        w = np.asarray(word)
        if w.ndim != 1:
            raise SubstitutionError("word must be one-dimensional")
        n = len(w)
        if n == 0:
            raise SubstitutionError("word must be non-empty")
        if w.dtype.kind not in "bui" or (w.dtype.kind == "i" and w.min() < 0):
            raise SubstitutionError("letters must be non-negative integers")
        bits = max(1, int(w.max()).bit_length())
        planes = np.zeros((bits, (n + 63) // 64 + 1), "<u8")
        as_bytes = planes.view(np.uint8)
        for a in range(0, n, _PACK_CHUNK):
            chunk = w[a:a + _PACK_CHUNK]
            for b in range(bits):  # with one plane, the letters are its bits
                bit = chunk if bits == 1 else chunk & w.dtype.type(1 << b)
                as_bytes[b, a // 8:(a + len(chunk) + 7) // 8] = np.packbits(bit, bitorder="little")
        return cls(planes, n)


def _shift_into(out: np.ndarray, src: np.ndarray, start: int, r: int,
                carry: np.ndarray) -> None:
    """out = the words of src from start on, shifted down by r < 64 bits.

    src must hold the word after the last one read. carry is scratch of at
    least len(out) words. Shift counts are uint64 scalars: with a Python int,
    NumPy 1.x may promote uint64 >> int to float64.
    """
    np.right_shift(src[start:start + len(out)], np.uint64(r), out=out)
    if r:
        c = carry[:len(out)]
        np.left_shift(src[start + 1:start + 1 + len(out)], np.uint64(64 - r), out=c)
        out |= c


def _first_mask(word: PackedWord, d: int, mask: np.ndarray, scratch: np.ndarray,
                carry: np.ndarray) -> int:
    """Write p_1 into mask block by block and count its non-zero words.

    Letters i and i + d are equal iff no plane differs there, so p_1 is
    ~OR_b(plane_b ^ (plane_b >> d)). Its bits from n - d on compare letters
    past the view, or the zeros past the word, and are cleared. The last word
    of mask is left as a zero guard word; scratch is a second buffer as long.
    """
    m, size = word.n - d, len(mask) - 1
    q, r = divmod(d, 64)
    alive = 0
    for a in range(0, size, _BLOCK):
        o = mask[a:min(a + _BLOCK, size)]
        for b, plane in enumerate(word.planes):
            x = scratch[:len(o)] if b else o
            _shift_into(x, plane, a + q, r, carry)
            x ^= plane[a:a + len(o)]
            if b:
                o |= x
        np.invert(o, out=o)
        if a + len(o) == size and m % 64:
            o[-1] &= np.uint64((1 << m % 64) - 1)
        alive += np.count_nonzero(o)
    mask[size] = 0
    return alive


def _dense_step(p: np.ndarray, spare: np.ndarray, carry: np.ndarray,
                shift: int) -> tuple[np.ndarray, int] | None:
    """p & (p >> shift) on a dense mask, written into spare block by block.

    The last word of p is a zero guard word. Returns the new mask, a view of
    spare with a guard word of its own, and its number of non-zero words; None
    if the shift is past the end of p.
    """
    q, r = divmod(shift, 64)
    m = len(p) - 1 - q
    if m <= 0:
        return None
    out = spare[:m + 1]
    alive = 0
    for a in range(0, m, _BLOCK):
        o = out[a:min(a + _BLOCK, m)]
        _shift_into(o, p, a + q, r, carry)
        o &= p[a:a + len(o)]
        alive += np.count_nonzero(o)
    out[m] = 0
    return out, alive


def _sparse_step(p: np.ndarray, idx: np.ndarray,
                 shift: int) -> tuple[np.ndarray, np.ndarray] | None:
    """p & (p >> shift) in place on p, whose only non-zero words are at the sorted idx.

    Words past the end of p read as zero. Only the listed words are read; the
    survivors are written back into p. Returns (p, the indices of its non-zero
    words), or None if no bit is left, which leaves p as it was.
    """
    q, r = divmod(shift, 64)
    if q >= len(p):
        return None
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


def _gallop_state(p: np.ndarray, alive: int, spare: np.ndarray):
    """(p, idx, spare) for a dense mask p with its guard word and `alive` non-zero words.

    Once fewer than 1/_SPARSE_SHARE of the words are non-zero, p loses its
    guard word, idx lists the non-zero words and the spare buffer is let go.
    Until then idx is None.
    """
    if alive * _SPARSE_SHARE < len(p) - 1:
        return p[:-1], np.flatnonzero(p[:-1]), None
    return p, None, spare


def _and_shifted(state, shift: int, carry: np.ndarray):
    """The gallop state after p & (p >> shift), or None if no bit is left."""
    p, idx, spare = state
    if idx is not None:
        longer = _sparse_step(p, idx, shift)
        return None if longer is None else (*longer, None)
    longer = _dense_step(p, spare, carry, shift)
    if longer is None or not longer[1]:
        return None
    return _gallop_state(*longer, p)


def max_ap_in_prefix(word, d: int) -> APResult:
    """Exact maximum progression inside a finite word, leftmost start on ties.

    word is an array of non-negative integer letters, packed into bit planes
    on entry, or a PackedWord. Bit i of the mask p_k is set iff
    w[i] == w[i+d] == ... == w[i+k*d]. Since p_{k+s} = p_k & (p_k >> s*d) for
    every s <= k, k gallops up by doubling and back down by halving to the
    largest k with a set bit; the lowest set bit of that mask is the leftmost
    start. A call takes O(log A(d)) steps whatever d is. p_1 is built from
    the planes, and while the mask is dense each step writes it block by
    block into the other of two buffers allocated once per call. Once fewer
    than 1/16 of its words are non-zero, their indices are listed and every
    later step reads only those words, updating the mask in place.
    """
    if d < 1:
        raise SubstitutionError("difference must be >= 1")
    packed = word if isinstance(word, PackedWord) else PackedWord.pack(word)
    n = packed.n
    if d >= n:
        return APResult(d, 1, 0, n, LOWER)
    size = (n - d + 63) // 64
    mask, spare = np.empty(size + 1, "<u8"), np.empty(size + 1, "<u8")
    carry = np.empty(min(size, _BLOCK), "<u8")
    alive = _first_mask(packed, d, mask, spare, carry)
    if not alive:
        return APResult(d, 1, 0, n, LOWER)
    state = _gallop_state(mask, alive, spare)
    del packed, mask, spare  # a name left bound would keep its array alive through the gallop
    k = 1
    while (longer := _and_shifted(state, k * d, carry)) is not None:
        state, k = longer, 2 * k
    step = k // 2
    while step:
        if (longer := _and_shifted(state, step * d, carry)) is not None:
            state, k = longer, k + step
        step //= 2
    p, idx, _ = state
    i = int(idx[0]) if idx is not None else int((p != 0).argmax())
    low = int(p[i])
    return APResult(d, k + 1, 64 * i + (low & -low).bit_length() - 1, n, LOWER)


class PrefixSource:
    """Grow-once cache of a (coded) fixed-point prefix, packed into bit planes.

    The prefix is packed once per growth and its letters are not kept. get(n)
    returns a PackedWord view of the first n letters that shares the cached
    planes, so every d scanned on the same prefix reuses one packing.
    """

    def __init__(self, fp: FixedPointSpec, coding: Coding | None = None):
        self.fp = fp
        self.coding = coding
        self._word: PackedWord | None = None

    def get(self, n: int) -> PackedWord:
        if n < 1:
            raise SubstitutionError("prefix length must be >= 1")
        if self._word is None or self._word.n < n:
            self._word = None  # let the shorter planes go before the longer prefix is built
            self._word = PackedWord.pack(prefix(self.fp, n, self.coding))
        return PackedWord(self._word.planes, n)


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
