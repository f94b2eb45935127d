"""Maximum monochromatic arithmetic progressions at fixed difference.

Decides A(d) on (coded) substitution fixed points from the windows of their
2-words, and generates the predicted difference families
together with their verification harness.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .errors import ResourceCapError, SubstitutionError
from .groups import (
    PalindromicityReport,
    commute,
    generate_group,
    identity_difference,
    identity_perm,
    palindromicity,
)
from .spin import SpinSystem, hadamard4, rudin_shapiro, vandermonde
from .stream import (PREFIX_CAP, Coding, FixedPointSpec, WindowIndex, _level, ceil_log,
                     check_prefix, factor)
from .substitution import (
    Substitution,
    column,
    columns,
    min_pair_cover_power,
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
        # initial_prefix and r_override are still validated but no longer read:
        # a_of_d reads level windows, and the 2-word cover needs no R
        if self.initial_prefix < 1 or self.prefix_cap < 1:
            raise SubstitutionError("initial prefix and prefix cap must be >= 1")
        if self.r_override is not None and self.r_override < 1:
            raise SubstitutionError("recurrence constant must be >= 1")


@dataclass(frozen=True, eq=False)
class PackedWord:
    """Disjoint factors of a word, in order, as little-endian uint64 bit planes.

    Bit i of planes[b] is bit b of letter i. Letters below c take
    ceil(log2 c) planes, and at least one. Each factor is packed from a
    multiple of 64: spans lists (a, b, origin) per factor, and letters [a, b)
    of the planes are the letters [origin, origin + b - a) of the word. n is
    the end of the last factor. The bits between factors and from n on are
    zeros, and every plane ends in a zero guard word, so a shifted read of the
    word after the last one stays in bounds. A prefix is the one factor [0, n).

    The word also keeps the kernel's buffers, allocated on the first call and
    reused by every later d: the mask, one word per plane word, and two
    blocks of scratch. So two kernel calls on one word must not run at once.
    """
    planes: np.ndarray
    n: int
    spans: tuple

    @cached_property
    def _buffers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        width = self.planes.shape[1]
        return np.empty(width, "<u8"), *np.empty((2, min(width, _BLOCK)), "<u8")

    @classmethod
    def pack(cls, word) -> PackedWord:
        """The letters of word as the one factor [0, len(word))."""
        w = np.asarray(word)
        if w.ndim != 1:
            raise SubstitutionError("word must be one-dimensional")
        if len(w) == 0:
            raise SubstitutionError("word must be non-empty")
        if w.dtype.kind not in "bui" or (w.dtype.kind == "i" and w.min() < 0):
            raise SubstitutionError("letters must be non-negative integers")
        return cls.pack_factors(((0, len(w)),), max(1, int(w.max()).bit_length()),
                                lambda a, b: w[a:b])

    @classmethod
    def pack_factors(cls, factors, planes: int, letters) -> PackedWord:
        """Pack letters(start, stop) of each factor [start, stop) of the word into
        the given number of bit planes."""
        spans, a = [], 0
        for start, stop in factors:
            spans.append((a, a + stop - start, start))
            a += -(-(stop - start) // 64) * 64
        packed = np.zeros((planes, a // 64 + 1), "<u8")
        for a, b, start in spans:
            _pack_into(packed, a, b, lambda i, j, shift=start - a: letters(i + shift, j + shift))
        return cls(packed, spans[-1][1], tuple(spans))


def _pack_into(planes: np.ndarray, start: int, stop: int, letters) -> None:
    """Pack letters(a, b) into planes for each _PACK_CHUNK-letter span [a, b) of [start, stop).

    start is a multiple of 8, so every chunk starts on a byte of the planes.
    """
    as_bytes = planes.view(np.uint8)
    for a in range(start, stop, _PACK_CHUNK):
        chunk = letters(a, min(a + _PACK_CHUNK, stop))
        for b in range(len(planes)):  # with one plane, the letters are its bits
            bit = chunk if len(planes) == 1 else chunk & chunk.dtype.type(1 << b)
            as_bytes[b, a // 8:(a + len(chunk) + 7) // 8] = np.packbits(bit, bitorder="little")


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
    with the zeros past the last factor, and are cleared. The last word
    of mask is left as a zero guard word; scratch and carry hold a block each.
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


def _dense_step(p: np.ndarray, scratch: np.ndarray, carry: np.ndarray,
                shift: int) -> tuple[np.ndarray, int] | None:
    """p & (p >> shift) in place on a dense mask p, block by block upwards.

    The last word of p is a zero guard word; scratch and carry hold a block
    each. Each block reads its shifted words into scratch before it writes
    itself, so every read sees the old mask. Blocks that come out zero are
    written only once a later block comes out non-zero. Returns the new mask,
    a shorter view of p with a guard word of its own, and its number of
    non-zero words; None if no bit is left, which leaves p as it was.
    """
    q, r = divmod(shift, 64)
    m = len(p) - 1 - q
    if m <= 0:
        return None
    alive = 0
    for a in range(0, m, _BLOCK):
        o = p[a:min(a + _BLOCK, m)]
        s = scratch[:len(o)]
        _shift_into(s, p, a + q, r, carry)
        if alive:
            o &= s
            alive += np.count_nonzero(o)
        else:
            s &= o
            if alive := np.count_nonzero(s):
                p[:a] = 0  # the zero blocks below, deferred until now
                o[:] = s
    if not alive:
        return None
    p[m] = 0
    return p[:m + 1], alive


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


def _gallop_state(p: np.ndarray, alive: int):
    """(p, idx) for a dense mask p with its guard word and `alive` non-zero words.

    Once fewer than 1/_SPARSE_SHARE of the words are non-zero, p loses its
    guard word and idx lists the non-zero words. Until then idx is None.
    """
    if alive * _SPARSE_SHARE < len(p) - 1:
        return p[:-1], np.flatnonzero(p[:-1])
    return p, None


def _and_shifted(state, shift: int, scratch: np.ndarray, carry: np.ndarray):
    """The gallop state after p & (p >> shift), or None if no bit is left."""
    p, idx = state
    if idx is not None:
        return _sparse_step(p, idx, shift)
    longer = _dense_step(p, scratch, carry, shift)
    return None if longer is None else _gallop_state(*longer)


def max_ap_in_prefix(word, d: int) -> APResult:
    """Exact maximum progression inside a finite word, leftmost start on ties.

    word is an array of non-negative integer letters, packed into bit planes
    on entry, or a PackedWord. Bit i of the mask p_k is set iff
    w[i] == w[i+d] == ... == w[i+k*d]. Since p_{k+s} = p_k & (p_k >> s*d) for
    every s <= k, k gallops up by doubling and back down by halving to the
    largest k with a set bit; the lowest set bit of that mask is the leftmost
    start. A call takes O(log A(d)) steps whatever d is. p_1 is built from
    the planes into the word's mask buffer, and while the mask is dense each
    step rewrites it in place, block by block. Once fewer than 1/16 of its
    words are non-zero, their indices are listed and every later step reads
    only those words. Calls on one PackedWord share its buffers, so they
    must not run at once.

    With two or more factors, the bits of p_1 where i and i + d are not in
    one factor are cleared, so every progression lies inside one factor. The
    factors are in order, so the lowest set bit, moved by its factor's
    origin, is the least start in the word; with no two-term progression,
    that is the first factor's origin.
    """
    if d < 1:
        raise SubstitutionError("difference must be >= 1")
    packed = word if isinstance(word, PackedWord) else PackedWord.pack(word)
    n, spans = packed.n, packed.spans
    if d >= n:
        return APResult(d, 1, spans[0][2], n, LOWER)
    size = (n - d + 63) // 64
    mask, scratch, carry = packed._buffers
    mask = mask[:size + 1]
    alive = _first_mask(packed, d, mask, scratch, carry)
    if len(spans) > 1:  # clear bits b - d .. a - 1 between factors; a is a multiple of 64
        for (_, b, _), (a, _, _) in zip(spans, spans[1:]):
            w, r = divmod(max(b - d, 0), 64)
            mask[w] &= np.uint64((1 << r) - 1)
            mask[w + 1:min(a // 64, size)] = 0
        alive = np.count_nonzero(mask[:size])
    if not alive:
        return APResult(d, 1, spans[0][2], n, LOWER)
    state = _gallop_state(mask, alive)
    k = 1
    while (longer := _and_shifted(state, k * d, scratch, carry)) is not None:
        state, k = longer, 2 * k
    step = k // 2
    while step:
        if (longer := _and_shifted(state, step * d, scratch, carry)) is not None:
            state, k = longer, k + step
        step //= 2
    p, idx = state
    i = int(idx[0]) if idx is not None else int((p != 0).argmax())
    low = int(p[i])
    start = 64 * i + (low & -low).bit_length() - 1
    a, _, origin = spans[bisect_right(spans, start, key=lambda s: s[0]) - 1]  # its factor
    return APResult(d, k + 1, start + origin - a, n, LOWER)


class PrefixSource(WindowIndex):
    """The window index of a (coded) fixed point x, with its packed factor sets.

    The planes are ceil(log2) of the alphabet size, and no letters are kept:
    each factor is packed chunk by chunk from factor. level(k) packs the
    kept windows of level k and get(n) the prefix [0, n), each once, so every
    d read from one set reuses its packing and its kernel buffers. get(n) lets
    every other set go, buffers included, before it packs a prefix it does not
    hold, so the levels never add to the peak of packing the prefix.
    """

    def __init__(self, fp: FixedPointSpec, coding: Coding | None = None):
        super().__init__(fp, coding)
        c = len(coding.names) if coding is not None else fp.sub.size
        self._planes = max(1, (c - 1).bit_length())
        self._packed = {}

    def get(self, n: int) -> PackedWord:
        """The first n letters, packed."""
        check_prefix(self.fp, n)
        if ((0, n),) not in self._packed:
            self._packed.clear()
        return self._pack(((0, n),))

    def level(self, k: int) -> PackedWord:
        """The merged level-k windows of the kept 2-words, packed. Windows of more than
        PREFIX_CAP letters are refused before any is packed."""
        if (n := self.letters(k)) > PREFIX_CAP:
            raise ResourceCapError(f"level-{k} windows of {n} letters exceed cap {PREFIX_CAP}")
        return self._pack(self.windows(k))

    def _pack(self, factors) -> PackedWord:
        if factors not in self._packed:
            self._packed[factors] = PackedWord.pack_factors(
                factors, self._planes, lambda a, b: factor(self.fp, a, b, self.coding))
        return self._packed[factors]


@lru_cache(maxsize=None)
def _bound_applies(sub: Substitution) -> bool:
    """Whether U(d) (upper_bound) applies: star_defect finds no defect and the columns
    commute, so the column group is Abelian. Neither the group nor N is built."""
    return star_defect(sub) is None and commute([col.image for col in columns(sub)])


@lru_cache(maxsize=None)
def _certification_basis(sub: Substitution) -> int | None:
    """N, the pair-cover power behind U(d), where U(d) applies; else None."""
    return min_pair_cover_power(sub) if _bound_applies(sub) else None


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
    if (N := _certification_basis(sub)) is None:
        return None
    L = sub.length
    candidates = []

    M = max(1, ceil_log(L, d))
    ell = gcd(d, L**M)
    if gcd(d, L ** (N + M)) == ell:
        candidates.append(L ** (N + M) // ell)

    q = min_prime_power(L)
    M2 = ceil_log(q, d + 1)
    ell2 = gcd(d, L**M2)
    if gcd(d, L ** (N + M2)) != ell2:
        raise SubstitutionError("prime-power window failed to stabilize the gcd")
    candidates.append(L ** (N + M2) // ell2)
    return min(candidates)


def _certified_window(src: PrefixSource, d: int, best_len: int) -> int:
    """cover·L**k0, the end of the kept windows of the least level k0 with L**k0 >= best_len·d:
    the prefix that holds the leftmost witness of A(d) = best_len and its proof."""
    return src.cover * src.fp.sub.length ** _level(src.fp, best_len * d)


def _exact_domain(fp: FixedPointSpec, coding: Coding | None) -> bool:
    """Where a row the windows decide is reported ExactUnderBound: power 1, no coding
    or an injective one, and a substitution with a bound U(d) (_bound_applies)."""
    return fp.power == 1 and (coding is None or coding.is_injective) and _bound_applies(fp.sub)


def a_of_d(fp: FixedPointSpec, coding: Coding | None, d: int,
           policy: ScanPolicy = ScanPolicy(), *, hint_lower: int | None = None,
           source: PrefixSource | None = None) -> APResult:
    """A(d), read from the level windows of x, leftmost start on ties.

    From the level of hint_lower·d, or of d, the kernel runs on the packed
    windows of level k, B = L**k, one per symmetry orbit of 2-words, and finds
    M terms. If M·d <= B, every progression of M + 1 terms in x would have one
    of as many terms in them (PrefixSource.kept), so A(d) = M, and the least
    start the kernel reports is the leftmost one in x, since those start no
    later than the progression they stand for. Otherwise k goes up to the
    level of M·d. prefix_len is _certified_window, whatever level the search
    started at.

    policy.prefix_cap is a budget on the letters of the kept windows
    (PrefixSource.letters): a level over it ends the search with the plain
    kernel on the first prefix_cap letters, a lower bound. A decided row is
    ExactUnderBound inside _exact_domain and LowerBoundOnly outside it. A
    source must have been built for the same fixed point and coding, since the
    windows and letters are taken from it. Callers reading many d should pass
    one: without it, each call builds a source and runs the symmetry search again.
    """
    if d < 1:
        raise SubstitutionError("difference must be >= 1")
    cap = policy.prefix_cap
    if 2 * d + 1 > cap:
        raise ResourceCapError(f"difference {d} does not fit two terms inside the cap {cap}")
    check_prefix(fp, cap)  # the fallback reads prefix_cap letters
    src = source or PrefixSource(fp, coding)
    if src.fp != fp or src.coding != coding:
        raise SubstitutionError("prefix source was built for another fixed point or coding")
    k = _level(fp, (hint_lower or 1) * d)
    while src.letters(k) <= cap:
        best = max_ap_in_prefix(src.level(k), d)
        if best.best_len * d <= fp.sub.length**k:
            return replace(best, prefix_len=_certified_window(src, d, best.best_len),
                           status=EXACT if _exact_domain(fp, coding) else LOWER)
        k = _level(fp, best.best_len * d)
    return max_ap_in_prefix(src.get(cap), d)


@dataclass(frozen=True)
class DifferenceFamily:
    name: str
    params: tuple
    d: int
    predicted_lower: int
    predicted_upper: int | None

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


def _sub_kinds(sub: Substitution) -> dict:
    """The families that apply to a substitution: name -> (k -> member)."""
    group = generate_group(sub)
    if column(sub, 0).image != identity_perm(sub.size):
        raise SubstitutionError("difference families need the zeroth column to be the identity")
    L = sub.length
    pal = palindromicity(sub)

    def identity(k):
        d = identity_difference(L, k, group.exponent)
        return DifferenceFamily("identity", (k,), d, L**k, upper_bound(sub, d))

    def tm(k):
        d = L**k - 1
        lower = L**k + (2 * L if k % L == 0 else 0)
        return DifferenceFamily("tm", (k,), d, lower, upper_bound(sub, d))

    kinds = {"identity": identity}
    if is_cyclic_shift_substitution(sub):
        kinds["tm"] = tm
    elif pal.g_witness is not None and group.abelian:
        kinds["palindrome"] = lambda k: _palindrome_member(sub, k, 2, pal)
    return kinds


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
    return DifferenceFamily("palindrome", (n, ell), d, lower, upper_bound(sub, d))


def _spin_kinds(sys: SpinSystem) -> dict:
    """The families predicted for a known spin system: name -> (k -> member)."""
    L = sys.digits
    if sys == rudin_shapiro():
        gens = {"plus": lambda n: (2**n + 1, 2 ** (n - 1) + 2, None),
                "minus": lambda n: (2**n - 1, 2 ** (n - 1) + (1 if n % 2 == 0 else 3), None),
                "pow": lambda n: (2**n, 4, 4)}
    elif sys == hadamard4():
        gens = {"plus": lambda n: (4**n + 1, 4 ** (n - 1) + 2, None),
                "minus": lambda n: (4**n - 1, 4 ** (n - 1) + 3, None),
                "pow": lambda n: (4**n, 6, 6)}
    elif L >= 2 and sys == vandermonde(L):
        gens = {"vandermonde": lambda n: (identity_difference(L, n, L), L ** (n - 1) + 1, None),
                "pow": lambda n: (L**n, L + 2, L + 2)}
    else:
        raise SubstitutionError("no predicted families for this spin matrix")
    return {name: lambda k, name=name, gen=gen: DifferenceFamily(name, (k,), *gen(k))
            for name, gen in gens.items()}


def difference_families(target, ks, names=None) -> list[DifferenceFamily]:
    """Predicted difference family members for a substitution or spin system.

    Members come k by k, and for each k in the sorted order of the names.
    """
    ks = list(ks)
    if not ks:
        raise SubstitutionError("empty parameter range")
    if isinstance(target, Substitution):
        kinds, what = _sub_kinds(target), "substitution"
    elif isinstance(target, SpinSystem):
        kinds, what = _spin_kinds(target), "spin system"
    else:
        raise SubstitutionError(f"unsupported analysis target {type(target).__name__}")
    wanted = sorted(set(names) if names else kinds)
    for name in wanted:
        if name not in kinds:
            raise SubstitutionError(f"family {name!r} not applicable to this {what}")
    out = []
    for k in ks:
        if k < 1:
            raise SubstitutionError("family parameters must be >= 1")
        out += [kinds[name](k) for name in wanted]
    return out


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
    hint = None  # start at the level of A(d - 1)·d, unless that row was over the budget
    for d in range(d_from, d_to + 1):
        try:
            rows.append(a_of_d(fp, coding, d, policy, hint_lower=hint, source=src))
            hint = rows[-1].best_len if rows[-1].prefix_len != policy.prefix_cap else None
        except ResourceCapError as exc:
            rows.append(APResult(d, 0, 0, 0, f"Error:{exc}"))
    return rows
