import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import apword.progressions
import apword.stream
from apword import (
    PrefixSource,
    ResourceCapError,
    ScanPolicy,
    SubstitutionError,
    a_of_d,
    builtin_names,
    difference_families,
    get_builtin,
    max_ap_in_prefix,
    parse_substitution,
    prefix,
    recurrence_constants,
    scan,
    upper_bound,
    verify_family,
)
from apword.progressions import (
    _BLOCK,
    _PACK_CHUNK,
    EXACT,
    LOWER,
    PackedWord,
    _certification_basis,
    _certified_window,
    palindromic_member,
)
from ap_oracle import max_ap_oracle

SMALL = ScanPolicy(initial_prefix=2**16, prefix_cap=2**20)
BUILTINS = [n for n in builtin_names() if not n.endswith(":L")] + ["tm:2", "tm:3", "vandermonde:3"]


def max_ap_by_residues(word, d: int) -> tuple[int, int]:
    """Slow reference for words too large for the oracle: one strided run-length
    pass per residue class mod d, leftmost start on ties.
    """
    w = np.asarray(word)
    n = len(w)
    best_len, best_start = 1, 0
    if d >= n:
        return best_len, best_start
    eq = w[:-d] == w[d:]
    for r in range(min(d, n - d)):  # residues from n - d on hold no comparison
        a = eq[r::d]
        if not a.any():
            continue
        edges = np.flatnonzero(np.diff(np.concatenate(([False], a, [False]))))
        starts, ends = edges[0::2], edges[1::2]
        lengths = ends - starts
        i = int(lengths.argmax())
        cand_len = int(lengths[i]) + 1
        cand_start = r + d * int(starts[i])
        if cand_len > best_len or (cand_len == best_len and cand_start < best_start):
            best_len, best_start = cand_len, cand_start
    return best_len, best_start


def max_ap_dense(word, d: int) -> tuple[int, int]:
    """Reference for the sparse tail: the same doubling-and-halving gallop with
    every step over the whole mask of little-endian uint64 words.
    """
    w = np.asarray(word)
    n = len(w)
    if d >= n:
        return 1, 0
    packed = np.packbits(w[:-d] == w[d:], bitorder="little")
    mask = np.concatenate([packed, np.zeros(-len(packed) % 8, np.uint8)]).view("<u8")

    def and_shifted(p, shift):
        q, r = divmod(shift, 64)
        if q >= len(p):
            return None
        out = p[q:] >> np.uint64(r)
        if r:
            out[:-1] |= p[q + 1:] << np.uint64(64 - r)
        out &= p[:len(out)]
        return out if out.any() else None

    if not mask.any():
        return 1, 0
    k = 1
    while (longer := and_shifted(mask, k * d)) is not None:
        mask, k = longer, 2 * k
    step = k // 2
    while step:
        if (longer := and_shifted(mask, step * d)) is not None:
            mask, k = longer, k + step
        step //= 2
    i = int((mask != 0).argmax())
    low = int(mask[i])
    return k + 1, 64 * i + (low & -low).bit_length() - 1


def a_of_d_by_rescan(fp, coding, d, policy=ScanPolicy(), *, hint_lower=None, source=None):
    """Reference window schedule: scans both windows of every doubling and
    stops when their best lengths agree.
    """
    src = source if source is not None else PrefixSource(fp, coding)
    target = _certified_window(fp.sub, coding, d, policy.r_override) if fp.power == 1 else None
    window = policy.initial_prefix
    if hint_lower:
        window = max(window, 64 * d * hint_lower)
    if target is not None and target <= policy.prefix_cap:
        window = max(window, target)
    window = min(window, policy.prefix_cap)
    best = max_ap_in_prefix(src.get(window), d)
    while window < policy.prefix_cap:
        window = min(2 * window, policy.prefix_cap)
        nxt = max_ap_in_prefix(src.get(window), d)
        stable = nxt.best_len == best.best_len
        best = nxt
        if stable:
            break
    if target is not None and best.prefix_len >= target:
        best = replace(best, status=EXACT)
    return best


def _kernel(word, d):
    res = max_ap_in_prefix(word, d)
    assert (res.d, res.prefix_len, res.status) == (d, len(word), LOWER)
    return res.best_len, res.best_start


def test_max_ap_constant_word():
    res = max_ap_in_prefix(np.zeros(10, dtype=np.uint8), 3)
    assert (res.best_len, res.best_start) == (4, 0)  # 0,3,6,9


def test_max_ap_degenerate():
    res = max_ap_in_prefix(np.array([1, 2, 3], dtype=np.uint8), 5)
    assert res.best_len == 1 and res.best_start == 0
    with pytest.raises(SubstitutionError):
        max_ap_in_prefix(np.array([], dtype=np.uint8), 1)


@pytest.mark.parametrize("word", [np.zeros((4, 5)), np.uint8(3)])
def test_max_ap_rejects_word_that_is_not_one_dimensional(word):
    with pytest.raises(SubstitutionError, match="one-dimensional"):
        max_ap_in_prefix(word, 1)


def test_max_ap_leftmost_tie_break():
    word = np.array([0, 1, 0, 1, 0, 9, 8, 9, 8, 9], dtype=np.uint8)
    res = max_ap_in_prefix(word, 2)
    assert (res.best_len, res.best_start) == (3, 0)


@pytest.mark.parametrize("name", ["tm:2", "rs"])
def test_max_ap_matches_oracle(name):
    b = get_builtin(name)
    coding = b.coding("spin") if b.spin else None
    w = prefix(b.fixed_point(), 2**13, coding)
    listed = list(w)
    for d in range(1, 40):
        res = max_ap_in_prefix(w, d)
        assert (res.best_len, res.best_start) == max_ap_oracle(listed, d)


@st.composite
def words_and_differences(draw):
    n = draw(st.integers(1, 300))
    letters = st.integers(0, draw(st.integers(1, 4)) - 1)
    kind = draw(st.sampled_from(["random", "constant", "periodic", "repeated"]))
    if kind == "random":
        word = draw(st.lists(letters, min_size=n, max_size=n))
    elif kind == "constant":
        word = [draw(letters)] * n
    elif kind == "periodic":
        word = (draw(st.lists(letters, min_size=1, max_size=8)) * n)[:n]
    else:
        times = draw(st.integers(2, 6))
        word = [a for a in draw(st.lists(letters, min_size=1, max_size=n))
                for _ in range(times)][:n]
    return word, draw(st.integers(1, len(word) + 2))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=words_and_differences())
@example(case=([9, 0, 8, 5, 0, 6, 5, 7, 4], 3))  # residues 0 and 1 tie; 1 starts first
def test_kernel_matches_oracle_property(case):
    word, d = case
    assert _kernel(np.array(word, dtype=np.uint8), d) == max_ap_oracle(word, d)


def test_kernel_matches_oracle_at_every_length_mod_8():
    # every n - d residue mod 8, on words whose best runs tie across residues
    rng = np.random.default_rng(8)
    for n in range(1, 42):
        words = [np.zeros(n, np.uint8), np.arange(n, dtype=np.uint8) % 3,
                 np.repeat(np.arange(n, dtype=np.uint8) % 2, 3)[:n],
                 rng.integers(0, 2, n).astype(np.uint8)]
        for w in words:
            listed = list(w)
            for d in range(1, n + 3):
                assert _kernel(w, d) == max_ap_oracle(listed, d), (listed, d)


@pytest.mark.parametrize("name", ["rs", "tm:2"])
def test_kernel_matches_residue_reference_on_prefixes(name):
    b = get_builtin(name)
    w = prefix(b.fixed_point(), 2**21 + 3, b.coding("spin") if b.spin else None)
    for d in (1, 2, 3, 7, 8, 9, 64, 1023, 1025, 4097, 16385, 2**20 + 1):
        lengths = [d + 1, d + 2**16 + 5] if d > 2**20 else [d + 1, len(w)]
        for n in lengths:
            assert _kernel(w[:n], d) == max_ap_by_residues(w[:n], d), (d, n)


@pytest.mark.parametrize("d", [1, 3, 8, 9, 1025])
def test_kernel_run_across_packing_chunk(d):
    rng = np.random.default_rng(d)
    w = rng.integers(0, 4, 3 * _PACK_CHUNK).astype(np.uint8)
    start = _PACK_CHUNK - 40 * d + 1
    w[start:start + 100 * d:d] = 9
    best_len, best_start = _kernel(w, d)
    assert (best_len, best_start) == max_ap_by_residues(w, d)
    assert best_len >= 100 and best_start < _PACK_CHUNK < best_start + (best_len - 1) * d


@pytest.mark.parametrize("d", [1, 63, 64, 65, 128, 129])
def test_kernel_at_word_edges(d):
    # n - d comparisons fill the last uint64 word partly, fully and one bit past it;
    # shifts that are multiples of 64 and shifts past the whole mask both occur
    rng = np.random.default_rng(d)
    for m in range(56, 201):
        n = m + d
        for w in (np.zeros(n, np.uint8), rng.integers(0, 2, n).astype(np.uint8),
                  (np.arange(n) // 3 % 2).astype(np.uint8)):
            assert _kernel(w, d) == max_ap_oracle(list(w), d), (d, m)


@pytest.mark.parametrize("d", [1, 63, 64, 65, 128, 129])
def test_kernel_run_across_word_boundary(d):
    rng = np.random.default_rng(100 + d)
    for boundary in (64, 128, 192):
        for offset in (1, 2, 63):
            w = rng.integers(0, 4, 14 * d + 256).astype(np.uint8)
            start = boundary - offset
            w[start:start + 12 * d:d] = 9
            assert _kernel(w, d) == max_ap_oracle(list(w), d) == (12, start), (boundary, offset)


def _sparse_word_counts(monkeypatch) -> list[int]:
    """Spy on the gallop: the number of listed words after every sparse step."""
    counts = []
    real = apword.progressions._sparse_step

    def spy(p, idx, shift):
        res = real(p, idx, shift)
        if res is not None:
            counts.append(len(res[1]))
        return res

    monkeypatch.setattr(apword.progressions, "_sparse_step", spy)
    return counts


SPARSE_N = 2**20 + 37  # random 3-letter words: runs of about 13 terms, so the tail turns sparse


@pytest.mark.parametrize("d", [1, 63, 64, 65, 1025, 8193])
@pytest.mark.parametrize("where", ["last word", "word boundary", "only survivor"])
def test_kernel_sparse_tail_matches_references(monkeypatch, d, where):
    rng = np.random.default_rng(d)
    w = rng.integers(0, 3, SPARSE_N).astype(np.uint8)
    m = SPARSE_N - d  # mask bits
    if where == "last word":  # its last comparison is the last bit of the mask
        length = 18
        start = SPARSE_N - 1 - (length - 1) * d
    elif where == "word boundary":
        length = 18
        start = 64 * (m // 128) - 3
    else:  # no other run survives the first sparse step
        length = 100
        start = (SPARSE_N - (length - 1) * d) // 3
    w[start:start + (length - 1) * d + 1:d] = 3
    counts = _sparse_word_counts(monkeypatch)
    got = _kernel(w, d)
    assert counts, "the gallop never reached its sparse tail"
    assert got == max_ap_dense(w, d) == max_ap_by_residues(w, d) == (length, start)


@pytest.mark.parametrize("d", [1, 63, 64, 65, 129])
def test_kernel_sparse_from_the_first_mask_at_the_last_words(monkeypatch, d):
    # only the planted run repeats at distance d, so the packed mask is sparse
    # at once; its end moves through the last two words of the mask
    counts = _sparse_word_counts(monkeypatch)
    for tail in (0, 1, 5, 63):
        n = 64 * 4096 + tail + d
        for length in (30, 100):
            for before_end in (0, 1, 2, 70):
                start = n - 1 - before_end - (length - 1) * d
                w = PlantedSource(n, d, start, length).word
                counts.clear()
                assert _kernel(w, d) == max_ap_dense(w, d) == (length, start), \
                    (tail, length, before_end)
                assert counts, "the gallop never reached its sparse tail"


def test_kernel_traced_peak_memory(monkeypatch):
    # guards peak RSS: the per-residue kernel peaked at 1.0-7.0 n traced bytes
    b = get_builtin("rs")
    w = prefix(b.fixed_point(), 2**24, b.coding("spin"))
    counts = _sparse_word_counts(monkeypatch)
    tracemalloc.start()
    try:
        for d in (1, 3, 64, 1025, 4097, 8193):
            counts.clear()
            tracemalloc.reset_peak()
            max_ap_in_prefix(w, d)
            peak = tracemalloc.get_traced_memory()[1]
            assert peak <= 0.6 * len(w), (d, peak / len(w))
            assert counts or d < 1025, "the gallop never reached its sparse tail"
    finally:
        tracemalloc.stop()


def test_kernel_packed_peak_memory(monkeypatch):
    # fed planes packed beforehand, a call holds two mask buffers of n/8 bytes each
    b = get_builtin("rs")
    word = PackedWord.pack(prefix(b.fixed_point(), 2**24, b.coding("spin")))
    counts = _sparse_word_counts(monkeypatch)
    tracemalloc.start()
    try:
        for d in (1, 3, 64, 1025, 4097, 8193):
            counts.clear()
            tracemalloc.reset_peak()
            max_ap_in_prefix(word, d)
            peak = tracemalloc.get_traced_memory()[1]
            assert peak <= 0.35 * word.n, (d, peak / word.n)
            assert counts or d < 1025, "the gallop never reached its sparse tail"
    finally:
        tracemalloc.stop()


def test_prefix_source_keeps_planes_only(monkeypatch):
    lengths = []
    real_prefix = apword.progressions.prefix

    def spy(fp, length, coding=None):
        lengths.append(length)
        return real_prefix(fp, length, coding)

    monkeypatch.setattr(apword.progressions, "prefix", spy)
    b = get_builtin("tm:3")
    src = PrefixSource(b.fixed_point())
    longer = src.get(5000)
    assert not [v for v in vars(src).values() if isinstance(v, np.ndarray)]
    assert longer.n == 5000 and longer.planes.shape == (2, (5000 + 63) // 64 + 1)  # letters 0..2, guard word
    assert longer.planes.dtype == np.dtype("<u8")
    shorter = src.get(3000)
    assert shorter.n == 3000 and shorter.planes is longer.planes
    assert lengths == [5000]
    for bad in (0, -1):
        with pytest.raises(SubstitutionError):
            src.get(bad)


@pytest.mark.parametrize("d", [1, 63, 64, 65, 1025])
def test_kernel_on_views_of_a_longer_word(d):
    # every (n - d) mod 64, so the last mask word ends on each bit; the bits
    # past n - d are letters of the longer word and must be cleared
    rng = np.random.default_rng(d)
    longest = d + 64 * 20 + 64 + 200
    words = [np.zeros(longest, np.uint8), rng.integers(0, 3, longest).astype(np.uint8),
             (np.arange(longest) // 7 % 2).astype(np.uint8)]
    for w in words:
        packed = PackedWord.pack(w)
        for t in range(64):
            n = d + 64 * 20 + t
            got = max_ap_in_prefix(PackedWord(packed.planes, n), d)
            assert got.prefix_len == n
            assert (got.best_len, got.best_start) == _kernel(w[:n], d) \
                == max_ap_by_residues(w[:n], d), t


@pytest.mark.parametrize("name", ["rs", "tm:3", "hadamard4"])
def test_kernel_on_prefix_source_views(name):
    b = get_builtin(name)
    fp = b.fixed_point()
    for coding in [None, *b.codings().values()]:
        w = prefix(fp, 6000, coding)
        src = PrefixSource(fp, coding)
        src.get(len(w))
        for d in (1, 63, 64, 65, 1025):
            for n in range(d + 1280, d + 1344):
                got = max_ap_in_prefix(src.get(n), d)
                assert (got.best_len, got.best_start) == _kernel(w[:n], d) \
                    == max_ap_by_residues(w[:n], d), (coding, d, n)


@pytest.mark.parametrize("d", [1, 65, 1025])
def test_kernel_run_across_dense_block(d):
    # mask word 64 * _BLOCK starts the second block of the first mask and of
    # every dense step; random 3-letter words keep the mask dense for a while
    boundary = 64 * _BLOCK
    rng = np.random.default_rng(7 + d)
    w = rng.integers(0, 3, boundary + 200 * d + 64).astype(np.uint8)
    for start in (boundary - 30 * d - 1, boundary - 1, boundary + 64 - 60 * d):
        planted = w.copy()
        planted[start:start + 59 * d + 1:d] = 3
        assert _kernel(planted, d) == max_ap_dense(planted, d) == (60, start), start
    assert _kernel(w, d) == max_ap_by_residues(w, d)


@pytest.mark.parametrize("bits", [3, 4, 5, 6, 7, 8])
def test_kernel_on_wide_alphabets(bits):
    # letters that differ in one bit only, so a plane left out would merge them
    rng = np.random.default_rng(bits)
    letters = np.array([0, 2**bits - 1] + [1 << b for b in range(bits)], np.uint8)
    w = letters[rng.integers(0, len(letters), 3000)]
    w[100:100 + 40 * 9:9] = 2**bits - 1
    assert PackedWord.pack(w).planes.shape[0] == bits
    for d in (1, 2, 9, 64, 65, 700):
        assert _kernel(w, d) == max_ap_by_residues(w, d) == max_ap_oracle(list(w), d), d


def test_kernel_on_a_nine_bit_letter():
    rng = np.random.default_rng(9)
    w = rng.integers(0, 2, 4000).astype(np.int64) * 256  # letters 0 and 256 differ in plane 8 only
    w[7:7 + 30 * 5:5] = 256 + 1
    assert PackedWord.pack(w).planes.shape[0] == 9
    for d in (1, 5, 64, 129):
        assert _kernel(w, d) == max_ap_by_residues(w, d) == max_ap_oracle(list(w), d), d


@pytest.mark.parametrize("word", [np.array([1, -1, 1]), np.array([0.0, 1.0, 0.0]),
                                  np.array([0.5, 0.5]), np.array(["a", "b", "a"]),
                                  ["a", "b"], [0, -3]])
@pytest.mark.parametrize("d", [1, 5])
def test_max_ap_rejects_letters_that_are_not_non_negative_integers(word, d):
    with pytest.raises(SubstitutionError, match="non-negative integers"):
        max_ap_in_prefix(word, d)


RESCAN_POLICIES = [
    (ScanPolicy(initial_prefix=2**12, prefix_cap=2**16), None),
    (ScanPolicy(initial_prefix=2**14, prefix_cap=2**14), None),  # initial == cap
    (ScanPolicy(initial_prefix=3000, prefix_cap=5000), None),  # 2 * initial > cap
    (ScanPolicy(initial_prefix=64, prefix_cap=2**15), None),  # d >= initial from d = 64 on
    (ScanPolicy(initial_prefix=2**10, prefix_cap=2**16), 3),  # hint_lower
    (ScanPolicy(initial_prefix=2**12, prefix_cap=2**18, r_override=9), None),
]


@pytest.mark.parametrize("name", BUILTINS)
def test_a_of_d_matches_rescan_schedule(name):
    b = get_builtin(name)
    fp = b.fixed_point()
    for coding in [None, *b.codings().values()]:
        src = PrefixSource(fp, coding)
        for policy, hint in RESCAN_POLICIES:
            for d in (1, 2, 3, 5, 17, 64, 65, 100, 1000, 2499):
                got = a_of_d(fp, coding, d, policy, hint_lower=hint, source=src)
                want = a_of_d_by_rescan(fp, coding, d, policy, hint_lower=hint, source=src)
                assert got == want, (coding, policy, hint, d)


class PlantedSource:
    """Prefix source stub: letters 0/1 that never repeat at distance d, plus one
    progression of the letter 2 with difference d. Records every request.
    """

    def __init__(self, n, d, start, length):
        self.word = (np.arange(n) // d % 2).astype(np.uint8)
        self.word[start:start + (length - 1) * d + 1:d] = 2
        self.requested = []

    def get(self, n):
        self.requested.append(n)
        return self.word[:n]


@pytest.mark.parametrize("end, windows", [(1024, [2048, 4096]), (1023, [2048])])
def test_a_of_d_stops_once_the_witness_ends_before_the_previous_window(end, windows):
    # the witness ending at the previous window's end (1024) is not inside it
    d, length = 7, 20
    start = end - (length - 1) * d
    b = get_builtin("rs")
    fp, coding = b.fixed_point(), b.coding("spin")  # not injective: no certification
    policy = ScanPolicy(initial_prefix=1024, prefix_cap=2**13)
    src = PlantedSource(policy.prefix_cap, d, start, length)
    res = a_of_d(fp, coding, d, policy, source=src)
    assert (res.best_len, res.best_start, res.prefix_len) == (length, start, windows[-1])
    assert src.requested == windows  # one window, so one kernel call, per doubling
    rescan = PlantedSource(policy.prefix_cap, d, start, length)
    assert a_of_d_by_rescan(fp, coding, d, policy, source=rescan) == res
    assert rescan.requested == [1024] + windows


def test_scan_generates_its_prefix_once(monkeypatch):
    lengths = []
    real_prefix = apword.progressions.prefix

    def spy(fp, length, coding=None):
        lengths.append(length)
        return real_prefix(fp, length, coding)

    monkeypatch.setattr(apword.progressions, "prefix", spy)
    b = get_builtin("rs")
    scan(b.fixed_point(), b.coding("spin"), 1, 100, SMALL)
    assert lengths == [2 * SMALL.initial_prefix]  # no pre-warm at the initial window


def test_tm_cube_free():
    res = a_of_d(get_builtin("tm:2").fixed_point(), None, 1, SMALL)
    assert res.best_len == 2


def test_rs_a17():
    b = get_builtin("rs")
    pol = ScanPolicy(initial_prefix=2**20, prefix_cap=2**22)
    res = a_of_d(b.fixed_point(), b.coding("spin"), 17, pol)
    assert res.best_len == 10


def test_monotone_in_prefix_len():
    b = get_builtin("tm:3")
    fp = b.fixed_point()
    for d in (2, 8, 13):
        prev = 0
        for win in (2**12, 2**14, 2**16, 2**18):
            cur = max_ap_in_prefix(prefix(fp, win), d).best_len
            assert cur >= prev
            prev = cur


def test_certification_basis_reads_no_prefix(monkeypatch):
    requested = []
    real_prefix = apword.stream.prefix

    def spy(fp, length, *args, **kwargs):
        requested.append(length)
        return real_prefix(fp, length, *args, **kwargs)

    monkeypatch.setattr(apword.stream, "prefix", spy)
    periodic = parse_substitution("a -> aba ; b -> bab")
    assert _certification_basis.__wrapped__(periodic) == (False, None)  # bypass the cache
    assert requested == []


def test_upper_bound_values():
    tm = get_builtin("tm:2").substitution
    assert upper_bound(tm, 5) == 64  # window exponent 3, gcd 1, N = 3
    tm3 = get_builtin("tm:3").substitution
    n3 = 4
    assert upper_bound(tm3, 13) == 3 ** (n3 + 3)
    # prime-power alphabet: bound is at most L**(N+1) * d
    for d in range(1, 60):
        assert upper_bound(tm, d) <= 2 ** (3 + 1) * d
    assert upper_bound(get_builtin("outlook6").substitution, 5) is None
    assert upper_bound(get_builtin("a4-example").substitution, 5) is None  # non-Abelian


def test_a_of_d_certification():
    tm = get_builtin("tm:2")
    fp = tm.fixed_point()
    certified = a_of_d(fp, None, 3, ScanPolicy(r_override=9))
    assert certified.status == EXACT
    assert certified.best_len == 8  # frozen from the certified scan
    # generic recurrence constant also certifies here: 4095 * 97 fits 2**20
    generic = a_of_d(fp, None, 3, ScanPolicy())
    assert generic.status == EXACT and generic.best_len == 8
    # a cap below the certified window stays an honest lower bound
    uncert = a_of_d(fp, None, 3, ScanPolicy(initial_prefix=2**16, prefix_cap=2**18))
    assert uncert.status == LOWER


def test_a_of_d_certification_with_exact_recurrence():
    tm3 = get_builtin("tm:3")
    rep = recurrence_constants(tm3.substitution, "exact")
    res = a_of_d(tm3.fixed_point(), None, 13, ScanPolicy(r_override=rep.r_exact))
    assert res.status == EXACT and res.best_len >= 3


def test_no_certification_with_coincidence_column():
    pd = parse_substitution("a -> ab ; b -> aa")  # period doubling
    from apword import FixedPointSpec
    fp = FixedPointSpec.find(pd, "a")
    lengths = []
    for win in (2**14, 2**16, 2**18):
        res = a_of_d(fp, None, 2, ScanPolicy(initial_prefix=win, prefix_cap=win,
                                             r_override=9))
        assert res.status == LOWER
        lengths.append(res.best_len)
    assert lengths[0] < lengths[1] < lengths[2]  # even positions are all 'a'


def test_resource_cap():
    fp = get_builtin("tm:2").fixed_point()
    with pytest.raises(ResourceCapError):
        a_of_d(fp, None, 2**20, ScanPolicy(prefix_cap=2**16))


def test_difference_families_tm2():
    tm = get_builtin("tm:2").substitution
    fams = {(m.name, m.params): m for m in difference_families(tm, [1, 2, 3])}
    ident = fams[("identity", (2,))]
    assert ident.d == 5 and ident.predicted_lower == 4
    assert ident.predicted_upper == 64
    tm_fam = fams[("tm", (2,))]
    assert tm_fam.d == 3 and tm_fam.predicted_lower == 2**2 + 4


def test_difference_families_tm3_refinement():
    tm3 = get_builtin("tm:3").substitution
    members = {m.params: m for m in difference_families(tm3, [3], names=["tm"])}
    assert members[(3,)].d == 26 and members[(3,)].predicted_lower == 27 + 6


def test_difference_families_rs():
    members = {(m.name, m.params): m
               for m in difference_families(get_builtin("rs").spin, [5])}
    assert members[("plus", (5,))].d == 33
    assert members[("plus", (5,))].predicted_lower == 2**4 + 2
    assert members[("minus", (5,))].d == 31
    assert members[("minus", (5,))].predicted_lower == 2**4 + 3
    assert members[("pow", (5,))].predicted_upper == 4


def test_palindrome_family_inverse_bonus():
    c3 = get_builtin("c3-invpal").substitution
    members = difference_families(c3, [1, 2], names=["palindrome"])
    for m in members:
        k = m.params[0]
        assert m.d == 5**k - 1
        assert m.predicted_lower == 5**k + 2


def test_palindromic_member_window_exponent_four():
    b = get_builtin("c3-invpal")
    for n, d, lower in ((1, 104, 7), (2, 15024, 27)):
        m = palindromic_member(b.substitution, n, 4)
        assert (m.d, m.predicted_lower) == (d, lower)  # (5^(4n) - 1) / (5^n + 1), 5^n + 2
        res = a_of_d(b.fixed_point(), None, d, ScanPolicy(prefix_cap=2**24),
                     hint_lower=lower)
        assert res.best_len >= lower  # measured 9 and 29


def test_families_compute_the_group_once(monkeypatch):
    calls = []
    real_generate_group = apword.progressions.generate_group

    def spy(sub):
        calls.append(sub)
        return real_generate_group(sub)

    monkeypatch.setattr(apword.progressions, "generate_group", spy)
    c3 = get_builtin("c3-invpal").substitution
    counts = []
    for ks in ([1], range(1, 9)):
        _certification_basis.cache_clear()
        calls.clear()
        assert {m.name for m in difference_families(c3, ks)} == {"identity", "palindrome"}
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_family_inapplicable_errors():
    with pytest.raises(SubstitutionError):
        difference_families(get_builtin("a4-example").substitution, [1],
                            names=["palindrome"])
    with pytest.raises(SubstitutionError):
        difference_families(get_builtin("rs").spin, [1], names=["vandermonde"])


def test_verify_family_rs_plus():
    b = get_builtin("rs")
    members = difference_families(b.spin, range(4, 9), names=["plus"])
    reports = verify_family(b.fixed_point(), b.coding("spin"),
                            members, ScanPolicy(prefix_cap=2**22))
    for rep in reports:
        n = rep.family.params[0]
        assert rep.verdict == "PASS"
        assert rep.measured.best_len == 2 ** (n - 1) + 2  # equalities from n >= 4


def test_verify_family_tm_identity():
    tm = get_builtin("tm:2")
    members = difference_families(tm.substitution, range(1, 5), names=["identity"])
    reports = verify_family(tm.fixed_point(), None, members,
                            ScanPolicy(r_override=9, prefix_cap=2**22))
    assert [r.verdict for r in reports] == ["PASS"] * 4
    assert all(r.measured.status == EXACT for r in reports)


def test_verify_family_c3_invpal():
    b = get_builtin("c3-invpal")
    members = difference_families(b.substitution, [1, 2], names=["palindrome"])
    reports = verify_family(b.fixed_point(), None, members, ScanPolicy(prefix_cap=2**22))
    for rep in reports:
        k = rep.family.params[0]
        assert rep.verdict == "PASS"
        assert rep.measured.best_len >= 5**k + 2


def test_verify_family_predicted_only():
    tm = get_builtin("tm:2")
    members = difference_families(tm.substitution, [40], names=["identity"])
    reports = verify_family(tm.fixed_point(), None, members, ScanPolicy())
    assert reports[0].verdict == "PREDICTED-ONLY"
    assert reports[0].measured is None


def test_scan_ternary_local_maxima():
    b = get_builtin("tm:3")
    rows = scan(b.fixed_point(), None, 1, 100, SMALL)
    lens = {r.d: r.best_len for r in rows}
    for d in (2, 8, 26, 80):  # 3**n - 1
        assert lens[d] > lens[d - 1] and lens[d] > lens[d + 1]


def test_scan_rs_local_maxima():
    b = get_builtin("rs")
    rows = scan(b.fixed_point(), b.coding("spin"), 1, 100, SMALL)
    lens = {r.d: r.best_len for r in rows}
    for d in (3, 5, 7, 9, 15, 17, 31, 33, 63, 65):  # 2**n +- 1
        assert lens[d] > lens[d - 1] and lens[d] > lens[d + 1]


def test_scan_degenerate_range_matches_a_of_d():
    b = get_builtin("tm:2")
    rows = scan(b.fixed_point(), None, 5, 5, SMALL)
    assert len(rows) == 1
    assert rows[0] == a_of_d(b.fixed_point(), None, 5, SMALL)


def test_scan_records_per_d_errors():
    b = get_builtin("tm:2")
    rows = scan(b.fixed_point(), None, 2**13 - 1, 2**13 + 1,
                ScanPolicy(initial_prefix=2**12, prefix_cap=2**14))
    assert rows[0].status == LOWER  # 2d+1 still fits
    assert rows[2].status.startswith("Error:")  # 2d+1 exceeds the cap
    assert rows[2].d == 2**13 + 1


def test_rs_difference_scaling_desk_scale():
    # scanning 2**n * d over the full window matches d over a 2**n-smaller one
    b = get_builtin("rs")
    fp, coding = b.fixed_point(), b.coding("spin")
    big = prefix(fp, 2**22, coding)
    for d in (1, 3, 5, 7, 11, 16):
        for n in range(1, 4):
            scaled = max_ap_in_prefix(big, (2**n) * d).best_len
            small = max_ap_in_prefix(big[: 2**22 >> n], d).best_len
            assert scaled == small


def test_vandermonde_difference_scaling_power_case_only():
    # the power case A(L**n) = A(1) holds; the general L**n * d analogy does
    # not: for L = 3 the measured values give A(2) = 4 but A(6) = 6, with the
    # A(6) witness confirmed by the digit-pair product formula
    b = get_builtin("vandermonde:3")
    fp, coding = b.fixed_point(), b.coding("spin")
    big = prefix(fp, 3**13, coding)
    base = max_ap_in_prefix(big, 1).best_len
    assert base == 5
    for n in (1, 2, 3):
        assert max_ap_in_prefix(big, 3**n).best_len == base
    assert max_ap_in_prefix(big, 2).best_len == 4
    assert max_ap_in_prefix(big, 6).best_len == 6
