import itertools
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import apword.progressions
import apword.stream
import apword.substitution
from apword import (
    Alphabet,
    Coding,
    FixedPointSpec,
    PrefixSource,
    ResourceCapError,
    ScanPolicy,
    Substitution,
    SubstitutionError,
    a_of_d,
    builtin_names,
    difference_families,
    get_builtin,
    is_primitive,
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
    _bound_applies,
    _certification_basis,
    _certified_window,
    _dense_step,
    palindromic_member,
)
from apword.stream import (
    PREFIX_CAP,
    _cycle_length,
    _level,
    _two_words,
    letter_index_at,
)
from apword.substitution import _legal_index_words
from ap_oracle import max_ap_oracle
from window_reference import level_windows, orbit_windows, window_letters

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
                # letters 0/1 that never repeat at distance d, and the run of 2s
                w = plant_ap((np.arange(n) // d % 2).astype(np.uint8), d, start, length, 2)
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
    # fed planes packed beforehand, a call holds one mask buffer of n/8 bytes and two
    # 256 KiB blocks of scratch, all kept by the word
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
            assert peak <= 0.2 * word.n, (d, peak / word.n)
            assert counts or d < 1025, "the gallop never reached its sparse tail"
    finally:
        tracemalloc.stop()


def test_kernel_second_call_allocates_no_mask(monkeypatch):
    # the word's buffers serve every later d; a call allocates only the sparse
    # tail's index lists
    b = get_builtin("rs")
    word = PackedWord.pack(prefix(b.fixed_point(), 2**24, b.coding("spin")))
    max_ap_in_prefix(word, 5)
    mask = word._buffers[0]
    counts = _sparse_word_counts(monkeypatch)
    tracemalloc.start()
    try:
        for d in (1, 3, 64, 1025, 4097, 8193):
            counts.clear()
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            max_ap_in_prefix(word, d)
            extra = tracemalloc.get_traced_memory()[1] - before
            assert extra < 0.06 * word.n, (d, extra / word.n)
            assert counts or d < 1025, "the gallop never reached its sparse tail"
    finally:
        tracemalloc.stop()
    assert word._buffers[0] is mask


@st.composite
def dense_gallop_cases(draw):
    """(word, d, block): a word of at most 4 letters, long runs and planted
    progressions among them, a difference and a dense-step block of 1-4 words."""
    n = draw(st.integers(1, 2000))
    c = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "runs", "planted", "periodic"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "runs":  # runs of one letter, some as long as the word
        ends = np.sort(rng.integers(0, n, draw(st.integers(0, 6))))
        word = rng.integers(0, c, len(ends) + 1)[np.searchsorted(ends, np.arange(n), "right")]
    elif kind == "periodic":
        word = np.resize(rng.integers(0, c, draw(st.integers(1, 9))), n)
    else:
        word = rng.integers(0, c, n)
    word = word.astype(np.uint8)
    d = draw(st.one_of(st.integers(1, 70), st.integers(1, n + 2)))
    if kind == "planted" and d < n:  # a long progression, often in the last words
        start = draw(st.integers(0, n - 1 - d))
        word = plant_ap(word, d, start, draw(st.integers(2, (n - 1 - start) // d + 1)), c)
    return word, d, draw(st.integers(1, 4))


def _no_sparse_step(p, idx, shift):
    raise AssertionError("the gallop turned sparse")


@settings(max_examples=1500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=dense_gallop_cases())
def test_kernel_in_place_dense_steps_match_dense_reference(monkeypatch, case):
    # blocks of 1-4 words: q is often shorter than a block, so a block's shifted
    # read overlaps itself, and many steps begin with zero blocks; the gallop
    # never turns sparse, so every step is in place
    word, d, block = case
    monkeypatch.setattr(apword.progressions, "_BLOCK", block)
    monkeypatch.setattr(apword.progressions, "_SPARSE_SHARE", 2**20)
    monkeypatch.setattr(apword.progressions, "_sparse_step", _no_sparse_step)
    assert _kernel(word, d) == max_ap_dense(word, d)


def test_dense_step_with_no_bit_left_leaves_the_mask(monkeypatch):
    # blocks of 2 words; p & (p >> 64) keeps word i iff words i and i + 1 share a bit
    monkeypatch.setattr(apword.progressions, "_BLOCK", 2)
    scratch, carry = np.empty((2, 2), "<u8")
    p = np.array([1 << 5, 0, 1 << 9, 0, 1 << 2, 0, 1 << 3, 1 << 4, 0], "<u8")
    before = p.copy()
    assert _dense_step(p, scratch, carry, 64) is None  # four zero blocks, none written
    assert np.array_equal(p, before)
    assert _dense_step(p, scratch, carry, 64 * 8) is None and np.array_equal(p, before)
    # three zero blocks below a non-zero one: they are zeroed once it is written
    p[7] = 1 << 3
    out, alive = _dense_step(p, scratch, carry, 64)
    assert alive == 1 and np.shares_memory(out, p)
    assert out.tolist() == [0, 0, 0, 0, 0, 0, 1 << 3, 0]  # the last word is the guard word
    # r != 0: bit 63 of word 1 meets bit 0 of word 2 at shift 1
    p = np.array([1, 1 << 63, 1, 0, 0], "<u8")
    out, alive = _dense_step(p, scratch, carry, 1)
    assert out.tolist() == [0, 1 << 63, 0, 0, 0] and alive == 1


@pytest.mark.parametrize("name,coding", [("rs", "spin"), ("tm:3", None)])
def test_mask_reuse_leaks_nothing_between_calls(monkeypatch, name, coding):
    # one level and one prefix, d in shuffled order: each row equals a call on a
    # fresh pack of the same letters, whose mask buffer is new
    b = get_builtin(name)
    fp = b.fixed_point()
    src = PrefixSource(fp, b.coding(coding) if coding else None)
    counts = _sparse_word_counts(monkeypatch)
    rng = np.random.default_rng(18)
    for word in (src.level(12), src.get(2**16 + 37)):
        ds = [1, 2, 3, 63, 64, 65, 129, 1025, 4097, 8193, word.n - 1, word.n, word.n + 5]
        for d in rng.permutation(ds + ds).tolist():
            fresh = PackedWord(word.planes.copy(), word.n, word.spans)
            assert max_ap_in_prefix(word, d) == max_ap_in_prefix(fresh, d), d
        assert counts, "the gallop never reached its sparse tail"
        counts.clear()


def test_level_mask_goes_with_its_level():
    b = get_builtin("rs")
    src = PrefixSource(b.fixed_point(), b.coding("spin"))
    level = src.level(12)
    max_ap_in_prefix(level, 65)
    ref = weakref.ref(level._buffers[0])
    del level
    assert ref() is not None  # the source still holds the level and its mask
    word = src.get(2**16)
    max_ap_in_prefix(word, 65)
    assert ref() is None


def _factor_spans(monkeypatch) -> list[tuple[int, int]]:
    """Record the [start, stop) span of every factor call made by PrefixSource."""
    spans = []
    real_factor = apword.progressions.factor

    def spy(fp, start, stop, coding=None):
        spans.append((start, stop))
        return real_factor(fp, start, stop, coding)

    monkeypatch.setattr(apword.progressions, "factor", spy)
    return spans


def test_prefix_source_keeps_planes_only(monkeypatch):
    spans = _factor_spans(monkeypatch)
    b = get_builtin("tm:3")
    src = PrefixSource(b.fixed_point())
    word = src.get(5000)
    assert not [v for v in vars(src).values() if isinstance(v, np.ndarray)]
    assert word.n == 5000 and word.planes.shape == (2, (5000 + 63) // 64 + 1)  # letters 0..2, guard word
    assert word.planes.dtype == np.dtype("<u8") and word.spans == ((0, 5000, 0),)
    assert src.get(5000) is word and spans == [(0, 5000)]  # packed once
    for bad in (0, -1):
        with pytest.raises(SubstitutionError):
            src.get(bad)


def test_prefix_source_checks_the_cap_before_allocating():
    b = get_builtin("rs")
    src = PrefixSource(b.fixed_point(), b.coding("spin"))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError,
                           match=f"prefix of {PREFIX_CAP + 1} letters exceeds cap {PREFIX_CAP}"):
            src.get(PREFIX_CAP + 1)
        assert tracemalloc.get_traced_memory()[1] < 2**16
    finally:
        tracemalloc.stop()
    word = src.get(100)
    want = PackedWord.pack(prefix(b.fixed_point(), 100, b.coding("spin")))
    assert word.n == 100 and np.array_equal(word.planes, want.planes)


def test_prefix_source_checks_the_level_cap_before_allocating():
    # tm:64 has level-4 windows of 2^31 letters, which took 3.3 s to pack, and level-8
    # windows of 2^55, which NumPy refused as a 24 PiB array
    src = PrefixSource(get_builtin("tm:64").fixed_point())
    assert src.level(1).n == 64 * 128  # 64 orbits of 2-words, a 128-letter window each
    tracemalloc.start()
    try:
        for k, letters in [(4, 2**31), (8, 2**55)]:
            with pytest.raises(ResourceCapError, match=f"level-{k} windows of {letters} "
                                                       f"letters exceed cap {PREFIX_CAP}"):
                src.level(k)
        assert tracemalloc.get_traced_memory()[1] < 2**16
    finally:
        tracemalloc.stop()


def plane_bits(word: PackedWord) -> np.ndarray:
    """Bit i of row b is bit i of plane b, for every bit the planes hold."""
    return np.unpackbits(word.planes.view(np.uint8), axis=1, bitorder="little")


@pytest.mark.parametrize("name,coding,planes", [
    ("tm:2", None, 1), ("rs", "spin", 1), ("tm:3", None, 2), ("rs", None, 2), ("tm:5", None, 3)])
def test_prefix_source_growth_matches_packing_the_prefix(monkeypatch, name, coding, planes):
    # 192-letter chunks: prefixes end inside a chunk, on a word edge and one letter
    # past it; a prefix the source does not hold, longer or shorter, is packed afresh
    monkeypatch.setattr(apword.progressions, "_PACK_CHUNK", 192)
    spans = _factor_spans(monkeypatch)
    b = get_builtin(name)
    fp, code = b.fixed_point(), b.coding(coding) if coding else None
    src = PrefixSource(fp, code)
    for n in (1, 2, 63, 64, 65, 193, 833, 834, 100, 1024, 1025, 1665, 1000, 2048 + 7, 2048 + 8):
        spans.clear()
        word = src.get(n)
        got, want = plane_bits(word), plane_bits(PackedWord.pack(prefix(fp, n, code)))
        assert len(got) == planes and len(want) <= planes
        assert np.array_equal(got[:len(want), :n], want[:, :n]) and not got[len(want):, :n].any()
        assert not got[:, n:].any(), n  # zeros after the letters, guard word included
        assert spans == [(a, min(a + 192, n)) for a in range(0, n, 192)], n  # each letter once


@pytest.mark.parametrize("name,coding", [("tm:3", None), ("rs", "spin")])
def test_prefix_source_growth_peak_memory(name, coding):
    # planes only: the shorter prefix is let go before the longer one is packed
    b = get_builtin(name)
    src = PrefixSource(b.fixed_point(), b.coding(coding) if coding else None)
    tracemalloc.start()
    try:
        src.get(2**23)
        word = src.get(2**24 + 640)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * word.planes.nbytes + 2**21, peak / word.planes.nbytes


@pytest.mark.parametrize("d", [1, 63, 64, 65, 1025])
def test_kernel_on_views_of_a_longer_word(d):
    # every (n - d) mod 64, so the last mask word ends on each bit; the factor
    # [0, n) is packed from the longer word, and the zeros past n must not
    # extend a run
    rng = np.random.default_rng(d)
    longest = d + 64 * 20 + 64 + 200
    words = [np.zeros(longest, np.uint8), rng.integers(0, 3, longest).astype(np.uint8),
             (np.arange(longest) // 7 % 2).astype(np.uint8)]
    for w in words:
        for t in range(64):
            n = d + 64 * 20 + t
            got = max_ap_in_prefix(PackedWord.pack_factors(((0, n),), 2, lambda a, b: w[a:b]), d)
            assert got.prefix_len == n
            assert (got.best_len, got.best_start) == _kernel(w[:n], d) \
                == max_ap_by_residues(w[:n], d), t


@pytest.mark.parametrize("name", ["rs", "tm:3", "hadamard4"])
def test_kernel_on_prefix_source_views(name):
    # each get(n) packs the prefix [0, n) on its own
    b = get_builtin(name)
    fp = b.fixed_point()
    for coding in [None, *b.codings().values()]:
        w = prefix(fp, 6000, coding)
        src = PrefixSource(fp, coding)
        for d in (1, 63, 64, 65, 1025):
            for n in range(d + 1280, d + 1344):
                got = max_ap_in_prefix(src.get(n), d)
                assert (got.best_len, got.best_start) == _kernel(w[:n], d) \
                    == max_ap_by_residues(w[:n], d), (coding, d, n)


@pytest.mark.parametrize("name", ["rs", "tm:3", "hadamard4"])
def test_kernel_on_one_factor_past_the_start(name):
    # starts are places in the word: the kernel on the factor's letters alone,
    # moved by the factor's start, also where no two letters d apart are equal
    b = get_builtin(name)
    fp = b.fixed_point()
    for coding in [None, *b.codings().values()]:
        for s, t in ((1, 700), (63, 1064), (1000, 6000)):
            letters = prefix(fp, t, coding)
            word = PackedWord.pack_factors(((s, t),), max(1, int(letters.max()).bit_length()),
                                           lambda a, b: letters[a:b])
            assert word.spans == ((0, t - s, s),)
            for d in (1, 3, 63, 64, 65, 1025, t - s - 1, t - s):
                got, want = max_ap_in_prefix(word, d), max_ap_in_prefix(letters[s:], d)
                assert got == replace(want, best_start=want.best_start + s), (coding, s, d)


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


def in_exact_domain(fp, coding) -> bool:
    """Where a decided row is ExactUnderBound: power 1, an injective coding or none, U(d)."""
    return fp.power == 1 and (coding is None or coding.is_injective) \
        and upper_bound(fp.sub, 1) is not None


@pytest.mark.parametrize("name", BUILTINS)
def test_a_of_d_matches_the_plain_kernel_on_its_prefix(name):
    # the rows do not go through the level windows here: the plain kernel on
    # the prefix up to prefix_len, which holds the leftmost witness, gives them
    b = get_builtin(name)
    fp = b.fixed_point()
    for coding in [None, *b.codings().values()]:
        src = PrefixSource(fp, coding)
        rows = [a_of_d(fp, coding, d, hint_lower=hint, source=src)
                for hint in (None, 3) for d in (1, 2, 3, 5, 17, 64, 65, 100, 1000, 2499)]
        checked = [row for row in rows if row.prefix_len <= 2**24]
        if not checked:
            continue
        word = prefix(fp, max(row.prefix_len for row in checked), coding)
        for row in checked:
            want = max_ap_in_prefix(word[:row.prefix_len], row.d)
            assert (row.best_len, row.best_start) == (want.best_len, want.best_start), row
            assert row.status == (EXACT if in_exact_domain(fp, coding) else LOWER), row
        assert rows[:10] == rows[10:]  # the start level changes nothing


def test_a_of_d_rejects_a_source_of_another_word():
    # the tm:3 word at d = 3 under the tm:2 bound certified best_len 2; A(3) is 8
    fp = get_builtin("tm:2").fixed_point()
    policy = ScanPolicy(r_override=9)
    rs = get_builtin("rs")
    for src in (PrefixSource(get_builtin("tm:3").fixed_point()),
                PrefixSource(rs.fixed_point(), rs.coding("spin"))):
        with pytest.raises(SubstitutionError, match="another fixed point or coding"):
            a_of_d(fp, None, 3, policy, source=src)
    rs_fp = rs.fixed_point()
    with pytest.raises(SubstitutionError):  # same word, other coding
        a_of_d(rs_fp, rs.coding("spin"), 3, policy, source=PrefixSource(rs_fp))
    own = a_of_d(fp, None, 3, policy, source=PrefixSource(get_builtin("tm:2").fixed_point()))
    assert (own.best_len, own.status) == (8, EXACT)


def test_scan_generates_its_prefix_once(monkeypatch):
    # rs/digit has A(d) = infinity at even d: those rows outgrow the budget and read
    # the first prefix_cap letters, generated once for the whole scan
    spans = _factor_spans(monkeypatch)
    b = get_builtin("rs")
    policy = ScanPolicy(prefix_cap=2**16)
    rows = scan(b.fixed_point(), b.coding("digit"), 1, 8, policy)
    assert [row.best_len for row in rows] == [1, 2**15, 1, 2**14, 1, 10923, 1, 2**13]
    assert spans.count((0, policy.prefix_cap)) == 1


def test_scan_generates_its_level_windows_once(monkeypatch):
    # each factor in one piece, so a span generated twice is a level packed twice
    monkeypatch.setattr(apword.progressions, "_PACK_CHUNK", 2**30)
    spans = _factor_spans(monkeypatch)
    b = get_builtin("rs")
    scan(b.fixed_point(), b.coding("spin"), 1000, 1100)
    assert len(set(spans)) == len(spans), "a factor was generated twice"


def test_scan_repeats_no_kernel_call(monkeypatch):
    calls = []
    real_kernel = apword.progressions.max_ap_in_prefix

    def spy(word, d):
        calls.append((tuple((o, o + b - a) for a, b, o in word.spans), d))
        return real_kernel(word, d)

    monkeypatch.setattr(apword.progressions, "max_ap_in_prefix", spy)
    fp = get_builtin("tm:5").fixed_point()
    rows = scan(fp, None, 200, 300)
    assert all(row.status == EXACT for row in rows)
    symmetries = PrefixSource(fp).symmetries
    levels = {orbit_windows(fp, symmetries, k) for k in range(1, 12)}
    assert all(factors in levels for factors, _ in calls)  # every call reads orbit windows
    assert len(set(calls)) == len(calls), "a kernel call on one level was repeated"


def plant_ap(word: np.ndarray, d: int, start: int, length: int, letter: int) -> np.ndarray:
    word = word.copy()
    word[start:start + (length - 1) * d + 1:d] = letter
    return word


@st.composite
def words_in_factors(draw):
    """(word, factors, d): a random word, disjoint factors [start, stop) of it in order, and d."""
    n = draw(st.integers(2, 400))
    word = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)), np.uint8)
    if draw(st.booleans()):  # a long progression somewhere, maybe across factors
        d0 = draw(st.integers(1, 8))
        start = draw(st.integers(0, n - 1))
        word = plant_ap(word, d0, start, draw(st.integers(2, max(2, (n - 1 - start) // d0 + 1))), 3)
    cuts = sorted(draw(st.sets(st.integers(0, n), min_size=2, max_size=12)))
    factors = [(a, b) for a, b in zip(cuts, cuts[1:]) if draw(st.booleans())]
    factors = factors or [(cuts[0], cuts[1])]
    return word, factors, draw(st.integers(1, 70))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(case=words_in_factors())
def test_kernel_on_windows_matches_each_factor(case):
    word, factors, d = case
    packed = PackedWord.pack_factors(factors, 2, lambda a, b: word[a:b])
    got = max_ap_in_prefix(packed, d)
    found = [(*max_ap_oracle(word[a:b], d), a) for a, b in factors]
    best = max(length for length, _, _ in found)
    assert (got.best_len, got.prefix_len) == (best, packed.n)
    assert got.best_start == min(a + s for length, s, a in found if length == best)


def test_kernel_on_windows_clears_across_factors():
    # a 64-letter run of 1s, cut into two factors of 32: no progression crosses the cut
    word = np.ones(64, np.uint8)
    packed = PackedWord.pack_factors([(0, 32), (32, 64)], 1, lambda a, b: word[a:b])
    assert [s[:2] for s in packed.spans] == [(0, 32), (64, 96)]
    for d, want in [(1, (32, 0)), (31, (2, 0)), (32, (1, 0))]:
        got = max_ap_in_prefix(packed, d)
        assert (got.best_len, got.best_start) == want, d
    # starts are positions in the longer word: 2s at 137, 142, ..., 182 in the second factor
    word = plant_ap(np.arange(200, dtype=np.uint8) % 2, 5, 137, 10, 2)
    packed = PackedWord.pack_factors([(7, 50), (130, 190)], 2, lambda a, b: word[a:b])
    got = max_ap_in_prefix(packed, 5)
    assert (got.best_len, got.best_start, got.prefix_len) == (10, 137, 64 + 60)


@st.composite
def late_letter_fixed_points(draw):
    """Fixed points where letter a + 1 first occurs at L**(a+1) - 1: a -> 0^(L-1) (a+1) for
    a < c - 1, the last letter's image random. A 2-word can then first occur near
    the end of a window that its few earlier 2-words leave mostly uncovered.
    """
    c, L = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rules = [(0,) * (L - 1) + (a + 1,) for a in range(c - 1)]
    rules.append(tuple(draw(st.lists(st.integers(0, c - 1), min_size=L, max_size=L))))
    return FixedPointSpec(Substitution(Alphabet(tuple(f"x{a}" for a in range(c))), tuple(rules)), 0)


@st.composite
def codings(draw, fp):
    """None, or a random coding of fp's letters onto up to as many symbols, injective or not."""
    c = fp.sub.size
    m = draw(st.integers(1, c))
    table = tuple(draw(st.lists(st.integers(0, m - 1), min_size=c, max_size=c)))
    return draw(st.sampled_from([None, Coding(table, tuple(f"y{a}" for a in range(m)))]))


@st.composite
def level_cases(draw):
    """(fp, coding, k, ds): a random fixed point and coding, a level k that is a
    multiple of fp.power with L**k <= 256, and differences 1, 2 and one more,
    up to the end of the windows.
    """
    fp = draw(st.one_of(small_fixed_points(), late_letter_fixed_points()))
    L = fp.sub.length
    k = fp.power * draw(st.integers(0, max(j for j in range(9) if L ** (j * fp.power) <= 256)))
    end = level_windows(fp, k)[-1][1]
    d = draw(st.one_of(st.integers(1, L**k + 1), st.integers(1, end)))
    return fp, draw(codings(fp)), k, sorted({1, 2, d})


def _is_progression(word: np.ndarray, d: int, start: int, length: int) -> bool:
    terms = word[start:start + (length - 1) * d + 1:d]
    return len(terms) == length and (terms == terms[0]).all()


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(case=level_cases())
def test_level_windows_match_the_plain_kernel_property(case):
    fp, coding, k, ds = case
    word = PrefixSource(fp, coding).level(k)
    letters = prefix(fp, level_windows(fp, k)[-1][1], coding)
    for d in ds:
        want = max_ap_in_prefix(letters, d)
        got = max_ap_in_prefix(word, d)
        assert got.best_len <= want.best_len, d
        assert _is_progression(letters, d, got.best_start, got.best_len), d
        if got.best_len * d <= fp.sub.length**k:
            assert (got.best_len, got.best_start) == (want.best_len, want.best_start), d


def symmetries_by_trial(fp, coding) -> set[tuple[int, ...]]:
    """Every letter permutation τ with τ∘σ = σ∘τ, τ(W2) = W2 and κ∘τ = ρ∘κ for a map ρ,
    tried one permutation at a time."""
    sub, words = fp.sub, set(_two_words(fp))
    table = coding.table if coding is not None else range(sub.size)
    found = set()
    for tau in itertools.permutations(range(sub.size)):
        rho = {}
        if all(tau[sub.rules[a][i]] == sub.rules[tau[a]][i]
               for a in range(sub.size) for i in range(sub.length)) \
                and {(tau[u], tau[v]) for u, v in words} == words \
                and all(rho.setdefault(table[a], table[tau[a]]) == table[tau[a]]
                        for a in range(sub.size)):
            found.add(tau)
    return found


@st.composite
def symmetric_cases(draw):
    """(fp, coding): a primitive substitution on up to 4 letters that commutes with a
    random letter permutation g, or a random one, and a coding that is random,
    injective, constant on the orbits of g, or None.

    σ(g^j a) = g^j σ(a) is well defined when every letter of σ(a) is fixed by
    g^m, m the length of the orbit of a.
    """
    c, L = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    g = draw(st.permutations(range(c)))
    orbit_of = {}
    for a in range(c):
        orbit = [a]
        while g[orbit[-1]] != a:
            orbit.append(g[orbit[-1]])
        orbit_of[a] = orbit
    rules = [None] * c
    symmetric = draw(st.booleans())
    for a in range(c):
        if rules[a] is not None:
            continue
        m = len(orbit_of[a])
        allowed = [b for b in range(c) if m % len(orbit_of[b]) == 0] if symmetric else range(c)
        image = draw(st.lists(st.sampled_from(allowed), min_size=L, max_size=L))
        for b in orbit_of[a] if symmetric else [a]:
            rules[b] = tuple(image)
            image = [g[x] for x in image]
    sub = Substitution(Alphabet(tuple(f"x{a}" for a in range(c))), tuple(rules))
    assume(is_primitive(sub))
    fp = FixedPointSpec.find(sub)
    m = draw(st.integers(1, c))
    names = tuple(f"y{a}" for a in range(c))
    coding = draw(st.sampled_from([
        None,
        Coding(tuple(draw(st.lists(st.integers(0, m - 1), min_size=c, max_size=c))), names[:m]),
        Coding(tuple(draw(st.permutations(range(c)))), names),
        Coding(tuple(min(orbit_of[a]) for a in range(c)), names)]))
    return fp, coding


def check_rows_match_all_windows(fp, coding, d_to: int, policy: ScanPolicy) -> None:
    """scan rows read from one 2-word per orbit against rows read from every 2-word: the
    same value and start where both or neither are over the budget (prefix_len the
    cap), and where one is, a decided value no less than its lower bound."""
    rows = scan(fp, coding, 1, d_to, policy)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(PrefixSource, "symmetries", ())  # no symmetry: every 2-word is kept
        every = scan(fp, coding, 1, d_to, policy)
    for kept, row in zip(rows, every, strict=True):
        over = kept.prefix_len == policy.prefix_cap, row.prefix_len == policy.prefix_cap
        if over[0] == over[1]:
            assert (kept.best_len, kept.best_start, kept.status) == \
                (row.best_len, row.best_start, row.status), (kept, row, coding)
        else:
            decided, bound = (row, kept) if over[0] else (kept, row)
            assert decided.best_len >= bound.best_len, (kept, row, coding)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(case=symmetric_cases())
def test_orbit_windows_match_all_windows_property(case):
    # the symmetries are exactly those found by trial, and the rows read from one
    # 2-word per orbit match those read from every 2-word
    fp, coding = case
    assert set(PrefixSource(fp, coding).symmetries) == symmetries_by_trial(fp, coding)
    check_rows_match_all_windows(fp, coding, 40, ScanPolicy(prefix_cap=2**14))


@pytest.mark.parametrize("name", BUILTINS + ["tm:5", "tm:9", "tm:16", "vandermonde:5"])
def test_orbit_windows_match_all_windows(name):
    # scan rows at d = 1..300 read from one 2-word per orbit match those read from
    # every 2-word; a 2^22 budget keeps the rows over it (the even d of the digit
    # codings, A(d) infinite) quick, and they read the same prefix either way
    b = get_builtin(name)
    fp = b.fixed_point()
    for coding in [None, *b.codings().values()]:
        check_rows_match_all_windows(fp, coding, 300, ScanPolicy(prefix_cap=2**22))


@pytest.mark.parametrize("name,coding,symmetries,kept", [
    ("rs", None, 2, 4), ("rs", "spin", 2, 4), ("rs", "digit", 2, 4), ("tm:2", None, 2, 2),
    ("c3-invpal", None, 3, 2), ("hadamard4", "spin", 2, 8), ("vandermonde:5", "spin", 5, 25),
    ("tm:9", None, 9, 9), ("supersub6", None, 1, 33), ("outlook6", None, 1, 14)])
def test_symmetries_of_the_builtins(name, coding, symmetries, kept):
    b = get_builtin(name)
    fp, code = b.fixed_point(), b.coding(coding) if coding else None
    src = PrefixSource(fp, code)
    assert len(src.symmetries) == symmetries
    assert len(src.kept) == kept
    # the least first occurrence of each orbit is kept, the seed's 2-word among them
    assert src.kept[0] == 0
    assert set(src.kept) <= set(_two_words(fp).values())


def test_symmetries_need_every_letter_in_the_word():
    # c is in no image of a or b, so x has no c: the swap of a and b commutes with σ,
    # but with a letter outside x no symmetry is used, and every window is kept
    fp = FixedPointSpec.find(parse_substitution("a -> ab ; b -> ba ; c -> cc"), "a")
    src = PrefixSource(fp)
    assert src.symmetries == ()
    assert src.kept == tuple(sorted(_two_words(fp).values()))


def check_index(fp, coding, symmetries, budget: int) -> None:
    """The source's letters, cover and kept windows against the windows listed block
    by block (window_reference), at each level k, a multiple of fp.power, whose kept
    windows hold at most `budget` letters."""
    src, k = PrefixSource(fp, coding), 0
    while (total := window_letters(kept := orbit_windows(fp, symmetries, k))) <= budget:
        assert src.letters(k) == total, k  # the budget of a_of_d
        assert src.cover * fp.sub.length**k == kept[-1][1], k  # the end of the last window
        assert src.windows(k) == kept, k
        if total <= 2**16:
            assert tuple((o, o + b - a) for a, b, o in src.level(k).spans) == kept, k
        k += fp.power


@pytest.mark.parametrize("name", BUILTINS + ["tm:5", "tm:9", "tm:16", "vandermonde:5"])
def test_index_matches_the_listed_windows(name):
    # symmetries by trial up to 6 letters; above, the source's own, whose counts
    # test_symmetries_of_the_builtins pins
    b = get_builtin(name)
    fp = b.fixed_point()
    for coding in [None, *b.codings().values()]:
        symmetries = symmetries_by_trial(fp, coding) if fp.sub.size <= 6 \
            else PrefixSource(fp, coding).symmetries
        check_index(fp, coding, symmetries, 2**26)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(case=symmetric_cases())
def test_index_matches_the_listed_windows_property(case):
    fp, coding = case
    check_index(fp, coding, symmetries_by_trial(fp, coding), 2**14)


@st.composite
def block_cases(draw):
    """(fp, coding, d): a fixed point of a random substitution, primitive or not, of
    power up to twice its cycle length, or one inside the domain of upper_bound;
    a random coding, injective or not; and a difference.
    """
    fp = draw(st.one_of(
        small_fixed_points(), late_letter_fixed_points(),
        cyclic_column_substitutions().map(lambda case: FixedPointSpec.find(case[0]))))
    return fp, draw(codings(fp)), draw(st.integers(1, 40))


class PrefixReads(PrefixSource):
    """A PrefixSource that records the prefix lengths it is asked for."""

    def __init__(self, fp, coding=None):
        super().__init__(fp, coding)
        self.reads = []

    def get(self, n):
        self.reads.append(n)
        return super().get(n)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=block_cases())
def test_a_of_d_matches_the_oracle_past_its_windows_property(case):
    fp, coding, d = case
    src = PrefixReads(fp, coding)
    policy = ScanPolicy(prefix_cap=2**16)
    row = a_of_d(fp, coding, d, policy, source=src)
    if src.reads:  # over the budget: the plain kernel on the first 2^16 letters
        want = max_ap_in_prefix(prefix(fp, policy.prefix_cap, coding), d)
        assert row == want
        return
    assert row.status == (EXACT if in_exact_domain(fp, coding) else LOWER), row
    bound = upper_bound(fp.sub, d)
    if bound is not None and (coding is None or coding.is_injective):
        assert row.best_len <= bound, row
    if row.prefix_len <= 2**12:  # the oracle past the last window, up to a level above it
        word = prefix(fp, fp.sub.length * row.prefix_len, coding).tolist()
        assert (row.best_len, row.best_start) == max_ap_oracle(word, d), row


def test_level_windows_leftmost_start_past_the_first_block_of_its_window():
    # x = (aaab aaab aaab aaac)^3 aaab aaab aaab cccc ...: the first run of 4 is
    # block 15 = cccc, the second block of the window of "ac" at block 14, and
    # it is reported at its place in x though packed from letter 64
    fp = FixedPointSpec.find(parse_substitution("a -> aaab ; b -> aaac ; c -> cccc"), "a")
    # aa, ab, ba first occur at 0, 2, 3, ac, ca at 14, 15, and bc, cc at 59, 60
    assert level_windows(fp, 1) == ((0, 20), (56, 68), (236, 248))
    word = PrefixSource(fp).level(1)
    assert word.spans == ((0, 20, 0), (64, 76, 56), (128, 140, 236))
    letters = prefix(fp, 248)
    got = max_ap_in_prefix(PackedWord.pack_factors(level_windows(fp, 1)[:2], 2,
                                                   lambda a, b: letters[a:b]), 1)
    assert (got.best_len, got.best_start) == (4, 60)
    got = max_ap_in_prefix(word, 1)  # aaac cccc cccc from 236: the run of 9 from 239
    assert (got.best_len, got.best_start) == (9, 239) == max_ap_oracle(letters.tolist(), 1)


@pytest.mark.parametrize("name, coding, n", [
    ("tm:2", None, 2**20), ("rs", "spin", 2**20), ("tm:3", None, 3**13 + 5)])
def test_level_windows_edges(name, coding, n):
    # n is the budget: a level whose kept windows hold as many letters is read, one
    # letter more is not, and then the plain kernel reads the first n letters
    b = get_builtin(name)
    fp, code = b.fixed_point(), b.coding(coding) if coding else None
    src, symmetries = PrefixSource(fp, code), symmetries_by_trial(fp, code)
    for d in (1, 5, 64, 65):
        row = a_of_d(fp, code, d, ScanPolicy(prefix_cap=n), source=src)
        letters = window_letters(orbit_windows(fp, symmetries, _level(fp, row.best_len * d)))
        assert letters <= n and row.prefix_len == _certified_window(src, d, row.best_len)
        assert a_of_d(fp, code, d, ScanPolicy(prefix_cap=letters), source=src) == row
        over = a_of_d(fp, code, d, ScanPolicy(prefix_cap=letters - 1), source=src)
        assert over == max_ap_in_prefix(src.get(letters - 1), d), d
    # 2d + 1 <= n: the windows of the level of d alone are over the budget
    for d in (n // 2 - 1, (n - 1) // 2):
        row = a_of_d(fp, code, d, ScanPolicy(prefix_cap=n), source=src)
        assert row == max_ap_in_prefix(src.get(n), d), d


def test_level_windows_with_no_two_term_progression():
    # x = abab...: no equal letters at odd d, so M = 1 and the start is 0
    fp = FixedPointSpec.find(parse_substitution("a -> ab ; b -> ab"), "a")
    src = PrefixSource(fp)
    for d in (1, 3, 63, 65):
        got = max_ap_in_prefix(src.level(_level(fp, d)), d)
        assert (got.best_len, got.best_start) == (1, 0)
        row = a_of_d(fp, None, d, source=src)
        assert (row.best_len, row.best_start, row.status) == (1, 0, LOWER)
        assert row.prefix_len == src.cover * 2 ** _level(fp, d)


def test_prefix_source_lets_its_levels_go_before_growing(monkeypatch):
    # a level is packed once, from chunks of at most _PACK_CHUNK letters, and
    # packing a prefix lets the levels go before it generates a letter
    monkeypatch.setattr(apword.progressions, "_PACK_CHUNK", 2**16)
    lengths, held = [], []
    real_factor = apword.progressions.factor

    def spy(fp, start, stop, coding=None):
        lengths.append(stop - start)
        held.append(ref is not None and ref() is not None)
        return real_factor(fp, start, stop, coding)

    ref = None
    monkeypatch.setattr(apword.progressions, "factor", spy)
    src = PrefixSource(get_builtin("tm:3").fixed_point())  # three letters: two planes
    B = 3**12  # one 2-word per orbit of the cyclic shifts: the windows [0, 4B) and [8B, 10B)
    level = src.level(12)
    assert src.level(12) is level and len(lengths) == -(-4 * B // 2**16) + -(-2 * B // 2**16)
    ref = weakref.ref(level.planes)
    del level
    held.clear()
    src.get(2**20)
    assert held and not any(held), "a level was held while the prefix was packed"
    assert max(lengths) <= 2**16
    a = -(-4 * B // 64) * 64  # the second window is packed from the next word
    assert src.level(12).spans == ((0, 4 * B, 0), (a, a + 2 * B, 8 * B))


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
    assert _bound_applies.__wrapped__(periodic) is False  # bypass the caches
    assert _certification_basis.__wrapped__(periodic) is None
    assert requested == []


def test_scan_builds_no_group_and_no_pair_cover_power(monkeypatch):
    # the exact domain reads star_defect and the commutation of the columns; the
    # closure and N are for upper_bound and the families
    fp = get_builtin("tm:16").fixed_point()
    want = scan(fp, None, 1, 20)

    def refuse(sub):
        raise AssertionError("the scan path builds the column group or N")

    monkeypatch.setattr(apword.progressions, "generate_group", refuse)
    monkeypatch.setattr(apword.progressions, "min_pair_cover_power", refuse)
    monkeypatch.setattr(apword.substitution, "min_pair_cover_power", refuse)
    _bound_applies.cache_clear()
    _certification_basis.cache_clear()
    assert scan(fp, None, 1, 20) == want
    assert {row.status for row in want} == {EXACT}


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
    # r_override is not read: the cover certifies with or without it
    assert a_of_d(fp, None, 3, ScanPolicy()) == certified
    # 01 and 11 are kept, at 0 and 1 (10 and 00 are their swaps), and 8 * 3 <= 32, so
    # the kept windows end at 3 * 32 = 96 letters
    assert _certified_window(PrefixSource(fp), 3, 8) == certified.prefix_len == 96
    # they hold 96 letters: a smaller budget leaves an honest lower bound
    assert a_of_d(fp, None, 3, ScanPolicy(prefix_cap=96)) == certified
    uncert = a_of_d(fp, None, 3, ScanPolicy(prefix_cap=95))
    assert (uncert.best_len, uncert.prefix_len, uncert.status) == (8, 95, LOWER)


def test_a_of_d_decides_rows_whose_windows_reach_past_the_cap():
    # the first pair of equal neighbours starts at L^(L-1) - 1, the last kept 2-word:
    # the kept windows of tm:9 end at 387,420,498 letters, those of tm:16 far past any
    # prefix under the cap
    for L, prefix_len in ((9, 387_420_498), (16, 16**16 + 16)):
        fp = get_builtin(f"tm:{L}").fixed_point()
        row = a_of_d(fp, None, 1)
        assert (row.best_len, row.best_start, row.status) == (2, L ** (L - 1) - 1, EXACT)
        assert row.prefix_len == PrefixSource(fp).cover * L == prefix_len
        s = row.best_start  # and no third
        assert letter_index_at(fp, s) == letter_index_at(fp, s + 1)
        assert letter_index_at(fp, s + 2) != letter_index_at(fp, s) != letter_index_at(fp, s - 1)
    assert 387_420_498 < PREFIX_CAP < 16**16
    sup = get_builtin("supersub6").fixed_point()
    assert [a_of_d(sup, None, d).best_len for d in (26, 104, 112)] == [7, 8, 8]
    rs = get_builtin("rs")
    row = a_of_d(rs.fixed_point(), rs.coding("spin"), 1025)
    assert (row.best_len, row.best_start) == (514, 2**21 - 1025)
    rows = scan(get_builtin("tm:5").fixed_point(), None, 1, 200, ScanPolicy(prefix_cap=2**24))
    assert all(row.status == EXACT for row in rows)


def test_rows_over_the_budget_of_all_the_windows_are_decided():
    # the kept windows fit the budget where those of all the 2-words do not: rs/spin
    # d = 4094 reads level 23, 5 blocks of 2^23 letters in place of 11
    rs = get_builtin("rs")
    row = a_of_d(rs.fixed_point(), rs.coding("spin"), 4094)
    assert (row.best_len, row.best_start, row.prefix_len, row.status) == \
        (1027, 8_384_514, 41_943_040, LOWER)
    c3 = get_builtin("c3-invpal")
    members = difference_families(c3.substitution, [3], names=["identity"])
    [report] = verify_family(c3.fixed_point(), None, members)
    assert (report.family.d, report.measured.best_len, report.measured.status) == \
        (15_751, 127, EXACT)


def test_scan_rows_do_not_depend_on_the_range():
    # a row starts at the level of the previous row's value, or of d with no
    # previous row: the rows agree anyway, prefix_len included
    b = get_builtin("rs")
    fp, coding = b.fixed_point(), b.coding("spin")
    first, second = scan(fp, coding, 65, 264), scan(fp, coding, 100, 299)
    assert first[100 - 65:] == second[:264 - 100 + 1]
    src = PrefixSource(fp, coding)
    assert first == [a_of_d(fp, coding, d, source=src) for d in range(65, 265)]


@st.composite
def small_fixed_points(draw):
    """Fixed points of random substitutions with c <= 4 and 2 <= L <= 4, primitive
    or not, at up to twice the cycle length of the seed under the first column.
    """
    c, L = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    rules = tuple(tuple(draw(st.lists(st.integers(0, c - 1), min_size=L, max_size=L)))
                  for _ in range(c))
    sub = Substitution(Alphabet(tuple(f"x{a}" for a in range(c))), rules)
    seed = draw(st.sampled_from([a for a in range(c) if _cycle_length(sub, a) is not None]))
    return FixedPointSpec(sub, seed, _cycle_length(sub, seed) * draw(st.integers(1, 2)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fp=small_fixed_points())
def test_two_word_cover_matches_the_first_occurrences_in_a_prefix(fp):
    src = PrefixSource(fp)
    x = prefix(fp, max(2**14, 2 * max(_two_words(fp).values()) + 4)).astype(np.int64)
    codes, first = np.unique(x[:-1] * fp.sub.size + x[1:], return_index=True)
    seen = {divmod(int(code), fp.sub.size): int(i) for code, i in zip(codes, first)}
    assert dict(_two_words(fp)) == seen  # an index too small shows past it
    assert src.cover == max(src.kept) + 2


def test_two_word_cover_reads_no_prefix(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the cover read a prefix")

    monkeypatch.setattr(apword.progressions, "factor", refuse)
    monkeypatch.setattr(apword.stream, "factor", refuse)
    for L in range(2, 13):
        # the last new 2-word of tm:L starts at (2L - 1) * L^(L-1) - 1: 731,794,256
        # for L = 9, which a prefix read would reach only at 2^30 letters
        fp = get_builtin(f"tm:{L}").fixed_point()
        first = _two_words.__wrapped__(fp)
        assert len(first) == L * L and max(first.values()) == (2 * L - 1) * L ** (L - 1) - 1
        # one 2-word per orbit of the cyclic shifts is kept, the last at L^(L-1) - 1
        src = PrefixSource(fp)
        assert src.cover == max(src.kept) + 2 == L ** (L - 1) + 1
    monkeypatch.undo()
    for L in range(2, 8):  # the same index read off a prefix, up to 2 * 1,529,438 letters
        fp = get_builtin(f"tm:{L}").fixed_point()
        i2 = max(_two_words(fp).values())
        x = prefix(fp, 2 * i2 + 4).astype(np.int64)
        codes, first = np.unique(x[:-1] * L + x[1:], return_index=True)
        assert len(codes) == L * L and first.max() == i2


@st.composite
def cyclic_column_substitutions(draw):
    """(substitution, coding): columns are powers g^e of one c-cycle g, column 0
    the identity, inside the domain of upper_bound; the coding is None or a
    random injective relabelling.
    """
    c, L = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    cycle = draw(st.permutations(range(c)))
    g = {cycle[j]: cycle[(j + 1) % c] for j in range(c)}
    exponents = [0] + draw(st.lists(st.integers(0, c - 1), min_size=L - 1, max_size=L - 1))
    rules = []
    for a in range(c):
        image = [a]
        for _ in range(c - 1):
            image.append(g[image[-1]])
        rules.append(tuple(image[e] for e in exponents))
    sub = Substitution(Alphabet(tuple(f"x{a}" for a in range(c))), tuple(rules))
    assume(upper_bound(sub, 1) is not None)
    relabel = Coding(tuple(draw(st.permutations(range(c)))), tuple(f"y{a}" for a in range(c)))
    return sub, draw(st.sampled_from([None, relabel]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=cyclic_column_substitutions(), initial=st.integers(1, 256),
       cap=st.integers(2**6, 2**10))
def test_cover_certifies_the_value_of_a_far_longer_prefix(case, initial, cap):
    sub, coding = case
    fp = FixedPointSpec.find(sub)  # the identity column fixes every letter: power 1
    far, x = prefix(fp, 2**13, coding).tolist(), prefix(fp, 2**13).tolist()
    first = {}
    for i, pair in enumerate(zip(x, x[1:])):
        first.setdefault(pair, i)
    assert len(first) == len(_legal_index_words(sub, 2))  # primitive: W2 is the legal 2-words
    symmetries = symmetries_by_trial(fp, coding)  # one 2-word per orbit is kept
    kept = [f for (u, v), f in first.items() if all(first[t[u], t[v]] >= f for t in symmetries)]
    value = {d: max_ap_oracle(far, d)[0] for d in range(1, 25)}
    for d, a in value.items():
        assert a <= upper_bound(sub, d)
        block = 1
        while block < a * d:
            block *= sub.length
        window = (2 + max(kept)) * block  # the cover, derived from the prefix
        # the kept windows [fB, (f+2)B) hold this many letters, the budget that decides A(d)
        held = len({f + j for f in kept for j in (0, 1)}) * block
        if 2 * d + 1 < held and window <= 2**12:
            row = a_of_d(fp, coding, d, ScanPolicy(prefix_cap=held))
            assert (row.best_len, row.prefix_len, row.status) == (a, window, EXACT), row
            assert a_of_d(fp, coding, d, ScanPolicy(prefix_cap=held - 1)).status == LOWER
    policy = ScanPolicy(initial_prefix=initial, prefix_cap=cap)
    for row in scan(fp, coding, 1, min(24, (cap - 1) // 2), policy):
        if row.status == EXACT:
            assert row.best_len == value[row.d], row


def test_a_of_d_certification_with_exact_recurrence():
    tm3 = get_builtin("tm:3")
    rep = recurrence_constants(tm3.substitution)
    # r_override is accepted but not read: the 2-word cover certifies d = 13
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
