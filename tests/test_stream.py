import heapq
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apword import (
    Alphabet,
    Coding,
    FixedPointSpec,
    PrefixSource,
    ResourceCapError,
    Substitution,
    SubstitutionError,
    a_of_d,
    factor,
    get_builtin,
    letter_at,
    letter_index_at,
    parse_substitution,
    prefix,
    spin_coding,
)
from apword.stream import _block_table, _cycle_length, _two_words

BUILTINS = ["tm:2", "tm:3", "tm:5", "rs", "hadamard4", "vandermonde:3", "outlook6",
            "a4-example", "c3-invpal", "s3-noninvpal", "supersub5", "supersub6",
            "vandermonde:5"]


@pytest.mark.parametrize("name", BUILTINS)
def test_prefix_matches_explicit_expansion(name):
    b = get_builtin(name)
    fp = b.fixed_point()
    expanded = b.substitution.expand(fp.seed, 4)
    got = prefix(fp, len(expanded))
    assert list(got) == expanded


@pytest.mark.parametrize("name", ["tm:3", "rs", "outlook6"])
def test_letter_at_agrees_with_prefix(name):
    b = get_builtin(name)
    fp = b.fixed_point()
    w = prefix(fp, 2**20)
    rng = random.Random(20260808)
    for _ in range(1000):
        n = rng.randrange(2**20)
        assert letter_at(fp, n) == b.substitution.alphabet.letters[w[n]]


def test_known_prefixes():
    tm = get_builtin("tm:2")
    assert bytes(prefix(tm.fixed_point(), 8)) == bytes([0, 1, 1, 0, 1, 0, 0, 1])
    tm3 = get_builtin("tm:3")
    fp3 = tm3.fixed_point()
    assert [letter_at(fp3, n) for n in range(3)] == ["0", "1", "2"]
    assert letter_at(fp3, 0) == fp3.sub.alphabet.letters[fp3.seed]


def test_rs_spin_prefix_matches_listed_values():
    rs = get_builtin("rs")
    u = prefix(rs.fixed_point(), 16, rs.coding("spin"))
    # exponents of the sign sequence 1,1,1,-1,1,1,-1,1,1,1,1,-1,-1,-1,1,-1
    assert list(u) == [0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1]


def test_coding_commutes_with_prefix():
    rs = get_builtin("rs")
    fp = rs.fixed_point()
    coding = rs.coding("spin")
    plain = prefix(fp, 4096)
    assert np.array_equal(coding.apply(plain), prefix(fp, 4096, coding))


def test_coding_from_map_and_injectivity():
    tm = get_builtin("tm:2").substitution
    swap = Coding.from_map(tm, {"0": "x", "1": "y"})
    assert swap.is_injective
    collapse = Coding.from_map(tm, {"0": "x", "1": "x"})
    assert not collapse.is_injective
    with pytest.raises(SubstitutionError):
        Coding.from_map(tm, {"0": "x"})


@pytest.mark.parametrize("name", ["tm:3", "tm:5", "tm:2"])
def test_coding_for_another_alphabet_is_an_error(name):
    # the 4-entry rs spin coding once gave tm:3 letters and A(2) = 12, and tm:5 an IndexError
    fp = get_builtin(name).fixed_point()
    for coding in (get_builtin("rs").coding("spin"), Coding((0,), ("x",))):
        with pytest.raises(SubstitutionError, match="coding of"):
            prefix(fp, 12, coding)
        with pytest.raises(SubstitutionError, match="coding of"):
            factor(fp, 5, 9, coding)
        with pytest.raises(SubstitutionError, match="coding of"):
            PrefixSource(fp, coding).get(12)
        with pytest.raises(SubstitutionError, match="coding of"):
            a_of_d(fp, coding, 2)


@pytest.mark.parametrize("bad", [0, "", "y z", "y\n", None, ["y"]])
def test_coding_symbols_are_whitespace_free_tokens(bad):
    tm = get_builtin("tm:2").substitution
    with pytest.raises(SubstitutionError, match="bad coding symbol"):
        Coding.from_map(tm, {"0": "x", "1": bad})
    with pytest.raises(SubstitutionError, match="bad coding symbol"):
        Coding((0, 1), ("x", bad))


def test_coding_has_at_most_256_symbols():
    names = tuple(f"s{i}" for i in range(257))
    with pytest.raises(SubstitutionError, match="257 coding symbols, more than 256"):
        Coding((0, 256), names)
    # an index past 255 once built, then broke the uint8 table on the first prefix
    with pytest.raises(SubstitutionError, match="more than 256"):
        Coding((0, 300), tuple(str(i) for i in range(301)))
    fp = get_builtin("tm:2").fixed_point()
    wide = Coding((0, 255), names[:256])
    assert prefix(fp, 8, wide).tolist() == [0, 255, 255, 0, 255, 0, 0, 255]


def test_coding_symbols_are_distinct():
    # two output indices printed alike would make the text form lie about is_injective
    with pytest.raises(SubstitutionError, match="duplicate coding symbols"):
        Coding((0, 1), ("x", "x"))
    with pytest.raises(SubstitutionError, match="duplicate coding symbols"):
        Coding((0, 0), ("x", "y", "x"))


@pytest.mark.parametrize("mapping", [5, ["x", "y"], "xy", None])
def test_coding_from_map_needs_a_mapping(mapping):
    # a JSON number once died with a TypeError in the letter lookup
    with pytest.raises(SubstitutionError, match="maps each letter"):
        Coding.from_map(get_builtin("tm:2").substitution, mapping)


def test_seed_power_search():
    sub = parse_substitution("a -> ba ; b -> ab")
    fp = FixedPointSpec.find(sub)
    assert fp.power == 2
    w = prefix(fp, 16)
    # fixed point of the square: abba baab baab abba
    assert "".join(sub.alphabet.letters[i] for i in w) == "abbabaabbaababba"
    for n in (0, 3, 7, 11, 15):
        assert letter_at(fp, n) == sub.alphabet.letters[w[n]]


def test_seed_validation():
    sub = parse_substitution("a -> ab ; b -> ab")
    with pytest.raises(SubstitutionError):
        FixedPointSpec(sub, 1, 1)  # rho(b) starts with a, not b
    fp = FixedPointSpec.find(sub, "a")
    assert fp.power == 1
    sub = parse_substitution("a -> ab ; b -> ca ; c -> bc")
    assert FixedPointSpec.find(sub, 2) == FixedPointSpec.find(sub, "c") == FixedPointSpec(sub, 2, 2)
    for seed in (3, 5, -1):  # -1 once named the letter 'c', 5 raised an IndexError
        with pytest.raises(SubstitutionError, match=f"letter index {seed} out of range"):
            FixedPointSpec.find(sub, seed)


def test_prefix_resource_cap():
    fp = get_builtin("tm:2").fixed_point()
    with pytest.raises(ResourceCapError):
        prefix(fp, 2**20, cap=2**10)
    with pytest.raises(SubstitutionError):
        prefix(fp, 0)


def test_prefix_length_one_is_seed():
    for name in BUILTINS:
        fp = get_builtin(name).fixed_point()
        assert prefix(fp, 1)[0] == fp.seed


def prefix_by_rounds(fp, length, coding=None):
    """Slow reference: one full pass per substitution round, truncating each
    intermediate to what the remaining rounds of the power still need."""
    L = fp.sub.length
    arr = np.array([fp.seed], dtype=np.uint8)
    rules = np.array(fp.sub.rules, dtype=np.uint8)
    while len(arr) < length:
        for j in range(fp.power):
            need = -(-length // L ** (fp.power - j - 1))  # ceil
            arr = rules[arr].reshape(-1)[:need]
    arr = arr[:length]
    return arr if coding is None else coding.apply(arr)


def block_size(L):
    """Letters per block-table row: L^j for the least j with L^j >= 256."""
    B = L
    while B < 256:
        B *= L
    return B


def edge_lengths(L):
    B = block_size(L)
    return [1, B - 1, B, B + 1, B * B - 1, B * B + 1]


def assert_matches_references(fp, length, coding=None):
    got = prefix(fp, length, coding)
    assert got.dtype == np.uint8 and got.shape == (length,)
    assert bytes(got) == bytes(prefix_by_rounds(fp, length, coding))
    table = np.arange(fp.sub.size) if coding is None else np.asarray(coding.table)
    rng = random.Random(length)
    positions = {0, length - 1} | {rng.randrange(length) for _ in range(64)}
    for n in sorted(positions):
        assert got[n] == table[letter_index_at(fp, n)], n


@pytest.mark.parametrize("name", BUILTINS)
def test_block_prefix_matches_references_for_every_coding(name):
    b = get_builtin(name)
    fp = b.fixed_point()
    sub = b.substitution
    assert _block_table(sub)[1].shape == (sub.size, block_size(sub.length))
    for coding in [None, *b.codings().values()]:
        for length in edge_lengths(sub.length):
            assert_matches_references(fp, length, coding)


def test_block_prefix_length_one_substitution():
    sub = parse_substitution("a -> b ; b -> a ; c -> a")
    collapse = Coding.from_map(sub, {"a": "x", "b": "y", "c": "x"})
    for seed in "ab":
        fp = FixedPointSpec.find(sub, seed)
        assert fp.power == 2
        for coding in (None, collapse):
            table = range(sub.size) if coding is None else coding.table
            assert list(prefix(fp, 1, coding)) == [table[fp.seed]]
            for length in (2, 256, 1000):  # the fixed point is the seed alone
                with pytest.raises(SubstitutionError):
                    prefix(fp, length, coding)
    with pytest.raises(SubstitutionError):  # L^j never reaches 256
        _block_table(sub)


def test_letter_index_at_length_one_substitution():
    fp = FixedPointSpec.find(parse_substitution("a -> b ; b -> a ; c -> a"), "a")
    assert letter_index_at(fp, 0) == 0
    with pytest.raises(SubstitutionError):  # base-1 digits: used to loop forever
        letter_index_at(fp, 1)


def test_block_prefix_single_level_table_for_long_rules():
    L = 300
    rng = random.Random(300)
    letters = ("a", "b", "c")
    sub = parse_substitution(" ; ".join(
        a + " -> " + a + "".join(rng.choice(letters) for _ in range(L - 1)) for a in letters))
    assert _block_table(sub)[1].shape == (3, L)
    collapse = Coding.from_map(sub, {"a": "0", "b": "1", "c": "1"})
    for seed in letters:
        fp = FixedPointSpec.find(sub, seed)
        for coding in (None, collapse):
            for length in edge_lengths(L):
                assert_matches_references(fp, length, coding)


def cyclic_first_column(p, L, seed=0):
    """Substitution whose first column cycles letters 0..p-1; one more letter
    outside the cycle maps into it. Other columns are random."""
    rng = random.Random(seed)
    c = p + 1
    rules = tuple(((a + 1) % p,) + tuple(rng.randrange(c) for _ in range(L - 1))
                  for a in range(c))
    return Substitution(Alphabet(tuple(f"x{a}" for a in range(c))), rules)


POWER_CASES = [
    (parse_substitution("a -> bab ; b -> aba"), 2),
    (cyclic_first_column(6, 2), 6),
    (cyclic_first_column(6, 3, seed=1), 6),
    (cyclic_first_column(3, 2, seed=2), 3),
    (cyclic_first_column(6, 5, seed=3), 6),
]


@pytest.mark.parametrize("sub,power", POWER_CASES)
def test_block_prefix_powers_from_every_seed(sub, power):
    seeds = [a for a in range(sub.size) if _cycle_length(sub, a) is not None]
    assert len(seeds) == power
    for seed in seeds:
        fp = FixedPointSpec.find(sub, seed)
        assert fp.power == power
        for length in edge_lengths(sub.length) + [3 * block_size(sub.length) ** 2 + 5]:
            assert_matches_references(fp, length)


@st.composite
def fixed_points(draw):
    """(fixed point, coding or None): powers up to 3 times the cycle length of the seed."""
    c = draw(st.integers(1, 6))
    L = draw(st.integers(2, 5))
    rules = tuple(tuple(draw(st.lists(st.integers(0, c - 1), min_size=L, max_size=L)))
                  for _ in range(c))
    sub = Substitution(Alphabet(tuple(f"x{a}" for a in range(c))), rules)
    seed = draw(st.sampled_from([a for a in range(c) if _cycle_length(sub, a) is not None]))
    power = _cycle_length(sub, seed) * draw(st.integers(1, 3))
    k = draw(st.integers(1, c))
    table = draw(st.lists(st.integers(0, k - 1), min_size=c, max_size=c))
    coding = draw(st.sampled_from([None, Coding(tuple(table), tuple(f"y{i}" for i in range(k)))]))
    return FixedPointSpec(sub, seed, power), coding


def coded_letter_at(fp, coding, n):
    x = letter_index_at(fp, n)
    return x if coding is None else coding.table[x]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=fixed_points(), data=st.data())
def test_block_prefix_agrees_with_letter_index_at(spec, data):
    fp, coding = spec
    B = block_size(fp.sub.length)
    length = data.draw(st.integers(1, 3 * B * B))
    got = prefix(fp, length, coding)
    positions = data.draw(st.lists(st.integers(0, length - 1), min_size=1, max_size=40))
    for n in positions + [0, length - 1]:
        assert got[n] == coded_letter_at(fp, coding, n), n


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spec=fixed_points(), data=st.data())
def test_factor_agrees_with_prefix_and_letter_index_at(spec, data):
    fp, coding = spec
    B = block_size(fp.sub.length)
    stop = data.draw(st.integers(1, 3 * B * B))
    edges = [e for m in (1, B, 2 * B, B * B, 2 * B * B) for e in (m - 1, m, m + 1) if e < stop]
    start = data.draw(st.integers(0, stop - 1) | st.sampled_from(edges or [0]))
    got = factor(fp, start, stop, coding)
    assert got.dtype == np.uint8
    assert bytes(got) == bytes(prefix(fp, stop, coding)[start:])
    positions = data.draw(st.lists(st.integers(start, stop - 1), min_size=1, max_size=40))
    for n in positions + [start, stop - 1]:
        assert got[n - start] == coded_letter_at(fp, coding, n), n


def test_factor_rejects_empty_and_negative_spans():
    fp = get_builtin("tm:2").fixed_point()
    for start, stop in ((5, 5), (6, 5), (-1, 3)):
        with pytest.raises(SubstitutionError):
            factor(fp, start, stop)
    one = FixedPointSpec.find(parse_substitution("a -> b ; b -> a ; c -> a"), "a")
    assert list(factor(one, 0, 1)) == [one.seed]
    with pytest.raises(SubstitutionError):  # the fixed point is the seed alone
        factor(one, 1, 2)


def two_words_by_images(fp):
    """Reference W2 of x = σ^p(x), first occurrence of each: for m = i·L^p + j with
    j < L^p, x[m, m+2) = σ^p(x_i x_{i+1})[j, j+2), so the first occurrences are the
    shortest paths from x_0 x_1 over the images σ^p(a), each built in full."""
    images = [fp.sub.expand(a, fp.power) for a in range(fp.sub.size)]
    first, heap = {}, [(0, fp.seed, images[fp.seed][1])]
    while heap:
        i, a, b = heapq.heappop(heap)
        if (a, b) not in first:
            first[a, b] = i
            w = images[a] + images[b]
            for j in range(len(images[a])):
                heapq.heappush(heap, (i * len(images[a]) + j, w[j], w[j + 1]))
    return first


@pytest.mark.parametrize("name", BUILTINS + ["tm:9", "tm:16"])
def test_two_words_of_builtins_match_the_images_of_the_power(name):
    fp = get_builtin(name).fixed_point()
    assert list(_two_words(fp).items()) == list(two_words_by_images(fp).items())


def test_two_words_match_the_images_of_the_power_at_random():
    # the phases σ^t(x), t < p, give the first occurrences, in order, that the
    # images σ^p(a) give, also for a seed taken at twice its cycle length
    rng = random.Random(30)
    powers = []
    for _ in range(3000):
        c, L = rng.randint(1, 4), rng.randint(2, 4)
        rules = tuple(tuple(rng.randrange(c) for _ in range(L)) for _ in range(c))
        sub = Substitution(Alphabet(tuple("abcd"[:c])), rules)
        seed = rng.choice([a for a in range(c) if _cycle_length(sub, a) is not None])
        fp = FixedPointSpec(sub, seed, _cycle_length(sub, seed) * rng.randint(1, 2))
        assert list(_two_words(fp).items()) == list(two_words_by_images(fp).items()), fp
        powers.append(fp.power)
    assert sum(p > 1 for p in powers) == 1929


def test_two_words_refuse_oversized_work_before_any_state(monkeypatch):
    # p·c²·L phase steps: 2^24 for tm:256 is admitted, 2^25 for a 256-letter cycle is not
    def refuse(*args):
        raise AssertionError("a state was made")

    monkeypatch.setattr(heapq, "heappop", refuse)
    with pytest.raises(AssertionError, match="a state was made"):
        _two_words.__wrapped__(get_builtin("tm:256").fixed_point())
    cycle = Substitution(Alphabet(tuple(f"x{k}" for k in range(256))),
                         tuple(((k + 1) % 256, k) for k in range(256)))
    with pytest.raises(ResourceCapError, match="2-words of 33554432 phase steps exceed cap"):
        _two_words.__wrapped__(FixedPointSpec.find(cycle))


def test_two_words_of_a_length_one_substitution_raise():
    with pytest.raises(SubstitutionError, match="one-letter fixed point"):
        _two_words(FixedPointSpec.find(parse_substitution("a -> b ; b -> a")))
