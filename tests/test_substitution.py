import heapq
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from math import gcd
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apword
import apword.stream
import apword.substitution
from apword import (
    Alphabet,
    AperiodicityResult,
    FixedPointSpec,
    ParseError,
    ResourceCapError,
    Substitution,
    SubstitutionError,
    SpinSystem,
    aperiodicity_certificate,
    build_spin_substitution,
    builtin_names,
    column,
    columns,
    get_builtin,
    height,
    induced_two_block,
    is_primitive,
    legal_words,
    min_pair_cover_power,
    parse_substitution,
    power_column,
    prefix,
    recurrence_constants,
)
from apword.groups import compose, generate_group, identity_perm, perm_order
from apword.progressions import _bound_applies
from apword.spin import spin_system_from_json
from apword.stream import WindowIndex, _two_words
from apword.substitution import (
    _legal_index_words,
    base_digits,
    is_bijective,
    star_defect,
    substitution_power,
)

TM = parse_substitution("0 -> 01 ; 1 -> 10")
# every builtin whose exact recurrence the prefix scan below fits under 2^26 letters
SCANNED = ["a4-example", "c3-invpal", "hadamard4", "outlook6", "rs", "s3-noninvpal",
           "supersub5", "tm:2", "tm:3", "vandermonde:3", "vandermonde:5"]


def random_primitive_substitutions(seed: int, count: int, max_c: int = 5, max_L: int = 5):
    """count seeded random primitive substitutions with 2 <= c <= max_c, 2 <= L <= max_L."""
    rng = random.Random(seed)
    while count:
        c, L = rng.randint(2, max_c), rng.randint(2, max_L)
        rules = tuple(tuple(rng.randrange(c) for _ in range(L)) for _ in range(c))
        sub = Substitution(Alphabet(tuple("abcde"[:c])), rules)
        if is_primitive(sub):
            count -= 1
            yield sub


def primitive_half_bijective(seed: int, count: int):
    """count seeded random primitive substitutions with 1 <= c <= 5, 2 <= L <= 4, about
    half of the draws with every column a random permutation."""
    rng = random.Random(seed)
    while count:
        c, L = rng.randint(1, 5), rng.randint(2, 4)
        if rng.random() < 0.5:
            cols = [rng.sample(range(c), c) for _ in range(L)]
            rules = tuple(tuple(col[a] for col in cols) for a in range(c))
        else:
            rules = tuple(tuple(rng.randrange(c) for _ in range(L)) for _ in range(c))
        sub = Substitution(Alphabet(tuple("abcde"[:c])), rules)
        if is_primitive(sub):
            count -= 1
            yield sub


def two_words_share_an_end(sub: Substitution) -> bool:
    """Reference 2-word criterion: two legal 2-words share a first or a last letter."""
    pairs = _legal_index_words(sub, 2)
    return len({a for a, _ in pairs}) < len(pairs) or len({b for _, b in pairs}) < len(pairs)


def perm_order_by_composing(p: tuple[int, ...]) -> int:
    """Reference order of a permutation: the composing loop, p, p∘p, … up to the identity."""
    ident, q, order = identity_perm(len(p)), p, 1
    while q != ident:
        q, order = compose(q, p), order + 1
    return order


def random_substitutions(seed: int, max_c: int, max_L: int):
    """Endless seeded random substitutions with 1 <= c <= max_c, 1 <= L <= max_L."""
    rng = random.Random(seed)
    while True:
        c, L = rng.randint(1, max_c), rng.randint(1, max_L)
        rules = tuple(tuple(rng.randrange(c) for _ in range(L)) for _ in range(c))
        yield Substitution(Alphabet(tuple("abcdefg"[:c])), rules)


def pair_cover_power_by_letter_sets(sub: Substitution) -> int:
    """Reference N of a primitive sub: per level n, the letter set and the 2-word set
    of each σ^n(a). The 2-words of σ^(n+1)(a) are those inside σ(x) for its letters x,
    and the pairs (last of σ(x), first of σ(y)) for its 2-words xy."""
    L, target = sub.length, legal_words_by_passes(sub, 2)
    letters = {a: {a} for a in range(sub.size)}
    pairs: dict[int, set] = {a: set() for a in range(sub.size)}
    for n in itertools.count(1):
        pairs = {a: {(sub.rules[x][i], sub.rules[x][i + 1]) for x in letters[a]
                     for i in range(L - 1)}
                 | {(sub.rules[x][L - 1], sub.rules[y][0]) for x, y in pairs[a]}
                 for a in range(sub.size)}
        letters = {a: {y for x in letters[a] for y in sub.rules[x]} for a in range(sub.size)}
        if all(pairs[a] >= target for a in range(sub.size)):
            return n


def legal_words_by_passes(sub: Substitution, n: int) -> frozenset:
    """Reference legal n-words: those of σ^k(a), L^k >= n, closed under taking the
    n-words of images, pass by pass over every known word until a pass adds none."""
    if n == 1:
        return frozenset((a,) for a in range(sub.size))
    if sub.length == 1:
        return frozenset()

    def subwords(word):
        return {tuple(word[i:i + n]) for i in range(len(word) - n + 1)}

    k = next(k for k in itertools.count() if sub.length**k >= n)
    words = set().union(*(subwords(sub.expand(a, k)) for a in range(sub.size)))
    while True:
        new = words.union(*(subwords(sub.apply(w)) for w in words))
        if new == words:
            return frozenset(words)
        words = new


def height_by_prefix(sub: Substitution, prefix_len: int) -> int:
    """Reference height: the largest divisor of gcd{m > 0 : x_m = x_0} coprime to L,
    over the first prefix_len letters of the fixed point."""
    w = prefix(FixedPointSpec.find(sub), prefix_len)
    g = int(np.gcd.reduce(np.flatnonzero(w[1:] == w[0]) + 1))
    while (d := gcd(g, sub.length)) > 1:
        g //= d
    return g


def zeta2_by_prefix(sub: Substitution, cap: int = 2**26) -> int | None:
    """Reference zeta_2: the largest gap between consecutive occurrences of a 2-word
    in a prefix long enough that every return word has occurred; None over cap."""
    c, L = sub.size, sub.length
    gap_bound = 2 * L ** min_pair_cover_power(sub) - 1
    needed = (L * gap_bound + 1) * (gap_bound + 2)
    if needed > cap:
        return None
    w = prefix(FixedPointSpec.find(sub), needed)
    codes = w[:-1].astype(np.int32) * c + w[1:]
    return max(int(np.diff(np.flatnonzero(codes == a * c + b)).max())
               for a, b in _legal_index_words(sub, 2))


def min_period_by_borders(seq) -> int:
    """Reference least period: smallest p with seq[i] == seq[i-p] for all i >= p,
    by the border (failure function) loop."""
    n = len(seq)
    border = [0] * n
    k = 0
    for i in range(1, n):
        while k and seq[i] != seq[k]:
            k = border[k - 1]
        if seq[i] == seq[k]:
            k += 1
        border[i] = k
    return n - border[-1]


def certificate_by_borders(sub: Substitution, n: int = 2**20) -> tuple[str, int | None]:
    """Reference (status, period): the least period P of x[0, n) by the border loop,
    accepted when P <= n/2 and sigma^q maps x[0, P) to L^q copies of itself. So it is
    ("PeriodicDetected", P) exactly when x has least period P <= n/2."""
    fp = FixedPointSpec.find(sub)
    w = prefix(fp, n).tolist()
    p = min_period_by_borders(w)
    block = w[:p]
    if p <= n // 2 and \
            substitution_power(sub, fp.power).apply(block) == block * sub.length**fp.power:
        return "PeriodicDetected", p
    return "Unknown", None


def subwords(word, n):
    return {tuple(word[i:i + n]) for i in range(len(word) - n + 1)}


def test_parse_tm():
    assert TM.size == 2 and TM.length == 2
    assert TM.word(0) == "01" and TM.word(1) == "10"


def test_equal_substitutions_built_apart_hash_equal():
    # the hash is computed once per substitution, from its letters and rules alone, so
    # a cache keyed on one finds what was stored under an equal one built apart
    subs = [TM, parse_substitution("0 -> 01 ; 1 -> 10"),
            parse_substitution('{"rules": {"0": "01", "1": "10"}}'),
            Substitution(Alphabet(("0", "1")), ((0, 1), (1, 0))),
            get_builtin("tm:2").substitution, get_builtin("tm:2").substitution]
    assert len({id(sub) for sub in subs}) == len(subs)
    assert all(sub == TM and hash(sub) == hash(TM) for sub in subs)
    fps = [FixedPointSpec.find(sub) for sub in subs]
    assert len(set(fps)) == 1 and {fp: 1 for fp in fps} == {fps[0]: 1}
    assert all(apword.stream._two_words(fp) is apword.stream._two_words(fps[0]) for fp in fps)


def test_a_pickled_substitution_is_hashed_where_it_is_loaded(tmp_path):
    # strings hash differently in each process, so a stored hash must not travel:
    # a fixed point pickled under one hash seed is found in a dict under another
    path, src = str(tmp_path / "fp.pickle"), str(Path(apword.__file__).parent.parent)
    rs = "get_builtin('rs').fixed_point()"
    for seed, code in [("1", f"open({path!r}, 'wb').write(pickle.dumps({rs}))"),
                       ("2", f"assert {{{rs}: 1}}[pickle.loads(open({path!r}, 'rb').read())]")]:
        code = f"import pickle; from apword import get_builtin; {code}"
        subprocess.run([sys.executable, "-c", code], check=True,
                       env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src))


def test_parse_outlook_rules():
    sub = parse_substitution("a -> ad ; b -> bc ; c -> ea ; d -> ab ; e -> bf ; f -> ba")
    assert sub.size == 6 and sub.length == 2
    assert sub.word(sub.alphabet.index("c")) == "ea"


def test_parse_json_mirror():
    sub = parse_substitution('{"alphabet": ["a", "d"], "rules": {"a": ["a", "d"], "d": ["a", "a"]}}')
    assert sub.alphabet.letters == ("a", "d")
    assert sub.word(1) == "aa"


def test_parse_comments_newlines_header():
    sub = parse_substitution("""
        @alphabet 1 0
        0 -> 01   # first rule
        1 -> 10
    """)
    assert sub.alphabet.letters == ("1", "0")


@pytest.mark.parametrize("source,fragment", [
    ("0 -> 01 ; 1 -> 1", "unequal rule lengths"),
    ("0 -> 01 ; 1 -> 12", "missing rule for letter '2'"),
    ("0 -> 01", "missing rule for letter '1'"),
    ("0 -> 01 ; 0 -> 10 ; 1 -> 10", "duplicate rule"),
    ("0 = 01", "expected 'letter -> word'"),
    ("@alphabet 0\n0 -> 01\n1 -> 10", "unknown letter '1'"),
    ("@alphabet 0 1 2\n0 -> 01\n1 -> 10", "missing rule for letter '2'"),
    ("@alphabet a a b\na -> ab\nb -> ba", "duplicate letters in ('a', 'a', 'b')"),
    # JSON mirrors read without an error, or with another one, before they got the text checks
    ('{"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "ba", "c": "cc"}}',
     "rule for letter 'c' not in @alphabet header"),
    ('{"rules": {"a": "ab", "b": "ba", "a": "aa"}}', "duplicate rule for letter 'a'"),
    ('{"rules": {"a": "ab", "b": null}}', "rule word for 'b' is not a string or a list of strings"),
    ('{"rules": {}}', "no rules found"),
    ('{"rules": {"a": "ab", "b": "bx"}}', "unknown letter 'x' in rule for 'b'"),
    ('{"rules": {"a": "ab", "b": ""}}', "empty rule word for 'b'"),
    ('{"rules": {"a b": "ab"}}', "bad letter 'a b' on rule left-hand side"),
    ('{"rules": {"a": "ab", "b": "ba"}, "alphabet": ["a", "a", "b"]}',
     "duplicate letters in ('a', 'a', 'b')"),
    ('{"rules": {"a": "ab"', "bad JSON source: "),
    # a repeated or unknown top-level key was read as the last one, or not at all
    ('{"rules": {"a": "ab", "b": "ba"}, "rules": {"a": "aa", "b": "bb"}}',
     "keys ['rules', 'rules'] repeat or are unknown"),
    ('{"rules": {"a": "ab", "b": "ba"}, "alfabet": ["q"]}',
     "keys ['rules', 'alfabet'] repeat or are unknown"),
])
def test_parse_errors(source, fragment):
    with pytest.raises(ParseError) as err:
        parse_substitution(source)
    assert fragment in str(err.value)


def test_alphabet_has_at_most_256_letters():
    letters = tuple(f"x{i}" for i in range(257))
    with pytest.raises(SubstitutionError, match="257 letters, more than 256"):
        Alphabet(letters)
    assert Alphabet(letters[:256]).size == 256
    for bad in ("", "a b", None):
        with pytest.raises(SubstitutionError, match="bad letter"):
            Alphabet(("a", bad))


def _traced_peak(make) -> int:
    """Peak traced bytes while make() raises a SubstitutionError naming the 256 limit."""
    tracemalloc.start()
    try:
        with pytest.raises(SubstitutionError, match="256"):
            make()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("make", [
    lambda: get_builtin("tm:1000"),
    lambda: get_builtin("vandermonde:100"),
    lambda: get_builtin("vandermonde:100000"),
    lambda: build_spin_substitution(spin_system_from_json(
        (("modulus", 100000), ("matrix", [[0, 0], [0, 1]])))),
    lambda: get_builtin("tm:257"),
    lambda: get_builtin("vandermonde:17"),
    lambda: build_spin_substitution(SpinSystem(129, ((0, 0), (0, 1)))),
], ids=["tm:1000", "vandermonde:100", "vandermonde:100000", "modulus:100000",
        "tm:257", "vandermonde:17", "2*129"])
def test_oversized_builtins_raise_before_building(make):
    # the alphabet and its rules (L^2, L^3 or D*m*D entries), or the L x L Vandermonde
    # matrix, were built before the check
    assert _traced_peak(make) < 2**20


def test_builtins_at_the_letter_limit_still_build():
    assert get_builtin("tm:256").substitution.size == 256
    assert get_builtin("vandermonde:16").substitution.size == 256
    assert build_spin_substitution(SpinSystem(128, ((0, 0), (0, 1)))).size == 256


def test_parse_error_reports_line():
    with pytest.raises(ParseError) as err:
        parse_substitution("0 -> 01\nbogus clause\n1 -> 10")
    assert err.value.line == 2


def test_column_classification():
    assert column(TM, 1).image == (1, 0)
    assert column(TM, 1).kind == "bijective"
    pd = parse_substitution("a -> ab ; b -> ab")
    assert column(pd, 0).kind == "coincidence"
    part = parse_substitution("a -> ab ; b -> ab ; c -> cb")
    assert column(part, 0).kind == "partial-coincidence"
    with pytest.raises(SubstitutionError):
        column(TM, 2)


def test_column_shift_form_for_cyclic_builtins():
    for L in (3, 5):
        sub = get_builtin(f"tm:{L}").substitution
        for i in range(L):
            assert column(sub, i).image == tuple((a + i) % L for a in range(L))


def test_column_trichotomy_counts():
    for name in ["tm:2", "tm:3", "rs", "outlook6", "supersub6", "a4-example"]:
        sub = get_builtin(name).substitution
        kinds = [col.kind for col in columns(sub)]
        assert all(k in {"bijective", "coincidence", "partial-coincidence"} for k in kinds)
        assert len(kinds) == sub.length


@pytest.mark.parametrize("name", ["tm:2", "tm:3", "rs", "a4-example", "c3-invpal", "outlook6"])
def test_power_column_matches_expansion(name):
    # independent oracle: expand the rules explicitly and read off each letter
    sub = get_builtin(name).substitution
    for n in range(5):
        if sub.length**n > 1500:
            break
        for a in range(sub.size):
            word = sub.expand(a, n)
            for k in range(sub.length**n):
                assert power_column(sub, k, n)(a) == word[k], (name, a, k, n)


@st.composite
def substitutions(draw):
    """Random substitutions with c <= 6 letters and rules of length L <= 5, L = 1 included."""
    c, L = draw(st.integers(1, 6)), draw(st.integers(1, 5))
    rules = tuple(tuple(draw(st.lists(st.integers(0, c - 1), min_size=L, max_size=L)))
                  for _ in range(c))
    return Substitution(Alphabet(tuple(f"x{a}" for a in range(c))), rules)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(sub=substitutions(), data=st.data())
def test_power_column_matches_expand_property(sub, data):
    n = data.draw(st.integers(0, 6 if sub.length < 3 else 4))
    words = [sub.expand(a, n) for a in range(sub.size)]
    for k in range(sub.length**n):
        assert power_column(sub, k, n).image == tuple(w[k] for w in words), (k, n)


def text_form(header, rules) -> str:
    """Rule text with an @alphabet header (when given), one 'letter -> word' per line."""
    head = [f"@alphabet {' '.join(header)}"] if header else []
    return "\n".join(head + [f"{a} -> {' '.join(w)}" for a, w in rules])


def json_form(header, rules, as_string) -> str:
    """The JSON mirror, written by hand so that a repeated rule key survives; each word
    is a list of tokens or, where as_string says so, their space-joined string."""
    words = (" ".join(w) if string else w for (_, w), string in zip(rules, as_string))
    pairs = ", ".join(f"{json.dumps(a)}: {json.dumps(w)}" for (a, _), w in zip(rules, words))
    head = f'"alphabet": {json.dumps(header)}, ' if header else ""
    return "{" + head + '"rules": {' + pairs + "}}"


@st.composite
def named_rules(draw):
    """(letters, words): a random substitution of substitutions() on tokens that both
    forms can write, one character each when a word is a single token (L = 1)."""
    sub = draw(substitutions())
    token = st.text("abxyz019", min_size=1, max_size=1 if sub.length == 1 else 2)
    letters = draw(st.lists(token, min_size=sub.size, max_size=sub.size, unique=True))
    return letters, [[letters[x] for x in rule] for rule in sub.rules]


def _sub_of(letters, words: dict) -> Substitution:
    return Substitution(Alphabet(tuple(letters)), tuple(
        tuple(letters.index(t) for t in words[a]) for a in letters))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(named_rules(), st.data())
def test_text_and_json_forms_parse_alike(named, data):
    letters, words = named
    words = dict(zip(letters, words))
    rules = [(a, words[a]) for a in data.draw(st.permutations(letters))]
    as_string = data.draw(st.lists(st.booleans(), min_size=len(rules), max_size=len(rules)))
    expected = _sub_of(letters, words)
    assert parse_substitution(text_form(letters, rules)) == expected
    assert parse_substitution(json_form(letters, rules, as_string)) == expected
    # no header: the text letters in rule order, the JSON letters sorted
    in_order = sorted(letters)
    assert parse_substitution(text_form(None, [(a, words[a]) for a in in_order])) == \
        parse_substitution(json_form(None, rules, as_string)) == _sub_of(in_order, words)


CORRUPTIONS = {
    "extra rule": "rule for letter 'w' not in @alphabet header",
    "duplicate rule": "duplicate rule for letter",
    "unknown token": "unknown letter 'w' in rule for",
    "unequal lengths": "unequal rule lengths",
    "header letter without a rule": "missing rule for letter 'w'",
}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(named_rules(), st.sampled_from(sorted(CORRUPTIONS)), st.data())
def test_text_and_json_forms_fail_alike(named, corruption, data):
    letters, words = named
    header, rules = list(letters), list(zip(letters, words))
    i = data.draw(st.integers(0, len(rules) - 1))  # "w" is outside the token alphabet
    if corruption == "extra rule":
        rules.insert(data.draw(st.integers(0, len(rules))), ("w", words[i]))
    elif corruption == "duplicate rule":
        rules.insert(data.draw(st.integers(0, len(rules))), (letters[i], data.draw(
            st.sampled_from(words))))
    elif corruption == "unknown token":
        word = list(words[i])
        word[data.draw(st.integers(0, len(word) - 1))] = "w"
        rules[i] = (letters[i], word)
    elif corruption == "unequal lengths":
        if len(rules) == 1:  # one rule has one length
            rules.append(("w", ["w"] * (len(words[0]) + 1)))
            header.append("w")
        else:
            rules[i] = (letters[i], words[i] + words[i][:1])
    else:
        header.insert(data.draw(st.integers(0, len(header))), "w")
    as_string = data.draw(st.lists(st.booleans(), min_size=len(rules), max_size=len(rules)))
    errors = []
    for source in (text_form(header, rules), json_form(header, rules, as_string)):
        with pytest.raises(ParseError) as err:
            parse_substitution(source)
        errors.append(re.sub(r" \(line \d+\)$", "", str(err.value)))
    assert errors[0] == errors[1]
    assert CORRUPTIONS[corruption] in errors[0]


def test_power_column_known_values():
    assert power_column(TM, 3, 2).image == (0, 1)  # involution squared
    tm3 = get_builtin("tm:3").substitution
    assert power_column(tm3, 13, 3).image == (0, 1, 2)  # digits [1,1,1] in base 3
    rs = get_builtin("rs").substitution
    zero = rs.alphabet.index("0")
    assert power_column(rs, 2, 2)(zero) == zero


def test_power_column_range_check():
    with pytest.raises(SubstitutionError):
        power_column(TM, 4, 2)


def test_is_primitive():
    assert is_primitive(TM)
    assert is_primitive(parse_substitution("a -> a"))
    assert not is_primitive(parse_substitution("a -> aa ; b -> bb"))
    assert not is_primitive(parse_substitution("a -> ab ; b -> bb"))  # a is reached from b only
    assert not is_primitive(parse_substitution("a -> b ; b -> a"))  # its cycles have gcd 2
    assert not is_primitive(parse_substitution("a -> bb ; b -> aa"))
    assert is_primitive(get_builtin("outlook6").substitution)
    # oracle for the six-letter case: brute expansion contains every letter
    sub = get_builtin("outlook6").substitution
    for a in range(sub.size):
        assert set(sub.expand(a, 8)) == set(range(6))


def test_legal_words_tm():
    assert legal_words(TM, 1) == {"0", "1"}
    assert legal_words(TM, 2) == {"00", "01", "10", "11"}
    words3 = legal_words(TM, 3)
    assert "000" not in words3 and "111" not in words3
    # oracle: collect from a long explicit expansion of both letters
    oracle = set()
    for a in range(2):
        word = "".join(str(x) for x in TM.expand(a, 7))
        oracle |= {word[i:i + 3] for i in range(len(word) - 2)}
    assert words3 == oracle


def test_legal_words_restriction_monotone():
    for name in ["tm:2", "tm:3", "outlook6", "c3-invpal"]:
        sub = get_builtin(name).substitution
        for n in (3, 4):
            shorter = legal_words(sub, n - 1)
            sep = "" if all(len(t) == 1 for t in sub.alphabet.letters) else " "
            for w in legal_words(sub, n):
                tokens = list(w) if sep == "" else w.split()
                for i in range(2):
                    assert sep.join(tokens[i:i + n - 1]) in shorter


def test_induced_two_block_tm():
    collared = induced_two_block(TM)
    assert len(collared.pairs) == 4
    zero_zero = collared.pairs.index((0, 0))
    rule = collared.rules[zero_zero]
    assert [collared.pair_name(i) for i in rule] == ["0_1", "1_0"]


def test_induced_two_block_ternary_all_pairs():
    tm3 = get_builtin("tm:3").substitution
    assert len(induced_two_block(tm3).pairs) == 9


@pytest.mark.parametrize("name", ["tm:2", "tm:3", "rs", "c3-invpal", "outlook6"])
def test_induced_two_block_decollaring(name):
    sub = get_builtin(name).substitution
    collared = induced_two_block(sub)
    for idx, (a, _) in enumerate(collared.pairs):
        first_components = tuple(collared.pairs[j][0] for j in collared.rules[idx])
        assert first_components == sub.rules[a]


def test_recurrence_formula_values():
    from apword.substitution import recurrence_formula
    assert recurrence_formula(2, 2) == (4094, 11)  # R = 2*2**11 - 2, N = 11
    rep = recurrence_constants(TM)
    assert (rep.r_formula, rep.n_bound) == (4094, 11)
    # the pair-cover bound depends on c only: c=3, L=5 gives 3**4 - 2*3**2 + 3
    assert recurrence_formula(3, 5)[1] == 66


def test_recurrence_exact_tm():
    rep = recurrence_constants(TM)
    assert rep.n_exact == 3
    assert rep.zeta2_exact == 8  # frozen from the scan; yields the known R = 16
    assert rep.r_exact == 16


def test_recurrence_exact_minimality():
    for name in ["tm:2", "tm:3", "c3-invpal"]:
        sub = get_builtin(name).substitution
        n = min_pair_cover_power(sub)
        pairs2 = legal_words(sub, 2)
        sep = "" if all(len(t) == 1 for t in sub.alphabet.letters) else " "

        def cover(level):
            for a in range(sub.size):
                word = sub.expand(a, level)
                got = {sub.alphabet.word_str(word[i:i + 2]) for i in range(len(word) - 1)}
                if not pairs2 <= got:
                    return False
            return True

        assert cover(n) and not cover(n - 1)


def test_recurrence_exact_known_n():
    assert min_pair_cover_power(get_builtin("c3-invpal").substitution) == 2
    assert min_pair_cover_power(get_builtin("tm:3").substitution) == 4


ALL_BUILTINS = [name for name in builtin_names() if ":" not in name] + [
    "tm:2", "tm:3", "tm:5", "tm:9", "tm:16", "tm:32", "vandermonde:3", "vandermonde:5"]


def primitive_by_squaring(sub: Substitution) -> bool:
    """Reference: the incidence matrix to a power 2^k past the Wielandt exponent
    c² - 2c + 2, by boolean squaring, is positive; no row is empty, so positivity moves
    up from one power to the next."""
    c = sub.size
    reach, steps = [frozenset(rule) for rule in sub.rules], 1
    while steps < c * c - 2 * c + 2:
        reach = [frozenset().union(*(reach[b] for b in row)) for row in reach]
        steps *= 2
    return all(len(row) == c for row in reach)


@pytest.mark.parametrize("name", ALL_BUILTINS + ["vandermonde:7", "tm:64"])
def test_is_primitive_of_builtins_matches_the_squaring(name):
    sub = get_builtin(name).substitution
    assert is_primitive(sub) == primitive_by_squaring(sub)


def test_is_primitive_matches_the_squaring_at_random():
    got = [(is_primitive(sub), primitive_by_squaring(sub))
           for sub in itertools.islice(random_substitutions(31, 7, 4), 20000)]
    assert all(rule == squared for rule, squared in got)
    assert sum(rule for rule, _ in got) == 10688  # primitive, with 1 <= c <= 7 and 1 <= L <= 4


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_min_pair_cover_power_matches_the_letter_sets(name):
    sub = get_builtin(name).substitution
    assert min_pair_cover_power(sub) == pair_cover_power_by_letter_sets(sub)


def test_min_pair_cover_power_matches_the_letter_sets_at_random():
    subs = itertools.islice(filter(is_primitive, random_substitutions(2400, 6, 5)), 2000)
    got = [(min_pair_cover_power(sub), pair_cover_power_by_letter_sets(sub)) for sub in subs]
    assert all(a == b for a, b in got)
    assert max(n for n, _ in got) >= 8  # deep levels are reached, not only the first


def test_structure_facts_match_their_references_at_random():
    # W2 of the fixed point is the legal 2-words; on a bijective σ, |W2| > c is the
    # 2-word criterion and Aperiodic; the orders and the commutation test are read
    # off the closure
    bijective = bounded = 0
    for sub in primitive_half_bijective(5, 10_000):
        words = _two_words(FixedPointSpec.find(sub))
        assert set(words) == _legal_index_words.__wrapped__(sub, 2), sub.rules
        assert min_pair_cover_power(sub) == pair_cover_power_by_letter_sets(sub), sub.rules
        if not is_bijective(sub):
            continue
        bijective += 1
        aperiodic = aperiodicity_certificate(sub).status == "Aperiodic"
        assert (len(words) > sub.size) == two_words_share_an_end(sub) == aperiodic, sub.rules
        in_domain = star_defect(sub) is None
        if column(sub, 0).image == identity_perm(sub.size):
            assert in_domain == aperiodic, sub.rules
        group = generate_group(sub)
        elements = group.elements
        assert group.abelian == all(compose(a, b) == compose(b, a)
                                    for a in elements for b in elements), sub.rules
        bounded += in_domain
        assert _bound_applies.__wrapped__(sub) == (in_domain and group.abelian), sub.rules
        assert all(perm_order(g) == perm_order_by_composing(g) for g in elements), sub.rules
    assert (bijective, bounded) == (6913, 654)  # 516 of the 654 with an Abelian group


def test_min_pair_cover_power_rejects_a_non_primitive_substitution():
    for rules in ("a -> aa ; b -> bb", "a -> ab ; b -> bb"):
        with pytest.raises(SubstitutionError, match="primitive"):
            min_pair_cover_power(parse_substitution(rules))


def test_legal_words_match_the_closure_by_passes():
    subs = list(itertools.islice(random_substitutions(2402, 4, 4), 4000))
    assert any(sub.length == 1 for sub in subs) and any(sub.size == 1 for sub in subs)
    for sub in subs:
        for n in range(1, 6):
            assert _legal_index_words.__wrapped__(sub, n) == legal_words_by_passes(sub, n), \
                (sub.rules, n)


def test_min_pair_cover_power_builds_no_recurrence_constant(monkeypatch):
    def fail(c, L):
        raise AssertionError("recurrence_formula builds R = 2L^N - L")

    monkeypatch.setattr(apword.substitution, "recurrence_formula", fail)
    assert min_pair_cover_power(get_builtin("tm:3").substitution) == 4
    assert min_pair_cover_power(TM) == 3


def refuse(*args, **kwargs):
    raise AssertionError("no letter may be generated here")


def test_recurrence_exact_cap_diagnostic(monkeypatch):
    # level 5, as 2^5 >= 2·2^3 + 1: the kept window [0, 3B), B = 32, of 01 at 0 and 11
    # at 1 (their swaps 10 and 00 first occur at 2 and 5)
    monkeypatch.setattr(apword.substitution, "factor", refuse)
    monkeypatch.setattr(apword.substitution, "_RECURRENCE_CAP", 95)
    with pytest.raises(ResourceCapError, match="windows hold 96 letters, cap is 95"):
        recurrence_constants(TM)
    monkeypatch.undo()
    monkeypatch.setattr(apword.substitution, "_RECURRENCE_CAP", 96)
    assert recurrence_constants(TM).zeta2_exact == 8


def test_recurrence_exact_over_the_budget_generates_no_letter(monkeypatch):
    monkeypatch.setattr(apword.substitution, "factor", refuse)
    monkeypatch.setattr(apword.substitution, "recurrence_formula", refuse)  # R is not built
    with pytest.raises(ResourceCapError, match="cap is 67108864"):
        recurrence_constants(get_builtin("tm:9").substitution)


def test_base_digits_rejects_inputs_without_digits():
    assert base_digits(6, 2) == [0, 1, 1]
    assert base_digits(0, 1) == []
    for k, base in ((1, 1), (7, 0), (-1, 2)):  # each looped forever or divided by zero
        with pytest.raises(SubstitutionError):
            base_digits(k, base)


def test_recurrence_exact_length_one_raises():
    with pytest.raises(SubstitutionError):
        recurrence_constants(parse_substitution("a -> a"))


def test_recurrence_exact_huge_pair_cover_bound():
    # c = 25 gives n_bound = 389378, which sizes nothing: the windows follow n_exact
    rep = recurrence_constants(get_builtin("vandermonde:5").substitution)
    assert (rep.n_bound, rep.n_exact) == (389378, 4)
    assert rep.r_exact == 5 * rep.zeta2_exact


@pytest.mark.parametrize("sub, defect", [
    (get_builtin("outlook6").substitution, "is not bijective"),
    (parse_substitution("a -> aa ; b -> bb"), "is not primitive"),
    (parse_substitution("a -> ba ; b -> ab"), "does not have the identity as its zeroth column"),
    (parse_substitution("a -> aba ; b -> bab"), "is not aperiodic by the 2-word criterion"),
    (TM, None),
])
def test_star_defect_names_the_first_failed_condition(sub, defect):
    assert star_defect(sub) == defect


def test_aperiodicity():
    assert aperiodicity_certificate(TM).status == "Aperiodic"
    res = aperiodicity_certificate(parse_substitution("a -> ab ; b -> ab"))
    assert res.status == "PeriodicDetected" and res.period == 2
    res = aperiodicity_certificate(get_builtin("outlook6").substitution)
    assert res.status == "Aperiodic"


def test_aperiodicity_checks_a_period_with_the_power_of_the_fixed_point():
    # sigma^2 fixes (ab)^inf, yet sigma(ab) = bababa is not (ab)^3
    sub = parse_substitution("a -> bab ; b -> aba")
    assert FixedPointSpec.find(sub).power == 2
    res = aperiodicity_certificate(sub)
    assert res.status == "PeriodicDetected" and res.period == 2


@pytest.mark.parametrize("rules, status, period", [
    ("a -> ab ; b -> bb", "NotPeriodic", None),  # a b^inf is eventually periodic
    ("a -> abc ; b -> ccc ; c -> ccc", "NotPeriodic", None),  # b and c merge, a does not
    ("a -> aa ; b -> bb", "PeriodicDetected", 1),  # b does not occur in a^inf
])
def test_aperiodicity_of_non_primitive_substitutions(rules, status, period):
    res = aperiodicity_certificate(parse_substitution(rules))
    assert (res.status, res.period) == (status, period)


def test_aperiodicity_reads_no_prefix_and_refuses_oversized_work(monkeypatch):
    monkeypatch.setattr(apword.stream, "factor", refuse)
    monkeypatch.setattr(apword.substitution, "factor", refuse)
    for name in ["rs", "outlook6", "tm:16", "vandermonde:5"]:
        assert aperiodicity_certificate(get_builtin(name).substitution).status == "Aperiodic"
    # x has the proven period 2^30, and reading x[0, 2^31) is refused before any letter
    with pytest.raises(ResourceCapError, match="prefix of 2147483648 letters exceeds cap"):
        aperiodicity_certificate(nested_returns(31))
    # x = σ^23(x) is read phase by phase, with no image σ^23(a) of 2^23 letters
    cycle = rotation_cycle(23)
    assert FixedPointSpec.find(cycle).power == 23
    assert aperiodicity_certificate(cycle) == AperiodicityResult("Aperiodic")
    assert height(cycle) == 1
    # the 256-letter cycle takes p·c²·L = 2^25 phase steps, refused before any state,
    # also where N reads W2
    monkeypatch.setattr(heapq, "heappop", refuse)
    for check in (aperiodicity_certificate, height, min_pair_cover_power):
        with pytest.raises(ResourceCapError, match="2-words of 33554432 phase steps exceed"):
            check(rotation_cycle(256))


def rotation_cycle(c: int) -> Substitution:
    """x_k -> x_(k+1 mod c) x_k: primitive, and x = σ^c(x) for every seed."""
    return Substitution(Alphabet(tuple(f"x{k}" for k in range(c))),
                        tuple(((k + 1) % c, k) for k in range(c)))


def nested_returns(e: int) -> Substitution:
    """x_k -> x_min(k+1, e-1) x_0; the fixed point from x_(e-1) has least period 2^(e-1)."""
    return Substitution(Alphabet(tuple(f"x{k}" for k in range(e))),
                        tuple((min(k + 1, e - 1), 0) for k in range(e)))


@pytest.mark.parametrize("name", SCANNED + ["supersub6", "tm:5", "tm:9"])
def test_aperiodicity_of_builtins_matches_the_border_loop(name):
    # every builtin is aperiodic, and no prefix period of at most 2^19 survives the check
    sub = get_builtin(name).substitution
    assert aperiodicity_certificate(sub) == AperiodicityResult("Aperiodic")
    assert certificate_by_borders(sub) == ("Unknown", None)


@pytest.mark.parametrize("sub, status, period", [
    (parse_substitution("a -> ab ; b -> ab"), "PeriodicDetected", 2),
    (parse_substitution("a -> bab ; b -> aba"), "PeriodicDetected", 2),
    (parse_substitution("a -> ab ; b -> ca ; c -> bc"), "PeriodicDetected", 3),
    (parse_substitution("a -> ab ; b -> ac ; c -> ac"), "PeriodicDetected", 4),
    (parse_substitution("a -> aab ; b -> aab"), "PeriodicDetected", 3),
    (nested_returns(19), "PeriodicDetected", 2**18),
    (nested_returns(20), "PeriodicDetected", 2**19),
    (nested_returns(21), "PeriodicDetected", 2**20),  # over the half of a 2^20 prefix
    # x[0, 2^20) has period 1100 and x does not
    (parse_substitution(f"a -> {'a' * 1099}b ; b -> {'a' * 1099}c ; c -> {'a' * 1100}"),
     "Aperiodic", None),
], ids=["ab-ab", "bab-aba", "abc", "period-4", "aab", "e19", "e20", "e21", "a1099"])
def test_aperiodicity_matches_the_border_loop(sub, status, period):
    res = aperiodicity_certificate(sub)
    assert (res.status, res.period) == (status, period)
    n = max(2**20, 2 * (period or 0))  # the border loop finds periods of at most n/2
    assert certificate_by_borders(sub, n) == (("Unknown", None) if period is None else
                                              (status, period))


@pytest.mark.parametrize("n", [64, 2**12])
def test_aperiodicity_matches_the_border_loop_at_random(n):
    # where x has a least period P <= n/2, the border loop finds it on x[0, n); where
    # it finds none, x is not periodic or P > n/2; and not periodic is aperiodic
    # exactly for a primitive substitution. Of the non-periodic x, 203 have a 64-letter
    # prefix and 141 a 4096-letter prefix with a period of at most n/2, which x lacks
    rng = random.Random(7)
    statuses = []
    for _ in range(3000):
        c, L = rng.randint(1, 4), rng.randint(2, 4)
        sub = Substitution(Alphabet(tuple("abcd"[:c])),
                           tuple(tuple(rng.randrange(c) for _ in range(L)) for _ in range(c)))
        res = aperiodicity_certificate(sub)
        periodic = res.status == "PeriodicDetected"
        assert certificate_by_borders(sub, n) == (
            (res.status, res.period) if periodic and res.period <= n // 2 else ("Unknown", None)
        ), sub.rules
        if not periodic:
            assert res == AperiodicityResult("Aperiodic" if is_primitive(sub) else "NotPeriodic")
        statuses.append(res.status)
    assert [statuses.count(s) for s in ("PeriodicDetected", "Aperiodic", "NotPeriodic")] == \
        [1189, 1411, 400]


def test_height():
    for rules, value in [
        ("0 -> 01 ; 1 -> 10", 1),
        ("a -> bab ; b -> aba", 2),  # x = (ab)^inf, the fixed point of sigma^2
        ("a -> ab ; b -> ca ; c -> bc", 3),  # x = (abc)^inf
        ("a -> abc ; b -> bca ; c -> cab", 1),  # 3 divides L
        ("a -> ab ; b -> cd ; c -> cd ; d -> ab", 1),
    ]:
        sub = parse_substitution(rules)
        assert height(sub) == value == height_by_prefix(sub, 2**12), rules


def test_height_of_builtins():
    for name in SCANNED:
        sub = get_builtin(name).substitution
        assert height(sub) == height_by_prefix(sub, 2**14) == 1, name


def test_height_rejects_a_non_primitive_substitution():
    for rules in ("a -> aa ; b -> bb", "a -> ab ; b -> bb"):
        with pytest.raises(SubstitutionError, match="primitive"):
            height(parse_substitution(rules))


def test_height_of_a_length_one_substitution_raises():
    # x is the seed alone and has no 2-word, as in recurrence_constants
    with pytest.raises(SubstitutionError, match="one-letter fixed point"):
        height(parse_substitution("a -> a"))


def test_height_matches_the_prefix_gcd():
    heights = [(height(sub), height_by_prefix(sub, 2**14))
               for sub in random_primitive_substitutions(2127, 1000)]
    assert all(rule == scanned for rule, scanned in heights)
    assert any(rule > 1 for rule, _ in heights)


def test_height_matches_the_prefix_gcd_on_small_substitutions():
    # the labelling that decides periodicity, on the sizes where heights 2 and 3 and
    # fixed points of σ^2 and σ^3 are common enough to be met
    seen = set()
    for sub in random_primitive_substitutions(4, 2000, max_c=4, max_L=4):
        assert height(sub) == height_by_prefix(sub, 2**14), sub.rules
        seen.add((height(sub), FixedPointSpec.find(sub).power))
    assert {(2, 1), (2, 2), (3, 1), (3, 2)} <= seen


def test_height_and_recurrence_read_no_prefix(monkeypatch):
    assert not hasattr(apword.substitution, "prefix")
    monkeypatch.setattr(apword.stream, "prefix", refuse)
    sub = get_builtin("rs").substitution
    assert height(sub) == 1
    assert recurrence_constants(sub).zeta2_exact == 20


@pytest.mark.parametrize("name", SCANNED)
def test_recurrence_windows_match_the_prefix_scan(name):
    sub = get_builtin(name).substitution
    assert recurrence_constants(sub).zeta2_exact == zeta2_by_prefix(sub)


def test_recurrence_windows_match_the_prefix_scan_at_random():
    compared = 0
    for sub in random_primitive_substitutions(2664, 300):
        scanned = zeta2_by_prefix(sub, cap=2**20)
        if scanned is not None:
            assert recurrence_constants(sub).zeta2_exact == scanned, sub.rules
            compared += 1
    assert compared > 200


def test_recurrence_kept_windows_match_the_prefix_scan_at_random():
    # the columns are powers of one c-cycle g, so g commutes with σ and moves every
    # 2-word: the kept windows, one 2-word per orbit, are at most half of all of them
    rng, compared = random.Random(2665), 0
    while compared < 100:
        c, L = rng.randint(2, 4), rng.randint(2, 4)
        cycle = rng.sample(range(c), c)
        g = {cycle[j]: cycle[(j + 1) % c] for j in range(c)}
        powers = [list(range(c))]
        for _ in range(c - 1):
            powers.append([g[a] for a in powers[-1]])
        exponents = [0] + [rng.randrange(c) for _ in range(L - 1)]
        sub = Substitution(Alphabet(tuple("abcd"[:c])),
                           tuple(tuple(powers[e][a] for e in exponents) for a in range(c)))
        if not is_primitive(sub) or (scanned := zeta2_by_prefix(sub, cap=2**20)) is None:
            continue
        fp = FixedPointSpec.find(sub)
        assert 2 * len(WindowIndex(fp).kept) <= len(_two_words(fp)), sub.rules
        assert recurrence_constants(sub).zeta2_exact == scanned, sub.rules
        compared += 1


def test_recurrence_reads_the_kept_windows(monkeypatch):
    # tm:5 at level 7 (5^7 >= 2·5^6 + 1): one 2-word per orbit of the 5 cyclic shifts
    # keeps 10 blocks of 5^7 letters, where the windows of all the 2-words hold 45
    read, real = [], apword.substitution.factor

    def spy(fp, start, stop, coding=None):
        read.append(stop - start)
        return real(fp, start, stop, coding)

    monkeypatch.setattr(apword.substitution, "factor", spy)
    assert recurrence_constants(get_builtin("tm:5").substitution).zeta2_exact == 8125
    assert sum(read) == 781_250 == 10 * 5**7


@pytest.mark.parametrize("rules, zeta2", [
    # each fails if the windows are read one level lower, or if the window of
    # the last first occurrence of a 2-word is dropped; no builtin does
    ("a -> dba ; b -> dac ; c -> add ; d -> acc", 288),
    ("a -> bbbab ; b -> ababa", 120),
    ("a -> bbabb ; b -> ababa", 110),
])
def test_recurrence_windows_of_the_full_level(rules, zeta2):
    sub = parse_substitution(rules)
    assert FixedPointSpec.find(sub).power == 2
    assert recurrence_constants(sub).zeta2_exact == zeta2 == zeta2_by_prefix(sub)


def test_recurrence_past_the_prefix_scan():
    # the scan would need prefixes of 4,882,843,746 and 52,242,869,371 letters
    for name, values in (("tm:5", (6, 8125, 40625)), ("supersub6", (6, 24696, 148176))):
        rep = recurrence_constants(get_builtin(name).substitution)
        assert (rep.n_exact, rep.zeta2_exact, rep.r_exact) == values
