"""Constant-length substitutions: parsing, columns, language, recurrence data."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .errors import ParseError, ResourceCapError, SubstitutionError
from .stream import (FixedPointSpec, WindowIndex, _level, _two_words, base_digits, ceil_log,
                     check_prefix, check_tokens, factor)

_RECURRENCE_CAP = 2**26  # most window letters the exact recurrence reads


@lru_cache(maxsize=None)
def _index_map(letters: tuple[str, ...]) -> dict[str, int]:
    return {letter: i for i, letter in enumerate(letters)}


@dataclass(frozen=True)
class Alphabet:
    """Ordered alphabet of distinct whitespace-free tokens."""

    letters: tuple[str, ...]

    def __post_init__(self):
        if not self.letters:
            raise SubstitutionError("alphabet must not be empty")
        check_tokens(self.letters, "letter")

    @property
    def size(self) -> int:
        return len(self.letters)

    def index(self, letter: str) -> int:
        try:
            return _index_map(self.letters)[letter]
        except (KeyError, TypeError):  # an unhashable token is no letter either
            raise SubstitutionError(f"unknown letter {letter!r}") from None

    def resolve(self, letter: str | int) -> int:
        """Index of a letter token, or a letter index checked to be in range."""
        if not isinstance(letter, int):
            return self.index(letter)
        if not 0 <= letter < self.size:
            raise SubstitutionError(f"letter index {letter} out of range")
        return letter

    def word_str(self, indices) -> str:
        """Render a word of letter indices; single-char alphabets join bare."""
        names = [self.letters[i] for i in indices]
        sep = "" if all(len(n) == 1 for n in self.letters) else " "
        return sep.join(names)


@dataclass(frozen=True)
class ColumnMap:
    """One column of a substitution, as a self-map of the alphabet."""

    image: tuple[int, ...]

    @property
    def kind(self) -> str:
        values = len(set(self.image))
        if values == len(self.image):
            return "bijective"
        if values == 1:
            return "coincidence"
        return "partial-coincidence"

    @property
    def is_bijective(self) -> bool:
        return self.kind == "bijective"

    def __call__(self, a: int) -> int:
        return self.image[a]


@dataclass(frozen=True)
class Substitution:
    """Constant-length substitution given as one length-L word per letter."""

    alphabet: Alphabet
    rules: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        c = self.alphabet.size
        if len(self.rules) != c:
            raise SubstitutionError(f"expected {c} rules, got {len(self.rules)}")
        length = len(self.rules[0])
        if length < 1:
            raise SubstitutionError("rules must be non-empty words")
        for a, rule in enumerate(self.rules):
            if len(rule) != length:
                raise SubstitutionError(
                    f"unequal rule lengths: rule for {self.alphabet.letters[a]!r} "
                    f"has length {len(rule)}, expected {length}"
                )
            for x in rule:
                if not 0 <= x < c:
                    raise SubstitutionError(f"letter index {x} out of range in rule {a}")
        object.__setattr__(self, "_hash", hash((self.alphabet, self.rules)))

    def __hash__(self) -> int:  # computed once: a cache keyed on sub rehashes no rules tuple
        return self._hash

    def __reduce__(self):  # rebuilt, so hashed again: letters hash differently per process
        return Substitution, (self.alphabet, self.rules)

    @property
    def size(self) -> int:
        return self.alphabet.size

    @property
    def length(self) -> int:
        return len(self.rules[0])

    def word(self, a: int) -> str:
        return self.alphabet.word_str(self.rules[a])

    def apply(self, word) -> list[int]:
        out = []
        for a in word:
            out.extend(self.rules[a])
        return out

    def expand(self, a: int, n: int, cap: int = 4_000_000) -> list[int]:
        """Explicit image of letter a under n rounds of substitution."""
        if self.length**n > cap:
            raise ResourceCapError(f"expansion of size {self.length}^{n} exceeds cap {cap}")
        word = [a]
        for _ in range(n):
            word = self.apply(word)
        return word


def _tokenize_rule_word(text: str) -> list[str]:
    tokens = text.split()
    return list(tokens[0]) if len(tokens) == 1 else tokens


def _build(header: list[str] | None, entries: list) -> Substitution:
    """The checks of every source, on its @alphabet header and its (letter, word tokens,
    line) rules; the letters are those of the header, else those of the rules in order."""
    if not entries:
        raise ParseError("no rules found")
    words: dict[str, list[str]] = {}
    for letter, tokens, lineno in entries:
        if not letter or any(ch.isspace() for ch in letter):
            raise ParseError(f"bad letter {letter!r} on rule left-hand side", line=lineno)
        if not tokens:
            raise ParseError(f"empty rule word for {letter!r}", line=lineno)
        if letter in words:
            raise ParseError(f"duplicate rule for letter {letter!r}", line=lineno)
        words[letter] = tokens

    letters = header if header is not None else list(words)
    known = set(letters)
    for letter, tokens, lineno in entries:
        if letter not in known:
            raise ParseError(f"rule for letter {letter!r} not in @alphabet header", line=lineno)
        for tok in tokens:
            if tok not in known:  # with no header, the letters are those with a rule
                raise ParseError(f"missing rule for letter {tok!r}" if header is None else
                                 f"unknown letter {tok!r} in rule for {letter!r}", line=lineno)
    for letter in letters:
        if letter not in words:
            raise ParseError(f"missing rule for letter {letter!r}")

    lengths = {len(tokens) for tokens in words.values()}
    if len(lengths) != 1:
        raise ParseError(f"unequal rule lengths: {sorted(lengths)}")
    try:
        alphabet = Alphabet(tuple(letters))
    except SubstitutionError as exc:
        raise ParseError(str(exc)) from None
    index = _index_map(alphabet.letters)
    return Substitution(alphabet, tuple(tuple(index[t] for t in words[a]) for a in letters))


def read_json(source: str) -> tuple:
    """Decode a JSON source, each object as a tuple of (key, value) pairs: repeats stay."""
    try:
        return json.loads(source, object_pairs_hook=tuple)
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON source: {exc}") from None


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def json_substitution(data: tuple) -> Substitution:
    """A JSON mirror {"alphabet": [...], "rules": {...}} under the text checks: `alphabet`
    is the @alphabet header (the sorted rule letters when missing or empty), and a rule
    word is a string, split as in text, or a list of letter tokens. No key repeats, and
    there is no other key."""
    fields = dict(data)
    if len(fields) != len(data) or not fields.keys() <= {"alphabet", "rules"}:
        raise ParseError(f"JSON substitution keys {[k for k, _ in data]} repeat or are unknown")
    rules, header = fields.get("rules"), fields.get("alphabet") or None
    if not isinstance(rules, tuple) or not (header is None or _strings(header)):
        raise ParseError("JSON substitution needs a 'rules' object and an 'alphabet' string list")
    entries = []
    for letter, word in rules:
        if isinstance(word, str):
            word = _tokenize_rule_word(word)
        elif not _strings(word):
            raise ParseError(f"rule word for {letter!r} is not a string or a list of strings")
        entries.append((letter, word, None))
    return _build(header or sorted({letter for letter, _ in rules}), entries)


def parse_substitution(source: str) -> Substitution:
    """Parse 'letter -> word' clauses separated by ';' or newlines.

    '#' starts a comment, '@alphabet a b c' fixes letter order. A rule word is
    split on whitespace when it contains any, else into single characters.
    A JSON mirror is accepted as well (json_substitution).
    """
    if source.lstrip().startswith("{"):
        return json_substitution(read_json(source))

    header: list[str] | None = None
    entries = []
    for lineno, raw in enumerate(source.splitlines() or [source], start=1):
        line = raw.split("#", 1)[0]
        for clause in line.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("@alphabet"):
                header = clause[len("@alphabet"):].split()
                if not header:
                    raise ParseError("empty @alphabet header", line=lineno)
                continue
            if "->" not in clause:
                raise ParseError(f"expected 'letter -> word', got {clause!r}", line=lineno)
            lhs, rhs = clause.split("->", 1)
            entries.append((lhs.strip(), _tokenize_rule_word(rhs), lineno))
    return _build(header, entries)


def column(sub: Substitution, i: int) -> ColumnMap:
    """The map sending each letter to position i of its image word."""
    if not 0 <= i < sub.length:
        raise SubstitutionError(f"column index {i} out of range 0..{sub.length - 1}")
    return ColumnMap(tuple(rule[i] for rule in sub.rules))


def columns(sub: Substitution) -> list[ColumnMap]:
    return [column(sub, i) for i in range(sub.length)]


def is_bijective(sub: Substitution) -> bool:
    return all(col.is_bijective for col in columns(sub))


def power_column(sub: Substitution, k: int, n: int) -> ColumnMap:
    """Column k of n rounds of substitution, composed digit by digit.

    Never materializes the expanded rules; cost is O(n c).
    """
    L = sub.length
    if n < 0 or not 0 <= k < L**n:
        raise SubstitutionError(f"column index {k} out of range for length {L}^{n}")
    digits = base_digits(k, L)
    image = []
    for a in range(sub.size):
        x = a
        for j in range(n - 1, -1, -1):
            d = digits[j] if j < len(digits) else 0
            x = sub.rules[x][d]
        image.append(x)
    return ColumnMap(tuple(image))


def _cycle_gcd(edges, root) -> tuple[list, int]:
    """The vertices reached from root along the edges (a, b), and g, the gcd of
    depth(a) + 1 - depth(b) over their edges, for the depths of a breadth-first tree.

    The tree edges fix a labelling λ(root) = 0, λ(b) = λ(a) + 1 mod n as depth mod n,
    so one exists on the reached vertices exactly when n divides g. On a strongly
    connected graph, g is the gcd of the cycle lengths.
    """
    out, depth, reached, g = {}, {root: 0}, [root], 0
    for a, b in edges:
        out.setdefault(a, []).append(b)
    for a in reached:  # reached grows, in breadth-first order, while it is read
        for b in out.get(a, ()):
            if b not in depth:
                depth[b] = depth[a] + 1
                reached.append(b)
            g = gcd(g, depth[a] + 1 - depth[b])
    return reached, g


def is_primitive(sub: Substitution) -> bool:
    """Some power of the incidence matrix is entrywise positive: the letter digraph
    a -> b, b in σ(a), reaches every letter from letter 0 forwards and backwards,
    and its cycle lengths have gcd 1 (Perron–Frobenius)."""
    edges = {(a, b) for a, rule in enumerate(sub.rules) for b in rule}
    forward, g = _cycle_gcd(edges, 0)
    backward, _ = _cycle_gcd({(b, a) for a, b in edges}, 0)
    return g == 1 and len(forward) == len(backward) == sub.size


@lru_cache(maxsize=None)
def _legal_index_words(sub: Substitution, n: int) -> frozenset[tuple[int, ...]]:
    if n < 1:
        raise SubstitutionError("word length must be >= 1")
    if n == 1:
        return frozenset((a,) for a in range(sub.size))
    L = sub.length
    if L == 1:
        return frozenset()  # images never grow past one letter

    def subwords(word):
        return set(zip(*(word[i:] for i in range(n))))

    words: set[tuple[int, ...]] = set()
    for a in range(sub.size):
        words |= subwords(sub.expand(a, ceil_log(L, n)))
    todo = list(words)  # each word's image is read once, when the word is first found
    while todo:
        for w in subwords(sub.apply(todo.pop())) - words:
            words.add(w)
            todo.append(w)
    return frozenset(words)


def legal_words(sub: Substitution, n: int) -> set[str]:
    """All length-n words occurring in some iterated image of a letter."""
    return {sub.alphabet.word_str(w) for w in _legal_index_words(sub, n)}


@dataclass(frozen=True)
class CollaredSubstitution:
    """Substitution on legal 2-words, each letter collared by its right neighbour."""

    base: Substitution
    pairs: tuple[tuple[int, int], ...]
    rules: tuple[tuple[int, ...], ...]  # indices into pairs

    def pair_name(self, idx: int) -> str:
        a, b = self.pairs[idx]
        letters = self.base.alphabet.letters
        return f"{letters[a]}_{letters[b]}"


def induced_two_block(sub: Substitution) -> CollaredSubstitution:
    """Rewrite the substitution over collared letters a_b with ab legal."""
    pairs = sorted(_legal_index_words(sub, 2))
    index = {p: i for i, p in enumerate(pairs)}
    images = [sub.rules[a] + sub.rules[b] for a, b in pairs]
    rules = tuple(tuple(index[w[i], w[i + 1]] for i in range(sub.length)) for w in images)
    return CollaredSubstitution(sub, tuple(pairs), rules)


def min_pair_cover_power(sub: Substitution) -> int:
    """Least n such that every image of level n contains every legal 2-word.

    σ^n(a) is the blocks σ^(n-1)(b) of the letters b of σ(a), so its 2-words are those
    of its blocks and the junction pairs (last letter of a block, first of the next):
    per letter, each level keeps first and last letters and a bit set over W2, the
    2-words of the fixed point: on a primitive σ, those are the legal ones."""
    if not is_primitive(sub):
        raise SubstitutionError("pair-cover power needs a primitive substitution")
    words = _two_words(FixedPointSpec.find(sub)) if sub.length > 1 else ()  # a -> a has none
    bit = {p: 1 << i for i, p in enumerate(words)}
    full = (1 << len(bit)) - 1
    first = last = tuple(range(sub.size))
    pairs = (0,) * sub.size
    for n in range(1, pair_cover_bound(sub.size) + 2):
        new = []
        for rule in sub.rules:
            word = pairs[rule[-1]]
            for x, y in zip(rule, rule[1:]):
                word |= pairs[x] | bit[last[x], first[y]]
            new.append(word)
        first = tuple(first[rule[0]] for rule in sub.rules)
        last = tuple(last[rule[-1]] for rule in sub.rules)
        pairs = new
        if all(word == full for word in pairs):
            return n
    raise SubstitutionError("pair cover power exceeded its theoretical bound")


@dataclass(frozen=True)
class RecurrenceReport:
    """Linear-recurrence data: the generic constant and the exact values."""

    r_formula: int
    n_bound: int
    n_exact: int
    zeta2_exact: int
    r_exact: int

    def __post_init__(self):
        if self.n_exact > self.n_bound:
            raise SubstitutionError("exact pair-cover power exceeds its bound")


def pair_cover_bound(c: int) -> int:
    """Generic bound N on the pair-cover power of a primitive c-letter substitution."""
    return c**4 - 2 * c**2 + 3


def recurrence_formula(c: int, L: int) -> tuple[int, int]:
    """Generic recurrence constant R = 2L^N - L and pair-cover bound N for c letters, length L."""
    n_bound = pair_cover_bound(c)
    return 2 * L**n_bound - L, n_bound


def recurrence_constants(sub: Substitution) -> RecurrenceReport:
    """Exact recurrence data: N by min_pair_cover_power, zeta_2 from the level windows.

    A 2-word recurs inside every two level-N images, so consecutive
    occurrences lie in a factor of at most 2 L^N + 1 letters. The kept windows
    of the least level k with L^k >= 2 L^N + 1 hold a copy of every such factor
    up to a symmetry τ (WindowIndex), which maps the occurrences of a 2-word to
    those of its image, and each window is a factor of x, so the largest gap
    inside one window is zeta_2. Windows over the budget are refused unread,
    before recurrence_formula builds its R.
    """
    c, L = sub.size, sub.length
    if L < 2:
        raise SubstitutionError("exact recurrence needs substitution length >= 2")
    n_exact = min_pair_cover_power(sub)
    fp = FixedPointSpec.find(sub)
    k = _level(fp, 2 * L**n_exact + 1)
    index = WindowIndex(fp)
    if (letters := index.letters(k)) > _RECURRENCE_CAP:
        raise ResourceCapError(f"exact recurrence windows hold {letters} letters, "
                               f"cap is {_RECURRENCE_CAP}")
    r_formula, n_bound = recurrence_formula(c, L)
    zeta2 = 0
    for a, b in index.windows(k):
        w = factor(fp, a, b).astype(np.uint16)  # c <= 256: a 2-word code fits 16 bits
        codes = w[:-1] * c + w[1:]
        at = np.argsort(codes, kind="stable")  # the occurrences of each 2-word, in order
        gaps = np.diff(at)[codes[at[1:]] == codes[at[:-1]]]
        zeta2 = max(zeta2, int(gaps.max(initial=0)))
    return RecurrenceReport(r_formula, n_bound, n_exact, zeta2, L * zeta2)


@dataclass(frozen=True)
class AperiodicityResult:
    status: str  # "Aperiodic" | "PeriodicDetected" | "NotPeriodic"
    period: int | None = None


def star_defect(sub: Substitution) -> str | None:
    """First condition of the column-group upper bound that sub fails, or None.

    The bound needs a bijective, primitive substitution with the identity as
    its zeroth column, aperiodic by the 2-word criterion: two 2-words share an end,
    that is |W2| > c as every letter occurs, that is Aperiodic, as a periodic x of
    a bijective σ has least period c (README, "Notes on exactness"). No prefix is read.
    """
    if not is_bijective(sub):
        return "is not bijective"
    if not is_primitive(sub):
        return "is not primitive"
    if column(sub, 0).image != tuple(range(sub.size)):
        return "does not have the identity as its zeroth column"
    if sub.length == 1 or len(_two_words(FixedPointSpec.find(sub))) <= sub.size:
        return "is not aperiodic by the 2-word criterion"
    return None


def aperiodicity_certificate(sub: Substitution) -> AperiodicityResult:
    """Decide from the rules whether the fixed point x = S(x), S = σ^q, is periodic.

    With P_s the classes a ~_s b of σ^s(a) = σ^s(b), and r the least with as many
    classes of P_(qr) as of P_(q(r+1)) among the letters of x, x is periodic exactly
    when their number c' divides the cycle gcd of the class 2-words π(W2); then
    P0 = c'·L^(qr) is a period (README, "Notes on exactness"), and the least is the
    first return of x[0, P0) in x[0, 2·P0), the only letters read. Not periodic is
    Aperiodic for a primitive σ, else NotPeriodic (a -> ab ; b -> bb).
    """
    fp, chain = FixedPointSpec.find(sub), [tuple(range(sub.size))]  # P_0, P_1, … as class ids
    words = _two_words(fp)  # its cap on q·c²·L also bounds the q·c steps of c·L below
    letters, q, r = {a for a, _ in words}, fp.power, 0

    def count(s: int) -> int:  # the classes of P_s among the letters of x
        while len(chain) <= s:  # a ~_(s+1) b when σ(a), σ(b) agree class by class in P_s
            ids = {}
            chain.append(tuple(ids.setdefault(tuple(chain[-1][b] for b in rule), len(ids))
                               for rule in sub.rules))
        return len({chain[s][a] for a in letters})

    while count(q * r) != count(q * (r + 1)):
        r += 1
    cls = chain[q * r]
    if _cycle_gcd({(cls[a], cls[b]) for a, b in words}, cls[fp.seed])[1] % count(q * r):
        return AperiodicityResult("Aperiodic" if is_primitive(sub) else "NotPeriodic")
    p0 = count(q * r) * sub.length**(q * r)
    check_prefix(fp, 2 * p0)
    w = bytes(factor(fp, 0, 2 * p0))
    return AperiodicityResult("PeriodicDetected", period=w.find(w[:p0], 1))


def height(sub: Substitution) -> int:
    """Dekking's height of x = σ^p(x): the largest n <= c coprime to L with a
    labelling λ(x_m) = m mod n of the letters, that is, λ(b) = λ(a) + 1 mod n on
    every 2-word ab of x: n divides the cycle gcd of W2 from the seed.

    A labelling puts each letter at positions of one residue mod n, so n divides
    gcd{m > 0 : x_m = x_0}, and positions 0 .. n-1 hold distinct letters, so n <= c.
    Conversely, for n coprime to L, a level image of any letter holds the seed
    (primitivity), so two positions of one letter differ by a multiple of n.
    """
    if not is_primitive(sub):
        raise SubstitutionError("height needs a primitive substitution")
    fp = FixedPointSpec.find(sub)
    g = _cycle_gcd(_two_words(fp), fp.seed)[1]
    return next(n for n in range(sub.size, 0, -1) if gcd(n, sub.length) == 1 and g % n == 0)


def substitution_power(sub: Substitution, n: int, cap: int = 1_000_000) -> Substitution:
    """Materialize n rounds of the substitution as a single substitution."""
    if n < 1:
        raise SubstitutionError("power must be >= 1")
    rules = tuple(tuple(sub.expand(a, n, cap=cap)) for a in range(sub.size))
    return Substitution(sub.alphabet, rules)
