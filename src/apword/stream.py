"""Random access, bulk prefixes and 2-word windows of substitution fixed points."""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING

import numpy as np

from .errors import ResourceCapError, SubstitutionError

if TYPE_CHECKING:
    from .substitution import Substitution

PREFIX_CAP = 2**30
_TWO_WORD_CAP = 2**24  # most phase steps p·c²·L that the 2-words of σ^p(x) = x take
MAX_DENSE_ALPHABET = 256  # letters and coding symbols are uint8 indices in bulk arrays


def check_tokens(tokens: tuple, kind: str) -> None:
    """The rule for letters and coding symbols: at most MAX_DENSE_ALPHABET distinct,
    non-empty strings without whitespace."""
    if len(tokens) > MAX_DENSE_ALPHABET:
        raise SubstitutionError(f"{len(tokens)} {kind}s, more than {MAX_DENSE_ALPHABET}")
    for token in tokens:
        if not isinstance(token, str) or not token or any(ch.isspace() for ch in token):
            raise SubstitutionError(f"bad {kind} {token!r}")
    if len(set(tokens)) != len(tokens):
        raise SubstitutionError(f"duplicate {kind}s in {tokens}")


def base_digits(k: int, base: int) -> list[int]:
    """Digits of k in the given base, least significant first; 0 -> []."""
    if k < 0 or (k and base < 2):
        raise SubstitutionError(f"{k} has no base-{base} digits")
    digits = []
    while k:
        k, r = divmod(k, base)
        digits.append(r)
    return digits


def ceil_log(base: int, value: int) -> int:
    """Least k >= 0 with base**k >= value, by integer comparison only."""
    if base < 2 or value < 1:
        raise SubstitutionError("ceil_log needs base >= 2 and value >= 1")
    k = 0
    power = 1
    while power < value:
        power *= base
        k += 1
    return k


@lru_cache(maxsize=None)
def _block_table(sub: Substitution) -> tuple[int, np.ndarray]:
    """(j, T): row a of T is the image of letter a under j rounds, the least j with L^j >= 256."""
    if sub.length < 2:
        raise SubstitutionError("block table needs substitution length >= 2")
    j, table = 0, np.arange(sub.size, dtype=np.uint8)[:, None]
    while table.shape[1] < 256:
        j, table = j + 1, np.array(sub.rules, dtype=np.uint8)[table].reshape(sub.size, -1)
    table.flags.writeable = False
    return j, table


def _cycle_length(sub: Substitution, seed: int) -> int | None:
    """Return time of seed under the first column, or None if seed never returns."""
    x = sub.rules[seed][0]
    for steps in range(1, sub.size + 1):
        if x == seed:
            return steps
        x = sub.rules[x][0]
    return None


@dataclass(frozen=True)
class FixedPointSpec:
    """One-sided fixed point of some power of a substitution.

    The first letter of the image of `seed` under `power` rounds is `seed`
    again, so the iterated images converge to an infinite word.
    """

    sub: Substitution
    seed: int
    power: int = 1

    def __post_init__(self):
        if not 0 <= self.seed < self.sub.size:
            raise SubstitutionError(f"seed index {self.seed} out of range")
        x = self.seed
        for _ in range(self.power):
            x = self.sub.rules[x][0]
        if x != self.seed:
            raise SubstitutionError(
                f"letter {self.sub.alphabet.letters[self.seed]!r} does not restart "
                f"after {self.power} rounds"
            )

    @classmethod
    def find(cls, sub: Substitution, seed: str | int | None = None) -> "FixedPointSpec":
        """Pick a valid (seed, power), preferring power 1 and low letter index."""
        if seed is not None:
            idx = sub.alphabet.resolve(seed)
            p = _cycle_length(sub, idx)
            if p is None:
                raise SubstitutionError(
                    f"letter {sub.alphabet.letters[idx]!r} starts no fixed point of any power"
                )
            return cls(sub, idx, p)
        p, a = min((_cycle_length(sub, a) or sub.size + 1, a) for a in range(sub.size))
        return cls(sub, a, p)  # the first column has a cycle, so p <= c


def letter_index_at(fp: FixedPointSpec, n: int) -> int:
    """Letter at position n, by composing one column per base-L digit."""
    if n < 0:
        raise SubstitutionError("position must be >= 0")
    sub = fp.sub
    digits = base_digits(n, sub.length)
    pad = (-len(digits)) % fp.power
    x = fp.seed
    for _ in range(pad):
        x = sub.rules[x][0]
    for d in reversed(digits):
        x = sub.rules[x][d]
    return x


def letter_at(fp: FixedPointSpec, n: int) -> str:
    return fp.sub.alphabet.letters[letter_index_at(fp, n)]


@dataclass(frozen=True)
class Coding:
    """Letter-to-letter relabelling applied on the fly to streamed prefixes."""

    table: tuple[int, ...]  # input letter index -> output symbol index
    names: tuple[str, ...]  # output symbol per output index

    def __post_init__(self):
        if any(not 0 <= t < len(self.names) for t in self.table):
            raise SubstitutionError("coding table points outside its output alphabet")
        check_tokens(self.names, "coding symbol")

    @property
    def is_injective(self) -> bool:
        return len(set(self.table)) == len(self.table)

    def apply(self, arr: np.ndarray) -> np.ndarray:
        return np.asarray(self.table, dtype=np.uint8)[arr]

    @classmethod
    def from_map(cls, sub: Substitution, mapping: dict[str, str] | tuple) -> "Coding":
        """The coding of a dict, or of read_json's (letter, symbol) pairs: every letter
        of sub once, and no other key."""
        mapping = tuple(mapping.items()) if isinstance(mapping, dict) else mapping
        if not isinstance(mapping, tuple):
            raise SubstitutionError("a coding maps each letter to a symbol")
        keys, letters = [letter for letter, _ in mapping], sub.alphabet.letters
        if len(set(keys)) != len(keys) or not set(keys) <= set(letters):
            raise SubstitutionError(f"coding keys {keys} repeat a letter or name no letter")
        missing = [a for a in letters if a not in keys]
        if missing:
            raise SubstitutionError(f"coding misses letters {missing}")
        symbols = list(map(dict(mapping).get, letters))  # numbered by their first letter
        names = [x for i, x in enumerate(symbols) if x not in symbols[:i]]
        return cls(tuple(names.index(x) for x in symbols), tuple(names))


def check_prefix(fp: FixedPointSpec, length: int, cap: int = PREFIX_CAP) -> None:
    """Raise unless the first `length` letters exist and fit under the cap."""
    if length < 1:
        raise SubstitutionError("prefix length must be >= 1")
    if length > cap:
        raise ResourceCapError(f"prefix of {length} letters exceeds cap {cap}")
    if fp.sub.length == 1 and length > 1:  # the fixed point is the seed alone
        raise SubstitutionError("a length-1 substitution has a one-letter fixed point")


def check_coding(fp: FixedPointSpec, coding: Coding | None) -> None:
    """Raise unless the coding, if any, has one entry per letter of the substitution."""
    if coding is not None and len(coding.table) != fp.sub.size:
        raise SubstitutionError(f"coding of {len(coding.table)} letters for a "
                                f"{fp.sub.size}-letter substitution")


def factor(fp: FixedPointSpec, start: int, stop: int,
           coding: Coding | None = None) -> np.ndarray:
    """Letters start .. stop-1 as a uint8 index array, coded if requested.

    Letters b*B .. b*B+B-1 of the fixed point u are row u[b] of the level-j image
    table (B = L^j), so each level is one gather of the blocks the level below
    needs, [lo // B, ceil(hi / B)) for its span [lo, hi); the last gather uses
    the coded table.
    """
    if not 0 <= start < stop:
        raise SubstitutionError(f"no letters in [{start}, {stop})")
    check_coding(fp, coding)
    if fp.sub.length == 1:
        check_prefix(fp, stop)
        return np.full(1, fp.seed if coding is None else coding.table[fp.seed], np.uint8)
    rounds, table = _block_table(fp.sub)
    B = table.shape[1]
    spans = [(start, stop)]
    while spans[-1][1] > B:
        spans.append((spans[-1][0] // B, -(-spans[-1][1] // B)))
    arr, at = [fp.seed], 0  # arr holds the letters of its level from position `at` on
    for _ in range(-len(spans) * rounds % fp.power):  # seed stepped back len(spans) * j rounds
        arr = [fp.sub.rules[arr[0]][0]]
    for level in reversed(range(len(spans))):
        lo, hi = spans[level]
        t = table if level or coding is None else coding.apply(table)
        arr, at = t[arr].reshape(-1)[lo - at * B:hi - at * B], lo
    return arr


def prefix(fp: FixedPointSpec, length: int, coding: Coding | None = None,
           cap: int = PREFIX_CAP) -> np.ndarray:
    """First `length` letters as a uint8 index array, coded if requested."""
    check_prefix(fp, length, cap)
    return factor(fp, 0, length, coding)


@lru_cache(maxsize=None)
def _two_words(fp: FixedPointSpec) -> MappingProxyType:
    """W2, the 2-words of x = σ^p(x), each mapped to the index of its first occurrence.

    The phases y_t = σ^t(x), t mod p, have y_(t+1)[iL+j, +2) = σ(y_t[i, i+2))[j, j+2)
    for j < L, and y_p = x. As i -> iL + j never decreases, Dijkstra over the
    states (t, uv) from (0, x_0 x_1) at 0 settles each at its first position in
    y_t; W2 is phase 0. Its p·c²·L steps are checked against a cap first.
    """
    check_prefix(fp, 2)
    rules, L, p = fp.sub.rules, fp.sub.length, fp.power
    if (work := p * fp.sub.size**2 * L) > _TWO_WORD_CAP:
        raise ResourceCapError(f"2-words of {work} phase steps exceed cap {_TWO_WORD_CAP}")
    first, heap = {}, [(0, 0, fp.seed, letter_index_at(fp, 1))]  # (t, u, v) -> least i
    while heap:
        i, t, a, b = heapq.heappop(heap)
        if (t, a, b) not in first:
            first[t, a, b] = i
            w, t = rules[a] + rules[b], (t + 1) % p
            for j in range(L):
                if (t, w[j], w[j + 1]) not in first:  # a popped state is settled
                    heapq.heappush(heap, (i * L + j, t, w[j], w[j + 1]))
    return MappingProxyType({(a, b): i for (t, a, b), i in first.items() if t == 0})


class WindowIndex:
    """The level windows of a (coded) fixed point x = σ^p(x), one per symmetry orbit of its
    2-words, each fact read once, on first use, from the first occurrences f of W2.

    With B = L**k for k a multiple of p, x[iB, (i+2)B) = σ^k(x_i x_{i+1}). A factor of
    at most B + 1 letters starting at s in block i = s // B lies in x[iB, (i+2)B), and
    so does its copy at fB + s - iB in x[fB, (f+2)B), for f <= i the first occurrence
    of x_i x_{i+1}. Some symmetry τ maps x_i x_{i+1} to a kept 2-word, whose window
    starts no later and holds τ of that copy at the same offset: the kept windows hold
    a copy of every such factor, up to τ, starting no later than it. cover =
    max(kept) + 2 is the end of the last.
    """

    def __init__(self, fp: FixedPointSpec, coding: Coding | None = None):
        self.fp = fp
        self.coding = coding

    @cached_property
    def symmetries(self) -> tuple[tuple[int, ...], ...]:
        """The letter permutations τ with τ∘σ = σ∘τ that map the 2-words of x onto
        themselves and move the coded symbols by a map ρ, κ∘τ = ρ∘κ, the identity
        among them; () if some letter does not occur in x.

        τ(x_i x_{i+1}) is then a 2-word whose level-k window is τ of the window of
        x_i x_{i+1}, and coded, ρ of it. τ has finite order, so κ(τa) = κ(τb) gives
        κ(a) = κ(b) and ρ is a bijection: the two windows hold the same
        monochromatic progressions at the same offsets. Every letter is reached
        from the seed by the rules, so τ(seed) fixes τ through
        τ(σ(a)_i) = σ(τ(a))_i: the c candidates are built at once, letter by
        letter in breadth-first order, and each is checked in O(c·L) steps.
        """
        fp, coding = self.fp, self.coding
        check_coding(fp, coding)
        c, rules = fp.sub.size, np.array(fp.sub.rules, dtype=np.intp)
        tau = np.full((c, c), -1, np.intp)  # row t: the candidate with τ(seed) = t
        tau[:, fp.seed], reached = np.arange(c), [fp.seed]
        for a in reached:  # reached grows, in breadth-first order, while it is read
            for i, b in enumerate(fp.sub.rules[a]):
                if tau[0, b] < 0:
                    tau[:, b] = rules[tau[:, a], i]
                    reached.append(b)
        if len(reached) < c:  # a letter the seed does not reach is not in x
            return ()
        u, v = np.array(list(_two_words(fp)), dtype=np.intp).reshape(-1, 2).T
        legal = np.zeros(c * c, bool)
        legal[u * c + v] = True
        kappa = np.array(coding.table if coding is not None else range(c), np.intp)
        found = []
        for t in tau:
            rho = np.empty(kappa.max() + 1, np.intp)
            rho[kappa] = kappa[t]
            if (t[rules] == rules[t]).all() and np.bincount(t, minlength=c).max() == 1 \
                    and legal[t[u] * c + t[v]].all() and (rho[kappa] == kappa[t]).all():
                found.append(tuple(t.tolist()))
        return tuple(found)

    @cached_property
    def kept(self) -> tuple[int, ...]:
        """The sorted first occurrences of the 2-words that occur first in their orbit
        under the symmetries: a dropped one's window is τ of a kept one that starts earlier."""
        first, c = _two_words(self.fp), self.fp.sub.size
        words = sorted(first, key=first.get)  # ranked, as an f may not fit an intp
        u, v = np.array(words, dtype=np.intp).reshape(-1, 2).T
        rank = np.empty(c * c, np.intp)
        rank[u * c + v] = np.arange(len(words))
        least = np.arange(len(words))
        for t in map(np.array, self.symmetries):
            np.minimum(least, rank[t[u] * c + t[v]], out=least)
        return tuple(first[words[i]] for i in np.flatnonzero(least == np.arange(len(words))))

    @cached_property
    def _runs(self) -> tuple[tuple[int, int], ...]:
        """The blocks [f, f + 2) at the kept f, merged where they overlap or touch."""
        runs = []
        for f in self.kept:
            if runs and f <= runs[-1][1]:
                runs[-1] = (runs[-1][0], f + 2)
            else:
                runs.append((f, f + 2))
        return tuple(runs)

    @property
    def cover(self) -> int:
        return self._runs[-1][1]

    def letters(self, k: int) -> int:
        """The number of letters in windows(k)."""
        return sum(b - a for a, b in self._runs) * self.fp.sub.length**k

    def windows(self, k: int) -> tuple[tuple[int, int], ...]:
        """The kept level-k windows [fB, (f+2)B), merged where they overlap or touch."""
        B = self.fp.sub.length**k
        return tuple((a * B, b * B) for a, b in self._runs)


def _level(fp: FixedPointSpec, length: int) -> int:
    """The least multiple k of fp.power with L**k >= length."""
    return -(-ceil_log(fp.sub.length, length) // fp.power) * fp.power
