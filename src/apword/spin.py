"""Spin substitutions driven by a matrix of cyclic-group exponents."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SubstitutionError
from .stream import MAX_DENSE_ALPHABET, Coding, FixedPointSpec, base_digits, prefix
from .substitution import Alphabet, Substitution


@dataclass(frozen=True)
class SpinSystem:
    """Digits 0..D-1, spins as exponents mod `modulus`, and a DxD exponent matrix."""

    modulus: int
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise SubstitutionError("spin modulus must be >= 1")
        d = len(self.matrix)
        for row in self.matrix:
            if len(row) != d:
                raise SubstitutionError("spin matrix must be square")
            if any(not 0 <= x < self.modulus for x in row):
                raise SubstitutionError("spin matrix entries must be reduced exponents")

    @property
    def digits(self) -> int:
        return len(self.matrix)

    def letter_name(self, digit: int, exp: int) -> str:
        return f"{digit}" if exp == 0 else f"{digit}~{exp}"

    def spin_names(self) -> tuple[str, ...]:
        if self.modulus == 1:
            return ("1",)
        if self.modulus == 2:
            return ("1", "-1")
        return ("1", "w") + tuple(f"w^{e}" for e in range(2, self.modulus))


def rudin_shapiro() -> SpinSystem:
    return SpinSystem(2, ((0, 0), (0, 1)))


def hadamard4() -> SpinSystem:
    return SpinSystem(2, ((0, 0, 0, 0), (0, 1, 0, 1), (0, 0, 1, 1), (0, 1, 1, 0)))


def vandermonde(L: int) -> SpinSystem:
    if L < 2:
        raise SubstitutionError("Vandermonde systems need L >= 2")
    return SpinSystem(L, tuple(tuple((i * j) % L for j in range(L)) for i in range(L)))


def spin_system_from_json(data: tuple) -> SpinSystem:
    """The spin system of read_json's pairs {"modulus": m, "matrix": [[...]], "digits": D},
    digits optional: no other key, none repeated, and no float, bool or string as a number."""
    fields = dict(data)
    matrix = fields.get("matrix")
    if not (len(fields) == len(data)
            and {"modulus", "matrix"} <= fields.keys() <= {"modulus", "matrix", "digits"}
            and isinstance(matrix, list) and all(isinstance(row, list) for row in matrix)
            and all(type(x) is int for x in [fields["modulus"], fields.get("digits", 0),
                                               *(x for row in matrix for x in row)])):
        raise SubstitutionError("bad spin matrix JSON: it takes integers under 'modulus', "
                                "'matrix' (a list of rows) and an optional 'digits', each once")
    if fields.get("digits", len(matrix)) != len(matrix):
        raise SubstitutionError("digit count does not match matrix size")
    return SpinSystem(fields["modulus"], tuple(map(tuple, matrix)))


def _letter(sys: SpinSystem, digit: int, exp: int) -> int:
    return digit * sys.modulus + exp


def check_spin_letters(D: int, m: int) -> None:
    """Refuse a spin system of D digits and m spins: D*m letters, over the dense limit."""
    if D * m > MAX_DENSE_ALPHABET:
        raise SubstitutionError(f"spin system of {D}*{m} letters, more than {MAX_DENSE_ALPHABET}")


def build_spin_substitution(sys: SpinSystem) -> Substitution:
    """Length-D substitution on digit/spin pairs: position i of the image of
    (b, s) carries digit i and spin matrix[i][b] + s."""
    D, m = sys.digits, sys.modulus
    check_spin_letters(D, m)
    letters = tuple(sys.letter_name(d, e) for d in range(D) for e in range(m))
    rules = tuple(tuple(_letter(sys, i, (sys.matrix[i][b] + s) % m) for i in range(D))
                  for b in range(D) for s in range(m))
    return Substitution(Alphabet(letters), rules)


def spin_coding(sys: SpinSystem) -> Coding:
    table = tuple(e for _ in range(sys.digits) for e in range(sys.modulus))
    return Coding(table, sys.spin_names())


def digit_coding(sys: SpinSystem) -> Coding:
    table = tuple(d for d in range(sys.digits) for _ in range(sys.modulus))
    return Coding(table, tuple(str(d) for d in range(sys.digits)))


def spin_fixed_point(sys: SpinSystem) -> FixedPointSpec:
    return FixedPointSpec(build_spin_substitution(sys), _letter(sys, 0, 0), 1)


def spin_letter_at(sys: SpinSystem, n: int) -> int:
    """Spin exponent at position n: sum of matrix[low][high] over consecutive
    base-D digit pairs of n, the top digit paired with an implicit 0 (the seed
    digit). The empty sum, at n = 0, is exponent 0.
    """
    if n < 0:
        raise SubstitutionError("position must be >= 0")
    digits = base_digits(n, sys.digits) + [0]
    total = 0
    for low, high in zip(digits, digits[1:]):
        total += sys.matrix[low][high]
    return total % sys.modulus


@dataclass(frozen=True)
class RecurrenceCheck:
    ok: bool
    n_max: int
    counterexample: tuple[int, int, int, int] | None = None  # n, a, expected, got


def check_recurrence(sys: SpinSystem, n_max: int, *, sequence=None) -> RecurrenceCheck:
    """Verify spin(L n + a) = matrix[a][n mod L] + spin(n) for all n <= n_max.

    `sequence` may supply a precomputed exponent array; by default the fixed
    point of the spin substitution is streamed and coded, which keeps the
    check independent of the digit-pair product formula.
    """
    if n_max < 1:
        raise SubstitutionError("n_max must be >= 1")
    L, m = sys.digits, sys.modulus
    total = L * (n_max + 1)
    if sequence is None:
        u = prefix(spin_fixed_point(sys), total, spin_coding(sys)).astype(np.int64)
    else:
        u = np.asarray(sequence, dtype=np.int64)
        if len(u) < total:
            raise SubstitutionError(f"sequence too short: need {total} entries")
    idx = np.arange(n_max + 1, dtype=np.int64)
    b = idx % L
    V = np.array(sys.matrix, dtype=np.int64)
    first = None
    for a in range(L):
        lhs = u[L * idx + a]
        rhs = (V[a, b] + u[idx]) % m
        bad = np.flatnonzero(lhs != rhs)
        if len(bad):
            n = int(bad[0])
            cand = (n, a, int(rhs[n]), int(lhs[n]))
            if first is None or cand[0] < first[0]:
                first = cand
    if first is not None:
        return RecurrenceCheck(False, n_max, first)
    return RecurrenceCheck(True, n_max)
