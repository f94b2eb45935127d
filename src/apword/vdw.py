"""Arbitrary-precision van der Waerden-type bound calculators."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import ResourceCapError, SubstitutionError
from .stream import ceil_log
from .substitution import pair_cover_bound, recurrence_formula

FACTOR_CAP = 2**63
TRIAL_LIMIT = 2**20  # about 0.1 s of trial division
MAX_DIGITS = 4300  # Python's default int-to-str limit; results are reported in decimal
_LIMIT = 10**MAX_DIGITS


def _cap_digits(what: str, value: int = 0, log2_floor: int = 0) -> int:
    """value, refused when it, or any value >= 2**log2_floor, has over MAX_DIGITS digits.

    The floor form lets a caller refuse a power before building it.
    """
    if value >= _LIMIT or log2_floor >= _LIMIT.bit_length():
        raise ResourceCapError(f"{what} would have more than {MAX_DIGITS} decimal digits")
    return value


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization by trial division up to TRIAL_LIMIT, primes ascending."""
    if not 2 <= n < FACTOR_CAP:
        raise SubstitutionError(f"factorization supported for 2 <= n < {FACTOR_CAP}")
    out = []
    p = 2
    while p * p <= n and p <= TRIAL_LIMIT:
        if n % p == 0:
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        p += 1 if p == 2 else 2
    if p * p <= n:
        raise ResourceCapError(f"{n} has no prime factor up to {TRIAL_LIMIT}")
    if n > 1:
        out.append((n, 1))
    return out


def min_prime_power(L: int) -> int:
    """The smallest maximal prime-power factor p**a of L."""
    return min(p**a for p, a in factorize(L))


def ceil_growth_exponent(L: int) -> tuple[int, int]:
    """ceil(log L / log q) for q the smallest maximal prime-power factor of L.

    Returned as (ceiling, q); the ceiling is the least t with q**t >= L.
    """
    q = min_prime_power(L)
    return ceil_log(q, L), q


@dataclass(frozen=True)
class VdwQuery:
    c: int
    L: int
    M: int
    r_override: int | None = None
    exponent_override: int | None = None

    def __post_init__(self):
        if self.c < 2 or self.L < 2 or self.M < 1:
            raise SubstitutionError("need c >= 2, L >= 2, M >= 1")
        for v in (self.r_override, self.exponent_override):
            if v is not None and v < 1:
                raise SubstitutionError("overrides must be positive")


def vdw_upper(q: VdwQuery) -> int:
    """(R+1) * L**(k*E) with k = ceil(log_L M)."""
    return vdw_upper_report(q)["value"]


def vdw_upper_report(q: VdwQuery) -> dict:
    k = ceil_log(q.L, q.M)
    log_l = q.L.bit_length() - 1  # L**n >= 2**(n * log_l)
    if q.r_override is None:
        _cap_digits("R", log2_floor=pair_cover_bound(q.c) * log_l)  # R + 1 >= L**N
    if q.exponent_override is None:
        _cap_digits("E = c!", log2_floor=q.c - 1)  # c! >= 2**(c-1)
    R = q.r_override or recurrence_formula(q.c, q.L)[0]
    E = q.exponent_override or factorial(q.c)
    _cap_digits("the bound", log2_floor=k * E * log_l + R.bit_length() - 1)
    value = _cap_digits("the bound", (R + 1) * q.L ** (k * E))
    _cap_digits("E", E)
    return {
        "c": q.c,
        "L": q.L,
        "M": q.M,
        "k": k,
        "R": R,
        "E": E,
        "value": value,
    }


@dataclass(frozen=True)
class VdwLowerResult:
    progression_length: int
    window_length: int
    n0: int
    ceil_b: int
    prime_power: int


def vdw_lower(c: int, L: int, m: int) -> VdwLowerResult:
    """A progression length M' and window n' with W(class, M') > n'.

    M' = L**(N0+1) * m**ceil(B) + 1 and n' = L**(N0+1) * m**(ceil(B)+1) + 1,
    where B compares L against its smallest maximal prime-power factor.
    """
    if c < 2 or m < 2 or L < 2:
        raise SubstitutionError("need c > 1, m > 1, L >= 2")
    n0 = pair_cover_bound(c)
    ceil_b, q = ceil_growth_exponent(L)
    _cap_digits("the window length", log2_floor=(n0 + 1) * (L.bit_length() - 1)
                + (ceil_b + 1) * (m.bit_length() - 1))
    base = L ** (n0 + 1)
    window = _cap_digits("the window length", base * m ** (ceil_b + 1) + 1)
    return VdwLowerResult(base * m**ceil_b + 1, window, n0, ceil_b, q)
