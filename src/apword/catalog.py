"""Registry of named example substitutions and spin systems."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SubstitutionError
from .spin import (
    SpinSystem,
    build_spin_substitution,
    check_spin_letters,
    digit_coding,
    hadamard4,
    rudin_shapiro,
    spin_coding,
    vandermonde,
)
from .stream import MAX_DENSE_ALPHABET, Coding, FixedPointSpec
from .substitution import Alphabet, Substitution, parse_substitution


@dataclass(frozen=True)
class Builtin:
    name: str
    description: str
    substitution: Substitution
    spin: SpinSystem | None = None
    partition: tuple[tuple[str, ...], ...] | None = None
    column_positions: tuple[int, ...] | None = None

    def fixed_point(self) -> FixedPointSpec:
        return FixedPointSpec.find(self.substitution)

    def codings(self) -> dict[str, Coding]:
        table = {}
        if self.spin is not None:
            table |= {"spin": spin_coding(self.spin), "digit": digit_coding(self.spin)}
        if self.partition is not None:  # blocks listed by least member: block i is symbol i
            table["partition"] = Coding.from_map(self.substitution, {
                a: str(i + 1) for i, block in enumerate(self.partition) for a in block})
        return table

    def coding(self, name: str | None) -> Coding | None:
        if name is None or name == "none":
            return None
        table = self.codings()
        if name not in table:
            raise SubstitutionError(f"builtin {self.name!r} has no coding {name!r}")
        return table[name]


def cyclic_shift_substitution(L: int) -> Substitution:
    """Columns a -> a + i mod L on the digit alphabet of size L."""
    if not 2 <= L <= MAX_DENSE_ALPHABET:
        raise SubstitutionError(f"cyclic shift substitutions need 2 <= L <= {MAX_DENSE_ALPHABET}")
    return Substitution(Alphabet(tuple(str(i) for i in range(L))),
                        tuple(tuple((a + i) % L for i in range(L)) for a in range(L)))


def _spin_builtin(name: str, description: str, sys: SpinSystem) -> Builtin:
    return Builtin(name, description, build_spin_substitution(sys), spin=sys)


_FIXED: dict[str, Builtin] = {}


def _register(b: Builtin) -> None:
    _FIXED[b.name] = b


_register(Builtin(
    "a4-example",
    "length-3 substitution on 4 letters whose columns generate a 12-element group",
    parse_substitution("0 -> 011 ; 1 -> 120 ; 2 -> 203 ; 3 -> 332"),
))

_register(Builtin(
    "c3-invpal",
    "inverse-palindromic length-5 substitution with cyclic Abelian column group",
    parse_substitution("0 -> 02010 ; 1 -> 10121 ; 2 -> 21202"),
))

_register(Builtin(
    "s3-noninvpal",
    "inverse-palindromic length-5 substitution with non-Abelian column group",
    parse_substitution("0 -> 01120 ; 1 -> 12001 ; 2 -> 20212"),
))

_register(Builtin(
    "supersub5",
    "five letters collapsing onto a bijective three-block quotient",
    parse_substitution(
        "a -> acdaec ; b -> babead ; c -> bacead ; d -> ddabca ; e -> edabca"),
    partition=(("a",), ("b", "c"), ("d", "e")),
))

_register(Builtin(
    "supersub6",
    "six letters with two columns pinning the first block to one letter",
    parse_substitution(
        "a -> abbabd ; b -> aabaac ; c -> cddcce ; d -> dccddf ; e -> effeea ; f -> fefefb"),
    partition=(("a", "b"), ("c", "d"), ("e", "f")),
    column_positions=(0, 3),
))

_register(Builtin(
    "outlook6",
    "non-bijective length-2 substitution with column number 2",
    parse_substitution("a -> ad ; b -> bc ; c -> ea ; d -> ab ; e -> bf ; f -> ba"),
))

_register(_spin_builtin(
    "rs", "Rudin-Shapiro spin substitution on digit/spin pairs", rudin_shapiro()))
_register(_spin_builtin(
    "hadamard4", "spin substitution of the 4x4 Hadamard sign matrix", hadamard4()))


def builtin_names() -> list[str]:
    return sorted(_FIXED) + ["tm:L", "vandermonde:L"]


def get_builtin(name: str) -> Builtin:
    """Look up a fixed builtin or a parametrized one like tm:3 / vandermonde:5."""
    if name in _FIXED:
        return _FIXED[name]
    if ":" in name:
        head, _, arg = name.partition(":")
        try:
            L = int(arg)
        except ValueError:
            raise SubstitutionError(f"bad parameter in builtin name {name!r}") from None
        if head == "tm":
            return Builtin(name, f"cyclic shift substitution on {L} letters",
                           cyclic_shift_substitution(L))
        if head == "vandermonde":
            if L >= 2:  # L*L letters, refused before the L x L matrix is built
                check_spin_letters(L, L)
            return _spin_builtin(name, f"Vandermonde spin system (L={L})", vandermonde(L))
    raise SubstitutionError(f"unknown builtin {name!r}; known: {', '.join(builtin_names())}")
