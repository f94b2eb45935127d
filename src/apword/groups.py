"""The group generated by the columns of a bijective substitution."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, lcm

import numpy as np

from .errors import SubstitutionError
from .substitution import (
    ColumnMap,
    Substitution,
    column,
    columns,
    power_column,
    substitution_power,
)

Perm = tuple[int, ...]


def identity_perm(c: int) -> Perm:
    return tuple(range(c))


def compose(p: Perm, q: Perm) -> Perm:
    """p after q: (p . q)(a) = p(q(a))."""
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _cycles(p: Perm) -> list[list[int]]:
    """The cycles of p, fixed points included, each from its least letter, in that order."""
    cycles, seen = [], set()
    for a in range(len(p)):
        if a not in seen:
            cycle = [a]
            while p[cycle[-1]] != a:
                cycle.append(p[cycle[-1]])
            seen.update(cycle)
            cycles.append(cycle)
    return cycles


def perm_order(p: Perm) -> int:
    return lcm(*map(len, _cycles(p)))


def cycle_notation(p: Perm, names=None) -> str:
    """Disjoint cycles over letter names; fixed points omitted, identity is 'id'."""
    names = names or [str(i) for i in range(len(p))]
    return "".join("(" + " ".join(names[i] for i in cycle) + ")"
                   for cycle in _cycles(p) if len(cycle) > 1) or "id"


def commute(perms) -> bool:
    """Every two of the permutations commute: the group they generate is Abelian.
    Over the distinct ones p_j, row j of a[p] is a∘p_j, and of p[:, a] it is p_j∘a."""
    p = np.array(list(dict.fromkeys(perms)), dtype=np.intp)
    return all((a[p] == p[:, a]).all() for a in p)


@dataclass(frozen=True)
class ColumnGroup:
    elements: frozenset[Perm]
    generators: tuple[Perm, ...]
    order: int
    exponent: int
    abelian: bool
    transitive: bool

    @property
    def is_cyclic(self) -> bool:
        return self.abelian and self.exponent == self.order


def _bijective_columns(sub: Substitution) -> list[ColumnMap]:
    cols = columns(sub)
    for i, col in enumerate(cols):
        if not col.is_bijective:
            raise SubstitutionError(f"column {i} is not a bijection ({col.kind})")
    return cols


def generate_group(sub: Substitution) -> ColumnGroup:
    """Closure of the column maps under composition, with cached structure."""
    c, cap = sub.size, factorial(sub.size)
    gens = tuple(dict.fromkeys(col.image for col in _bijective_columns(sub)))
    elements = [identity_perm(c)]
    seen = set(elements)
    for g in elements:  # breadth first: elements grows while it is read
        for s in gens:
            if (h := compose(g, s)) not in seen:
                seen.add(h)
                elements.append(h)
                if len(elements) > cap:
                    raise SubstitutionError("group closure exceeded c! elements")
    exponent = lcm(*map(perm_order, elements))
    transitive = len({g[0] for g in elements}) == c  # orbit of 0 under the group
    return ColumnGroup(frozenset(seen), gens, len(seen), exponent, commute(gens), transitive)


@dataclass(frozen=True)
class PalindromicityReport:
    g_witness: Perm | None
    inverse_palindromic: bool


def palindromicity(sub: Substitution) -> PalindromicityReport:
    """Check whether every column composed with its mirror column is one fixed map."""
    cols = _bijective_columns(sub)
    L = sub.length
    candidate = compose(cols[0].image, cols[L - 1].image)
    for i in range(L):
        if compose(cols[i].image, cols[L - 1 - i].image) != candidate:
            return PalindromicityReport(None, False)
    return PalindromicityReport(candidate, candidate == identity_perm(sub.size))


@dataclass(frozen=True)
class WitnessReport:
    positions: tuple[int, ...]
    difference: int
    power: int       # power of the input substitution whose zeroth column is id
    levels: int      # rounds of that power realizing the identity columns
    base_length: int


def identity_difference(L: int, k: int, e: int) -> int:
    """Spacing (L^(ke) - 1)/(L^k - 1) of the identity columns at level ke, e the group exponent."""
    return (L ** (k * e) - 1) // (L**k - 1)


def identity_column_witness(sub: Substitution, k: int) -> WitnessReport:
    """Positions of identity columns spaced in arithmetic progression.

    Works on the smallest power of the substitution whose zeroth column is the
    identity; each claimed position is re-checked through power_column.
    """
    if k < 1:
        raise SubstitutionError("k must be >= 1")
    col0 = column(sub, 0)
    if not col0.is_bijective:
        raise SubstitutionError("column 0 is not a bijection")
    p = perm_order(col0.image)
    base = sub if p == 1 else substitution_power(sub, p)
    group = generate_group(base)
    e = group.exponent
    Lb = base.length
    d = identity_difference(Lb, k, e)
    ident = identity_perm(base.size)
    positions = []
    for m in range(Lb**k):
        pos = m * d
        if power_column(base, pos, k * e).image != ident:
            raise SubstitutionError(
                f"internal error: column {pos} of level {k * e} is not the identity"
            )
        positions.append(pos)
    return WitnessReport(tuple(positions), d, p, k * e, Lb)
