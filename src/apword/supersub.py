"""Partition quotients, lifted progression witnesses, and the graph of sets.

A letter partition is a Coding: its blocks are the fibres of coding.table,
and quotient letter i is symbol i, named coding.names[i].
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SubstitutionError
from .groups import generate_group, identity_difference
from .progressions import DifferenceFamily
from .stream import Coding, FixedPointSpec, letter_index_at
from .substitution import Alphabet, Substitution, star_defect


@dataclass(frozen=True)
class PartitionCheck:
    ok: bool
    quotient: Substitution | None = None
    violation: tuple[int, int, int, int] | None = None  # column, symbol, letter, letter


def check_partition(sub: Substitution, coding: Coding) -> PartitionCheck:
    """Quotient substitution on the coding's symbols when every column respects
    its fibres: theta.sigma = xi.theta for theta = coding.table, so theta(x) is
    the fixed point of xi from theta(seed)."""
    theta = coding.table
    if len(theta) != sub.size:
        raise SubstitutionError(f"coding of {len(theta)} letters for a "
                                f"{sub.size}-letter substitution")
    fibres = [[a for a in range(sub.size) if theta[a] == i] for i in range(len(coding.names))]
    if unused := [name for name, fibre in zip(coding.names, fibres) if not fibre]:
        raise SubstitutionError(f"coding symbols {unused} code no letter")
    rules = []
    for i, fibre in enumerate(fibres):
        rule = []
        ref = fibre[0]
        for ell in range(sub.length):
            t = theta[sub.rules[ref][ell]]
            for a in fibre:
                if theta[sub.rules[a][ell]] != t:
                    return PartitionCheck(False, violation=(ell, i, ref, a))
            rule.append(t)
        rules.append(tuple(rule))
    return PartitionCheck(True, Substitution(Alphabet(coding.names), tuple(rules)))


def _quotient(sub: Substitution, coding: Coding) -> Substitution:
    check = check_partition(sub, coding)
    if not check.ok:
        raise SubstitutionError(f"partition does not induce a quotient: {check.violation}")
    return check.quotient


def lift_identity_family(sub: Substitution, coding: Coding, ks) -> list[DifferenceFamily]:
    """Identity-column family of the quotient, lifted to the original word.

    Needs the seed's fibre to be a singleton so symbol hits pin down the letter.
    """
    xi = _quotient(sub, coding)
    fp = FixedPointSpec.find(sub)
    if coding.table.count(coding.table[fp.seed]) != 1:
        raise SubstitutionError("seed block must be a singleton to lift progressions")
    if (defect := star_defect(xi)) is not None:
        raise SubstitutionError(f"quotient substitution {defect}")
    e = generate_group(xi).exponent
    L = sub.length
    out = []
    for k in ks:
        if k < 1:
            raise SubstitutionError("family parameters must be >= 1")
        d = identity_difference(L, k, e)
        out.append(DifferenceFamily("lifted-identity", (k,), d, L**k, None))
    return out


def lift_column_family(sub: Substitution, coding: Coding, positions,
                       target_letter: str | int, d: int, max_len: int = 10_000) -> list[int]:
    """Verified progression positions k*d whose letters are pinned to one target.

    Each multiple must end (base L) in one of the given column positions, all
    of which send the target's fibre to the target letter; the truncated index
    must land on the target's symbol in the quotient fixed point. The run stops
    at the first multiple violating either condition, and every returned
    position is re-checked against the actual fixed point.
    """
    target = sub.alphabet.resolve(target_letter)
    xi = _quotient(sub, coding)
    symbol = coding.table[target]
    positions = sorted(set(positions))
    for c in positions:
        if not 0 <= c < sub.length:
            raise SubstitutionError(f"column position {c} out of range")
        for a in range(sub.size):
            if coding.table[a] == symbol and sub.rules[a][c] != target:
                raise SubstitutionError(
                    f"column {c} does not send block letter "
                    f"{sub.alphabet.letters[a]!r} to the target"
                )
    fp = FixedPointSpec.find(sub)
    if coding.table[fp.seed] != symbol:
        raise SubstitutionError("fixed-point seed lies outside the target block")
    quotient_fp = FixedPointSpec.find(xi, symbol)
    allowed = set(positions)
    out = []
    for k in range(max_len):
        n = k * d
        if n % sub.length not in allowed:
            break
        if letter_index_at(quotient_fp, n // sub.length) != symbol:
            break
        if letter_index_at(fp, n) != target:
            raise SubstitutionError(f"internal error: position {n} is not the target letter")
        out.append(n)
    return out


def induced_partition(sub: Substitution, pairs) -> Coding:
    """Convenience tooling: smallest column-compatible partition merging the
    given letter pairs, found by merge-find closure (same block forces the
    columnwise images into the same block). Singleton blocks fill the rest.
    The coding numbers its blocks by least member and names them "1".."n".
    """
    parent = list(range(sub.size))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = [(sub.alphabet.resolve(a), sub.alphabet.resolve(b)) for a, b in pairs]
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[ry] = rx
        members = [a for a in range(sub.size) if find(a) == rx]
        ref = members[0]
        for ell in range(sub.length):
            for a in members[1:]:
                queue.append((sub.rules[ref][ell], sub.rules[a][ell]))
    roots = list(dict.fromkeys(find(a) for a in range(sub.size)))  # by least member
    return Coding(tuple(roots.index(find(a)) for a in range(sub.size)),
                  tuple(str(i + 1) for i in range(len(roots))))


@dataclass
class SetGraph:
    alphabet: Alphabet
    nodes: tuple[frozenset[int], ...]
    edges: dict[frozenset[int], tuple[frozenset[int], ...]]  # per digit 0..L-1
    minimal: frozenset[frozenset[int]]
    column_number: int

    def label(self, node: frozenset[int]) -> str:
        return "{" + ",".join(self.alphabet.letters[i] for i in sorted(node)) + "}"


def graph_of_sets(sub: Substitution) -> SetGraph:
    """Digraph of column images of alphabet subsets, reachable from the full set.

    The column number is the size of the smallest node, and the minimal sets
    are all nodes of that size. This is exact: every node but the full set is
    f(A) for f in the semigroup S generated by the columns, and |f(A)| = rank f.
    Let m be the least rank in S. For f and h of rank m, h.f is in S, so its
    rank is at least m, and its image lies in h(A), which has m letters; so
    h.f(A) = h(A), and every size-m node reaches every other one. Edges never
    grow a set, so the size-m nodes form one closed strongly connected
    component. Any node B reaches h(B) = h(A) in the same way, so that
    component is the only bottom one.
    """
    full = frozenset(range(sub.size))
    edges: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
    order, seen = [full], {full}
    for node in order:  # breadth first: order grows as new sets are found
        targets = tuple(frozenset(sub.rules[a][i] for a in node) for i in range(sub.length))
        edges[node] = targets
        for t in targets:
            if t not in seen:
                seen.add(t)
                order.append(t)

    column_number = min(map(len, order))
    minimal = frozenset(node for node in order if len(node) == column_number)
    return SetGraph(sub.alphabet, tuple(order), edges, minimal, column_number)


def export_dot(g: SetGraph) -> str:
    """Deterministic DOT with digit-labelled edges, minimal sets double-drawn."""
    nodes = sorted(g.nodes, key=lambda n: (-len(n), g.label(n)))
    ids = {node: f"n{i}" for i, node in enumerate(nodes)}
    lines = ["digraph sets {", f'  // column_number={g.column_number}']
    for node in nodes:
        extra = ", peripheries=2" if node in g.minimal else ""
        lines.append(f'  {ids[node]} [label="{g.label(node)}"{extra}];')
    for node in nodes:
        for digit, target in enumerate(g.edges[node]):
            lines.append(f'  {ids[node]} -> {ids[target]} [label="{digit}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
