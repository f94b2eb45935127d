import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apword import (
    Alphabet,
    Coding,
    FixedPointSpec,
    ScanPolicy,
    Substitution,
    SubstitutionError,
    check_partition,
    export_dot,
    generate_group,
    get_builtin,
    graph_of_sets,
    induced_partition,
    letter_at,
    lift_column_family,
    lift_identity_family,
    parse_substitution,
    prefix,
    scan,
)


def blocks(name):
    b = get_builtin(name)
    return b, b.coding("partition")


def test_partition_canonical_order_and_validation():
    b, part = blocks("supersub5")
    sub = b.substitution
    # from_map numbers the symbols by least member, whatever they are called
    named = Coding.from_map(sub, {"d": "x", "e": "x", "a": "y", "b": "z", "c": "z"})
    assert named.table == part.table == (0, 1, 1, 2, 2) and named.names == ("y", "z", "x")
    assert check_partition(sub, named).quotient.rules == check_partition(sub, part).quotient.rules
    with pytest.raises(SubstitutionError, match=r"\['3'\] code no letter"):
        check_partition(sub, Coding((0, 1, 1, 3, 3), ("1", "2", "3", "4")))
    with pytest.raises(SubstitutionError, match="5-letter substitution"):
        check_partition(sub, Coding((0, 1, 1, 2), ("1", "2", "3")))
    with pytest.raises(SubstitutionError, match="misses letters"):
        Coding.from_map(sub, {"a": "1", "b": "2", "c": "2"})


def test_check_partition_supersub5():
    b, part = blocks("supersub5")
    res = check_partition(b.substitution, part)
    assert res.ok
    xi = res.quotient
    words = {xi.alphabet.letters[a]: xi.word(a) for a in range(3)}
    assert words == {"1": "123132", "2": "212313", "3": "331221"}


def test_check_partition_supersub6():
    b, part = blocks("supersub6")
    res = check_partition(b.substitution, part)
    assert res.ok
    xi = res.quotient
    assert {xi.alphabet.letters[a]: xi.word(a) for a in range(3)} == {
        "1": "111112", "2": "222223", "3": "333331"}


def test_check_partition_invalid_with_counterexample():
    sub = get_builtin("outlook6").substitution
    part = Coding.from_map(sub, {"a": "1", "b": "1", "c": "2", "d": "2", "e": "2", "f": "2"})
    res = check_partition(sub, part)
    assert not res.ok and res.quotient is None
    ell, block, x, y = res.violation
    assert ell == 0 and block == 1
    names = {sub.alphabet.letters[x], sub.alphabet.letters[y]}
    assert "c" in names or "d" in names


@pytest.mark.parametrize("name", ["supersub5", "supersub6"])
def test_commuting_square(name):
    b, part = blocks(name)
    sub = b.substitution
    res = check_partition(sub, part)
    theta, xi = part.table, res.quotient
    for a in range(sub.size):
        left = [theta[x] for x in sub.rules[a]]
        right = list(xi.rules[theta[a]])
        assert left == right


@pytest.mark.parametrize("name", ["supersub5", "supersub6"])
def test_quotient_fixed_point_is_projection(name):
    b, part = blocks(name)
    res = check_partition(b.substitution, part)
    fp = b.fixed_point()
    qfp = FixedPointSpec.find(res.quotient, part.table[fp.seed])
    n = b.substitution.length**5
    assert np.array_equal(prefix(fp, n, part), prefix(qfp, n))


def assert_scan_matches_quotient_scan(fp, part, d_to, policy=ScanPolicy()):
    """theta(x) is the quotient's fixed point at theta(seed), so A(d) and its
    leftmost start read through the coding are the quotient's."""
    qfp = FixedPointSpec.find(check_partition(fp.sub, part).quotient, part.table[fp.seed])
    coded = scan(fp, part, 1, d_to, policy)
    plain = scan(qfp, None, 1, d_to, policy)
    assert [(r.best_len, r.best_start) for r in coded] == \
        [(r.best_len, r.best_start) for r in plain]


@pytest.mark.parametrize("name", ["supersub5", "supersub6"])
def test_partition_coding_scan_is_the_quotient_scan(name):
    b, part = blocks(name)
    assert_scan_matches_quotient_scan(b.fixed_point(), part, 200)


def test_lift_identity_family_supersub5():
    b, part = blocks("supersub5")
    fams = lift_identity_family(b.substitution, part, [1, 2])
    assert fams[0].d == (6**6 - 1) // 5 and fams[0].predicted_lower == 6
    assert fams[1].d == (6**12 - 1) // 35 and fams[1].predicted_lower == 36


def test_lift_identity_family_rejects_trivial_quotient():
    b = get_builtin("supersub5")
    sub = b.substitution
    whole = Coding((0,) * 5, ("1",))
    with pytest.raises(SubstitutionError):
        lift_identity_family(sub, whole, [1])


def test_lift_identity_family_needs_singleton_seed_block():
    b, part = blocks("supersub6")
    with pytest.raises(SubstitutionError) as err:
        lift_identity_family(b.substitution, part, [1])
    assert "singleton" in str(err.value)


def test_lift_column_family_supersub6():
    b, part = blocks("supersub6")
    for d, expect in [(129, 4), (3999, 24)]:
        pos = lift_column_family(b.substitution, part, b.column_positions, "a", d)
        assert len(pos) >= expect
        fp = b.fixed_point()
        for p in pos:
            assert letter_at(fp, p) == "a"


def test_lift_column_family_stops_outside_columns():
    b, part = blocks("supersub6")
    pos = lift_column_family(b.substitution, part, b.column_positions, "a", 1)
    assert pos == [0]  # k = 1 ends in digit 1, outside {0, 3}


def test_lift_column_family_validates_columns():
    b, part = blocks("supersub6")
    with pytest.raises(SubstitutionError):
        lift_column_family(b.substitution, part, (0, 1), "a", 129)
    with pytest.raises(SubstitutionError, match="out of range"):
        lift_column_family(b.substitution, part, b.column_positions, 6, 129)


def test_induced_partition_tooling():
    b6 = get_builtin("supersub6")
    part = induced_partition(b6.substitution, [("a", "b")])
    assert part == b6.coding("partition")
    b5 = get_builtin("supersub5")
    part5 = induced_partition(b5.substitution, [("b", "c")])
    assert part5 == Coding((0, 1, 1, 2, 3), ("1", "2", "3", "4"))
    assert check_partition(b5.substitution, part5).ok
    sub = parse_substitution("a -> ab ; b -> ca ; c -> bc")
    assert induced_partition(sub, [(0, 2)]) == induced_partition(sub, [("a", "c")])
    for pairs in ([(0, -1)], [(0, 7)], [(3, "a")]):  # (0, -1) once merged a with c
        with pytest.raises(SubstitutionError, match="out of range"):
            induced_partition(sub, pairs)


def test_graph_of_sets_outlook6():
    g = graph_of_sets(get_builtin("outlook6").substitution)
    assert len(g.nodes) == 9
    assert g.column_number == 2
    assert sorted(g.label(n) for n in g.minimal) == ["{a,b}", "{a,e}", "{c,d}", "{d,f}"]


def test_graph_minimal_nodes_closed_and_equal_size():
    for name in ["outlook6", "supersub6", "rs"]:
        g = graph_of_sets(get_builtin(name).substitution)
        sizes = {len(n) for n in g.minimal}
        assert sizes == {g.column_number}
        for node in g.minimal:
            for target in g.edges[node]:
                assert target in g.minimal


@pytest.mark.parametrize("name", ["tm:2", "tm:3", "a4-example", "c3-invpal"])
def test_graph_of_bijective_is_single_node(name):
    sub = get_builtin(name).substitution
    g = graph_of_sets(sub)
    assert len(g.nodes) == 1
    assert g.column_number == sub.size


def test_graph_coincidence_reaches_singleton():
    g = graph_of_sets(parse_substitution("a -> ab ; b -> aa"))
    assert any(len(n) == 1 for n in g.nodes)
    assert g.column_number == 1


def test_export_dot_deterministic_and_round_trip():
    sub = get_builtin("outlook6").substitution
    g = graph_of_sets(sub)
    dot = export_dot(g)
    assert dot == export_dot(graph_of_sets(sub))
    labels = re.findall(r'label="\{([^"]*)\}"', dot)
    parsed = {frozenset(label.split(",")) for label in labels}
    assert parsed == {frozenset(sub.alphabet.letters[i] for i in node) for node in g.nodes}
    assert dot.count("peripheries=2") == len(g.minimal)
    assert 'label="0"' in dot and 'label="1"' in dot


def test_export_dot_degenerate_length_one():
    g = graph_of_sets(parse_substitution("a -> a"))
    dot = export_dot(g)
    assert "n0 -> n0" in dot and 'label="0"' in dot


GRAPH_BUILTINS = ["a4-example", "c3-invpal", "s3-noninvpal", "supersub5", "supersub6",
                  "outlook6", "rs", "hadamard4", "tm:2", "tm:3", "tm:5", "vandermonde:3",
                  "vandermonde:5"]


@st.composite
def substitutions(draw, bijective=False):
    """Random substitutions, c <= 6 letters of length L <= 5, L = 1 included."""
    c = draw(st.integers(1, 6))
    L = draw(st.integers(1, 5))
    if bijective:
        cols = [draw(st.permutations(range(c))) for _ in range(L)]
        rules = tuple(tuple(col[a] for col in cols) for a in range(c))
    else:
        rules = tuple(tuple(draw(st.lists(st.integers(0, c - 1), min_size=L, max_size=L)))
                      for _ in range(c))
    return Substitution(Alphabet(tuple(f"x{a}" for a in range(c))), rules)


def bottom_sets_oracle(sub):
    """(column number, minimal sets) from plain reachability: a node is in a
    bottom component when every node it reaches reaches it back."""
    def images(node):
        return {frozenset(sub.rules[a][i] for a in node) for i in range(sub.length)}

    def reach(node):
        seen, todo = {node}, [node]
        while todo:
            for t in images(todo.pop()) - seen:
                seen.add(t)
                todo.append(t)
        return seen

    nodes = reach(frozenset(range(sub.size)))
    reaches = {n: reach(n) for n in nodes}
    bottom = [n for n in nodes if all(n in reaches[m] for m in reaches[n])]
    size = min(map(len, bottom))
    return nodes, size, {n for n in bottom if len(n) == size}


def assert_graph_matches_oracle(sub):
    g = graph_of_sets(sub)
    nodes, column_number, minimal = bottom_sets_oracle(sub)
    assert set(g.nodes) == nodes
    assert g.column_number == column_number
    assert g.minimal == minimal


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(sub=substitutions())
def test_graph_of_sets_matches_bottom_component_oracle(sub):
    assert_graph_matches_oracle(sub)


@pytest.mark.parametrize("name", GRAPH_BUILTINS)
def test_graph_of_sets_matches_oracle_on_builtins(name):
    assert_graph_matches_oracle(get_builtin(name).substitution)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(sub=substitutions(bijective=True))
def test_group_transitivity_matches_orbit_closure(sub):
    orbit, todo = {0}, [0]
    while todo:
        x = todo.pop()
        for y in sub.rules[x]:  # the images of x under every column
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    assert generate_group(sub).transitive == (len(orbit) == sub.size)


@st.composite
def partitioned_substitutions(draw):
    """A substitution and a partition coding: the induced closure of random
    pairs, so that compatible partitions occur too, or arbitrary labels with
    the symbols numbered in label order, so that symbol i need not hold the
    i-th least letter."""
    sub = draw(substitutions())
    c = sub.size
    if draw(st.booleans()):
        pairs = draw(st.lists(st.tuples(st.integers(0, c - 1), st.integers(0, c - 1)),
                              max_size=3))
        return sub, induced_partition(sub, pairs)
    labels = draw(st.lists(st.integers(0, c - 1), min_size=c, max_size=c))
    used = sorted(set(labels))
    return sub, Coding(tuple(used.index(x) for x in labels), tuple(f"s{x}" for x in used))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=partitioned_substitutions())
def test_check_partition_matches_first_violation(case):
    sub, part = case
    theta = part.table
    expected = None
    for i in range(len(part.names)):
        block = [a for a in range(sub.size) if theta[a] == i]
        for ell in range(sub.length):
            ref = min(block)
            bad = [a for a in block if theta[sub.rules[a][ell]] != theta[sub.rules[ref][ell]]]
            if bad and expected is None:
                expected = (ell, i, ref, min(bad))
    res = check_partition(sub, part)
    assert res.violation == expected and res.ok == (expected is None)
    if res.ok:
        assert res.quotient.alphabet.letters == part.names
        for a in range(sub.size):
            assert list(res.quotient.rules[theta[a]]) == [theta[x] for x in sub.rules[a]]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=partitioned_substitutions())
def test_partition_coding_scan_matches_quotient_scan_on_random_partitions(case):
    sub, part = case
    res = check_partition(sub, part)
    if not res.ok or sub.length == 1:
        return
    fp = FixedPointSpec.find(sub)
    if FixedPointSpec.find(res.quotient, part.table[fp.seed]).power != 1:
        return
    assert_scan_matches_quotient_scan(fp, part, 12, ScanPolicy(prefix_cap=2**14))
