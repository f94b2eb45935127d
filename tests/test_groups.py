import pytest

from apword import (
    SubstitutionError,
    generate_group,
    get_builtin,
    identity_column_witness,
    letter_at,
    palindromicity,
    parse_substitution,
    power_column,
    substitution_power,
)
from apword.groups import compose, cycle_notation, identity_perm, inverse, perm_order


@pytest.mark.parametrize("L", [2, 3, 5])
def test_tm_groups_cyclic(L):
    g = generate_group(get_builtin(f"tm:{L}").substitution)
    assert g.order == L and g.exponent == L
    assert g.abelian and g.transitive and g.is_cyclic


def test_a4_example_group():
    g = generate_group(get_builtin("a4-example").substitution)
    assert g.order == 12
    assert g.exponent == 6  # lcm of a 3-cycle and a double transposition
    assert not g.abelian and g.transitive and not g.is_cyclic


def test_trivial_group_from_identity_columns():
    sub = parse_substitution("a -> aa ; b -> bb")
    g = generate_group(sub)
    assert g.order == 1 and g.exponent == 1


def test_generate_group_rejects_non_bijective():
    with pytest.raises(SubstitutionError) as err:
        generate_group(get_builtin("outlook6").substitution)
    assert "column 0" in str(err.value)


@pytest.mark.parametrize("name", ["tm:2", "tm:3", "a4-example", "c3-invpal", "s3-noninvpal"])
def test_group_closure_properties(name):
    g = generate_group(get_builtin(name).substitution)
    c = len(next(iter(g.elements)))
    assert identity_perm(c) in g.elements
    for x in g.elements:
        assert inverse(x) in g.elements
        assert g.exponent % perm_order(x) == 0
    for x in g.elements:
        for y in g.elements:
            assert compose(x, y) in g.elements


@pytest.mark.parametrize("name,k_max", [("tm:2", 3), ("tm:3", 3), ("a4-example", 3),
                                        ("c3-invpal", 2)])
def test_group_stable_under_powers(name, k_max):
    sub = get_builtin(name).substitution
    base = generate_group(sub).elements
    for k in range(2, k_max + 1):
        assert generate_group(substitution_power(sub, k)).elements == base


def test_palindromicity_tm():
    for L in (2, 3, 5):
        sub = get_builtin(f"tm:{L}").substitution
        rep = palindromicity(sub)
        shift = tuple((a + L - 1) % L for a in range(L))
        assert rep.g_witness == shift
        assert not rep.inverse_palindromic


def test_palindromicity_examples():
    assert palindromicity(get_builtin("c3-invpal").substitution).inverse_palindromic
    s3 = get_builtin("s3-noninvpal").substitution
    assert palindromicity(s3).inverse_palindromic  # the base substitution is
    squared = substitution_power(s3, 2)
    rep = palindromicity(squared)
    assert rep.g_witness is None and not rep.inverse_palindromic


def test_mirror_pairing_consequence():
    # Abelian mirror-paired substitutions: column k*d of an even power ell is
    # the witness raised to ell/2, at d = (L**ell - 1)//(L + 1).
    for name in ["tm:2", "tm:3", "c3-invpal"]:
        sub = get_builtin(name).substitution
        g = palindromicity(sub).g_witness
        L = sub.length
        for ell in (2, 4):
            d = (L**ell - 1) // (L + 1)
            expected = identity_perm(sub.size)
            for _ in range(ell // 2):
                expected = compose(expected, g)
            for k in range(1, L + 1):
                assert power_column(sub, k * d, ell).image == expected


def test_identity_column_witness_tm2():
    rep = identity_column_witness(get_builtin("tm:2").substitution, 1)
    assert rep.positions == (0, 3) and rep.power == 1


def test_identity_column_witness_tm3():
    rep = identity_column_witness(get_builtin("tm:3").substitution, 1)
    assert rep.positions == (0, 13, 26)
    assert rep.difference == 13


def test_identity_column_witness_k2():
    rep = identity_column_witness(get_builtin("tm:2").substitution, 2)
    assert rep.difference == 5  # (2**4 - 1)//(2**2 - 1)
    assert len(rep.positions) == 4


def test_witness_positions_hit_seed_letter():
    for name in ["tm:2", "tm:3", "a4-example"]:
        b = get_builtin(name)
        fp = b.fixed_point()
        rep = identity_column_witness(b.substitution, 1)
        for pos in rep.positions:
            assert letter_at(fp, pos) == fp.sub.alphabet.letters[fp.seed]


def test_witness_after_power_normalization():
    sub = parse_substitution("a -> ba ; b -> ab")
    rep = identity_column_witness(sub, 1)
    assert rep.power == 2 and rep.base_length == 4
    assert rep.positions[0] == 0


def test_cycle_notation():
    assert cycle_notation((1, 0, 2)) == "(0 1)"
    assert cycle_notation((0, 1)) == "id"
    assert cycle_notation((1, 2, 0), ["a", "b", "c"]) == "(a b c)"
