"""Standalone property suites over the built-in substitutions."""

import numpy as np
import pytest

from apword import (
    check_partition,
    check_recurrence,
    generate_group,
    get_builtin,
    hadamard4,
    power_column,
    prefix,
    rudin_shapiro,
    spin_coding,
    spin_fixed_point,
    spin_letter_at,
    vandermonde,
)
from apword.groups import compose, identity_perm, inverse, perm_order

ALL_BUILTINS = ["tm:2", "tm:3", "tm:5", "rs", "hadamard4", "vandermonde:3",
                "a4-example", "c3-invpal", "s3-noninvpal", "supersub5",
                "supersub6", "outlook6"]
BIJECTIVE = ["tm:2", "tm:3", "tm:5", "a4-example", "c3-invpal", "s3-noninvpal"]
SPINS = [rudin_shapiro(), hadamard4(), vandermonde(3)]


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_column_composition_matches_expansion(name):
    sub = get_builtin(name).substitution
    for n in range(5):
        if sub.length**n > 1400:
            break
        for a in range(sub.size):
            word = sub.expand(a, n)
            for k in range(len(word)):
                assert power_column(sub, k, n)(a) == word[k]


@pytest.mark.parametrize("name", BIJECTIVE)
def test_group_closure(name):
    g = generate_group(get_builtin(name).substitution)
    c = len(next(iter(g.elements)))
    assert identity_perm(c) in g.elements
    for x in g.elements:
        assert inverse(x) in g.elements
        assert g.exponent % perm_order(x) == 0
        for y in g.elements:
            assert compose(x, y) in g.elements


def test_spin_recurrence_rs_to_2_16():
    assert check_recurrence(rudin_shapiro(), 2**16).ok
    rs = rudin_shapiro()
    u = prefix(spin_fixed_point(rs), 2**17 + 2, spin_coding(rs)).astype(int)
    n = np.arange(2**16)
    assert np.array_equal(u[2 * n], u[n])
    assert np.array_equal(u[2 * n + 1], (n + u[n]) % 2)


@pytest.mark.parametrize("sys", SPINS)
def test_spin_recurrence_general(sys):
    assert check_recurrence(sys, 2**16 // sys.digits).ok


@pytest.mark.parametrize("name", ["supersub5", "supersub6"])
def test_quotient_commuting_square(name):
    b = get_builtin(name)
    sub, theta = b.substitution, b.coding("partition").table
    res = check_partition(sub, b.coding("partition"))
    assert res.ok
    for a in range(sub.size):
        assert [theta[x] for x in sub.rules[a]] == list(res.quotient.rules[theta[a]])


@pytest.mark.parametrize("sys", SPINS)
def test_coding_consistency(sys):
    fp = spin_fixed_point(sys)
    n = min(sys.digits**6, 4096)
    u = prefix(fp, n, spin_coding(sys))
    assert [int(x) for x in u] == [spin_letter_at(sys, i) for i in range(n)]
