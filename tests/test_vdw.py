import random

import pytest

from apword import ResourceCapError, SubstitutionError, VdwQuery, vdw_lower, vdw_upper
from apword.stream import ceil_log
from apword.substitution import recurrence_formula
from apword.vdw import TRIAL_LIMIT, ceil_growth_exponent, factorize


def test_upper_known_values():
    assert vdw_upper(VdwQuery(2, 2, 8, r_override=9)) == 640
    assert vdw_upper(VdwQuery(2, 2, 16, r_override=9)) == 2560
    assert vdw_upper(VdwQuery(2, 2, 32, r_override=9)) == 10240
    assert vdw_upper(VdwQuery(2, 2, 64, r_override=9)) == 40960
    assert vdw_upper(VdwQuery(2, 2, 8)) == 262080  # 4095 * 4**3
    assert recurrence_formula(2, 2)[0] == 4094


def test_upper_respects_exponent_override():
    plain = vdw_upper(VdwQuery(4, 3, 9))
    tightened = vdw_upper(VdwQuery(4, 3, 9, exponent_override=6))
    assert tightened < plain
    assert tightened == (recurrence_formula(4, 3)[0] + 1) * 3 ** (2 * 6)


def test_upper_monotone_in_M():
    prev = 0
    for M in range(1, 200):
        val = vdw_upper(VdwQuery(2, 3, M, r_override=9))
        assert val >= prev
        prev = val


def test_lower_known_values():
    res = vdw_lower(2, 2, 2)
    assert (res.progression_length, res.window_length) == (8193, 16385)
    assert res.n0 == 11 and res.ceil_b == 1


def test_lower_composite_length():
    assert ceil_growth_exponent(6) == (3, 2)  # 2**3 >= 6 > 2**2
    assert ceil_growth_exponent(7) == (1, 7)
    assert ceil_growth_exponent(12) == (3, 3)  # min prime power is 3, 3**2 < 12
    res = vdw_lower(2, 6, 2)
    assert res.window_length > res.progression_length


def test_lower_window_exceeds_length():
    for (c, L, m) in [(2, 2, 2), (3, 4, 3), (2, 10, 5)]:
        res = vdw_lower(c, L, m)
        assert res.window_length > res.progression_length


def test_ceil_log_exact_boundaries():
    rng = random.Random(13)
    for _ in range(10_000):
        L = rng.randrange(2, 50)
        M = rng.randrange(1, 10**6)
        k = ceil_log(L, M)
        assert L**k >= M and (k == 0 or L ** (k - 1) < M)


def test_factorize():
    assert factorize(360) == [(2, 3), (3, 2), (5, 1)]
    assert factorize(97) == [(97, 1)]
    with pytest.raises(SubstitutionError):
        factorize(1)


def test_factorize_trial_divides_up_to_a_fixed_limit():
    assert TRIAL_LIMIT == 2**20
    assert factorize(2**62) == [(2, 62)]
    assert factorize(1000003 * 1000033) == [(1000003, 1), (1000033, 1)]  # over 2**40
    assert factorize(2**40 + 15) == [(2**40 + 15, 1)]  # prime: no factor up to its root
    assert factorize(3 * 1048583) == [(3, 1), (1048583, 1)]
    # no factor up to 2**20 and a cofactor over 2**40: prime or not, it is refused
    for n in (2**61 - 1, 3 * (2**61 - 1), 1048583 * 1048589, (2**31 - 1) ** 2):
        with pytest.raises(ResourceCapError, match="no prime factor up to 1048576"):
            factorize(n)


def test_query_validation():
    with pytest.raises(SubstitutionError):
        VdwQuery(1, 2, 4)
    with pytest.raises(SubstitutionError):
        VdwQuery(2, 2, 4, r_override=0)
    with pytest.raises(SubstitutionError):
        vdw_lower(2, 2, 1)
