import numpy as np
import pytest

from apword import (
    ScanPolicy,
    SpinSystem,
    SubstitutionError,
    a_of_d,
    build_spin_substitution,
    check_recurrence,
    digit_coding,
    get_builtin,
    hadamard4,
    prefix,
    rudin_shapiro,
    spin_coding,
    spin_fixed_point,
    spin_letter_at,
    vandermonde,
)


def test_rs_substitution_rules():
    sub = build_spin_substitution(rudin_shapiro())
    words = {sub.alphabet.letters[a]: sub.word(a) for a in range(4)}
    assert words == {"0": "0 1", "1": "0 1~1", "0~1": "0~1 1~1", "1~1": "0~1 1"}


def test_vandermonde_first_row_spinless():
    sub = build_spin_substitution(vandermonde(3))
    assert sub.size == 9
    zero = sub.alphabet.index("0")
    image = sub.rules[zero]
    assert [sub.alphabet.letters[x] for x in image] == ["0", "1", "2"]


@pytest.mark.parametrize("sys", [rudin_shapiro(), hadamard4(), vandermonde(3)])
def test_spin_shift_invariance(sys):
    # the image of a spun letter is the image of the plain letter, spun
    sub = build_spin_substitution(sys)
    m = sys.modulus
    for b in range(sys.digits):
        for s in range(m):
            plain = sub.rules[b * m]
            spun = sub.rules[b * m + s]
            assert all(spun[i] == plain[i] - plain[i] % m + (plain[i] + s) % m
                       for i in range(sys.digits))


def test_spin_letter_at_known_values():
    rs = rudin_shapiro()
    assert spin_letter_at(rs, 0) == 0
    assert spin_letter_at(rs, 6) == 1  # sign -1
    listed = [0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1]
    assert [spin_letter_at(rs, n) for n in range(16)] == listed
    v3 = vandermonde(3)
    assert spin_letter_at(v3, 4) == 1
    assert [spin_letter_at(v3, n) for n in range(9)] == [0, 0, 0, 0, 1, 2, 0, 2, 1]


def test_spin_matrix_validation():
    with pytest.raises(SubstitutionError):
        SpinSystem(2, ((0, 0), (0, 2)))
    with pytest.raises(SubstitutionError):
        SpinSystem(2, ((0, 0, 0), (0, 1, 0)))


def test_check_recurrence_rs():
    assert check_recurrence(rudin_shapiro(), 2**16).ok
    # the odd-position form: u(2n+1) = (-1)^n u(n), checked directly
    rs = get_builtin("rs")
    u = prefix(rs.fixed_point(), 2**17, rs.coding("spin")).astype(int)
    n = np.arange(2**16)
    assert np.array_equal(u[2 * n + 1], (n + u[n]) % 2)
    assert np.array_equal(u[2 * n], u[n])


def test_check_recurrence_vandermonde5():
    assert check_recurrence(vandermonde(5), 5**6).ok


def test_check_recurrence_counterexample():
    rs = get_builtin("rs")
    u = prefix(rs.fixed_point(), 4 * (2**8 + 1), rs.coding("spin"))
    corrupted = SpinSystem(2, ((0, 1), (0, 1)))
    res = check_recurrence(corrupted, 2**8, sequence=u)
    assert not res.ok
    assert res.counterexample is not None and res.counterexample[0] <= 4


@pytest.mark.parametrize("sys", [rudin_shapiro(), hadamard4(), vandermonde(3), vandermonde(5),
                                 SpinSystem(2, ((0, 1), (0, 0))),  # not symmetric
                                 SpinSystem(2, ((0, 1), (1, 0)))])  # nonzero first column
def test_coding_consistency_with_product_formula(sys):
    fp = spin_fixed_point(sys)
    n = 4096
    u = prefix(fp, n, spin_coding(sys))
    assert all(int(u[i]) == spin_letter_at(sys, i) for i in range(n))


@pytest.mark.parametrize("sys", [rudin_shapiro(), hadamard4(), vandermonde(3)])
def test_digit_consistency(sys):
    fp = spin_fixed_point(sys)
    D = sys.digits
    n = min(D**5, 4096)
    digits = prefix(fp, n, digit_coding(sys))
    assert all(int(digits[i]) == i % D for i in range(n))


@pytest.mark.parametrize("name", ["rs", "hadamard4", "vandermonde:3"])
def test_no_infinite_progression_stabilizes(name):
    b = get_builtin(name)
    fp, coding = b.fixed_point(), b.coding("spin")
    for d in (1, 7, 13, 32):
        lens = []
        for win in (2**16, 2**17, 2**18):
            pol = ScanPolicy(initial_prefix=win, prefix_cap=win)
            lens.append(a_of_d(fp, coding, d, pol).best_len)
        assert lens[0] == lens[1] == lens[2]


def test_hadamard_measured_values():
    b = get_builtin("hadamard4")
    fp, coding = b.fixed_point(), b.coding("spin")
    pol = ScanPolicy(initial_prefix=2**20, prefix_cap=2**22)
    for n in range(1, 5):
        assert a_of_d(fp, coding, 4**n, pol).best_len == 6
    for n in range(1, 4):
        assert a_of_d(fp, coding, 4**n + 1, pol).best_len >= 4 ** (n - 1) + 2
        assert a_of_d(fp, coding, 4**n - 1, pol).best_len >= 4 ** (n - 1) + 3


def test_spin_letter_at_one_digit_system():
    sys1 = SpinSystem(1, ((0,),))
    assert spin_letter_at(sys1, 0) == 0
    with pytest.raises(SubstitutionError):  # base-1 digits: used to loop forever
        spin_letter_at(sys1, 1)
