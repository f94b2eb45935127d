"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import numpy as np
import pytest

from apword import (
    ScanPolicy,
    VdwQuery,
    a_of_d,
    check_partition,
    check_recurrence,
    difference_families,
    generate_group,
    get_builtin,
    graph_of_sets,
    legal_words,
    letter_at,
    lift_column_family,
    lift_identity_family,
    max_ap_in_prefix,
    palindromicity,
    power_column,
    prefix,
    rudin_shapiro,
    spin_coding,
    spin_fixed_point,
    spin_letter_at,
    substitution_power,
    vandermonde,
    vdw_lower,
    vdw_upper,
    verify_family,
)
from apword.groups import compose, identity_perm, inverse, perm_order
from apword.progressions import PrefixSource
from ap_oracle import max_ap_oracle


def _report(criterion, ok, detail=""):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    failures = []
    for name in ["tm:2", "tm:3", "rs", "vandermonde:3", "outlook6"]:
        b = get_builtin(name)
        coding = b.coding("spin") if b.spin else None
        w = prefix(b.fixed_point(), 2**18, coding)
        listed = list(w)
        for d in range(1, 65):
            fast = max_ap_in_prefix(w, d)
            slow_len, slow_start = max_ap_oracle(listed, d)
            if (fast.best_len, fast.best_start) != (slow_len, slow_start):
                failures.append((name, d, fast.best_len, slow_len))
    _report(1, not failures,
            f"strided scan vs double-loop oracle, 5 builtins x d<=64: {failures or 'exact'}")


def test_criterion_2_rudin_shapiro_equalities():
    b = get_builtin("rs")
    fp, coding = b.fixed_point(), b.coding("spin")
    policy = ScanPolicy(initial_prefix=2**22, prefix_cap=2**24)
    src = PrefixSource(fp, coding)
    bad = []

    def measure(d):
        return a_of_d(fp, coding, d, policy, source=src).best_len

    for n in range(4, 11):
        if measure(2**n + 1) != 2 ** (n - 1) + 2:
            bad.append(f"A(2^{n}+1)")
    for n in (6, 8, 10):
        if measure(2**n - 1) != 2 ** (n - 1) + 1:
            bad.append(f"A(2^{n}-1)")
    for n in (5, 7, 9):
        if measure(2**n - 1) != 2 ** (n - 1) + 3:
            bad.append(f"A(2^{n}-1)")
    for n in range(6):
        if measure(2**n) != 4:
            bad.append(f"A(2^{n})")
    _report(2, not bad, f"Rudin-Shapiro exact values over <=2^24 prefixes: {bad or 'all equal'}")


def test_criterion_3_cyclic_shift_lower_bounds():
    policy = ScanPolicy(initial_prefix=2**20, prefix_cap=2**22)
    bad = []
    tm2 = get_builtin("tm:2")
    for n in (2, 4):
        got = a_of_d(tm2.fixed_point(), None, 2**n - 1, policy).best_len
        if got < 2**n + 4:
            bad.append(f"L=2 n={n}: {got}")
    tm3 = get_builtin("tm:3")
    for n, need in [(1, 3), (2, 9), (3, 33)]:
        got = a_of_d(tm3.fixed_point(), None, 3**n - 1, policy).best_len
        if got < need:
            bad.append(f"L=3 n={n}: {got}")
    _report(3, not bad, f"shift-substitution bounds at d=L^n-1: {bad or 'all satisfied'}")


def test_criterion_4_identity_family():
    policy = ScanPolicy(prefix_cap=2**22)
    bad = []
    for name, ks, expected_d in [
        ("tm:2", [1, 2, 3, 4], [3, 5, 9, 17]),
        ("tm:3", [1, 2, 3], [13, 91, 757]),
        ("a4-example", [1], [364]),
    ]:
        b = get_builtin(name)
        members = difference_families(b.substitution, ks, names=["identity"])
        assert [m.d for m in members] == expected_d
        reports = verify_family(b.fixed_point(), None, members, policy)
        for rep in reports:
            if rep.verdict != "PASS":
                bad.append((name, rep.family.d, rep.verdict))
    _report(4, not bad, f"identity-column families: {bad or 'all PASS'}")


def test_criterion_5_vandermonde_and_hadamard():
    policy = ScanPolicy(initial_prefix=2**20, prefix_cap=2**22)
    bad = []
    v = get_builtin("vandermonde:3")
    fpv, codv = v.fixed_point(), v.coding("spin")
    for n in (1, 2, 3):
        d = (3 ** (3 * n) - 1) // (3**n - 1)
        got = a_of_d(fpv, codv, d, policy).best_len
        if got < 3 ** (n - 1) + 1:
            bad.append(f"vdm n={n}: {got}")
    if a_of_d(fpv, codv, 1, policy).best_len != 5:
        bad.append("vdm A(1)")
    h = get_builtin("hadamard4")
    fph, codh = h.fixed_point(), h.coding("spin")
    for n in (1, 2, 3):
        if a_of_d(fph, codh, 4**n, policy).best_len != 6:
            bad.append(f"hadamard A(4^{n})")
        if a_of_d(fph, codh, 4**n + 1, policy).best_len < 4 ** (n - 1) + 2:
            bad.append(f"hadamard A(4^{n}+1)")
        if a_of_d(fph, codh, 4**n - 1, policy).best_len < 4 ** (n - 1) + 3:
            bad.append(f"hadamard A(4^{n}-1)")
    _report(5, not bad, f"Vandermonde and Hadamard values: {bad or 'all satisfied'}")


def test_criterion_6_vdw_calculator():
    bad = []
    for M, expect in [(8, 640), (16, 2560), (32, 10240), (64, 40960)]:
        if vdw_upper(VdwQuery(2, 2, M, r_override=9)) != expect:
            bad.append(f"M={M}")
    if vdw_upper(VdwQuery(2, 2, 8)) != 262080:
        bad.append("formula R at M=8")
    res = vdw_lower(2, 2, 2)
    if (res.progression_length, res.window_length) != (8193, 16385):
        bad.append("lower(2,2,2)")
    _report(6, not bad, f"van der Waerden-type calculators: {bad or 'exact'}")


def test_criterion_7_group_structure():
    bad = []
    for L in (2, 3, 5):
        g = generate_group(get_builtin(f"tm:{L}").substitution)
        if not (g.order == L and g.is_cyclic):
            bad.append(f"tm:{L}")
    g = generate_group(get_builtin("a4-example").substitution)
    if not (g.order == 12 and g.exponent == 6):
        bad.append("a4-example")
    c3 = get_builtin("c3-invpal")
    if not palindromicity(c3.substitution).inverse_palindromic:
        bad.append("c3-invpal flag")
    policy = ScanPolicy(prefix_cap=2**22)
    for k in (1, 2):
        got = a_of_d(c3.fixed_point(), None, 5**k - 1, policy).best_len
        if got < 5**k + 2:
            bad.append(f"c3-invpal k={k}: {got}")
    s3sq = substitution_power(get_builtin("s3-noninvpal").substitution, 2)
    if palindromicity(s3sq).inverse_palindromic:
        bad.append("s3 square")
    _report(7, not bad, f"group and mirror structure: {bad or 'all as reported'}")


def test_criterion_8_supersubstitution_lifting():
    b = get_builtin("supersub6")
    part = b.coding("partition")
    pos = lift_column_family(b.substitution, part, b.column_positions, "a", 129)
    ok1 = len(pos) >= 4
    # d for the second family member from its defining form 3 + 3*6^n + 3*6^2n
    d2 = 3 + 3 * 6**2 + 3 * 6**4
    pos2 = lift_column_family(b.substitution, part, b.column_positions, "a", d2)
    ok2 = len(pos2) >= 24
    fp = b.fixed_point()
    ok3 = all(letter_at(fp, p) == "a" for p in pos + pos2)
    b5 = get_builtin("supersub5")
    members = lift_identity_family(b5.substitution, b5.coding("partition"), [1])
    reports = verify_family(b5.fixed_point(), None, members, ScanPolicy(prefix_cap=2**23))
    ok4 = all(r.verdict == "PASS" for r in reports)
    _report(8, ok1 and ok2 and ok3 and ok4,
            f"lifting: d=129 len {len(pos)}, d={d2} len {len(pos2)}, "
            f"five-letter quotient {reports[0].verdict}")


def test_criterion_8_literal_spec_value_d2_4215():
    # The criterion text asks for length >= 24 at d2 = 4215, but the family's
    # form 3 + 3*6^n + 3*6^2n gives 3999 = 30303_6 at n = 2; 4215 = 31303_6 is
    # a digit slip. At 4215 the value is A = 12, proven by a two-letter cover:
    # x = sigma^7(x) is a concatenation of level-7 blocks of length 6^7, and 13
    # terms at d = 4215 span 12*4215 + 1 <= 6^7 + 1 letters, so they would lie
    # inside sigma^7(uv) for a legal two-letter word uv. The maximum over all
    # those covers bounds A(4215) above; the prefix scan attains it. The
    # library's block form (a_of_d on the 2-word windows) gives the same value.
    b = get_builtin("supersub6")
    sub, fp, d = b.substitution, b.fixed_point(), 4215
    d2 = 3 + 3 * 6**2 + 3 * 6**4
    assert d2 == 3999 != d and d - d2 == 6**3
    assert (np.base_repr(d2, 6), np.base_repr(d, 6)) == ("30303", "31303")
    assert fp.power == 1 and 12 * d <= sub.length**7
    words = sorted(legal_words(sub, 2))
    blocks = [np.array(sub.expand(a, 7), dtype=np.uint8) for a in range(sub.size)]
    # All covers go to one kernel call, each followed by d copies of a letter
    # outside the alphabet: a progression of difference d cannot step over d
    # consecutive positions, so none joins two covers and the call returns the
    # largest maximum of a single cover.
    gap = np.full(d, sub.size, dtype=np.uint8)
    covers = [part for w in words for part in
              (blocks[sub.alphabet.index(w[0])], blocks[sub.alphabet.index(w[1])], gap)]
    bound = max_ap_in_prefix(np.concatenate(covers), d).best_len
    scanned = max_ap_in_prefix(prefix(fp, 2**24), d).best_len
    windows = a_of_d(fp, None, d).best_len
    pos = lift_column_family(sub, b.coding("partition"), b.column_positions, "a", d)
    ok = (len(words) == 33 and windows == bound == scanned == 12 and len(pos) == 9
          and all(letter_at(fp, p) == "a" for p in pos))
    _report("8 (literal d2=4215)", ok,
            f"A({d}) = {bound} exact by level-7 two-letter cover over {len(words)} words "
            f"(scanned {scanned}, 2-word windows {windows}, lift run {len(pos)}); "
            f"literal >= 24 unattainable (digit slip for {d2})")


def test_criterion_9_graph_of_sets():
    g = graph_of_sets(get_builtin("outlook6").substitution)
    ok = g.column_number == 2
    labels = sorted(g.label(n) for n in g.minimal)
    ok = ok and labels == ["{a,b}", "{a,e}", "{c,d}", "{d,f}"]
    for name in ["tm:2", "tm:5", "a4-example", "c3-invpal"]:
        sub = get_builtin(name).substitution
        gb = graph_of_sets(sub)
        ok = ok and len(gb.nodes) == 1 and gb.column_number == sub.size
    _report(9, ok, f"graph of sets: column number {g.column_number}, minimal {labels}")


def test_criterion_10_property_suites():
    bad = []
    for name in ["tm:2", "tm:3", "rs", "vandermonde:3", "a4-example", "outlook6"]:
        sub = get_builtin(name).substitution
        for n in range(5):
            if sub.length**n > 1400:
                break
            for a in range(sub.size):
                word = sub.expand(a, n)
                if any(power_column(sub, k, n)(a) != word[k] for k in range(len(word))):
                    bad.append(f"columns {name}")
    for name in ["tm:3", "a4-example", "s3-noninvpal"]:
        g = generate_group(get_builtin(name).substitution)
        c = len(next(iter(g.elements)))
        closed = identity_perm(c) in g.elements and all(
            inverse(x) in g.elements and g.exponent % perm_order(x) == 0
            and all(compose(x, y) in g.elements for y in g.elements)
            for x in g.elements)
        if not closed:
            bad.append(f"closure {name}")
    rs = rudin_shapiro()
    if not check_recurrence(rs, 2**16).ok:
        bad.append("rs recurrence")
    u = prefix(spin_fixed_point(rs), 2**17 + 2, spin_coding(rs)).astype(int)
    n = np.arange(2**16)
    if not (np.array_equal(u[2 * n], u[n])
            and np.array_equal(u[2 * n + 1], (n + u[n]) % 2)):
        bad.append("rs halving forms")
    if not check_recurrence(vandermonde(3), 2**15).ok:
        bad.append("vandermonde recurrence")
    for name in ["supersub5", "supersub6"]:
        b = get_builtin(name)
        theta = b.coding("partition").table
        res = check_partition(b.substitution, b.coding("partition"))
        if not res.ok or any(
                [theta[x] for x in b.substitution.rules[a]]
                != list(res.quotient.rules[theta[a]])
                for a in range(b.substitution.size)):
            bad.append(f"square {name}")
    for sys in (rs, vandermonde(3)):
        m = min(sys.digits**6, 4096)
        coded = prefix(spin_fixed_point(sys), m, spin_coding(sys))
        if any(int(coded[i]) != spin_letter_at(sys, i) for i in range(m)):
            bad.append("coding consistency")
    _report(10, not bad, f"property suites: {bad or 'zero failures'}")
