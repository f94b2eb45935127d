import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import apword.cli
import apword.substitution
from apword import PrefixSource, get_builtin, max_ap_in_prefix, prefix

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args: str, cwd=None, **env_extra) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""),
               **env_extra)
    cmd = [sys.executable, "-m", "apword", *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=cwd)


def test_analyze_tm3():
    cp = run_cli("analyze", "--builtin", "tm:3")
    assert cp.returncode == 0, cp.stderr
    report = json.loads(cp.stdout)
    assert report["group"]["order"] == 3 and report["group"]["cyclic"]
    assert report["palindromicity"]["g_witness"] == "(0 2 1)"
    assert report["aperiodicity"] == {"status": "Aperiodic", "period": None}
    assert report["recurrence"]["r_formula"] == str(2 * 3**66 - 3)  # decimal when it fits


def test_analyze_a4():
    cp = run_cli("analyze", "--builtin", "a4-example")
    report = json.loads(cp.stdout)
    assert report["group"]["order"] == 12 and report["group"]["exponent"] == 6


def test_analyze_exact_recurrence():
    cp = run_cli("analyze", "--builtin", "tm:2", "--exact-recurrence")
    report = json.loads(cp.stdout)
    assert report["recurrence"]["n_exact"] == 3
    assert report["recurrence"]["zeta2"] == 8


def test_analyze_exact_recurrence_reads_windows_within_the_budget():
    cp = run_cli("analyze", "--builtin", "tm:5", "--exact-recurrence")
    assert cp.returncode == 0, cp.stderr
    rec = json.loads(cp.stdout)["recurrence"]
    assert (rec["n_exact"], rec["zeta2"], rec["r_exact"]) == (6, 8125, 40625)
    cp = run_cli("analyze", "--builtin", "tm:9", "--exact-recurrence")
    assert cp.returncode == 3 and "exact recurrence windows" in cp.stderr


def test_analyze_reports_the_detected_period():
    cp = run_cli("analyze", "--rules", "a -> ab ; b -> ca ; c -> bc")
    assert cp.returncode == 0, cp.stderr
    assert json.loads(cp.stdout)["aperiodicity"] == {"status": "PeriodicDetected", "period": 3}
    cp = run_cli("analyze", "--builtin", "rs")
    assert json.loads(cp.stdout)["aperiodicity"] == {"status": "Aperiodic", "period": None}
    cp = run_cli("analyze", "--rules", "a -> ab ; b -> bb")  # a b^inf: eventually periodic
    assert json.loads(cp.stdout)["aperiodicity"] == {"status": "NotPeriodic", "period": None}


def test_analyze_r_formula_over_the_decimal_digit_limit():
    # 2*5^389378-5 has 272,164 digits, past Python's int-to-str limit of 4300
    cp = run_cli("analyze", "--builtin", "vandermonde:5")
    assert cp.returncode == 0, cp.stderr
    rec = json.loads(cp.stdout)["recurrence"]
    assert rec["r_formula"] == "2*5^389378-5" and rec["n_bound"] == 389378


def analyze_r_formula(capsys, *args: str) -> str:
    assert apword.cli.main(["analyze", *args]) == 0
    return json.loads(capsys.readouterr().out)["recurrence"]["r_formula"]


def test_analyze_r_formula_is_decimal_up_to_4300_digits(monkeypatch, capsys):
    # R = 2*10^N - 10 has N + 1 digits: decimal at 4,300 of them, the formula at 4,301
    for n, text in ((4299, "1" + "9" * 4298 + "0"), (4300, "2*10^4300-10")):
        monkeypatch.setattr(apword.cli, "pair_cover_bound", lambda c: n)
        monkeypatch.setattr(apword.substitution, "pair_cover_bound", lambda c: n)
        assert 10**n <= 2 * 10**n - 10 < 10 ** (n + 1)
        assert analyze_r_formula(capsys, "--rules", "a -> aaaaaaaaab ; b -> bbbbbbbbba") == text


def test_analyze_r_formula_past_the_log_bound_is_not_built(monkeypatch, capsys):
    def refuse(c, L):
        raise AssertionError("R = 2L^N - L is built")

    monkeypatch.setattr(apword.cli, "recurrence_formula", refuse)
    assert analyze_r_formula(capsys, "--builtin", "vandermonde:5") == "2*5^389378-5"


def test_analyze_length_one_substitution_exit_1():
    cp = run_cli("analyze", "--rules", "a -> b ; b -> a")
    assert cp.returncode == 1
    assert "one-letter fixed point" in cp.stderr


def test_analyze_parse_failure_exit_1(tmp_path: Path):
    bad = tmp_path / "broken.sub"
    bad.write_text("0 -> 01 ; 1 -> 1")
    cp = run_cli("analyze", "--file", str(bad))
    assert cp.returncode == 1
    assert "unequal rule lengths" in cp.stderr


SPIN = '"matrix": [[0, 0], [0, 1]], "modulus": 2'


@pytest.mark.parametrize("source", [
    '{"rules": 5}',
    '{"rules": []}',
    '{"rules": "ab"}',
    '{"rules": {"a": "a"}, "alphabet": 5}',
    '{"rules": {"a": "ab", "b": "ba"}, "alphabet": [["a"], "b"]}',
    '{"rules": {"a": [["a"], "b"], "b": "ba"}}',
    '{"alphabet": ["a", "b"], "rules": {"a": "ab", "b": "ba", "c": "cc"}}',  # c was dropped
    '{"rules": {"a": "ab", "b": "ba", "a": "aa"}}',  # the last rule for a won
    # the last rules won, and the misspelt key was ignored
    '{"rules": {"a": "ab", "b": "ba"}, "rules": {"a": "aa", "b": "bb"}, "alfabet": ["q"]}',
    "{" + SPIN + ', "digits": "x"}',
    "{" + SPIN + ', "digits": [2]}',
])
def test_malformed_json_source_exit_1(source):
    cp = run_cli("analyze", "--rules", source)
    assert cp.returncode == 1
    assert cp.stderr.startswith("error: ") and "Traceback" not in cp.stderr


@pytest.mark.parametrize("source", [
    '{"modulus": 2, "matrix": [[0, 0], [0, 1.9]]}',  # was read as rs
    '{"modulus": 2, "matrix": [[0, 0], [0, true]]}',
    '{"modulus": "2", "matrix": [[0, 0], [0, 1]]}',
    '{"modulus": 2, "matrix": [[0, 0], [0, 1]], "digits": 2.0}',
    '{"modulus": 2, "matrix": [[0, 0], [0, 1]], "digits": null}',
    '{"modulus": 2, "matrix": [[0, 0], [0, 1]], "modulus": 3}',  # the last modulus won
    '{"modulus": 2, "matrix": [[0, 0], [0, 1]], "spins": 2}',
    '{"modulus": 2, "matrix": [0, 1]}',
    '{"matrix": [[0, 0], [0, 1]]}',
], ids=["float", "bool", "string", "float-digits", "null-digits", "repeated", "extra-key",
        "flat", "no-modulus"])
def test_malformed_spin_matrix_json_exit_1(source):
    cp = run_cli("analyze", "--rules", source)
    assert (cp.returncode, cp.stdout) == (1, "")
    assert cp.stderr.startswith("error: bad spin matrix JSON") and "Traceback" not in cp.stderr


def test_oversized_builtin_exit_1_at_once():
    # vandermonde:300 built 300^3 rule entries, about 8 s, before the 256-letter check
    start = time.perf_counter()
    cp = run_cli("analyze", "--builtin", "vandermonde:300")
    assert (cp.returncode, cp.stdout) == (1, "")
    assert cp.stderr == "error: spin system of 300*300 letters, more than 256\n"
    assert time.perf_counter() - start < 5


def test_coding_names_come_before_files_in_the_cwd(tmp_path: Path):
    argv = ("apscan", "--builtin", "rs", "--coding", "spin", "--range", "65:80")
    clean = run_cli(*argv, cwd=tmp_path)
    (tmp_path / "spin").write_text("not a coding")
    shadowed = run_cli(*argv, cwd=tmp_path)
    assert shadowed.returncode == clean.returncode == 0, shadowed.stderr
    assert shadowed.stdout == clean.stdout
    # a name the builtin lacks is read as a JSON coding file when one exists, else refused
    (tmp_path / "spin").write_text(json.dumps({"0": "x", "1": "y"}))
    cp = run_cli("prefix", "--builtin", "tm:2", "--coding", "spin", "--length", "4", cwd=tmp_path)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == "x y y x"
    cp = run_cli("prefix", "--builtin", "tm:2", "--coding", "digit", "--length", "4",
                 cwd=tmp_path)
    assert (cp.returncode, cp.stderr) == (1, "error: builtin 'tm:2' has no coding 'digit'\n")


@pytest.mark.parametrize("flag,bad", [
    ("--file", "directory"), ("--file", "not-utf8"), ("--file", "missing"),
    ("--coding", "directory"), ("--coding", "not-utf8"),
    ("--out", "directory"), ("--out", "missing"), ("--csv", "directory"), ("--csv", "missing")])
def test_file_errors_exit_1(tmp_path: Path, flag, bad):
    path = tmp_path / bad
    if bad == "directory":
        path.mkdir()
    elif bad == "not-utf8":
        path.write_bytes(b"\xff\xfe")
    else:  # in a directory that does not exist; a --coding that names no file is a coding name
        path = tmp_path / "missing" / "file"
    args = {"--file": ("apscan", "--file", str(path), "--range", "1:2"),
            "--coding": ("apscan", "--builtin", "rs", "--coding", str(path), "--range", "1:2"),
            "--out": ("prefix", "--builtin", "rs", "--length", "8", "--out", str(path)),
            "--csv": ("apscan", "--builtin", "rs", "--range", "1:2", "--csv", str(path))}[flag]
    cp = run_cli(*args)
    assert cp.returncode == 1, cp.stderr
    assert cp.stderr.startswith("error: ") and "Traceback" not in cp.stderr


def test_bad_flags_exit_1():
    cp = run_cli("analyze")
    assert cp.returncode == 1


def test_unknown_builtin_exit_1():
    cp = run_cli("analyze", "--builtin", "nope")
    assert cp.returncode == 1


def test_vdw_upper():
    cp = run_cli("vdw", "upper", "--c", "2", "--L", "2", "--M", "8", "--R", "9")
    assert cp.returncode == 0
    assert json.loads(cp.stdout)["vdw_upper"]["value"] == "640"


def test_vdw_lower():
    cp = run_cli("vdw", "lower", "--c", "2", "--L", "2", "--m", "2")
    data = json.loads(cp.stdout)["vdw_lower"]
    assert data["progression_length"] == "8193"
    assert data["window_length"] == "16385"


@pytest.mark.parametrize("args", [
    ("upper", "--c", "8", "--L", "2", "--M", "2"),    # past the 4300-digit limit of str()
    ("lower", "--c", "12", "--L", "2", "--m", "2"),
    ("upper", "--c", "20", "--L", "2", "--M", "2"),   # L**(k*20!) would exhaust memory
])
def test_vdw_past_the_decimal_digit_limit_exit_3(args):
    cp = run_cli("vdw", *args)
    assert cp.returncode == 3, cp.stderr
    assert cp.stderr.startswith("resource cap: ") and "more than 4300 decimal digits" in cp.stderr
    assert "Traceback" not in cp.stderr


def test_vdw_lower_length_past_trial_division_exit_3():
    start = time.monotonic()
    cp = run_cli("vdw", "lower", "--c", "2", "--L", str(2**61 - 1), "--m", "2")
    assert cp.returncode == 3, cp.stderr
    assert cp.stderr.startswith("resource cap: ") and "no prime factor up to" in cp.stderr
    assert time.monotonic() - start < 10  # trial division to sqrt(2**61) ran past 20 s
    for L, q in ((10**9 + 7, 10**9 + 7), (2**62, 2**62)):
        cp = run_cli("vdw", "lower", "--c", "2", "--L", str(L), "--m", "2")
        assert cp.returncode == 0, cp.stderr
        assert json.loads(cp.stdout)["vdw_lower"]["prime_power"] == q


def test_graph_outlook6(tmp_path: Path):
    dot = tmp_path / "out.dot"
    cp = run_cli("graph", "--builtin", "outlook6", "--dot", str(dot))
    assert cp.returncode == 0
    report = json.loads(cp.stdout)
    assert report["column_number"] == 2
    text = dot.read_text()
    assert "{a,b}" in text and "peripheries=2" in text


def test_apscan_rs_csv(tmp_path: Path):
    out = tmp_path / "scan.csv"
    cp = run_cli("apscan", "--builtin", "rs", "--coding", "spin", "--range", "1:8",
                 "--initial-prefix", str(2**16), "--prefix-cap", str(2**18),
                 "--csv", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# apword ")
    assert lines[1] == "d,best_len,best_start,prefix_len,status"
    rows = {int(r.split(",")[0]): int(r.split(",")[1]) for r in lines[2:]}
    assert rows[3] > rows[2] and rows[5] > rows[4]


@pytest.mark.parametrize("args", [
    ("--builtin", "rs", "--coding", "spin", "--range", "65:264"),
    ("--builtin", "tm:2", "--range", "1:50", "--prefix-cap", "16777216"),
])
def test_apscan_rows_match_the_plain_kernel(args):
    # the rows a_of_d reads from level windows equal those of the plain kernel
    # on the prefix up to prefix_len, on the benchmark's scan-spin and certify-tm2
    cp = run_cli("apscan", *args)
    assert cp.returncode == 0, cp.stderr
    rows = [[int(v) for v in line.split(",")[:4]] for line in cp.stdout.splitlines()[2:]]
    assert len(rows) == (200 if "rs" in args else 50)
    b = get_builtin(args[1])
    src = PrefixSource(b.fixed_point(), b.coding("spin") if "spin" in args else None)
    for n in sorted({n for _, _, _, n in rows}):
        word = src.get(n)
        for d, best_len, best_start, _ in (row for row in rows if row[3] == n):
            want = max_ap_in_prefix(word, d)
            assert (best_len, best_start) == (want.best_len, want.best_start), d


def test_apscan_deterministic(tmp_path: Path):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    args = ("apscan", "--builtin", "tm:3", "--range", "1:10",
            "--initial-prefix", str(2**14), "--prefix-cap", str(2**16))
    assert run_cli(*args, "--csv", str(a)).returncode == 0
    assert run_cli(*args, "--csv", str(b), "--jobs", "3").returncode == 1  # option removed
    assert run_cli(*args, "--csv", str(b)).returncode == 0
    # identical modulo the version header; byte-identical for identical config
    assert a.read_text().splitlines()[1:] == b.read_text().splitlines()[1:]
    assert run_cli(*args, "--csv", str(c)).returncode == 0
    assert a.read_text().splitlines()[1:] == c.read_text().splitlines()[1:]
    assert a.read_bytes()[a.read_bytes().find(b"\n"):] == \
        c.read_bytes()[c.read_bytes().find(b"\n"):]


@pytest.mark.parametrize("source", [("--builtin", "tm:2"),
                                    ("--builtin", "rs", "--coding", "spin")])
@pytest.mark.parametrize("bad", [("--r-override", "-5"), ("--r-override", "0"),
                                 ("--initial-prefix", "0"), ("--initial-prefix", "-8"),
                                 ("--prefix-cap", "0")])
def test_apscan_rejects_meaningless_policy_exit_1(source, bad):
    # R <= 0 once certified any window; prefix lengths < 1 were ignored or failed late
    cp = run_cli("apscan", *source, "--range", "40:44", "--prefix-cap", "4096",
                 "--initial-prefix", "1024", *bad)
    assert (cp.returncode, cp.stdout) == (1, "")
    assert "must be >= 1" in cp.stderr


def test_verify_rejects_meaningless_r_override_exit_1():
    cp = run_cli("verify", "--builtin", "tm:2", "--families", "identity",
                 "--k-range", "1:3", "--r-override", "0")
    assert (cp.returncode, cp.stdout) == (1, "")
    assert "recurrence constant must be >= 1" in cp.stderr


def test_prefix_text_and_u8(tmp_path: Path):
    cp = run_cli("prefix", "--builtin", "tm:2", "--length", "8")
    assert cp.stdout.splitlines()[-1] == "0 1 1 0 1 0 0 1"
    out = tmp_path / "w.u8"
    cp = run_cli("prefix", "--builtin", "rs", "--coding", "spin", "--length", "16",
                 "--format", "u8", "--out", str(out))
    assert cp.returncode == 0
    assert list(out.read_bytes()) == [0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1]


def test_user_input_is_the_word_analyze_describes():
    # a user substitution starts where FixedPointSpec.find picks, not at its first
    # letter: here c (c -> cc), period 1, as analyze reports; from a it would be a c c c …
    rules = "a -> bc ; b -> ac ; c -> cc"
    cp = run_cli("prefix", "--rules", rules, "--length", "8")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == "c c c c c c c c"
    report = json.loads(run_cli("analyze", "--rules", rules).stdout)
    assert report["aperiodicity"] == {"status": "PeriodicDetected", "period": 1}
    assert report["fixed_point"] == {"seed": "c", "power": 1}
    # every letter of x_k -> x_(k+1 mod 3) x_k returns after 3 rounds: x = σ^3(x) from x0
    rules = "x0 -> x1 x0 ; x1 -> x2 x1 ; x2 -> x0 x2"
    report = json.loads(run_cli("analyze", "--rules", rules).stdout)
    assert report["fixed_point"] == {"seed": "x0", "power": 3}
    # x0 returns to no fixed point (x0 -> x1 -> … -> x20 -> x20), so x20 starts the word
    rules = " ; ".join(f"x{k} -> x{k + 1} x0" for k in range(20)) + " ; x20 -> x20 x0"
    cp = run_cli("prefix", "--rules", rules, "--length", "4")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == "x20 x0 x1 x0"


def test_prefix_resource_cap_exit_3(tmp_path: Path):
    out = tmp_path / "w"
    for fmt in ("text", "u8"):
        cp = run_cli("prefix", "--builtin", "tm:2", "--length", str(2**20),
                     "--prefix-cap", str(2**10), "--format", fmt, "--out", str(out))
        assert cp.returncode == 3
        assert cp.stderr == f"resource cap: prefix of {2**20} letters exceeds cap {2**10}\n"
        assert not out.exists()


PREFIX_LENGTHS = [1, 8, 2**20 - 1, 2**20, 2**20 + 1, 3 * 2**20 + 5]  # around the write chunks
CODED = [(name, None) for name in ["tm:2", "tm:3", "tm:5", "outlook6", "a4-example",
                                   "c3-invpal", "s3-noninvpal", "supersub5", "supersub6"]]
CODED += [(name, coding) for name in ["rs", "hadamard4", "vandermonde:3", "vandermonde:5"]
          for coding in [None, "spin", "digit"]]


@pytest.mark.parametrize("name,coding", CODED)
def test_prefix_text_is_the_header_and_the_joined_symbols(tmp_path: Path, name, coding):
    from apword.cli import _header, build_parser, main

    b = get_builtin(name)
    names = b.coding(coding).names if coding else b.substitution.alphabet.letters
    letters = prefix(b.fixed_point(), max(PREFIX_LENGTHS), b.coding(coding))
    symbols = [names[i] for i in letters.tolist()]
    out = tmp_path / "w.txt"
    for n in PREFIX_LENGTHS:
        argv = ["prefix", "--builtin", name, "--length", str(n), "--out", str(out)]
        argv += ["--coding", coding] if coding else []
        assert main(argv) == 0
        header = _header(build_parser().parse_args(argv))
        assert out.read_bytes() == f"{header}\n{' '.join(symbols[:n])}\n".encode(), n


def test_prefix_text_on_stdout_is_utf8(tmp_path: Path):
    coding = tmp_path / "coding.json"
    coding.write_text(json.dumps({"0": "α", "1": "β"}), encoding="utf-8")
    cmd = [sys.executable, "-m", "apword", "prefix", "--builtin", "tm:2", "--coding",
           str(coding), "--length", "8"]
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="ascii")  # not stdout's encoding
    cp = subprocess.run(cmd, capture_output=True, env=env)
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout.splitlines()[-1] == "α β β α β α α β".encode()


@pytest.mark.parametrize("fmt", ["text", "u8"])
def test_prefix_to_a_closed_pipe_ends_quietly(fmt):
    # like `apword prefix ... | head -c 20`: the reader stops long before the end
    cmd = [sys.executable, "-m", "apword", "prefix", "--builtin", "rs", "--length", "10000000",
           "--format", fmt]
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    head = proc.stdout.read(20)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0, err
    assert err == b""
    want = b"# apword" if fmt == "text" else prefix(get_builtin("rs").fixed_point(), 20).tobytes()
    assert len(head) == 20 and head.startswith(want)


@pytest.mark.parametrize("source", [
    '{"0": "x", "1": "y", "1": "x"}',  # was the constant coding, and A(d) = 2^26
    '{"0": "x", "1": "y", "2": "z"}',  # 2 is no letter of tm:2
])
def test_coding_file_needs_each_letter_once_exit_1(tmp_path: Path, source):
    coding = tmp_path / "coding.json"
    coding.write_text(source)
    cp = run_cli("apscan", "--builtin", "tm:2", "--coding", str(coding), "--range", "1:2")
    assert (cp.returncode, cp.stdout) == (1, "")
    assert cp.stderr.startswith("error: coding keys") and "repeat a letter or name no" in cp.stderr


@pytest.mark.parametrize("symbols", [[0, 1], ["x", ""], ["x", "y z"], ["x", None]])
def test_prefix_coding_file_with_bad_symbols_exit_1(tmp_path: Path, symbols):
    # integer symbols once reached " ".join and died with a TypeError traceback
    coding = tmp_path / "coding.json"
    coding.write_text(json.dumps(dict(zip(["0", "1"], symbols))))
    out = tmp_path / "w.txt"
    cp = run_cli("prefix", "--builtin", "tm:2", "--coding", str(coding), "--length", "8",
                 "--out", str(out))
    assert (cp.returncode, cp.stdout) == (1, "")
    assert cp.stderr.startswith("error: bad coding symbol") and "Traceback" not in cp.stderr
    assert not out.exists()


# a parent with nothing imported, so wait4 reports the child's peak and not a forked runner's
_PEAK_RSS = """
import os, sys
fd = os.open(os.devnull, os.O_WRONLY)
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "apword", *sys.argv[1:]],
                     os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, fd, 1)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_prefix_text_peak_rss_does_not_grow_with_the_length():
    def peak_mib(length):
        cmd = [sys.executable, "-c", _PEAK_RSS, "prefix", "--builtin", "rs", "--coding",
               "spin", "--length", str(length), "--format", "text"]
        cp = subprocess.run(cmd, capture_output=True, text=True, check=True,
                            env=dict(os.environ, PYTHONPATH=SRC))
        code, kib = map(int, cp.stdout.split())
        assert code == 0
        return kib / 1024

    # holding the whole prefix as strings costs about 180 MiB more at 2^24 letters
    assert peak_mib(2**24) < peak_mib(8) + 32


def test_apscan_rows_over_the_prefix_cap_are_errors_exit_0():
    cp = run_cli("apscan", "--builtin", "tm:2", "--range", "1:2",
                 "--prefix-cap", str(2**31), "--initial-prefix", str(2**31))
    assert cp.returncode == 0, cp.stderr
    rows = cp.stdout.splitlines()[2:]
    assert rows == [f"{d},0,0,0,Error:prefix of {2**31} letters exceeds cap {2**30}"
                    for d in (1, 2)]


def test_verify_exit_0():
    cp = run_cli("verify", "--builtin", "tm:2", "--families", "identity",
                 "--k-range", "1:3", "--r-override", "9",
                 "--prefix-cap", str(2**22))
    assert cp.returncode == 0, cp.stderr
    data = json.loads(cp.stdout)
    assert all(r["verdict"] == "PASS" for r in data["reports"])


def test_verify_inline_rules_coding_file(tmp_path: Path):
    coding = tmp_path / "coding.json"
    coding.write_text(json.dumps({"0": "x", "1": "y"}))
    cp = run_cli("apscan", "--rules", "0 -> 01 ; 1 -> 10", "--coding", str(coding),
                 "--range", "1:1", "--initial-prefix", str(2**12),
                 "--prefix-cap", str(2**14))
    assert cp.returncode == 0, cp.stderr
    assert ",2," in cp.stdout.splitlines()[-1]  # cube-free: best_len 2


def test_out_dir_env_var(tmp_path: Path):
    cp = run_cli("vdw", "upper", "--c", "2", "--L", "2", "--M", "8", "--R", "9",
                 "--json", "report.json", APWORD_OUT_DIR=str(tmp_path))
    assert cp.returncode == 0, cp.stderr
    data = json.loads((tmp_path / "report.json").read_text())
    assert data["vdw_upper"]["value"] == "640"


def test_spin_matrix_json_input(tmp_path: Path):
    matrix_file = tmp_path / "rs.json"
    matrix_file.write_text(json.dumps({"digits": 2, "modulus": 2, "matrix": [[0, 0], [0, 1]]}))
    cp = run_cli("prefix", "--file", str(matrix_file), "--coding", "spin", "--length", "16",
                 "--format", "u8", "--out", str(tmp_path / "u.bin"))
    assert cp.returncode == 0, cp.stderr
    assert list((tmp_path / "u.bin").read_bytes()) == \
        [0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1]


def test_verify_one_digit_spin_matrix_has_no_families_exit_1():
    # the Vandermonde comparison built vandermonde(1) and failed on its L >= 2 check
    cp = run_cli("verify", "--rules", '{"modulus": 2, "matrix": [[0]]}')
    assert (cp.returncode, cp.stdout) == (1, "")
    assert "no predicted families for this spin matrix" in cp.stderr


def test_verify_inapplicable_family_error_does_not_depend_on_hash_seed():
    # the first of a set of names used to be named: 'beta' under seed 1, 'alpha' under 4
    for seed in ("1", "4"):
        cp = run_cli("verify", "--builtin", "tm:2", "--families", "zeta,alpha,beta",
                     PYTHONHASHSEED=seed)
        assert (cp.returncode, cp.stdout) == (1, ""), seed
        assert cp.stderr == "error: family 'alpha' not applicable to this substitution\n", seed


def test_verify_failure_exit_code_mapping():
    from apword.cli import exit_code_for_reports
    from apword.progressions import APResult, BoundReport, DifferenceFamily

    fam = DifferenceFamily("identity", (1,), 3, 2, None)
    ok = BoundReport(fam, APResult(3, 4, 0, 100, "LowerBoundOnly"), "PASS")
    bad = BoundReport(fam, APResult(3, 1, 0, 100, "LowerBoundOnly"), "FAIL")
    capped = BoundReport(fam, None, "ERROR")
    unmeasured = BoundReport(fam, None, "PREDICTED-ONLY")
    assert exit_code_for_reports([]) == 0
    assert exit_code_for_reports([ok, unmeasured]) == 0
    assert exit_code_for_reports([ok, bad]) == 2
    assert exit_code_for_reports([capped, ok]) == 3
    assert exit_code_for_reports([capped, bad, ok]) == 2  # a failure outranks the cap


def test_verify_members_over_the_resource_cap_exit_3():
    # a budget over PREFIX_CAP makes every measured member an ERROR report
    cp = run_cli("verify", "--builtin", "rs", "--k-range", "1:2", "--prefix-cap", "2147483648")
    assert cp.returncode == 3, cp.stderr
    verdicts = [r["verdict"] for r in json.loads(cp.stdout)["reports"]]
    assert verdicts == ["ERROR"] * 6


def test_apscan_partition_coding_is_the_quotient_scan():
    def rows(*source):
        cp = run_cli("apscan", *source, "--range", "1:200")
        assert cp.returncode == 0, cp.stderr
        return [line.split(",")[:3] for line in cp.stdout.splitlines()[2:]]

    coded = rows("--builtin", "supersub6", "--coding", "partition")
    assert len(coded) == 200
    assert coded == rows("--rules", "1 -> 111112 ; 2 -> 222223 ; 3 -> 333331")
