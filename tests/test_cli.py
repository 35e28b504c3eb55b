"""End-to-end command line behavior: formats, exit codes, reports."""

import argparse
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sumprod import cli, progressions
from sumprod.arith import mult_dim
from sumprod.exactset import FinSet, parse_set


def write_set(path, values):
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# --- set commands round-trip --------------------------------------------------------


def test_combine_round_trips(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 3])
    rc, out, _ = run(capsys, "combine", "--op", "sum", "--a", a, "--b", a)
    assert rc == 0
    parsed, dups = parse_set(out)
    assert dups == 0
    assert [str(e) for e in parsed.elements] == ["2", "3", "4", "5", "6"]


def test_combine_product_with_rationals(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", ["1/2", "3"])
    b = write_set(tmp_path / "b.txt", ["2"])
    rc, out, _ = run(capsys, "combine", "--op", "product", "--a", a, "--b", b)
    assert rc == 0
    parsed, _ = parse_set(out)
    assert [str(e) for e in parsed.elements] == ["1", "6"]


def test_stdin_dash(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n"))
    b = write_set(tmp_path / "b.txt", [10])
    rc, out, _ = run(capsys, "combine", "--op", "sum", "--a", "-", "--b", b)
    assert rc == 0
    assert parse_set(out)[0].size == 2


def test_two_set_operands_share_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n5\n"))
    rc, out, _ = run(capsys, "combine", "--op", "sum", "--a", "-", "--b", "-")
    assert rc == 0
    assert out == "# combine op=sum left=3 right=3 size=6\n2\n3\n4\n6\n7\n10\n"


def test_ruzsa_reads_stdin_for_both_sets(tmp_path, capsys, monkeypatch):
    s = write_set(tmp_path / "s.txt", [1, 2, 5])
    want = run(capsys, "verify", "ruzsa", "--m", s, "--n", s)
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n5\n"))
    got = run(capsys, "verify", "ruzsa", "--m", "-", "--n", "-")
    assert got == want
    assert got[1].startswith("ruzsa true 12 24 ")


def test_stdin_as_both_set_and_pair_file_exits_1(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n2\n5\n"))
    argv = ("restricted", "--op", "sum", "--set", "-", "--pairs", "-")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == "error: --set and --pairs cannot share standard input\n"


def test_duplicate_warning_once_per_operand_of_one_file(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, "2/2", 2])
    rc, _, err = run(capsys, "combine", "--op", "sum", "--a", a, "--b", a)
    assert rc == 0
    assert err == f"# warning: 1 duplicate value(s) dropped from {a}\n" * 2


def test_duplicate_warning_on_stderr(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, "2/2", 2])
    rc, out, err = run(capsys, "simple", "--op", "sum", "--set", a)
    assert rc == 0
    assert "duplicate" in err


def test_iterate_boxsum_sumdiff(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2])
    rc, out, _ = run(capsys, "iterate", "--op", "sum", "--h", "3", "--set", a)
    assert rc == 0 and parse_set(out)[0].size == 4
    rc, out, _ = run(capsys, "boxsum", "--h", "2", "--set", a)
    assert rc == 0 and parse_set(out)[0].size == 7
    rc, out, _ = run(capsys, "sumdiff", "--h", "2", "--l", "1", "--set", a)
    assert rc == 0 and parse_set(out)[0].size == 4


def test_energy_command(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 3])
    rc, out, _ = run(capsys, "energy", "--h", "2", "--set", a)
    assert rc == 0
    assert out.strip() == "19"
    rc, _, err = run(capsys, "energy", "--h", "2", "--path", "enumerate", "--set", a)
    assert rc == 1 and "--path" in err


def test_restricted_command(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 4])
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1 2\n4 4\n")
    rc, out, _ = run(
        capsys, "restricted", "--op", "sum", "--pairs", str(pairs), "--set", a
    )
    assert rc == 0
    assert [str(e) for e in parse_set(out)[0].elements] == ["3", "8"]


def test_pair_file_errors_name_their_line(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 4])
    pairs = tmp_path / "pairs.txt"
    for text, message in (
        ("1 2\n2 x\n", "line 2: not a rational literal: 'x'"),
        ("1 2\n\n# note\n4 1/0\n", "line 4: bad denominator in '1/0'"),
        ("1 2\n4\n", "line 2: expected two values per pair line"),
    ):
        pairs.write_text(text)
        rc, _, err = run(capsys, "restricted", "--op", "sum", "--pairs", str(pairs), "--set", a)
        assert (rc, err) == (1, f"error: {message}\n")


def test_pair_outside_the_ground_set_names_its_line(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 4])
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1 2\n\n3 7\n")
    rc, _, err = run(capsys, "restricted", "--op", "sum", "--pairs", str(pairs), "--set", a)
    assert (rc, err) == (1, "error: line 3: pair (3, 7) uses values outside the ground set\n")


def test_multdim_command(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [2, 3, 6])
    rc, out, _ = run(capsys, "multdim", "--set", a)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "dimension 2"
    assert any(line.startswith("basepoint ") for line in lines)
    assert any(line.startswith("primes ") for line in lines)


@pytest.mark.parametrize(
    "values",
    [
        [2, 3, 6],
        # negative and multi-digit exponents, nonzero in the first and last columns
        [Fraction(2**12, 3**11), Fraction(1, 5**10), Fraction(7**13, 2), Fraction(11**23, 2**15), 1],
        [Fraction(3**120, 2**17 * 13**45), Fraction(2**200), Fraction(1, 13**3), Fraction(97, 89)],
        list(range(2, 200)),
    ],
    ids=["2-3-6", "signed", "wide", "interval"],
)
def test_multdim_basis_lines_match_per_entry_formatting(tmp_path, capsys, values):
    """The basis text, written from a line of zeros and the nonzero entries,
    is what formatting every entry with %d gives."""
    a = write_set(tmp_path / "a.txt", values)
    rc, out, _ = run(capsys, "multdim", "--set", a)
    assert rc == 0
    md = mult_dim(FinSet(values))
    want = ["basis" + "".join(" %d" % e for e in row) for row in md.basis]
    assert [line for line in out.splitlines() if line.startswith("basis")] == want


def test_progression_command(tmp_path, capsys):
    prog = tmp_path / "p.txt"
    prog.write_text("1\n2 3\n3 2\n")
    rc, out, _ = run(capsys, "progression", "--file", str(prog))
    assert rc == 0
    assert out.startswith("# progression rank=2 nominal=6 proper=true size=6")

    a = write_set(tmp_path / "a.txt", [1, 2, 3, 6])
    rc, out, _ = run(capsys, "progression", "--file", str(prog), "--set", a)
    assert rc == 0
    assert "contained true" in out
    assert "progression.dim_chain true" in out


def test_progression_length_must_be_decimal_digits(tmp_path, capsys):
    # '²' is a digit to str.isdigit, but not to int()
    prog = tmp_path / "p.txt"
    prog.write_text("1\n2 \u00b2\n")
    rc, _, err = run(capsys, "progression", "--file", str(prog))
    assert rc == 1
    assert err == "error: line 2: length must be a positive integer, got '\u00b2'\n"


@pytest.mark.parametrize(
    "text, err",
    [
        ("1\n2 0\n", "error: line 2: lengths must be >= 1, got 0\n"),
        ("0\n2 3\n", "error: line 1: base must be positive, got 0\n"),
        ("1\n0 3\n", "error: line 2: ratios must be positive, got 0\n"),
    ],
)
def test_progression_refused_value_names_its_line(tmp_path, capsys, text, err):
    prog = tmp_path / "p.txt"
    prog.write_text(text)
    assert run(capsys, "progression", "--file", str(prog)) == (1, "", err)


def test_progression_assert_fails_outside(tmp_path, capsys):
    prog = tmp_path / "p.txt"
    prog.write_text("1\n2 3\n")
    a = write_set(tmp_path / "a.txt", [1, 2, 5])
    rc, out, _ = run(capsys, "progression", "--file", str(prog), "--set", a, "--assert")
    assert rc == 2
    assert "contained false" in out


# --- verify suites ------------------------------------------------------------------


def test_verify_lemma3(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 3])
    rc, out, _ = run(capsys, "verify", "lemma3", "--set", a, "--h", "2")
    assert rc == 0
    assert out.startswith("lemma3 true ")


def test_verify_theorem1_prints_alpha(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 4, 8])
    rc, out, _ = run(capsys, "verify", "theorem1", "--set", a)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# alpha 7/4")
    assert lines[1].startswith("theorem1.doubling true")
    assert lines[2].startswith("theorem1.hfold true")


def test_verify_requires_flags(tmp_path, capsys):
    rc, _, err = run(capsys, "verify", "lemma3")
    assert rc == 1
    rc, _, err = run(capsys, "verify", "ruzsa", "--m", "nope.txt")
    assert rc == 1


def test_verify_assert_failure_exit_2(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [7])
    rc, out, _ = run(capsys, "verify", "prop10", "--set", a, "--assert")
    assert rc == 2
    assert "prop10 false" in out


def test_verify_ruzsa(tmp_path, capsys):
    m = write_set(tmp_path / "m.txt", [1, 2, 3])
    n = write_set(tmp_path / "n.txt", [1, 2])
    rc, out, _ = run(capsys, "verify", "ruzsa", "--m", m, "--n", n, "--h", "2", "--l", "1")
    assert rc == 0
    assert out.startswith("ruzsa true")


def test_verify_intro_suite(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 3])
    rc, out, _ = run(capsys, "verify", "intro", "--set", a)
    assert rc == 0
    assert len(out.splitlines()) == 4


def test_verify_theorem3_with_graph_flags(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 3])
    rc, out, _ = run(capsys, "verify", "theorem3", "--set", a, "--diagonal")
    assert rc == 0
    assert out.startswith("theorem3 true")


def test_verify_section3(capsys):
    rc, out, _ = run(capsys, "section3", "--J", "3")
    assert rc == 0
    lines = out.splitlines()
    data = [l for l in lines if not l.startswith("#")]
    assert len(data) == 10
    assert all(" true " in l or l.endswith(" true") or " true" in l for l in data)


def test_section3_j4_exits_3_at_the_cap_at_once(monkeypatch, capsys):
    monkeypatch.delenv("SUMPROD_BUDGET", raising=False)
    start = time.perf_counter()
    rc, out, err = run(capsys, "section3", "--J", "4")
    assert time.perf_counter() - start < 1
    assert rc == 3
    assert err == "error: simple sum closure needs 10314826 values, cap is 10000000\n"


@pytest.mark.parametrize(
    "command, j, count",
    [
        # 24 = (10**7).bit_length(): j^j is printed in decimal while Python prints it
        ("example", 24, str(24**24)),
        ("example", 1000, str(1000**1000)),
        ("example", 2000, f"at least 2^{(2000**2000).bit_length() - 1}"),
        ("section3", 2000, f"at least 2^{(2000**2000).bit_length() - 1}"),
        # from 4300, the default digit limit, on, j^j is named and never formed
        ("example", 5000, "5000^5000"),
        ("section3", 5000, "5000^5000"),
    ],
)
def test_grid_far_over_the_cap_exits_3_naming_its_size(monkeypatch, capsys, command, j, count):
    monkeypatch.delenv("SUMPROD_BUDGET", raising=False)
    rc, out, err = run(capsys, command, "--J", str(j))
    assert (rc, out) == (3, "")
    assert err == f"error: grid example needs {count} values, cap is 10000000\n"


def test_progression_too_long_to_print_exits_3(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("SUMPROD_BUDGET", raising=False)
    length = 10**2999  # 3000 digits: the nominal size has 5999
    desc = tmp_path / "p.txt"
    desc.write_text(f"1\n2 {length}\n3 {length}\n")
    rc, _, err = run(capsys, "progression", "--file", str(desc))
    assert rc == 3
    bits = (length * length).bit_length() - 1
    assert err == (
        f"error: progression enumeration needs at least 2^{bits} values, cap is 10000000\n"
    )


def test_section3_is_the_verify_suite(tmp_path, capsys):
    outputs = []
    for argv in (["section3"], ["verify", "section3"]):
        report = tmp_path / f"{len(argv)}.jsonl"
        rc, out, _ = run(capsys, *argv, "--J", "3", "--report", str(report))
        outputs.append((rc, out, report.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0 and outputs[0][2]


# Python's own refusal of an int of more than 4300 digits, after "error: "
_TOO_LONG = (
    "error: Exceeds the limit (4300 digits) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit\n"
)


@pytest.mark.parametrize("scale", ["", "/3"], ids=["integer", "rational"])
def test_a_value_too_long_to_print_exits_1_with_nothing_on_stdout(tmp_path, capsys, scale):
    """A product of two 2500-digit values has about 5000 digits: computed,
    but refused when printed, before the # line, with the error text of
    str and %d alike."""
    a = write_set(tmp_path / "a.txt", [f"{7 ** 2958}{scale}", 2])
    b = write_set(tmp_path / "b.txt", [3 ** 5239, 5])
    assert len(str(7**2958)) == len(str(3**5239)) == 2500
    rc, out, err = run(capsys, "combine", "--op", "product", "--a", a, "--b", b)
    assert (rc, out, err) == (1, "", _TOO_LONG)
    rc, out, err = run(capsys, "combine", "--op", "sum", "--a", a, "--b", b)
    assert rc == 0 and out.startswith("# combine op=sum left=2 right=2 size=4\n")


# members whose numerator or denominator ends in 1, so "/1" starts a line's tail
_ENDS_IN_ONE = [Fraction(11), Fraction(1, 11), Fraction(21, 31), Fraction(-1), Fraction(-31, 21)]


@given(st.sets(
    st.integers(-50, 50)
    | st.fractions(max_denominator=40)
    | st.sampled_from(_ENDS_IN_ONE)
    | st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(2**64 + 1, 2**80)),
    max_size=12,
))
@example(set())
@example(set(_ENDS_IN_ONE) | {0, Fraction(3, 2)})
@example({Fraction(1, 2**64 + 13), 1, Fraction(-7, 3)})
@settings(max_examples=150, deadline=None)
def test_set_text_is_each_fractions_str(values):
    """to_lines, repr, a printed set and its --report elements all read as
    str(Fraction) of each element, in ascending order."""
    a = FinSet(values)
    want = [str(Fraction(v)) for v in sorted(values)]
    assert a.to_lines() == "\n".join(want)
    assert repr(a) == "FinSet({" + ", ".join(want) + "})"
    with tempfile.TemporaryDirectory() as tmp:
        report = os.path.join(tmp, "set.jsonl")
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli._emit_set(argparse.Namespace(report=report), a, "s", "k") == 0
        assert out.getvalue() == "# s\n" + "".join(f"{w}\n" for w in want)
        assert json.loads(Path(report).read_text())["elements"] == want


def test_example_command(capsys):
    rc, out, _ = run(capsys, "example", "--J", "2")
    assert rc == 0
    assert parse_set(out)[0].size == 4


# --- reports ---------------------------------------------------------------------------


def test_report_is_deterministic_jsonl(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 3, 6])
    r1, r2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    for r in (r1, r2):
        rc, _, _ = run(capsys, "verify", "prop10", "--set", a, "--report", str(r))
        assert rc == 0
    assert r1.read_bytes() == r2.read_bytes()
    rec = json.loads(r1.read_text().splitlines()[0])
    assert rec["name"] == "prop10"
    assert rec["holds"] == "true"
    assert rec["lhs"]["kind"] == "int"


def test_report_keys_sorted(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 3])
    r = tmp_path / "r.jsonl"
    run(capsys, "verify", "lemma3", "--set", a, "--report", str(r))
    line = r.read_text().splitlines()[0]
    keys = list(json.loads(line).keys())
    assert keys == sorted(keys)


# --- exit codes --------------------------------------------------------------------------


def test_missing_file_exit_1(capsys):
    rc, _, err = run(capsys, "energy", "--h", "2", "--set", "/nonexistent/file.txt")
    assert rc == 1


def test_parse_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("1\nnot-a-number\n")
    rc, _, err = run(capsys, "energy", "--h", "2", "--set", str(bad))
    assert rc == 1
    assert "line 2" in err


def test_budget_exceeded_exit_3(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", list(range(1, 9)))
    rc, _, err = run(capsys, "iterate", "--op", "sum", "--h", "3", "--budget", "10", "--set", str(a))
    assert rc == 3


def test_invalid_budget_exit_1(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1])
    rc, _, _ = run(capsys, "simple", "--op", "sum", "--budget", "-5", "--set", a)
    assert rc == 1


def test_usage_error_exit_1(capsys):
    rc, _, _ = run(capsys, "combine", "--op", "nonsense", "--a", "x", "--b", "y")
    assert rc == 1
    rc, _, _ = run(capsys, "no-such-command")
    assert rc == 1


# --- search ------------------------------------------------------------------------------


def test_search_command_with_oracle(capsys):
    rc, out, _ = run(
        capsys, "search", "--objective", "f", "--k", "3", "--max", "12",
        "--assert-oracle",
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("# search objective=f")
    assert "complete=true" in lines[0]
    assert lines[1] == "minimum 7"
    assert lines[2] == "certificate 1 2 3"


def test_search_budget_incomplete_exit_3(capsys):
    rc, out, err = run(
        capsys, "search", "--objective", "f", "--k", "3", "--max", "14",
        "--node-budget", "30",
    )
    assert rc == 3
    assert err == "warning: node budget exhausted (--node-budget), partial result\n"


def test_search_size_cap_is_the_default_budget(monkeypatch, capsys):
    """Without --node-budget the size cap bounds the nodes, not C(N, k)."""
    argv = ("search", "--objective", "f", "--k", "3", "--max", "20")
    rc, out, _ = run(capsys, *argv, "--budget", "1000")  # C(20, 3) = 1140 subsets
    assert rc == 0
    assert out.startswith("# search objective=f k=3 universe=20 nodes=396 complete=true\n")
    rc, out, err = run(capsys, *argv, "--budget", "10")
    assert rc == 3
    assert out.startswith("# search objective=f k=3 universe=20 nodes=10 complete=false\n")
    assert err == (
        "warning: node budget exhausted (the size cap: --budget or SUMPROD_BUDGET), "
        "partial result\n"
    )
    monkeypatch.setenv("SUMPROD_BUDGET", "10")
    assert run(capsys, *argv)[0] == 3


def test_search_zero_threads_exit_1(capsys):
    rc, out, err = run(
        capsys, "search", "--objective", "f", "--k", "3", "--max", "12", "--threads", "0",
    )
    assert (rc, out) == (1, "")
    assert err == "error: thread count must be >= 1, got 0\n"


def test_search_report_thread_independent(tmp_path, capsys):
    r1, r2 = tmp_path / "t1.jsonl", tmp_path / "t8.jsonl"
    rc1, out1, _ = run(
        capsys, "search", "--objective", "g", "--k", "2", "--max", "10",
        "--threads", "1", "--report", str(r1),
    )
    rc8, out8, _ = run(
        capsys, "search", "--objective", "g", "--k", "2", "--max", "10",
        "--threads", "8", "--report", str(r2),
    )
    assert rc1 == rc8 == 0
    assert out1 == out8
    assert r1.read_bytes() == r2.read_bytes()


def test_search_checkpoint_without_minimum_exits_1(tmp_path, capsys):
    cp = tmp_path / "state.txt"
    cp.write_text(
        "sumprod search checkpoint v2\n"
        "objective f\nk 3\nuniverse 12\ncursor 2\nnodes 100\ncert 1 2 3\n"
    )
    rc, out, err = run(
        capsys, "search", "--objective", "f", "--k", "3", "--max", "12",
        "--checkpoint", str(cp),
    )
    assert (rc, out) == (1, "")
    assert err == f"error: checkpoint {cp}: no minimum field\n"


def test_search_checkpoint_repeated_field_or_unknown_key_exits_1(tmp_path, capsys):
    cp = tmp_path / "state.txt"
    argv = ("search", "--objective", "f", "--k", "3", "--max", "12", "--checkpoint", str(cp))
    header = "sumprod search checkpoint v2\nobjective f\nk 3\nuniverse 12\n"
    cp.write_text(header + "cursor 1\ncursor 5\nbogus line\nnodes 21\nminimum 7\ncert 1 2 3\n")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"error: checkpoint {cp}: line 6: repeated cursor field\n"
    cp.write_text(header + "cursor 1\nbogus line\nnodes 21\nminimum 7\ncert 1 2 3\n")
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (1, "")
    assert err == f"error: checkpoint {cp}: line 6: unknown key 'bogus'\n"


def test_search_v1_checkpoint_is_rejected_not_resumed(tmp_path, capsys):
    """A v1 checkpoint counts leaves, not nodes, so it cannot resume the walk."""
    cp = tmp_path / "state.txt"
    v1 = (
        "sumprod search checkpoint v1\n"
        "objective f\nk 3\nuniverse 12\ncursor 2\nnodes 55\nminimum 7\ncert 1 2 3\n"
    )
    cp.write_text(v1)
    rc, out, err = run(
        capsys, "search", "--objective", "f", "--k", "3", "--max", "12",
        "--checkpoint", str(cp),
    )
    assert (rc, out) == (1, "")
    assert err == (
        f"error: checkpoint {cp}: not a recognized checkpoint file: "
        "the first line is not 'sumprod search checkpoint v2'\n"
    )
    assert cp.read_text() == v1


# --- frozen output bytes -------------------------------------------------------------------

# Each case lists its input files, its argv with {dir} standing for the
# directory holding them, and the exit code, stdout and --report bytes that
# the command printed before the subset-sum kernel was unified (later cases:
# before the change that added them).  Any change to these bytes is a change
# of the CLI's output format.
GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())["cases"]


def run_golden(capsys, case, directory):
    directory.mkdir(exist_ok=True)
    for name, text in case["files"].items():
        (directory / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("{dir}", str(directory)) for arg in case["argv"]]
    rc, out, _ = run(capsys, *argv)
    assert (rc, out) == (case["rc"], case["stdout"]), case["name"]
    report = (directory / "report.jsonl").read_bytes()
    assert report == case["report"].encode("utf-8"), case["name"]


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_output_bytes_match_golden(case, tmp_path, capsys):
    run_golden(capsys, case, tmp_path)


@pytest.mark.parametrize(
    "case",
    [c for c in GOLDEN if c["argv"][:1] == ["progression"] and "--set" in c["argv"]],
    ids=lambda c: c["name"],
)
def test_progression_set_tests_containment_once(case, tmp_path, capsys, monkeypatch):
    calls = []
    original = progressions.contains

    def counted(p, a):
        calls.append(a)
        return original(p, a)

    # every binding of the name, as `from .progressions import contains` made one in cli
    monkeypatch.setattr(progressions, "contains", counted)
    monkeypatch.setattr(cli, "contains", counted)
    run_golden(capsys, case, tmp_path)
    assert len(calls) == 1


def test_one_process_runs_every_call_apart(tmp_path, capsys):
    """The parser is built once per process: the golden battery forward, a
    usage error, a call under a tiny --budget and the battery reversed still
    give every call its own golden bytes."""
    for i, case in enumerate(GOLDEN):
        run_golden(capsys, case, tmp_path / f"forward-{i}")
    a = write_set(tmp_path / "a.txt", range(1, 9))
    assert run(capsys, "combine", "--op", "nonsense", "--a", a, "--b", a)[0] == 1
    assert run(capsys, "iterate", "--op", "sum", "--h", "3", "--budget", "10", "--set", a)[0] == 3
    for i, case in enumerate(reversed(GOLDEN)):
        run_golden(capsys, case, tmp_path / f"reversed-{i}")
    assert cli.build_parser() is cli.build_parser()


def test_importing_the_cli_builds_no_parser():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import sumprod.cli as c; print(c.build_parser.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (out.returncode, out.stdout) == (0, "0\n"), out.stderr


def test_the_cli_module_runs_as_a_script():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-m", "sumprod.cli", "section3", "--J", "2"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert any(line.startswith("section3.logk_identity true ") for line in lines)
    assert any(line.startswith("section3.loglogk_identity true ") for line in lines)


def test_the_runtime_loads_no_mpmath():
    """import sumprod, import sumprod.cli and a section3 run, which takes logs
    and a fractional power, load no mpmath module."""
    src = Path(cli.__file__).resolve().parents[1]
    code = (
        "import sys, io, contextlib, sumprod, sumprod.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = sumprod.cli.main(['section3', '--J', '3'])\n"
        "print(rc, sorted(m for m in sys.modules if m.startswith('mpmath')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (out.returncode, out.stdout) == (0, "0 []\n"), out.stderr
