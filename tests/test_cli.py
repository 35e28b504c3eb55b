"""End-to-end command line behavior: formats, exit codes, reports."""

import io
import json
from pathlib import Path

import pytest

from sumprod import cli
from sumprod.exactset import parse_set


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
    rc, out2, _ = run(capsys, "energy", "--h", "2", "--path", "enumerate", "--set", a)
    assert out2 == out


def test_restricted_command(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [1, 2, 4])
    pairs = tmp_path / "pairs.txt"
    pairs.write_text("1 2\n4 4\n")
    rc, out, _ = run(
        capsys, "restricted", "--op", "sum", "--pairs", str(pairs), "--set", a
    )
    assert rc == 0
    assert [str(e) for e in parse_set(out)[0].elements] == ["3", "8"]


def test_multdim_command(tmp_path, capsys):
    a = write_set(tmp_path / "a.txt", [2, 3, 6])
    rc, out, _ = run(capsys, "multdim", "--set", a)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "dimension 2"
    assert any(line.startswith("basepoint ") for line in lines)
    assert any(line.startswith("primes ") for line in lines)


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
    assert "partial" in err


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
        "sumprod search checkpoint v1\n"
        "objective f\nk 3\nuniverse 12\ncursor 2\nnodes 100\ncert 1 2 3\n"
    )
    rc, out, err = run(
        capsys, "search", "--objective", "f", "--k", "3", "--max", "12",
        "--checkpoint", str(cp),
    )
    assert (rc, out) == (1, "")
    assert err == f"error: checkpoint {cp}: no minimum field\n"


# --- frozen output bytes -------------------------------------------------------------------

# Each case lists its input files, its argv with {dir} standing for the
# directory holding them, and the exit code, stdout and --report bytes that
# the command printed before the subset-sum kernel was unified.  Any change
# to these bytes is a change of the CLI's output format.
GOLDEN = json.loads((Path(__file__).with_name("cli_golden.json")).read_text())["cases"]


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_output_bytes_match_golden(case, tmp_path, capsys):
    for name, text in case["files"].items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in case["argv"]]
    rc, out, _ = run(capsys, *argv)
    assert (rc, out) == (case["rc"], case["stdout"])
    assert (tmp_path / "report.jsonl").read_bytes() == case["report"].encode("utf-8")
