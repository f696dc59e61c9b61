import argparse
import csv
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from paradim import cli
from paradim.cli import main
from paradim.corpus import Check
from paradim.data import data_dir
from paradim.errors import UnsupportedJ

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_dim_text(capsys):
    rc, out = run(capsys, "dim", "--p", "277", "--k", "8")
    assert rc == 0
    assert "1761" in out and "768" in out


def test_dim_json(capsys):
    rc, out = run(capsys, "--format", "json", "dim", "--p", "7", "--k", "4")
    (row,) = json.loads(out)
    assert rc == 0
    assert (row["plus"], row["minus"], row["total"]) == (1, 0, 1)


def test_dim_format_after_subcommand(capsys):
    rc, out = run(capsys, "dim", "--p", "7", "--k", "4", "--format", "json")
    assert rc == 0 and json.loads(out)[0]["plus"] == 1


def test_dim_spaces(capsys):
    rc, out = run(capsys, "dim", "--p", "11", "--k", "3", "--space", "A",
                  "--format", "json")
    (row,) = json.loads(out)
    assert rc == 0 and row["space"] == "A"
    rc, out = run(capsys, "dim", "--p", "11", "--k", "10", "--space", "M",
                  "--format", "json")
    (row,) = json.loads(out)
    assert row["plus"] + row["minus"] == row["total"]


def test_dim_nonprime_is_domain_error(capsys):
    rc = main(["dim", "--p", "6", "--k", "4"])
    err = capsys.readouterr().err
    assert rc == 3 and "not prime" in err


def test_dim_weight_outside_domain_is_domain_error(capsys):
    rc = main(["dim", "--p", "7", "--k", "1", "--j", "1"])
    capsys.readouterr()
    assert rc == 3


@pytest.mark.parametrize("argv", [["table", "--k", "2", "--pmax", "20"],
                                  ["dim", "--p", "7", "--space", "M", "--k", "2"]])
def test_weight_error_names_the_weight_typed(capsys, argv):
    # not the Young pair (k + j - 3, k - 3) = (-1, -1) it maps to
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 3 and "(k,j)=(2,0)" in err


@pytest.mark.parametrize("argv, weight", [
    (["table", "--k", "2", "--pmax", "5"], "(k,j)=(2,0)"),
    (["table", "--k", "-7", "--pmax", "3", "--format", "json"], "(k,j)=(-7,0)"),
])
def test_table_checks_the_weight_without_rows(capsys, argv, weight):
    # below p = 7 the table has no row, and the weight is still refused
    rc = main(argv)
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "") and weight in err


def test_dim_space_A_refuses_j(capsys):
    args = argparse.Namespace(p=7, k=4, j=2, space="A", format="text")
    with pytest.raises(UnsupportedJ):
        cli.cmd_dim(args)
    assert capsys.readouterr().out == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["dim", "--p", "7", "--space", "Q", "--k", "4"])
    assert exc.value.code == 2


def test_table_csv(capsys):
    rc, out = run(capsys, "table", "--k", "4", "--pmax", "30",
                  "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rc == 0
    assert [r["p"] for r in rows] == ["7", "11", "13", "17", "19", "23", "29"]
    assert rows[0]["S_plus"] == "1"


@pytest.mark.parametrize("k", ["4", "5", "6", "7", "8", "10"])
def test_table_csv_reproduces_the_embedded_table(capsys, k):
    # byte for byte, the csv module's \r\n line endings included
    stored = (data_dir() / f"table_k{k}.csv").read_bytes()
    pmax = stored.splitlines()[-1].split(b",")[0].decode()
    rc, out = run(capsys, "table", "--k", k, "--pmax", pmax, "--format", "csv")
    assert rc == 0 and out.encode() == stored


def test_table_rows_filter(capsys):
    rc, out = run(capsys, "table", "--k", "7", "--pmax", "15",
                  "--rows", "M_plus,s2_minus", "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rc == 0 and set(rows[0]) == {"p", "M_plus", "s2_minus"}
    rc = main(["table", "--k", "4", "--pmax", "15", "--rows", "bogus"])
    capsys.readouterr()
    assert rc == 3


def test_verify_subset(capsys):
    rc, out = run(capsys, "verify", "--only", "palindromic")
    assert rc == 0 and "0 failed" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_only_matching_nothing_is_a_domain_error(capsys, fmt):
    # it printed "0 checks, 0 failed" and passed, having checked nothing
    rc = main(["--format", fmt, "verify", "--only", "nosuchcheck"])
    out, err = capsys.readouterr()
    assert (rc, out) == (3, "") and "'nosuchcheck'" in err


@pytest.fixture
def one_failure(monkeypatch):
    failure = Check("series:p=2:M:j=0:fit", False, (1, 0, 1), (1, 1))
    monkeypatch.setattr(cli, "run_checks", lambda only: (3, [failure]))


def test_verify_text_unchanged(capsys, one_failure):
    rc, out = run(capsys, "verify")
    assert rc == 1
    assert out == ("FAIL series:p=2:M:j=0:fit: expected (1, 0, 1), "
                   "got (1, 1)\n3 checks, 1 failed\n")


def test_verify_json(capsys, one_failure):
    rc, out = run(capsys, "verify", "--format", "json")
    assert rc == 1
    assert json.loads(out) == {
        "checks": 3, "failed": 1,
        "failures": [{"name": "series:p=2:M:j=0:fit", "expected": [1, 0, 1],
                      "got": [1, 1]}]}


def test_verify_csv(capsys, one_failure):
    rc, out = run(capsys, "--format", "csv", "verify")
    assert rc == 1
    assert list(csv.reader(io.StringIO(out))) == [
        ["name", "expected", "got"],
        ["series:p=2:M:j=0:fit", "(1, 0, 1)", "(1, 1)"],
        ["summary", "3 checks", "1 failed"]]


def fresh_env(**env_vars):
    """The environment of a fresh process that imports paradim from SRC."""
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_fresh(*argv, **env_vars):
    """`python -m paradim argv` in a fresh process, with env_vars set."""
    return subprocess.run([sys.executable, "-m", "paradim", *argv],
                          capture_output=True, text=True, env=fresh_env(**env_vars),
                          timeout=60)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fresh_json_and_csv_output_match_in_process(capsys, fmt):
    # json and csv are imported at first use, so a fresh process, which has
    # loaded neither, must print what an in-process run prints; compared as
    # bytes, since text mode would read csv's \r\n line ends as \n
    argv = ["dim", "--p", "7", "--k", "4", "--format", fmt]
    rc, out = run(capsys, *argv)
    proc = subprocess.run([sys.executable, "-m", "paradim", *argv], capture_output=True,
                          env=fresh_env(), timeout=60)
    assert rc == proc.returncode == 0
    assert proc.stdout == out.encode() and proc.stderr == b""


def test_a_closed_pipe_ends_quietly():
    # the reader takes one line and closes the pipe, as `| head -1` does; the
    # 2.3 MB of output outgrow any pipe buffer, so the writer meets the close
    proc = subprocess.Popen([sys.executable, "-m", "paradim", "hilbert", "--p", "23",
                             "--space", "M-", "--fit", "--nmax", "100000"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=fresh_env())
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert first.startswith(b"(3t^1 + 9t^3") and err == b""


def test_python_dash_m():
    proc = run_fresh("dim", "--p", "7", "--k", "4")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[1].split() == ["7", "4", "0", "S", "1", "0", "1"]


def test_hilbert_fit(capsys):
    rc, out = run(capsys, "hilbert", "--p", "2", "--space", "M",
                  "--nmax", "6", "--fit")
    assert rc == 0
    assert "(1-t^" in out and "palindromic" in out


def test_hilbert_refuses_a_negative_nmax(capsys):
    rc = main(["hilbert", "--p", "7", "--space", "M", "--nmax", "-3", "--fit"])
    out, err = capsys.readouterr()
    assert rc == 3 and out == "" and "--nmax" in err


@pytest.mark.parametrize("space, j", [("M", 3), ("M-", 1), ("M+", -2), ("A", -2), ("S+", -2)])
def test_hilbert_weight_error_names_j(capsys, space, j):
    # not the Young pair (j, 0) or the weight (0, j) of the series' first term
    rc = main(["hilbert", "--p", "7", "--space", space, "--j", str(j)])
    out, err = capsys.readouterr()
    assert (rc, out, err) == (3, "", f"error: space {space} is not graded at j = {j}\n")


def test_hilbert_zero_numerator_prints_0(capsys):
    # odd j: the space is zero, and so is the fitted numerator
    rc, out = run(capsys, "hilbert", "--p", "7", "--space", "S+", "--j", "3",
                  "--nmax", "2", "--fit")
    assert rc == 0
    assert out.splitlines()[0] == "(0) / (1-t^4) (1-t^6) (1-t^10) (1-t^12)   [not palindromic]"


def test_hilbert_prints_ell_only_for_a_palindrome(capsys):
    # S+ at p = 7 is not palindromic, so it has no functional equation to
    # print the exponent of; A+ at p = 2 has one, with ell = -3
    rc, out = run(capsys, "hilbert", "--p", "7", "--space", "S+", "--nmax", "0", "--fit")
    assert rc == 0
    assert out.splitlines()[0] == (
        "(t^4 + 2t^6 + 2t^8 + 2t^10 + 2t^12 + t^13 + t^14 + t^15 + t^17 + 2t^19 + 2t^21"
        " + 2t^23 + t^29) / (1-t^4) (1-t^4) (1-t^6) (1-t^12)   [not palindromic]")
    rc, out = run(capsys, "hilbert", "--p", "2", "--space", "A+", "--nmax", "0", "--fit")
    assert rc == 0
    assert out.splitlines()[0] == ("(1 + t^10 + t^23 + t^33) / (1-t^4) (1-t^6) (1-t^8) (1-t^12)"
                                   "   [palindromic, ell=-3]")


def test_hilbert_refuses_a_zero_denominator_exponent(tmp_path):
    # over a factor (1 - t^0) every sequence fits the zero numerator
    patched = tmp_path / "data"
    shutil.copytree(data_dir(), patched)
    path = patched / "hilbert_series.json"
    records = json.loads(path.read_text())
    (rec,) = [r for r in records if (r["p"], r["space"]) == (2, "M")]
    rec["den"] = [0, 6, 8, 10]
    path.write_text(json.dumps(records))
    proc = run_fresh("hilbert", "--p", "2", "--space", "M", "--fit",
                     PARADIM_DATA_DIR=str(patched))
    assert proc.returncode == 3 and proc.stdout == ""
    assert "denominator exponents (0, 6, 8, 10)" in proc.stderr


def test_verify_reports_a_printed_denominator_that_does_not_fit(tmp_path):
    # the fit of a printed record over a wrong denominator raised NonPolynomial,
    # and verify stopped with exit 3 and no summary; now the fit check and the
    # palindromic check that reads the same series fail with the error as `got`
    patched = tmp_path / "data"
    shutil.copytree(data_dir(), patched)
    path = patched / "hilbert_series.json"
    records = json.loads(path.read_text())
    (rec,) = [r for r in records if (r["p"], r["space"], r.get("j", 0)) == (7, "A", 0)]
    rec["den"] = [4, 4, 4, 4]
    path.write_text(json.dumps(records))
    # the residual of fit_numerator, after the series and the denominator tried
    error = "p=7, space=A, j=0, den=[4, 4, 4, 4]: residual coefficient -12 at degree 57 (> 56)"
    proc = run_fresh("verify", PARADIM_DATA_DIR=str(patched))
    assert proc.returncode == 1 and proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert lines[-1] == "902 checks, 3 failed"
    assert [line.split(": expected")[0] for line in lines[:-1]] == [
        "FAIL series:p=7:A:j=0:expand", "FAIL series:p=7:A:j=0:fit", "FAIL palindromic:A"]
    assert lines[1].endswith(f"got {error}")
    assert lines[2].endswith(f"got [2, 3, 5, '{error}', 13]")
    # asked for that series directly, the fit is still an error
    proc = run_fresh("hilbert", "--p", "7", "--space", "A", "--fit",
                     PARADIM_DATA_DIR=str(patched))
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == f"error: {error}\n"


def test_hilbert_weight2_from_newspace(capsys):
    # weight 2 used to come from a Jacobi table that stopped at p = 97
    rc, out = run(capsys, "hilbert", "--p", "101", "--space", "S+", "--fit",
                  "--nmax", "4", "--format", "csv")
    assert rc == 0
    assert "(1-t^" in out
    assert out.splitlines()[-3:] == ["2,1", "3,0", "4,27"]
    rc = main(["hilbert", "--p", "277", "--space", "A"])
    err = capsys.readouterr().err
    assert rc == 3 and "277" in err


def test_search_zero3(capsys):
    rc, out = run(capsys, "search", "zero3", "--pmax", "50", "--format", "json")
    ps = [r["p"] for r in json.loads(out)]
    assert rc == 0 and ps == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_bias(capsys):
    rc, out = run(capsys, "bias", "--pmax", "5", "--kmax", "6",
                  "--format", "json")
    pairs = [(r["p"], r["k"]) for r in json.loads(out)]
    assert rc == 0
    assert pairs == [(2, 3), (2, 4), (2, 5), (2, 6), (3, 3), (3, 4), (3, 5),
                     (5, 3), (5, 4)]


def test_deterministic_output(capsys):
    _, out1 = run(capsys, "table", "--k", "10", "--pmax", "47", "--format", "csv")
    _, out2 = run(capsys, "table", "--k", "10", "--pmax", "47", "--format", "csv")
    assert out1 == out2


# the cheapest arguments of each leaf command, by its path in the parser tree
LEAF_ARGS = {
    ("dim",): ["--p", "7", "--k", "4"],
    ("table",): ["--k", "4", "--pmax", "11"],
    ("verify",): ["--only", "table_k4.csv:p=7:H"],
    ("hilbert",): ["--p", "7", "--space", "M", "--nmax", "3"],
    ("search", "zero3"): ["--pmax", "10"],
    ("bias",): ["--pmax", "5", "--kmax", "4"],
}


class _Parsed(Exception):
    pass


def cli_parser(monkeypatch):
    """The top-level parser that main builds, caught at its parse_args."""
    parsers = []

    def catch(self, args=None, namespace=None):
        parsers.append(self)
        raise _Parsed

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", catch)
    with pytest.raises(_Parsed):
        main([])
    monkeypatch.undo()
    return parsers[0]


def leaf_commands(parser, path=()):
    """(path, parser) of every command at the end of the subparser tree."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield path, parser
    for action in subs:
        for name, child in action.choices.items():
            yield from leaf_commands(child, path + (name,))


def test_format_goes_before_between_and_after_the_commands(capsys, monkeypatch):
    # every parser on the way to a leaf takes --format, so a subcommand added
    # without the shared parent fails here, and so does one without LEAF_ARGS
    leaves = dict(leaf_commands(cli_parser(monkeypatch)))
    assert sorted(leaves) == sorted(LEAF_ARGS)
    for path, args in LEAF_ARGS.items():
        spots = list(range(len(path) + 1)) + [len(path) + len(args)]
        for spot in spots:
            argv = [*path, *args]
            argv[spot:spot] = ["--format", "json"]
            rc, out = run(capsys, *argv)
            assert rc == 0, argv
            json.loads(out)


def _said(capsys, call, argv):
    """(stdout, stderr, exit code) of call(argv)."""
    try:
        code = call(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return out, err, code


def _full_parser_says(argv):
    """What a parser built with every subcommand says of argv."""
    cli._parser().parse_args(argv)


@pytest.mark.parametrize("argv", [
    ["--help"],
    *([*path, "--help"] for path in LEAF_ARGS),
    ["search", "--help"],
    [],
    ["frobnicate"],
    ["search"],
    ["--format", "xml", "dim", "--p", "7", "--k", "4"],
    ["dim", "--p", "7", "--k", "4", "--format", "xml"],
    ["--format", "json", "search", "zero3", "--format", "xml", "--pmax", "5"],
    ["dim", "--p", "7"],
    ["bias", "--pmax", "5", "--kmax", "four"],
    ["verify", "extra"],
    ["--format", "csv", "search", "zero3", "--pmax", "5", "extra"],
], ids=repr)
def test_messages_are_those_of_the_full_parser(capsys, argv):
    # main builds the parser of the command word alone; its help, usage
    # lines (wrapped as argparse wraps them) and exit codes stay those of
    # the parser of every command
    said = _said(capsys, main, argv)
    assert said == _said(capsys, _full_parser_says, argv)
    assert said[2] in (0, 2) and (said[1] if said[2] else said[0])


def test_main_builds_the_parser_of_the_command_word_alone(capsys, monkeypatch):
    built = []
    for name, add in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, name, lambda sub, fmt, name=name, add=add: (
            built.append(name), add(sub, fmt)))
    for argv, names in [
            (["search", "zero3", "--pmax", "5"], ["search"]),
            (["--format", "json", "bias", "--pmax", "5", "--kmax", "4"], ["bias"]),
            (["--format", "dim", "bias", "--pmax", "5", "--kmax", "4"], ["bias", *cli._COMMANDS]),
            (["--format", "json"], list(cli._COMMANDS)),
            (["bias", "--pmax", "5", "--kmax", "4", "extra"], ["bias", *cli._COMMANDS])]:
        built.clear()
        _said(capsys, main, argv)
        assert built == names, argv
