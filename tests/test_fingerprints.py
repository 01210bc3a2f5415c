"""tools/fingerprints.py compare: a bit-for-bit check that cannot pass on
files that hold nothing, and that names what a differing entry did, each
method of a CLI run apart."""

import contextlib
import io
from pathlib import Path

from simroots import DomainError, SolverSettings, cli, from_roots, solve
from simroots.basis import BasisSystem, constant, power

ROOT = Path(__file__).resolve().parents[1]
TOOLS = ROOT / "tools"
DEMO = ROOT / "problems" / "demo.json"


def _files(tmp_path, texts):
    files = {}
    for name, text in texts.items():
        files[name] = str(tmp_path / name)
        Path(files[name]).write_text(text)
    return files


def test_compare_counts_the_entries_and_fails_on_an_empty_file(
        tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    from fingerprints import main

    # lines written before the status fields read "?" for them
    files = _files(tmp_path, {"empty": "", "a": "w 1 0 s aa\nw 1 1 s bb\n",
                              "b": "w 1 0 s aa\nw 1 1 s cc\n"})
    assert main(["compare", files["a"], files["a"]]) == 0
    assert capsys.readouterr().out == "0 of 2 entries differ, 0 in status or iterations\n"
    assert main(["compare", files["a"], files["b"]]) == 1
    assert capsys.readouterr().out == (
        "w 1 1 s: ? ? -> ? ?\n"
        "w: ? -> ?, 1 entries\n"
        "1 of 2 entries differ, 0 in status or iterations\n")
    for pair in (("empty", "empty"), ("a", "empty"), ("empty", "b")):
        assert main(["compare"] + [files[name] for name in pair]) == 1
        assert "a file holds no entries" in capsys.readouterr().out


def test_compare_prints_both_sides_status_and_iterations(
        tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    from fingerprints import main

    files = _files(tmp_path, {
        "a": "w 1 0 s aa converged 4\nw 1 1 s bb converged 3\n"
             "w 1 2 c dd 0 -\n",
        "b": "w 1 0 s aa converged 4\nw 1 1 s cc max_iterations 50\n"
             "w 1 3 c ee DomainError -\n"})
    assert main(["compare", files["a"], files["a"]]) == 0
    assert capsys.readouterr().out == "0 of 3 entries differ, 0 in status or iterations\n"
    assert main(["compare", files["a"], files["b"]]) == 1
    assert capsys.readouterr().out == (
        "w 1 1 s: converged 3 -> max_iterations 50\n"
        "w 1 2 c: 0 - -> absent\n"
        "w 1 3 c: absent -> DomainError -\n"
        "w: 0 -> absent, 1 entries\n"
        "w: absent -> DomainError, 1 entries\n"
        "w: converged -> max_iterations, 1 entries\n"
        "3 of 4 entries differ, 3 in status or iterations\n")


def test_compare_counts_the_entries_whose_status_or_iterations_differ(
        tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    from fingerprints import main

    # other bits with the same outcome, then other iterations alone
    files = _files(tmp_path, {
        "a": "w 1 0 s aa converged 4\nw 1 1 s bb converged 3\n"
             "w 1 2 c dd 0 -\n",
        "b": "w 1 0 s ab converged 4\nw 1 1 s cc converged 5\n"
             "w 1 2 c dd 0 -\n"})
    assert main(["compare", files["a"], files["b"]]) == 1
    assert capsys.readouterr().out == (
        "w 1 0 s: converged 4 -> converged 4\n"
        "w 1 1 s: converged 3 -> converged 5\n"
        "w: converged -> converged, 2 entries\n"
        "2 of 3 entries differ, 1 in status or iterations\n")


def test_compare_counts_the_status_transitions_of_each_workload(
        tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    from fingerprints import main

    # two workloads, a transition seen twice, and bits alone moved
    files = _files(tmp_path, {
        "a": "v 1 0 s aa max_iterations 50\nv 2 0 s bb max_iterations 50\n"
             "v 2 1 s cc converged 4\nw 1 0 c dd 2 -\n"
             "w 1 1 s ee max_iterations 50\n",
        "b": "v 1 0 s ab stalled 11\nv 2 0 s bc stalled 7\n"
             "v 2 1 s cc converged 4\nw 1 0 c de 2 -\n"
             "w 1 1 s ef stalled 3\n"})
    assert main(["compare", files["a"], files["b"]]) == 1
    assert capsys.readouterr().out.splitlines()[-4:] == [
        "v: max_iterations -> stalled, 2 entries",
        "w: 2 -> 2, 1 entries",
        "w: max_iterations -> stalled, 1 entries",
        "4 of 5 entries differ, 3 in status or iterations"]


def test_the_status_fields_of_a_solve_a_cli_run_and_a_raise(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    from fingerprints import _verdict

    f = from_roots(BasisSystem((constant(), power(1))), [(0.5, 1)])
    report = solve(f, [0.6], [1], SolverSettings(max_iterations=1))
    assert _verdict(report) == ("max_iterations", "1")
    # the simple root 0 claimed double: state 2 is within rounding of
    # state 0
    wrong = from_roots(BasisSystem((constant(), power(1), power(2),
                                    power(3))), [(0.0, 1), (1.0, 1), (2.0, 1)])
    assert _verdict(solve(wrong, [0.0, 1.0], [2, 1])) == ("stalled", "2")
    assert _verdict(1) == ("1", "-")
    assert _verdict(DomainError("x")) == ("DomainError", "-")


def test_a_cli_run_reads_each_method_s_status_from_its_printed_lines(
        tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    from fingerprints import _verdict

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = cli.main(["run", str(DEMO), "--out", str(tmp_path)])
    problem = cli.load_problem(DEMO)
    reports = [solve(problem.f, problem.initial, problem.multiplicities,
                     problem.settings[method])
               for method in problem.methods]
    assert _verdict(code, printed.getvalue()) == tuple(
        ",".join("%s=%s" % pair for pair in zip(problem.methods, column))
        for column in ([r.status.value for r in reports],
                       [r.iterations_used for r in reports]))
    # a refused file prints no method line: its exit code stands
    assert _verdict(1, "") == ("1", "-")


def test_compare_counts_a_cli_entry_once_per_method_that_moved(
        tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    from fingerprints import main

    # method3 moved in the first entry; nothing but bits in the second
    files = _files(tmp_path, {
        "a": "r 1 0 c aa m3=max_iterations,m13=converged m3=50,m13=4\n"
             "r 1 1 c bb m3=converged,m13=converged m3=4,m13=3\n",
        "b": "r 1 0 c ab m3=stalled,m13=converged m3=6,m13=4\n"
             "r 1 1 c bc m3=converged,m13=converged m3=4,m13=3\n"})
    assert main(["compare", files["a"], files["b"]]) == 1
    assert capsys.readouterr().out.splitlines()[2:] == [
        "r: m13 converged -> converged, 1 entries",
        "r: m3 converged -> converged, 1 entries",
        "r: m3 max_iterations -> stalled, 1 entries",
        "2 of 2 entries differ, 1 in status or iterations"]
