"""tools/fingerprints.py compare: a bit-for-bit check that cannot pass on
files that hold nothing."""

from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_compare_counts_the_entries_and_fails_on_an_empty_file(
        tmp_path, monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(TOOLS))
    from fingerprints import main

    files = {}
    for name, text in (("empty", ""), ("a", "w 1 0 s aa\nw 1 1 s bb\n"),
                       ("b", "w 1 0 s aa\nw 1 1 s cc\n")):
        files[name] = str(tmp_path / name)
        Path(files[name]).write_text(text)
    assert main(["compare", files["a"], files["a"]]) == 0
    assert capsys.readouterr().out == "0 of 2 entries differ\n"
    assert main(["compare", files["a"], files["b"]]) == 1
    assert capsys.readouterr().out == "w 1 1 s\n1 of 2 entries differ\n"
    for pair in (("empty", "empty"), ("a", "empty"), ("empty", "b")):
        assert main(["compare"] + [files[name] for name in pair]) == 1
        assert "a file holds no entries" in capsys.readouterr().out
