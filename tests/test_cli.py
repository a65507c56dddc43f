import os
import subprocess
import sys
from pathlib import Path

import pytest

from slpdist import cli
from slpdist.cli import dump_slp, main, parse_scoring, parse_slp
from slpdist.slp import MAX_EXPAND_LENGTH, expand, repair

FIB7_SLP_TEXT = """SLP 7
# the worked example grammar
1 -> 'b'
2 -> 'a'
3 -> 2 1
4 -> 3 2
5 -> 4 3
6 -> 5 4
7 -> 6 5
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_dump_roundtrip():
    g = parse_slp(FIB7_SLP_TEXT)
    assert expand(g) == "abaababaabaab"
    dumped = dump_slp(g)
    again = parse_slp(dumped)
    assert again.productions == g.productions
    assert dump_slp(again) == dumped


def test_parse_slp_errors():
    for text in (
        "nope",
        "SLP x",
        "SLP 2\n1 -> 'a'",                 # missing production
        "SLP 1\n1 -> 'a'\n1 -> 'b'",       # duplicate
        "SLP 2\n1 -> 'a'\n2 -> 2 1",       # self reference
        "SLP 1\n1 -> 'ab'",                # long terminal
        "SLP 1\n2 -> 'a'",                 # out of range
    ):
        with pytest.raises(Exception):
            parse_slp(text)


def test_expand_subcommand(tmp_path, capsys):
    path = tmp_path / "fib7.slp"
    path.write_text(FIB7_SLP_TEXT)
    code, out, err = run_cli(capsys, "expand", str(path))
    assert code == 0
    assert out == "abaababaabaab\n"


def test_compress_expand_roundtrip(tmp_path, capsys):
    for method in ("repair", "lz78", "balanced"):
        src = tmp_path / f"in_{method}.txt"
        dst = tmp_path / f"out_{method}.slp"
        src.write_text("abracadabra alakazam\n")
        code, out, err = run_cli(
            capsys, "compress", str(src), "-o", str(dst), "--method", method
        )
        assert code == 0
        code, out, err = run_cli(capsys, "expand", str(dst))
        assert code == 0
        assert out == "abracadabra alakazam\n"


def test_compress_expand_roundtrip_multiline(tmp_path, capsys):
    src = tmp_path / "multi.txt"
    dst = tmp_path / "multi.slp"
    src.write_text("two\tcolumns\nsecond line\\end\n")
    code, out, err = run_cli(capsys, "compress", str(src), "-o", str(dst))
    assert code == 0
    code, out, err = run_cli(capsys, "expand", str(dst))
    assert code == 0
    assert out == "two\tcolumns\nsecond line\\end\n"


def test_distance_reads_carriage_returns_exactly(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    a.write_bytes(b"ab\rcd\r\nef")
    b.write_bytes(b"ab\ncd\nef")
    for algorithm in ("block", "baseline"):
        code, out, err = run_cli(capsys, "distance", str(a), str(b), "--algorithm", algorithm)
        assert (code, out) == (0, "2\n")


def test_compress_expand_roundtrip_keeps_carriage_returns(tmp_path, capsys):
    src, dst = tmp_path / "in.txt", tmp_path / "out.slp"
    src.write_bytes(b"ab\rcd\r\nef\r\n")
    assert run_cli(capsys, "compress", str(src), "-o", str(dst))[0] == 0
    code, out, err = run_cli(capsys, "expand", str(dst))
    assert (code, out) == (0, "ab\rcd\r\nef\r\n")


def test_crlf_grammar_and_scoring_files(tmp_path, capsys):
    table = _ab_table(2, 2, 3, 3, 1, 1)
    other = tmp_path / "other.txt"
    other.write_text("abaabbbaabaab\n")
    outs = []
    for ending in ("\n", "\r\n"):
        grammar, scoring = tmp_path / "g.slp", tmp_path / "s.tsv"
        grammar.write_bytes(FIB7_SLP_TEXT.replace("\n", ending).encode())
        scoring.write_bytes(table.replace("\n", ending).encode())
        code, out, err = run_cli(
            capsys, "distance", str(grammar), str(other), "--scoring", str(scoring)
        )
        assert code == 0, err
        outs.append(out)
    assert outs[0] == outs[1] == "1\n"


# characters str.splitlines breaks lines at, which dump_slp writes literally
LINE_BREAKING_TERMINALS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", LINE_BREAKING_TERMINALS)
def test_terminals_that_splitlines_breaks_at_round_trip(tmp_path, capsys, char):
    text = f"ab{char}cab{char}c{char}d"
    src, dst, other = tmp_path / "in.txt", tmp_path / "out.slp", tmp_path / "other.txt"
    src.write_text(text + "\n", encoding="utf-8")
    other.write_text(f"ab{char}cabc{char}{char}d\n", encoding="utf-8")
    assert run_cli(capsys, "compress", str(src), "-o", str(dst))[0] == 0
    code, out, err = run_cli(capsys, "expand", str(dst))
    assert (code, out) == (0, text + "\n")
    code, from_text, err = run_cli(capsys, "distance", str(src), str(other))
    assert code == 0
    assert run_cli(capsys, "distance", str(dst), str(other)) == (0, from_text, "")
    assert from_text == "2\n"


def test_compress_defaults_to_repair(tmp_path, capsys):
    text = "abcabcabdabcabcabd" * 5
    src = tmp_path / "in.txt"
    src.write_text(text + "\n")
    code, default, err = run_cli(capsys, "compress", str(src))
    assert code == 0
    code, named, err = run_cli(capsys, "compress", str(src), "--method", "repair")
    assert code == 0
    assert default == named == dump_slp(repair(text))
    dst = tmp_path / "out.slp"
    dst.write_text(default)
    assert run_cli(capsys, "expand", str(dst))[1] == text + "\n"


def test_plain_text_distance_uses_the_compress_default(tmp_path, capsys):
    texts = {"a": "abaababaabaababaababa" * 3, "b": "abaabbbaabaababaababa" * 3}
    for name, text in texts.items():
        (tmp_path / f"{name}.txt").write_text(text + "\n")
        code, out, err = run_cli(
            capsys, "compress", str(tmp_path / f"{name}.txt"), "-o", str(tmp_path / f"{name}.slp")
        )
        assert code == 0
    records = []
    for ext in ("txt", "slp"):
        stats = tmp_path / f"stats_{ext}"
        code, out, err = run_cli(
            capsys, "distance", str(tmp_path / f"a.{ext}"), str(tmp_path / f"b.{ext}"),
            "--stats", str(stats),
        )
        assert code == 0
        counters = [
            line for line in stats.read_text().splitlines() if not line.startswith("elapsed_")
        ]
        records.append((out, counters))
    assert records[0] == records[1]
    assert f"n_vars_a={repair(texts['a']).size}" in records[0][1]


def test_over_long_text_is_refused_before_compressing(tmp_path, capsys, monkeypatch):
    calls = []
    for method in cli._COMPRESSORS:
        monkeypatch.setitem(
            cli._COMPRESSORS, method, lambda text: calls.append(len(text)) or repair("a")
        )
    over = tmp_path / "over.txt"
    over.write_text("a" * (MAX_EXPAND_LENGTH + 1) + "\n")
    for argv in (
        ("compress", str(over)),
        ("compress", str(over), "--method", "lz78"),
        ("distance", str(over), str(over)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"{MAX_EXPAND_LENGTH + 1} characters, more than the expansion limit" in err
    assert calls == []
    # the limit counts characters after the trailing newline is stripped
    at_limit = tmp_path / "at_limit.txt"
    at_limit.write_text("a" * MAX_EXPAND_LENGTH + "\n")
    assert run_cli(capsys, "compress", str(at_limit))[0] == 0
    assert calls == [MAX_EXPAND_LENGTH]
    over.unlink()
    at_limit.unlink()


def test_start_up_imports_no_dataclasses():
    # every command pays for the package's imports; dataclasses and inspect
    # cost about 15 ms of an 85 ms start-up
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, slpdist.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out == "[]\n"


def test_distance_plain_inputs(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("kitten\n")
    b.write_text("sitting\n")
    code, out, err = run_cli(capsys, "distance", str(a), str(b), "--scoring", "lev")
    assert code == 0
    assert out == "3\n"


def test_distance_identity(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("abaababaabaab\n")
    code, out, err = run_cli(capsys, "distance", str(a), str(a))
    assert code == 0
    assert out == "0\n"


def test_distance_mixed_formats_agree(tmp_path, capsys):
    plain = tmp_path / "plain.txt"
    plain.write_text("abaababaabaab\n")
    grammar = tmp_path / "fib7.slp"
    grammar.write_text(FIB7_SLP_TEXT)
    other = tmp_path / "other.txt"
    other.write_text("abaabbbaabaab\n")
    results = set()
    for first in (plain, grammar):
        code, out, err = run_cli(capsys, "distance", str(first), str(other))
        assert code == 0
        results.add(out)
    assert len(results) == 1


def test_distance_baseline_matches_block(tmp_path, capsys):
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    a.write_text("abcabcabc\n")
    b.write_text("abcbcabca\n")
    outs = []
    for algo in ("block", "baseline"):
        code, out, err = run_cli(
            capsys, "distance", str(a), str(b), "--algorithm", algo
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_distance_block_size_flag(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("aaaabbbb\n")
    b = tmp_path / "b.txt"
    b.write_text("ababab\n")
    code, out, err = run_cli(capsys, "distance", str(a), str(b), "--block-size", "3")
    assert code == 0


def test_distance_stats_output(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("abaababaabaab\n")
    stats = tmp_path / "stats.txt"
    code, out, err = run_cli(capsys, "distance", str(a), str(a), "--stats", str(stats))
    assert code == 0
    record = stats.read_text()
    assert "block_count=" in record
    assert "boundary_cells_propagated=" in record
    assert "table_entries=" in record
    assert "peak_table_entries=" in record
    assert "sweep_memo_hits=" in record
    fields = dict(line.split("=", 1) for line in record.splitlines())
    assert int(fields["sweep_edges"]) > 0
    assert fields["sweep_memo_resets"] == "0"
    # 4 merges and no key left unbuilt while the repository decided before
    # the sweep: now 2 of the 4 part pairs are built on demand
    assert (fields["merges"], fields["unbuilt_pairs"], fields["unbuilt_keys"]) == ("2", "2", "2")
    assert "merge_queries=" in record


def test_distance_stats_count_unbuilt_pairs(tmp_path, capsys):
    # at x = 4 six part pairs of this grid are still unbuilt when the
    # sweep ends, swept through their two operands (two while composite
    # parts were not grammar variables, four while only part pairs no key
    # consumes could be); the distance is still the baseline's
    a, b, stats = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "stats.txt"
    a.write_text("abaababaabaab\n")
    b.write_text("abaabbbaabaab\n")
    argv = ["distance", str(a), str(b), "--block-size", "4"]
    code, out, err = run_cli(capsys, *argv, "--stats", str(stats))
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv, "--algorithm", "baseline") == (0, out, "")
    fields = dict(line.split("=", 1) for line in stats.read_text().splitlines())
    # ``unbuilt_keys`` counts the part pairs and the keys they nest (8,
    # and 11 merges, while the repository decided before the sweep)
    assert (fields["unbuilt_pairs"], fields["unbuilt_keys"]) == ("6", "9")
    assert fields["merges"] == "10"


def test_unwritable_stats_path_fails_before_the_run(tmp_path, capsys, monkeypatch):
    from slpdist import block_edit

    def no_run(*args):
        raise AssertionError("the distance ran")

    monkeypatch.setattr(block_edit, "block_edit_distance", no_run)
    a = tmp_path / "a.txt"
    a.write_text("abab\n")
    for target in (tmp_path / "no" / "such" / "st.txt", tmp_path):
        code, out, err = run_cli(capsys, "distance", str(a), str(a), "--stats", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("slpdist: ") and str(target) in err


@pytest.mark.parametrize("target", ["a", "scoring"])
def test_stats_path_naming_an_input_is_read_first(tmp_path, capsys, target):
    paths = {"a": tmp_path / "a.txt", "b": tmp_path / "b.txt", "scoring": tmp_path / "c.tsv"}
    paths["a"].write_text("abaababaabaab\n")
    paths["b"].write_text("abaabbbaab\n")
    paths["scoring"].write_text(_ab_table(2, 1, 1, 3, 2, 1))
    argv = ["distance", str(paths["a"]), str(paths["b"]), "--scoring", str(paths["scoring"])]
    plain = run_cli(capsys, *argv)
    assert plain[0] == 0
    assert run_cli(capsys, *argv, "--stats", str(paths[target])) == plain
    assert "block_count=" in paths[target].read_text()


def test_failed_run_leaves_the_stats_path_as_it_was(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("abab\n")
    costs = tmp_path / "c.tsv"
    costs.write_text(_ab_table(-1, 1, 1, 1, 1, 1))
    code, out, err = run_cli(
        capsys, "distance", str(a), str(a), "--scoring", str(costs), "--stats", str(a)
    )
    assert code == 1 and out == "" and "negative cost" in err
    assert a.read_text() == "abab\n"


def test_unwritable_compress_output_is_input_error(tmp_path, capsys):
    text = tmp_path / "t.txt"
    text.write_text("abab\n")
    for target in (tmp_path / "no" / "such" / "x.slp", tmp_path):
        code, out, err = run_cli(capsys, "compress", str(text), "-o", str(target))
        assert code == 1
        assert out == ""
        assert err.startswith("slpdist: ") and str(target) in err


def test_missing_file_is_input_error(capsys):
    code, out, err = run_cli(capsys, "distance", "/nonexistent/a", "/nonexistent/b")
    assert code == 1
    assert err


def test_malformed_slp_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.slp"
    bad.write_text("SLP 2\n1 -> 'a'\n")
    code, out, err = run_cli(capsys, "expand", str(bad))
    assert code == 1
    assert "missing productions" in err


def test_huge_slp_header_is_input_error(tmp_path, capsys):
    # the header count must be checked before it sizes any allocation
    bad = tmp_path / "huge.slp"
    bad.write_text("SLP 100000000000000\n1 -> 'a'\n")
    code, out, err = run_cli(capsys, "expand", str(bad))
    assert code == 1
    assert "header declares 100000000000000 variables" in err
    assert out == ""


def _doubling_slp_text(lines, tail=False):
    """'a' doubled lines - 1 times, optionally followed by one more 'a'."""
    prods = ["1 -> 'a'"] + [f"{i} -> {i - 1} {i - 1}" for i in range(2, lines + 1)]
    if tail:
        prods.append(f"{lines + 1} -> {lines} 1")
    return f"SLP {len(prods)}\n" + "\n".join(prods) + "\n"


def test_over_long_expansion_is_input_error(tmp_path, capsys):
    # 64 lines derive 2**63 characters; the length is checked before expanding
    huge = tmp_path / "huge.slp"
    huge.write_text(_doubling_slp_text(64))
    for argv in (("expand", str(huge)), ("distance", str(huge), str(huge))):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert f"derives {2**63} characters" in err
        assert out == ""
    # one character over the limit is refused too
    over = tmp_path / "over.slp"
    over.write_text(_doubling_slp_text(MAX_EXPAND_LENGTH.bit_length(), tail=True))
    code, out, err = run_cli(capsys, "distance", str(over), str(over))
    assert code == 1
    assert f"derives {MAX_EXPAND_LENGTH + 1} characters" in err


@pytest.mark.parametrize("algorithm", ["block", "baseline"])
def test_distance_expands_each_grammar_once(tmp_path, capsys, monkeypatch, algorithm):
    # the baseline derives each text once; the block path derives neither
    # text whole, only the string of each distinct part variable, once
    from slpdist import block_edit, slp

    calls = []
    for owner in (slp, block_edit):
        def counted(*args, _expand=owner.expand, **kwargs):
            calls.append(args)
            return _expand(*args, **kwargs)

        monkeypatch.setattr(owner, "expand", counted)
    partitions = []

    def partitioned(*args, _partition=block_edit.partition_string):
        partitions.append(_partition(*args))
        return partitions[-1]

    monkeypatch.setattr(block_edit, "partition_string", partitioned)
    grammar = tmp_path / "fib7.slp"
    grammar.write_text(FIB7_SLP_TEXT)
    code, out, err = run_cli(
        capsys, "distance", str(grammar), str(grammar), "--algorithm", algorithm
    )
    assert (code, out) == (0, "0\n")
    if algorithm == "baseline":
        assert len(calls) == 2
        return
    assert calls and all(len(args) == 2 for args in calls)
    assert all(var != g.root for g, var in calls)
    named = [(id(g), var) for g, var in calls]
    assert set(named) <= {(id(p.slp), part.var) for p in partitions for part in p.parts}
    assert len(named) == len(set(named))


def test_unreachable_terminal_leaves_the_lev_distance_unchanged(tmp_path, capsys):
    # variable 2 ('z') is in no derivation: the grammar derives "ab"
    grammar = tmp_path / "ab.slp"
    grammar.write_text("SLP 4\n1 -> 'a'\n2 -> 'z'\n3 -> 'b'\n4 -> 1 3\n")
    plain = tmp_path / "ab.txt"
    plain.write_text("ab\n")
    other = tmp_path / "other.txt"
    other.write_text("bba\n")
    for algorithm in ("block", "baseline"):
        outs = [
            run_cli(capsys, "distance", str(a), str(other), "--algorithm", algorithm)
            for a in (grammar, plain)
        ]
        assert outs[0] == outs[1] == (0, "2\n", "")


def test_unreachable_terminal_outside_the_scoring_alphabet_is_accepted(tmp_path, capsys):
    # variable 2 ('z') is in no derivation, and the scoring file has no 'z'
    grammar = tmp_path / "ab.slp"
    grammar.write_text("SLP 4\n1 -> 'a'\n2 -> 'z'\n3 -> 'b'\n4 -> 1 3\n")
    plain = tmp_path / "ab.txt"
    plain.write_text("ab\n")
    other = tmp_path / "other.txt"
    other.write_text("bba\n")
    costs = tmp_path / "c.tsv"
    costs.write_text(_ab_table(2, 1, 1, 3, 2, 1))
    outs = [
        run_cli(
            capsys, "distance", str(a), str(other), "--scoring", str(costs),
            "--algorithm", algorithm,
        )
        for algorithm in ("block", "baseline")
        for a in (grammar, plain)
    ]
    assert outs[0][0] == 0 and outs[0][1] != "" and outs[0][2] == ""
    assert outs == [outs[0]] * 4


def test_over_long_grammar_is_refused_before_its_letters(tmp_path, capsys):
    # 'z' is outside the scoring alphabet, but the length is checked first
    over = tmp_path / "over.slp"
    text = _doubling_slp_text(MAX_EXPAND_LENGTH.bit_length(), tail=True)
    over.write_text(text.replace("'a'", "'z'"))
    small = tmp_path / "small.txt"
    small.write_text("ab\n")
    costs = tmp_path / "c.tsv"
    costs.write_text(_ab_table(2, 1, 1, 3, 2, 1))
    for pair in ((over, small), (small, over)):
        outs = [
            run_cli(
                capsys, "distance", *map(str, pair), "--scoring", str(costs),
                "--algorithm", algorithm,
            )
            for algorithm in ("block", "baseline")
        ]
        assert outs[0] == outs[1]
        code, out, err = outs[0]
        assert (code, out) == (1, "")
        assert f"derives {MAX_EXPAND_LENGTH + 1} characters" in err


def test_distance_stats_with_baseline_rejected_before_work(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("abab\n")
    stats = tmp_path / "stats.txt"
    code, out, err = run_cli(
        capsys, "distance", str(a), str(a), "--algorithm", "baseline", "--stats", str(stats)
    )
    assert code == 1
    assert "--stats requires the block algorithm" in err
    assert out == ""
    assert not stats.exists()


def test_scoring_file(tmp_path, capsys):
    scoring = tmp_path / "costs.tsv"
    scoring.write_text(
        "ALPHABET\tab\n"
        "DEL\ta\t2\nDEL\tb\t2\n"
        "INS\ta\t3\nINS\tb\t3\n"
        "SUB\ta\tb\t1\nSUB\tb\ta\t1\n"
    )
    a = tmp_path / "a.txt"
    a.write_text("aa\n")
    b = tmp_path / "b.txt"
    b.write_text("ab\n")
    code, out, err = run_cli(
        capsys, "distance", str(a), str(b), "--scoring", str(scoring)
    )
    assert code == 0
    assert out == "1\n"


def _distance_strings(tmp_path, capsys, text_a, text_b, table, *extra):
    """``slpdist distance`` output and status under each algorithm."""
    a, b, scoring = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "s.tsv"
    a.write_text(text_a + "\n")
    b.write_text(text_b + "\n")
    scoring.write_text(table)
    results = {}
    for algorithm in ("block", "baseline"):
        results[algorithm] = run_cli(
            capsys, "distance", str(a), str(b), "--scoring", str(scoring),
            "--algorithm", algorithm, *extra,
        )
    return results


def _ab_table(dela, delb, insa, insb, subab, subba):
    return (
        f"ALPHABET\tab\nDEL\ta\t{dela}\nDEL\tb\t{delb}\n"
        f"INS\ta\t{insa}\nINS\tb\t{insb}\n"
        f"SUB\ta\tb\t{subab}\nSUB\tb\ta\t{subba}\n"
    )


@pytest.mark.parametrize("algorithm", ["block", "baseline"])
def test_distance_to_an_empty_text_sums_the_other_texts_indels(tmp_path, capsys, algorithm):
    # no grammar derives the empty text, so the distance is the other
    # text's deletions (empty b) or insertions (empty a), printed as the
    # baseline prints it; a lone newline is an empty text too
    texts = {"e": "", "n": "\n", "x": "abbab\n"}
    for name, text in texts.items():
        (tmp_path / f"{name}.txt").write_text(text)
    (tmp_path / "int.tsv").write_text(_ab_table(2, 3, 5, 7, 1, 1))
    (tmp_path / "dec.tsv").write_text(_ab_table("0.5", "1.25", "2", "1.0", "1", "1"))
    cases = [
        ("e", "x", "lev", "5"),
        ("x", "n", "lev", "5"),
        ("e", "n", "lev", "0"),
        ("e", "x", "int.tsv", str(2 * 5 + 3 * 7)),
        ("x", "e", "int.tsv", str(2 * 2 + 3 * 3)),
        ("n", "e", "int.tsv", "0"),
        ("e", "x", "dec.tsv", "7.00"),
        ("x", "e", "dec.tsv", "4.75"),
        ("e", "e", "dec.tsv", "0.00"),
    ]
    for a, b, table, want in cases:
        scoring = table if table == "lev" else str(tmp_path / table)
        argv = ["distance", str(tmp_path / f"{a}.txt"), str(tmp_path / f"{b}.txt")]
        argv += ["--scoring", scoring, "--algorithm", algorithm]
        assert run_cli(capsys, *argv) == (0, want + "\n", ""), (a, b, table)
    # the scoring table still covers the other text
    (tmp_path / "c.txt").write_text("abc\n")
    code, out, err = run_cli(
        capsys, "distance", str(tmp_path / "e.txt"), str(tmp_path / "c.txt"),
        "--scoring", str(tmp_path / "int.tsv"), "--algorithm", algorithm,
    )
    assert (code, out) == (1, "") and "does not cover" in err


def test_empty_text_is_refused_by_stats_and_compress(tmp_path, capsys):
    a, b, stats = tmp_path / "a.txt", tmp_path / "b.txt", tmp_path / "stats.txt"
    a.write_text("")
    b.write_text("abab\n")
    code, out, err = run_cli(capsys, "distance", str(b), str(a), "--stats", str(stats))
    assert (code, out) == (1, "")
    assert err == f"slpdist: {a}: empty input: --stats needs two non-empty inputs\n"
    assert not stats.exists()
    code, out, err = run_cli(capsys, "compress", str(a))
    assert (code, out, err) == (1, "", f"slpdist: {a}: empty input\n")


def test_decimal_distance_prints_one_string_for_both_algorithms(tmp_path, capsys):
    # Equal-cost paths sum to 11.5 or to 11.50; the result carries the
    # table's smallest exponent whichever path an algorithm takes.
    results = _distance_strings(
        tmp_path, capsys,
        "abaabaabbabaabaabaabaabaabaabaabaa", "aaaabaaabbaababaaaabaaaabaaaa",
        _ab_table("1.0", "1.5", "1.0", "1.0", "2.50", "2.50"),
        "--block-size", "4",
    )
    for code, out, err in results.values():
        assert (code, out, err) == (0, "11.50\n", "")


@pytest.mark.parametrize("algorithm", ["block", "baseline"])
@pytest.mark.parametrize(
    "token, message",
    [
        ("nan", "non-finite"),
        ("sNaN", "non-finite"),
        ("inf", "non-finite"),
        ("1e999999", "more than the limit"),
    ],
)
def test_non_finite_or_huge_cost_is_input_error(
    tmp_path, capsys, token, message, algorithm
):
    results = _distance_strings(
        tmp_path, capsys, "ab", "ba", _ab_table(token, 1, 1, 1, 1, 1)
    )
    code, out, err = results[algorithm]
    assert code == 1
    assert out == ""
    assert err.startswith("slpdist: ") and "DEL'a'" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("token", ["1_0", "1_0.5", "1e1_0", " 1", "1 ", "\u0661", "0x1", "1.5.0", ""])
def test_cost_must_be_a_plain_decimal_numeral(tmp_path, capsys, token):
    # int() and Decimal() would read "1_0" as 10 and "\u0661" (an Arabic-Indic
    # one) as 1
    results = _distance_strings(tmp_path, capsys, "aa", "b", _ab_table(token, 1, 1, 1, 1, 1))
    for code, out, err in results.values():
        assert code == 1 and out == ""
        assert f"bad cost {token!r}" in err


def test_plain_decimal_numerals_are_costs():
    sf = parse_scoring(_ab_table("10", "+2", ".5", "5.", "1E+1", "2.50"))
    assert (sf.delete["a"], sf.delete["b"]) == (10, 2)
    assert [str(c) for c in (sf.insert["a"], sf.insert["b"])] == ["0.5", "5"]
    assert [str(sf.substitute[tuple(p)]) for p in ("ab", "ba")] == ["1E+1", "2.50"]


def test_scaled_costs_are_exact_up_to_the_digit_bound(tmp_path, capsys):
    from slpdist.scoring import MAX_COST_DIGITS

    # 28-digit costs whose sum takes 29 digits (SUB(a, b) + DEL(a)): printed
    # in full, where the decimal module's default context would round it
    assert MAX_COST_DIGITS >= 28
    big = "99999999999999999.9999999999"
    results = _distance_strings(
        tmp_path, capsys, "aa", "b", _ab_table("0.0000000001", 1, 1, big, big, 1)
    )
    for code, out, err in results.values():
        assert (code, out, err) == (0, "100000000000000000.0000000000\n", "")
    # 1e20 next to 1e-10 scales to 10**30: refused, never printed rounded
    results = _distance_strings(
        tmp_path, capsys, "a", "b", _ab_table("1E+20", 1, 1, "1E-10", "1E+20", 1)
    )
    for code, out, err in results.values():
        assert code == 1 and out == ""
        assert f"more than the limit of {MAX_COST_DIGITS}" in err


def test_scoring_file_decimal_mode(tmp_path):
    sf = parse_scoring(
        "ALPHABET\tab\n"
        "DEL\ta\t0.5\nDEL\tb\t0.5\n"
        "INS\ta\t0.5\nINS\tb\t0.5\n"
        "SUB\ta\tb\t0.25\nSUB\tb\ta\t0.25\n"
    )
    from decimal import Decimal

    assert sf.delete["a"] == Decimal("0.5")
    from slpdist import wagner_fischer

    assert wagner_fischer("aa", "ab", sf) == Decimal("0.25")


def test_scoring_file_missing_entry(tmp_path, capsys):
    scoring = tmp_path / "bad.tsv"
    scoring.write_text("ALPHABET\tab\nDEL\ta\t1\n")
    a = tmp_path / "a.txt"
    a.write_text("ab\n")
    code, out, err = run_cli(
        capsys, "distance", str(a), str(a), "--scoring", str(scoring)
    )
    assert code == 1
    assert "incomplete" in err or "invalid scoring" in err


def test_scoring_alphabet_coverage_checked(tmp_path, capsys):
    scoring = tmp_path / "ab.tsv"
    scoring.write_text(
        "ALPHABET\tab\n"
        "DEL\ta\t1\nDEL\tb\t1\nINS\ta\t1\nINS\tb\t1\n"
        "SUB\ta\tb\t1\nSUB\tb\ta\t1\n"
    )
    a = tmp_path / "a.txt"
    a.write_text("abz\n")
    code, out, err = run_cli(
        capsys, "distance", str(a), str(a), "--scoring", str(scoring)
    )
    assert code == 1
    assert "does not cover" in err


def test_scoring_characters_outside_the_alphabet_are_refused(tmp_path, capsys):
    a = tmp_path / "a.txt"
    a.write_text("ab\n")
    b = tmp_path / "b.txt"
    b.write_text("ba\n")
    complete = (
        "ALPHABET\tab\n"
        "DEL\ta\t1\nDEL\tb\t1\nINS\ta\t1\nINS\tb\t1\n"
        "SUB\ta\tb\t1\nSUB\tb\ta\t1\n"
    )
    for extra, flagged in (
        ("DEL\tzz\t0.5\n", "DEL'zz'"),
        ("SUB\ta\tq\t7\n", "SUB('a', 'q')"),
    ):
        scoring = tmp_path / "costs.tsv"
        scoring.write_text(complete + extra)
        for algorithm in ("block", "baseline"):
            argv = ("distance", str(a), str(b), "--scoring", str(scoring))
            code, out, err = run_cli(capsys, *argv, "--algorithm", algorithm)
            assert code == 1
            assert out == ""
            assert f"invalid scoring: character outside the alphabet: {flagged}" in err


def test_selftest_smoke(capsys):
    code, out, err = run_cli(capsys, "selftest", "--cases", "8")
    assert code == 0
    assert "8 cases" in out


def test_selftest_refuses_fewer_than_one_case(capsys, monkeypatch):
    from slpdist import block_edit

    def no_case(*args):
        raise AssertionError("a case ran")

    monkeypatch.setattr(block_edit, "block_edit_distance", no_case)
    for cases in ("-1", "0"):
        code, out, err = run_cli(capsys, "selftest", "--cases", cases)
        assert code == 1
        assert out == ""
        assert f"--cases must be at least 1, got {cases}" in err


def test_selftest_fails_on_equal_values_printed_differently(capsys, monkeypatch):
    from decimal import Decimal

    from slpdist import block_edit

    real = block_edit.block_edit_distance

    def trailing_zeros(*args):
        cost, stats = real(*args)
        # the same value with four decimals (selftest draws at most three)
        return Decimal(cost) + Decimal("0.0000"), stats

    monkeypatch.setattr(block_edit, "block_edit_distance", trailing_zeros)
    code, out, err = run_cli(capsys, "selftest", "--cases", "4")
    assert code == 2
    assert "MISMATCH" in err and "4/4 cases failed" in err


def test_usage_error_exits_one(capsys):
    code, out, err = run_cli(capsys, "distance")
    assert code == 1
    code, out, err = run_cli(capsys, "bench")
    assert code == 1
    assert out == ""
    assert "invalid choice: 'bench'" in err
    assert "Traceback" not in err


def test_repeated_calls_in_one_process_act_as_fresh_ones(tmp_path, capsys):
    # ``main`` builds its parser once per process; a call that fails, in
    # parsing or in its command, leaves nothing behind for the next one,
    # whatever its subcommand: each call prints and returns what a fresh
    # ``python -m slpdist.cli`` process does
    a, g = tmp_path / "a.txt", tmp_path / "a.slp"
    a.write_text("abaababaabaab\n")
    g.write_text(FIB7_SLP_TEXT)
    calls = [
        ["distance", str(a)],
        ["expand", str(g)],
        ["distance", str(a), str(g), "--block-size", "1"],
        ["compress", str(a), "--method", "lz78"],
        ["selftest", "--cases", "0"],
        ["distance", str(a), str(g), "--block-size", "3"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-m", "slpdist.cli", *argv], env=env, capture_output=True, text=True
        )
        assert run_cli(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert [run_cli(capsys, *argv)[0] for argv in calls] == [1, 0, 1, 0, 1, 0]


def test_subcommands_are_pinned():
    actions = cli.build_parser()._actions
    (commands,) = [a.choices for a in actions if a.dest == "command"]
    assert set(commands) == {"compress", "expand", "distance", "selftest"}
