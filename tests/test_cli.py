import ast
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiprank import cli, complete
from chiprank.cli import main
from chiprank.graphs import MultiGraph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_stabilize(capsys):
    payload = run_json(capsys, "stabilize", "--complete", "3", "--config", "2,0,0")
    assert payload == {"stable": [0, 1, 1], "odometer": [1, 0, 0]}


def test_config_from_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO("2 0 0"))
    payload = run_json(capsys, "stabilize", "--complete", "3", "--config", "-")
    assert payload["stable"] == [0, 1, 1]


def test_config_from_file(capsys, tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text("3, 1, 3, 4, -1")
    payload = run_json(capsys, "parking", "--complete", "5", "--config", f"@{p}")
    assert payload == {"parking": [0, 3, 0, 1, 6]}


def test_parking_deep_debt(capsys):
    payload = run_json(capsys, "parking", "--complete", "3",
                       "--config=-30000000,0,30000005")
    assert payload == {"parking": [0, 0, 5]}


def test_recurrent(capsys):
    payload = run_json(capsys, "recurrent", "--complete", "3", "--config", "0,0,0")
    assert payload == {"recurrent": [1, 1, -2]}


def test_effective(capsys):
    payload = run_json(capsys, "effective", "--wheel", "5", "--config", "0,1,-1,1,0,1")
    assert payload == {"effective": True}


def test_graph_from_json_file(capsys, tmp_path):
    p = tmp_path / "g.json"
    p.write_text('{"n": 3, "edges": [[1, 2, 1], [2, 3, 1], [1, 3, 1]]}')
    payload = run_json(capsys, "rank", "--graph", str(p), "--config", "5,0,0")
    assert payload["rank"] == 4
    assert payload["method"] == "formula"  # auto picks the fast path on K3


def test_rank_methods_and_ops(capsys):
    payload = run_json(
        capsys, "rank", "--complete", "5", "--config", "3,1,3,4,-1", "--count-ops"
    )
    assert payload["rank"] == 4
    assert payload["ops"] == 48
    assert payload["degree"] == 10
    assert "wall_ms" in payload

    payload = run_json(
        capsys, "rank", "--wheel", "5", "--config", "0,1,0,1,0,1"
    )
    assert payload["method"] == "bruteforce"
    assert payload["rank"] == 0
    assert sum(payload["witness"]) == 1

    payload = run_json(
        capsys, "rank", "--complete", "4", "--config", "1,1,1,1", "--method", "greedy"
    )
    assert payload["rank"] == 2


def _slow_down(monkeypatch, name, owner=cli):
    step = getattr(owner, name)

    def slow(*args):
        time.sleep(0.05)
        return step(*args)

    monkeypatch.setattr(owner, name, slow)


def test_rank_wall_ms_covers_the_whole_command(capsys, monkeypatch):
    """wall_ms counts graph loading and validation, not only the rank
    call: a graph load slowed by 50 ms shows in it."""
    _slow_down(monkeypatch, "_load_graph")
    payload = run_json(capsys, "rank", "--wheel", "5", "--config", "0,1,0,1,0,1")
    assert payload["rank"] == 0
    assert payload["wall_ms"] >= 50


def test_rank_wall_ms_covers_config_parsing_on_kn(capsys, monkeypatch):
    """--complete N builds no graph; wall_ms still counts the parse."""
    _slow_down(monkeypatch, "_parse_config")
    payload = run_json(capsys, "rank", "--complete", "3", "--config", "5,0,0")
    assert payload["rank"] == 4
    assert payload["wall_ms"] >= 50


def test_rank_wall_ms_covers_argument_parsing(capsys, monkeypatch):
    """wall_ms starts before the arguments are parsed: a parse slowed by
    50 ms shows in it."""
    parser = cli.build_parser()
    monkeypatch.setattr(cli, "_parser", parser)
    _slow_down(monkeypatch, "parse_args", parser)
    payload = run_json(capsys, "rank", "--complete", "3", "--config", "5,0,0")
    assert payload["rank"] == 4
    assert payload["wall_ms"] >= 50


def test_config_with_a_negative_first_entry(capsys):
    """argparse takes "-1,2,3" after a space for an option: a usage error
    (exit 2, no traceback); written --config=-1,2,3 it is read."""
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--complete", "3", "--config", "-1,2,3"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--config: expected one argument" in err
    assert "Traceback" not in err
    assert run_json(capsys, "rank", "--complete", "3", "--config=-1,2,3")["rank"] == 3
    assert run_json(capsys, "rank", "--complete", "3", "--config", "-1 2 3")["rank"] == 3


class GraphBuilt(Exception):
    """Raised by a stand-in graph constructor; the CLI does not catch it."""


@pytest.fixture()
def no_graph(monkeypatch):
    """Make building any MultiGraph fail at once.  The named constructors
    allocate their N x N matrix before __init__ runs, so they go too."""
    def refuse(*args):
        raise GraphBuilt

    for name in ("__init__", "complete", "wheel"):
        monkeypatch.setattr(MultiGraph, name, refuse)


def _kn_config(rng, n, hi):
    return tuple(rng.randint(-3, hi) for _ in range(n))


def _rank_payload(capsys, f, *options):
    argv = ("rank", "--complete", str(len(f)), "--config=" + ",".join(map(str, f)))
    payload = run_json(capsys, *argv, *options)
    del payload["wall_ms"]
    return payload


@pytest.mark.parametrize("n", list(range(1, 9)) + [200, 517, 1000])
def test_rank_on_kn_matches_the_library(capsys, n):
    rng = random.Random(n)
    for _ in range(3):
        f = _kn_config(rng, n, 3 * n)
        rank, ops = complete.rank_formula(f, count_ops=True)
        expected = {"method": "formula", "degree": sum(f), "rank": rank}
        assert _rank_payload(capsys, f) == expected
        assert _rank_payload(capsys, f, "--method", "formula") == expected
        assert _rank_payload(capsys, f, "--count-ops") == dict(expected, ops=ops)
        # greedy takes rank + 1 steps of O(n) each, so on large N it gets
        # configurations of small degree, whose rank is small
        g = f if n <= 8 else _kn_config(rng, n, 3)
        assert _rank_payload(capsys, g, "--method", "greedy") == {
            "method": "greedy", "degree": sum(g), "rank": complete.rank_greedy(g)}


def test_cli_reads_no_private_name_of_the_configuration_modules():
    """Each configuration command calls the public library function, which
    checks f once: cli.py reads no _-prefixed name of dynamics, rank or
    complete."""
    modules = ("dynamics", "rank", "complete")
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    private = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")):
            private.append(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module in modules:
            private += [alias.name for alias in node.names if alias.name.startswith("_")]
    assert private == []


@pytest.mark.parametrize("options", [(), ("--method", "formula"), ("--count-ops",)])
def test_rank_on_kn_checks_the_config_once(capsys, conversions, options):
    """The configuration's text is converted once, by _parse_config, and
    only its length is checked against N: _as_ints never converts f, and
    the closed form runs on the parsed tuple."""
    payload = _rank_payload(capsys, (3, 1, 3, 4, -1), *options)
    assert conversions.checks == [] and conversions.parses == 1
    assert payload["rank"] == 4


CONFIG_COMMANDS = [
    ("stabilize", {"stable": [2, 0, 2, 3, 3], "odometer": [1, 1, 1, 1, 0]}),
    ("parking", {"parking": [0, 3, 0, 1, 6]}),
    ("recurrent", {"recurrent": [2, 0, 2, 3, 3]}),
    ("effective", {"effective": True}),
]


@pytest.mark.parametrize("command, expected", CONFIG_COMMANDS)
def test_config_commands_check_the_config_once(capsys, conversions, command, expected):
    """The configuration's text is converted once, by _parse_config, and the
    command's library function then runs on the parsed tuple: _as_ints
    never converts f, and K5's vertex count is the one check there is."""
    payload = run_json(capsys, command, "--complete", "5", "--config", "3,1,3,4,-1")
    assert payload == expected
    assert conversions.checks == [((5,), "the vertex count")] and conversions.parses == 1


@pytest.mark.parametrize("graph, command", [
    (graph, command)
    for graph in ("--complete", "--wheel", "--graph")
    for command in (("stabilize",), ("parking",), ("recurrent",), ("effective",),
                    ("rr-check",), ("rank",), ("rank", "--method", "bruteforce"),
                    ("rank", "--method", "greedy"))
    if graph != "--wheel" or "greedy" not in command  # greedy needs K_n
], ids=lambda v: v if isinstance(v, str) else " ".join(v))
def test_no_command_converts_the_config_twice(capsys, conversions, tmp_path,
                                              graph, command):
    """On every graph source, each command parses f once and hands the tuple
    to its library function: _as_ints never converts f.  The graph file
    holds K5, the other checks are its count, edges and rows."""
    source = {"--complete": "5", "--wheel": "4"}.get(graph)
    if source is None:
        p = tmp_path / "k5.json"
        p.write_text(json.dumps({"n": 5, "edges": [[i, j] for i in range(1, 6)
                                                   for j in range(i + 1, 6)]}))
        source = str(p)
    f = (3, 1, 3, 4, -1)
    code, _, err = run(capsys, command[0], graph, source,
                       "--config", ",".join(map(str, f)), *command[1:])
    assert code == 0, err
    assert (f,) not in conversions.checks
    assert conversions.parses == 1


@pytest.mark.parametrize("graph, config, vertices", [
    (("--complete", "5"), (3, 1, 3, 4, -1), 5),
    (("--wheel", "5"), (0, 1, 0, 1, 0, 1), 6),
])
def test_rr_check_checks_the_config_once(capsys, conversions, graph, config, vertices):
    """rr-check converts the configuration's text once, by _parse_config,
    and riemann_roch_data then runs on the parsed tuple: _as_ints never
    converts f, and the graph's size is the one check there is."""
    payload = run_json(capsys, "rr-check", *graph, "--config", ",".join(map(str, config)))
    assert payload["holds"] is True and len(payload["dual_config"]) == vertices
    assert (config,) not in conversions.checks
    assert len(conversions.checks) == 1 and conversions.parses == 1


def _token_parse(text):
    """The token parse: how any configuration text was read before the
    comma form got its own scan, the oracle for ``_parse_config``."""
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty configuration")
    return tuple(map(int, parts))


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


_SEPARATORS = st.sampled_from([",", ", ", " ", "\n", " ,\t", ",\r\n"])


@settings(max_examples=200)
@given(st.lists(st.integers() | st.integers(-10**400, 10**400), min_size=1, max_size=30),
       st.data(), st.sampled_from(["", "\n"]))
def test_parse_config_matches_the_token_parse(values, data, end):
    """Whatever the separators, huge entries included, the comma form's
    scan and the token parse read the same tuple."""
    seps = data.draw(st.lists(_SEPARATORS, min_size=len(values) - 1,
                              max_size=len(values) - 1))
    text = str(values[0]) + "".join(s + str(x) for s, x in zip(seps, values[1:])) + end
    assert cli._parse_config(text) == _token_parse(text) == tuple(values)


@pytest.mark.parametrize("text", [
    "+3", "03", "-0", "1_000", "1.0", "1e3", "true", "1,true", "NaN", "Infinity",
    "null", "[1]", "1,[2]", '"3"', "", " \n ", "1,,2", "1,2,", ",1", "1 2, 3",
    "1,x,3", "[" * 10**5, "9" * 5000, "-" + "9" * 4000,
], ids=lambda t: repr(t) if len(t) < 20 else f"{t[:2]!r}...({len(t)} chars)")
def test_parse_config_keeps_odd_inputs(text):
    """Text outside the plain comma form gets the tuple, or the error text,
    that the token parse gives."""
    assert _outcome(cli._parse_config, text) == _outcome(_token_parse, text)


@pytest.mark.parametrize("method", ["auto", "formula", "greedy"])
@pytest.mark.parametrize("n, config, err", [
    ("0", "1", "graph needs at least one vertex"),
    ("-2", "1", "graph needs at least one vertex"),
    ("0", "not-read", "graph needs at least one vertex"),  # N comes first
    ("3", "1,2", "configuration must have 3 entries, got 2"),
    ("3", "1,x,3", "invalid literal for int() with base 10: 'x'"),
])
def test_rank_on_kn_errors(capsys, no_graph, method, n, config, err):
    code, out, stderr = run(capsys, "rank", "--complete", n, "--config", config,
                            "--method", method)
    assert (code, out, stderr) == (1, "", f"error: {err}\n")


def test_rank_bruteforce_on_kn_keeps_its_witness(capsys):
    payload = run_json(capsys, "rank", "--complete", "4", "--config", "1,1,1,1",
                       "--method", "bruteforce")
    assert payload["method"] == "bruteforce"
    assert payload["rank"] == 2
    assert sum(payload["witness"]) == 3


def test_rank_on_huge_kn_builds_no_graph(capsys, no_graph, tmp_path):
    n = 100_000
    f = _kn_config(random.Random(5), n, 3 * n)
    p = tmp_path / "cfg.txt"
    p.write_text(",".join(map(str, f)))
    payload = run_json(capsys, "rank", "--complete", str(n), "--config", f"@{p}")
    assert payload["rank"] == complete.rank_formula(f)
    assert payload["method"] == "formula"


@pytest.mark.parametrize("command", [
    "stabilize", "parking", "recurrent", "effective", "rr-check", "rank",
])
@pytest.mark.parametrize("graph, n", [("--complete", 100_000), ("--wheel", 100_001)])
def test_short_config_fails_before_the_graph_is_built(capsys, no_graph, command,
                                                       graph, n):
    extra = ("--method", "bruteforce") if command == "rank" else ()
    code, out, err = run(capsys, command, graph, "100000", "--config", "1,2", *extra)
    assert (code, out) == (1, "")
    assert err == f"error: configuration must have {n} entries, got 2\n"


def test_rank_errors(capsys):
    code, _, err = run(capsys, "rank", "--wheel", "5", "--config", "0,0,0,0,0,0",
                       "--method", "formula")
    assert code == 1 and "complete" in err
    code, _, err = run(capsys, "rank", "--complete", "3", "--config", "1,2")
    assert code == 1 and "3 entries" in err
    code, _, err = run(capsys, "rank", "--complete", "3", "--config", "1,2,3",
                       "--method", "bruteforce", "--count-ops")
    assert code == 1 and "count-ops" in err
    code, out, err = run(capsys, "rank", "--complete", "3", "--config", "1,2,3",
                         "--method", "greedy", "--count-ops")
    assert code == 1 and out == "" and "count-ops" in err


@pytest.mark.parametrize("text", [
    '{"n":3,"edges":[[1.5,2],[2,3]]}',
    '{"n":3,"edges":[[1,2,"x"],[2,3]]}',
    '{"n":3,"edges":5}',
    '{"n":2.9,"edges":[[1,2]]}',
])
def test_malformed_graph_file_exits_1(capsys, tmp_path, text):
    p = tmp_path / "g.json"
    p.write_text(text)
    code, out, err = run(capsys, "stabilize", "--graph", str(p), "--config", "0,0")
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_parser_is_built_once(capsys, monkeypatch):
    """Calls after the first reuse the parser, and usage errors still exit 2."""
    builds = []
    real = cli.build_parser

    def counting():
        builds.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    monkeypatch.setattr(cli, "_parser", None)
    assert run_json(capsys, "rank", "--complete", "3", "--config", "5,0,0")["rank"] == 4
    assert run_json(capsys, "parking", "--complete", "3", "--config", "2,0,0") == {
        "parking": [0, 1, 1]}
    for argv in (["no-such-command"], ["rank", "--complete", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert builds == [1]


def test_rr_check(capsys):
    payload = run_json(capsys, "rr-check", "--complete", "3", "--config", "5,0,0")
    assert payload == {
        "rank": 4,
        "dual_config": [-5, 0, 0],
        "dual_rank": -1,
        "degree": 5,
        "holds": True,
    }


def test_tutte_counts_csv(capsys):
    code, out, _ = run(capsys, "tutte-counts", "--complete", "3",
                       "--max-degree", "4", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["degree,count", "0,1", "1,3", "2,3", "3,3", "4,3"]


def test_tutte_counts_json(capsys):
    payload = run_json(capsys, "tutte-counts", "--complete", "3", "--max-degree", "2")
    assert payload["counts"] == {"0": 1, "1": 3, "2": 3}
    assert payload["spanning_trees"] == 3


def test_tutte_counts_read_the_tree_count_off_the_counts(capsys, monkeypatch):
    """The spanning-tree count is the class count at degree g, T(1, 1), read
    from the same DP however low --max-degree is: the Hermite form never
    runs, and the counts stop at --max-degree."""
    W5 = MultiGraph.wheel(5)
    trees = W5.spanning_tree_count()

    def refuse(self):
        raise AssertionError("Hermite form computed")

    monkeypatch.setattr(MultiGraph, "spanning_tree_count", refuse)
    for d in (0, 2, 5, 9):
        payload = run_json(capsys, "tutte-counts", "--wheel", "5", "--max-degree", str(d))
        assert payload["spanning_trees"] == trees == 121
        assert list(payload["counts"]) == [str(k) for k in range(d + 1)]
    code, out, err = run(capsys, "tutte-counts", "--wheel", "5", "--max-degree", "-1")
    assert (code, out, err) == (1, "", "error: d_max must be >= 0\n")


def test_dyck_stats(capsys):
    payload = run_json(capsys, "dyck", "stats", "abaabb")
    assert payload["area"] == 1
    assert payload["prerank"] == 2
    assert payload["dinv"] == payload["cdinv"] == 1
    assert payload["phi"] == "aababb"
    assert payload["zeta"] == "aabbab"
    code, _, err = run(capsys, "dyck", "stats", "bab")
    assert code == 1


@pytest.mark.parametrize("word", ["ab ", "aXb", "ab\n"])
def test_dyck_stats_refuses_stray_letters(capsys, word):
    code, out, err = run(capsys, "dyck", "stats", word)
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_strip_leftright(capsys):
    payload = run_json(capsys, "strip", "leftright", "aaabaaabbbabbbaabbabb", "13")
    assert payload["left"] == 5
    assert payload["right"] == 6


def test_genfun_ln_formats(capsys):
    payload = run_json(capsys, "genfun", "ln", "--n", "3", "--trunc", "2")
    assert payload["coeffs"]["[0, 0]"] == 1
    assert payload["coeffs"]["[1, 1]"] == 1

    code, out, _ = run(capsys, "genfun", "ln", "--n", "1", "--trunc", "2",
                       "--format", "text")
    assert code == 0
    assert out.strip() == "1 + y + x + y^2 + x^2"

    code, out, _ = run(capsys, "genfun", "ln", "--n", "3", "--trunc", "2",
                       "--format", "csv", "--lo", "-3", "--hi", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "degree,rank,count"
    assert "0,0,1" in lines

    # K_16's 9694845 words are past any word list, not past the DP
    code, out, _ = run(capsys, "genfun", "ln", "--n", "16", "--format", "csv")
    assert code == 0
    assert sum(int(line.split(",")[2]) for line in out.splitlines()[1:]) == 9694845 * 21
    for fmt in ("json", "csv"):
        code, out, err = run(capsys, "genfun", "ln", "--n", "10000", "--trunc", "4",
                             "--format", fmt)
        assert code == 1 and not out
        assert "past the strip budget" in err


def test_genfun_ln_csv_needs_no_trunc(capsys):
    """csv ignores the truncation, so only json and text ask for it, and
    then as a usage error."""
    code, out, _ = run(capsys, "genfun", "ln", "--n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "degree,rank,count" and "0,0,1" in out
    for fmt in ("json", "text"):
        with pytest.raises(SystemExit) as exc:
            main(["genfun", "ln", "--n", "3", "--format", fmt])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "needs --trunc" in err and "Traceback" not in err


def test_genfun_identity(capsys):
    payload = run_json(capsys, "genfun", "identity", "--max-n", "3", "--trunc", "5")
    assert payload == {"max_n": 3, "trunc": 5, "holds": True}


def test_runtime_error_exits_1(capsys, monkeypatch):
    def refuse(G, f):
        raise RuntimeError("parking reduction did not settle (input too extreme)")

    monkeypatch.setattr("chiprank.dynamics.is_effective_class", refuse)
    code, out, err = run(capsys, "effective", "--complete", "3", "--config", "1,0,0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "did not settle" in err


def test_memory_error_exits_1(capsys, monkeypatch):
    """A MemoryError's own text is empty; the CLI still names it on one
    line, with no traceback."""
    def exhaust(G, d_max):
        raise MemoryError

    monkeypatch.setattr("chiprank.dynamics.effective_class_counts", exhaust)
    code, out, err = run(capsys, "tutte-counts", "--complete", "3", "--max-degree", "10000000000")
    assert code == 1 and out == ""
    assert err == "error: out of memory\n"
