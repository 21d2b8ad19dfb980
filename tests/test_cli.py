import json
import time

import pytest

from chiprank import cli
from chiprank.cli import main


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
    assert payload["ops"] == 16 * 5 + 3
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


def test_rank_wall_ms_covers_the_whole_command(capsys, monkeypatch):
    """wall_ms counts graph loading and validation, not only the rank
    call: a graph load slowed by 50 ms shows in it."""
    load = cli._load_graph

    def slow_load(args):
        time.sleep(0.05)
        return load(args)

    monkeypatch.setattr(cli, "_load_graph", slow_load)
    payload = run_json(capsys, "rank", "--complete", "3", "--config", "5,0,0")
    assert payload["rank"] == 4
    assert payload["wall_ms"] >= 50


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


def test_dyck_stats(capsys):
    payload = run_json(capsys, "dyck", "stats", "abaabb")
    assert payload["area"] == 1
    assert payload["prerank"] == 2
    assert payload["dinv"] == payload["cdinv"] == 1
    assert payload["phi"] == "aababb"
    assert payload["zeta"] == "aabbab"
    code, _, err = run(capsys, "dyck", "stats", "bab")
    assert code == 1


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


def test_genfun_identity(capsys):
    payload = run_json(capsys, "genfun", "identity", "--max-n", "3", "--trunc", "5")
    assert payload == {"max_n": 3, "trunc": 5, "holds": True}


def test_runtime_error_exits_1(capsys, monkeypatch):
    def refuse(G, f):
        raise RuntimeError("parking reduction did not settle (input too extreme)")

    monkeypatch.setattr("chiprank.rank.is_effective_class", refuse)
    code, out, err = run(capsys, "effective", "--complete", "3", "--config", "1,0,0")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "did not settle" in err
