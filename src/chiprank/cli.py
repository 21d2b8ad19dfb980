"""Command-line interface.

Exit codes: 0 on success, 1 when a computation fails or a verification does
not hold, 2 on usage errors (argparse's default).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time

from . import acceptance, complete, dyck, dynamics, rank, strip
from .graphs import MultiGraph, _check_order, _Ints, _require_length, _wheel_order

# the comma form's characters: JSON can read such text only as ints
_COMMA_FORM = re.compile(r"[-0-9, \t\n\r]*")


def _parse_config(text: str) -> tuple:
    """Chip counts as ``3,1,-2``, ``@file``, or ``-`` for stdin, separated
    by commas and/or whitespace: the one place where a configuration's text
    becomes a tuple of ints, an ``_Ints`` that the library's checks pass
    as it is.

    Text of ASCII digits, minus signs, commas and JSON whitespace is read
    by one C-level JSON scan, whose items can then only be ints (no bool,
    float or list).  Any other text (``+3``, ``1_000``, ``1.0``, ...) and
    any the scan refuses (``1 2``, ``1,,2``, ``03``, ...) goes to the token
    parse, which gives the same tuple or the same error as it always has."""
    if text == "-":
        text = sys.stdin.read()
    elif text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            text = fh.read()
    if _COMMA_FORM.fullmatch(text):
        try:
            values = json.loads("[" + text + "]")
        except ValueError:
            pass
        else:
            if values:
                return _Ints(values)
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty configuration")
    return _Ints(map(int, parts))


def _add_graph_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--graph", metavar="FILE", help="multigraph as JSON")
    group.add_argument("--complete", type=int, metavar="N", help="complete graph on N vertices")
    group.add_argument("--wheel", type=int, metavar="K", help="K-wheel (hub is the sink)")


def _load_graph(args: argparse.Namespace) -> MultiGraph:
    if args.graph is not None:
        with open(args.graph, encoding="utf-8") as fh:
            return MultiGraph.from_json(fh.read())
    if args.complete is not None:
        return MultiGraph.complete(args.complete)
    return MultiGraph.wheel(args.wheel)


def _named_config(args: argparse.Namespace) -> tuple:
    """The configuration, checked against the vertex count that --complete N
    or --wheel K names, without building the graph."""
    if args.complete is not None:
        n = _check_order(args.complete)
    else:
        n = _wheel_order(args.wheel)
    return _require_length(n, _parse_config(args.config))


def _load(args: argparse.Namespace) -> tuple:
    """The graph and the configuration, whose length is checked.  A named
    graph's dense matrix is built only after the configuration's length
    matches, so a short configuration on a huge N fails at once rather
    than out of memory."""
    if args.graph is not None:
        G = _load_graph(args)
        return G, _require_length(G.n, _parse_config(args.config))
    f = _named_config(args)
    return _load_graph(args), f


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _cmd_config(args: argparse.Namespace) -> int:
    """stabilize, parking, recurrent and effective: one graph, one
    configuration, one JSON payload."""
    _emit(args.compute(*_load(args)))
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    method = args.method
    if args.complete is not None and method != "bruteforce":
        # the formula and greedy read f alone, so K_N is never built: its
        # matrix would cost O(N^2) against the rank's O(N)
        f = _named_config(args)
        if method == "auto":
            method = "formula"
    else:
        G, f = _load(args)
        if method == "auto":
            method = "formula" if G.is_complete() else "bruteforce"
        elif method in ("formula", "greedy") and not G.is_complete():
            raise ValueError(f"method {method!r} only applies to complete graphs")
    if args.count_ops and method != "formula":
        raise ValueError("--count-ops only applies to the formula method")
    out: dict = {"method": method, "degree": sum(f)}
    if method == "formula":
        if args.count_ops:
            out["rank"], out["ops"] = complete.rank_formula(f, count_ops=True)
        else:
            out["rank"] = complete.rank_formula(f)
    elif method == "greedy":
        out["rank"] = complete.rank_greedy(f)
    else:
        result = rank.rank_bruteforce(G, f)
        out["rank"] = result.rank
        out["witness"] = list(result.witness)
    out["wall_ms"] = round((time.perf_counter() - args.t0) * 1000, 3)
    _emit(out)
    return 0


def _cmd_rr_check(args: argparse.Namespace) -> int:
    rr = rank.riemann_roch_data(*_load(args))
    _emit(rr._asdict())
    return 0 if rr.holds else 1


def _cmd_tutte_counts(args: argparse.Namespace) -> int:
    G = _load_graph(args)
    # from degree g = m - n + 1 on every class is effective, so the count at
    # g is T(1, 1), the spanning trees; a negative degree is left to refuse
    d, g = args.max_degree, G.m - G.n + 1
    counts = dynamics.effective_class_counts(G, max(d, g) if d >= 0 else d)
    trees = counts[g]
    counts = {k: c for k, c in counts.items() if k <= d}
    if args.format == "csv":
        print("degree,count")
        for k in sorted(counts):
            print(f"{k},{counts[k]}")
    else:
        _emit({"counts": {str(k): c for k, c in counts.items()},
               "spanning_trees": trees})
    return 0


def _cmd_dyck_stats(args: argparse.Namespace) -> int:
    word = args.word
    wd = dyck._dn(word)
    w0 = wd[:-1]
    _emit(
        {
            "word": word,
            "heights": list(dyck.heights(w0)),
            "coheights": list(dyck.coheights(wd)),
            "area": dyck.area(w0),
            "prerank": dyck.prerank(wd),
            "dinv": dyck.dinv(wd),
            "cdinv": dyck.cdinv(wd),
            "phi": dyck.phi_involution(word),
            "zeta": dyck.zeta_haglund(w0),
        }
    )
    return 0


def _cmd_strip_leftright(args: argparse.Namespace) -> int:
    left, right = strip.left_right(args.word, args.s)
    _emit(
        {
            "word": args.word,
            "s": args.s,
            "left": left,
            "right": right,
            "lastright": strip.lastright(args.word),
        }
    )
    return 0


def _cmd_genfun_ln(args: argparse.Namespace) -> int:
    if args.format == "csv":
        table = strip.kn_degree_rank_table(args.n, args.lo, args.hi)
        print("degree,rank,count")
        for (deg, rk), c in sorted(table.items()):
            print(f"{deg},{rk},{c}")
        return 0
    if args.trunc is None:
        args.usage_error(f"--format {args.format} needs --trunc")
    series = strip.Ln_direct(args.n, args.trunc)
    if args.format == "text":
        print(series.to_text())
    else:
        _emit({"n": args.n, "trunc": args.trunc, "coeffs": series.to_json_dict()})
    return 0


def _cmd_genfun_identity(args: argparse.Namespace) -> int:
    ok = strip.LnC_identity_check(args.max_n, args.trunc)
    _emit({"max_n": args.max_n, "trunc": args.trunc, "holds": ok})
    return 0 if ok else 1


def _cmd_verify_all(args: argparse.Namespace) -> int:
    results = acceptance.run_all(args.seed)
    width = max(len(name) for name, _, _, _ in results)
    failures = 0
    for name, ok, detail, secs in results:
        status = "PASS" if ok else "FAIL"
        failures += not ok
        print(f"{status}  {name:<{width}}  ({secs:6.2f}s)  {detail}")
    print(f"{len(results) - failures}/{len(results)} checks passed")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiprank",
        description="Chip-firing, parking configurations, and divisor ranks "
        "on multigraphs, in exact integer arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config_help = "chip counts: inline, @file, or -; a negative first entry as --config=-1,2,3"

    # each library function is looked up when the command runs, so a wrapper
    # or stand-in installed on its module is the one called
    for name, blurb, compute in (
        ("stabilize", "topple until every non-sink vertex is stable",
         lambda G, f: dict(zip(("stable", "odometer"),
                               map(list, dynamics.stabilize(G, f))))),
        ("parking", "parking representative of the configuration's class",
         lambda G, f: {"parking": list(dynamics.parking_representative(G, f))}),
        ("recurrent", "recurrent representative of the configuration's class",
         lambda G, f: {"recurrent": list(dynamics.recurrent_representative(G, f))}),
        ("effective", "does the class contain a nonnegative configuration",
         lambda G, f: {"effective": dynamics.is_effective_class(G, f)}),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_graph_args(p)
        p.add_argument("--config", required=True, help=config_help)
        p.set_defaults(func=_cmd_config, compute=compute)

    p = sub.add_parser("rank", help="divisor rank of a configuration")
    _add_graph_args(p)
    p.add_argument("--config", required=True, help=config_help)
    p.add_argument(
        "--method",
        choices=("auto", "formula", "greedy", "bruteforce"),
        default="auto",
        help="formula/greedy need a complete graph; auto picks formula there "
        "(formula takes O(N) steps, greedy O(N * (rank + 1)))",
    )
    p.add_argument("--count-ops", action="store_true", help="report the operation count")
    p.set_defaults(func=_cmd_rank)

    p = sub.add_parser("rr-check", help="rank symmetry against the dual configuration")
    _add_graph_args(p)
    p.add_argument("--config", required=True, help=config_help)
    p.set_defaults(func=_cmd_rr_check)

    p = sub.add_parser("tutte-counts", help="effective class counts by degree")
    _add_graph_args(p)
    p.add_argument("--max-degree", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=_cmd_tutte_counts)

    p_dyck = sub.add_parser("dyck", help="lattice-word statistics")
    dyck_sub = p_dyck.add_subparsers(dest="dyck_command", required=True)
    p = dyck_sub.add_parser("stats", help="statistics and involution images of a word")
    p.add_argument("word")
    p.set_defaults(func=_cmd_dyck_stats)

    p_strip = sub.add_parser("strip", help="labelled-strip cell counts")
    strip_sub = p_strip.add_subparsers(dest="strip_command", required=True)
    p = strip_sub.add_parser("leftright", help="cells weakly left / strictly right of a label")
    p.add_argument("word")
    p.add_argument("s", type=int)
    p.set_defaults(func=_cmd_strip_leftright)

    p_gen = sub.add_parser("genfun", help="truncated generating series")
    gen_sub = p_gen.add_subparsers(dest="genfun_command", required=True)
    p = gen_sub.add_parser("ln", help="two-variable series for a fixed n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trunc", type=int, help="total-degree truncation (json, text)")
    p.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p.add_argument("--lo", type=int, default=-5, help="lowest sink for --format csv")
    p.add_argument("--hi", type=int, default=15, help="highest sink for --format csv")
    p.set_defaults(func=_cmd_genfun_ln, usage_error=p.error)
    p = gen_sub.add_parser("identity", help="check the stacked-series identity")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--trunc", type=int, default=8)
    p.set_defaults(func=_cmd_genfun_identity)

    p_verify = sub.add_parser("verify", help="acceptance checks")
    verify_sub = p_verify.add_subparsers(dest="verify_command", required=True)
    p = verify_sub.add_parser("all", help="run every acceptance check")
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.set_defaults(func=_cmd_verify_all)

    return parser


# Built on the first call to ``main``: building it takes longer than a short
# command's own work, and parsing leaves it unchanged.
_parser = None


def main(argv=None) -> int:
    global _parser
    t0 = time.perf_counter()
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # the command's start, so rank's wall_ms covers parsing the arguments too
    args.t0 = t0
    try:
        return args.func(args)
    except (ValueError, AssertionError, OSError, OverflowError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its text is empty
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
