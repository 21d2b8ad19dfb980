"""Print chiprank's answers on a seeded corpus, one call after another.

    PYTHONPATH=src python tools/transcript.py --seed 1 > transcript.txt

The corpus is a few complete graphs, wheels and sink grids plus random
multigraphs, each with random configurations: a stable one, one with debt,
one tall pile and zero.  On the small graphs the script calls every public
function of ``chiprank.dynamics`` and ``chiprank.rank`` and runs the CLI's
``stabilize``, ``parking``, ``recurrent``, ``effective``, ``rank``,
``rr-check`` and ``tutte-counts`` in-process.  The large ones (|Jac| past
10^5, too many classes to count or rank) get only the calls that run the
kernels once or a few times: stabilization, recurrence, parking and
effectiveness.  A class-count section then runs
``recurrent_level_counts``, ``effective_class_counts`` and ``tutte-counts``
on W30 and the 6 x 6 sink grid, whose Jacobians are too large to enumerate;
all three read T(1, y) off the same frontier DP.
A function call prints its value or the exception it raised; a command
prints its exit code, stdout and stderr, with the one timing field, rank's
``wall_ms``, masked.

A constructor section feeds every graph constructor (the matrix,
``from_edges``, ``from_json``, ``complete`` and ``wheel``) valid input, with
repeated, reversed and zero pairs, and malformed input, with one fault or
several, and prints what each graph reads back or the error that wins.

A K_n section calls the public functions of ``chiprank.complete`` that take
configurations or words (``rank_formula``, with and without its operation
count, ``rank_formula_details``, ``rank_greedy``, ``parking_via_cyclic_lemma``,
``t_operator`` both ways and ``theta_iterate``) on seeded configurations of
K_1 .. K_13, some malformed.  A section runs the CLI's ``dyck stats``,
``strip leftright`` and ``genfun ln --format csv`` on seeded words, thresholds
and sink windows, some malformed.  A word section calls the statistics and
maps of ``chiprank.dyck`` (``area``, ``heights``, ``delta``, ``prerank``,
``dinv``, ``cdinv``, ``coheights``, ``cyclic_factorization``, ``theta``,
``phi_involution``, ``zeta_haglund``, ``r_map``, ``to_dn_word`` and
``to_dyck_word``) on seeded words with up to 14 b's and malformed ones, and
``chiprank.strip.carlitz_catalan`` on small truncation orders, the ones
where the area bound drops words included, and on malformed orders.  An
orientation section builds orientations, some refused.  The last section
runs the series of ``chiprank.strip``: ``Ln_direct`` and ``Ln_via_toxy``
for n <= 7 and truncations 0..8, ``LnC_identity_check``,
``Kn_bistatistic_check``, the inverse of seeded series in 1..3 variables
with constant term +1 or -1 and its products, the refusals of each (a
non-unit among them), and the CLI's ``genfun ln`` in json and text and
``genfun identity``.

Everything is drawn from the seed alone, so two checkouts run on the same
seed print the same transcript exactly when they give the same answers:

    PYTHONPATH=src python tools/transcript.py --seed 1 > new.txt
    PYTHONPATH=../old/src python tools/transcript.py --seed 1 > old.txt
    diff old.txt new.txt
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import sys
import tempfile

from chiprank import cli, complete, dyck, dynamics, rank, strip
from chiprank.graphs import MultiGraph
from chiprank.series import TruncatedSeries

_WALL_MS = re.compile(r'"wall_ms": [0-9.e+-]+')


def sink_grid(side: int) -> MultiGraph:
    """side x side grid whose boundary edges all lead to one sink."""
    return MultiGraph.from_edges(*sink_grid_edges(side))


def sink_grid_edges(side: int) -> tuple:
    """``(n, edges)`` of ``sink_grid(side)``, each corner's sink pair
    listed twice."""
    sink = side * side + 1
    edges = []
    for r in range(side):
        for c in range(side):
            i = r * side + c + 1
            edges.append((i, i + 1) if c + 1 < side else (i, sink))
            edges.append((i, i + side) if r + 1 < side else (i, sink))
            if c == 0:
                edges.append((i, sink))
            if r == 0:
                edges.append((i, sink))
    return sink, edges


def random_multigraph(rng: random.Random) -> MultiGraph:
    """A connected multigraph on 3..6 vertices, multiplicities up to 2."""
    while True:
        n = rng.randint(3, 6)
        edges = [(i, j, rng.randint(0, 2))
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        try:
            return MultiGraph.from_edges(n, edges)
        except ValueError:  # disconnected
            continue


def corpus(rng: random.Random) -> list:
    """``(name, graph, named_flag, small, configurations)``; ``named_flag``
    is the CLI's ``--complete N`` or ``--wheel K`` for a named graph, else
    None."""
    graphs = [("K3", MultiGraph.complete(3), ["--complete", "3"], True),
              ("K5", MultiGraph.complete(5), ["--complete", "5"], True),
              ("W4", MultiGraph.wheel(4), ["--wheel", "4"], True),
              ("W6", MultiGraph.wheel(6), ["--wheel", "6"], True),
              ("grid2", sink_grid(2), None, True),
              ("K12", MultiGraph.complete(12), ["--complete", "12"], False),
              ("W20", MultiGraph.wheel(20), ["--wheel", "20"], False),
              ("grid6", sink_grid(6), None, False)]
    graphs += [(f"random{k}", random_multigraph(rng), None, True) for k in range(3)]
    out = []
    for name, G, flag, small in graphs:
        degs = G.degrees
        stable = tuple(rng.randrange(d) for d in degs[:-1]) + (rng.randint(-3, 3),)
        debt = tuple(rng.randint(-3, 2 * d) for d in degs)
        pile = [0] * G.n
        pile[rng.randrange(G.n - 1)] = rng.randint(10, 60) if small else rng.randint(10**3, 10**5)
        out.append((name, G, flag, small, [stable, debt, tuple(pile), (0,) * G.n]))
    return out


# per configuration: what runs the kernels a few times, then the rest
KERNEL_CALLS = (dynamics.is_stable, dynamics.stabilize, dynamics.is_recurrent_burning,
                dynamics.is_parking, dynamics.beta, dynamics.parking_representative,
                dynamics.recurrent_representative, dynamics.is_effective_class)
EXHAUSTIVE_CALLS = (dynamics.is_recurrent_subsets, dynamics.acyclic_orientation_from_parking,
                    rank.canonical_class_key, rank.rank_bruteforce, rank.kappa_dual,
                    rank.riemann_roch_data, rank.riemann_roch_check, rank.rank_bounds_check)
KERNEL_COMMANDS = ("stabilize", "parking", "recurrent", "effective")
EXHAUSTIVE_COMMANDS = ("rank", "rr-check")


def show(label: str, fn, *args) -> None:
    try:
        value = fn(*args)
    except Exception as exc:  # an error is one of the answers compared
        print(f"{label} !! {type(exc).__name__}: {exc}")
    else:
        print(f"{label} -> {value!r}")


def library(name: str, G: MultiGraph, small: bool, configs: list) -> None:
    print(f"== {name}: {G!r} {G.to_json()}")
    show("kappa", rank.kappa, G)
    if small:
        show("recurrent_level_counts", dynamics.recurrent_level_counts, G)
        show("effective_class_counts(4)", dynamics.effective_class_counts, G, 4)
    for f in configs:
        print(f"-- f = {f}")
        for fn in KERNEL_CALLS + (EXHAUSTIVE_CALLS if small else ()):
            show(fn.__name__, fn, G, f)
        if not small:
            continue
        show("is_parking(subsets)", dynamics.is_parking, G, f, "subsets")
        show("orientation of the parking representative", orientation, G, f)


def orientation(G: MultiGraph, f: tuple) -> tuple:
    """The acyclic orientation peeled from f's parking representative,
    whether it is acyclic, and its configuration."""
    o = dynamics.acyclic_orientation_from_parking(G, dynamics.parking_representative(G, f))
    return o, o.is_acyclic(), dynamics.orientation_configuration(o)


def run_cli(shown: list, argv: list) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    stdout = _WALL_MS.sub('"wall_ms": "-"', out.getvalue())
    print(f"$ chiprank {' '.join(shown)} -> exit {code}")
    print(f"  stdout: {stdout!r}")
    print(f"  stderr: {err.getvalue()!r}")


def commands(name: str, G: MultiGraph, flag, small: bool, configs: list,
             workdir: str) -> None:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(G.to_json())
    sources = [(["--graph", path], ["--graph", f"{name}.json"])]
    if flag is not None:
        sources.append((flag, flag))
    texts = ["--config=" + ",".join(map(str, f)) for f in configs]
    texts += ["--config=" + ",".join(map(str, configs[0][:-1])), "--config=1,x"]
    for argv, shown in sources:
        if small:
            run_cli(["tutte-counts", *shown, "--max-degree", "4"],
                    ["tutte-counts", *argv, "--max-degree", "4"])
        for text in texts:
            for cmd in KERNEL_COMMANDS + (EXHAUSTIVE_COMMANDS if small else ()):
                run_cli([cmd, *shown, text], [cmd, *argv, text])
    if flag is not None and flag[0] == "--complete":
        for method in ("formula", "greedy", "bruteforce"):
            argv = ["rank", *flag, texts[1], "--method", method]
            run_cli(argv, argv)


def class_counts(workdir: str) -> None:
    """The class counters on graphs with |Jac| past 10^7, through the library
    and through ``tutte-counts`` up to degree g + 1."""
    for name, G, flag in (("W30", MultiGraph.wheel(30), ["--wheel", "30"]),
                          ("grid6", sink_grid(6), None)):
        print(f"== class counts on {name}: {G!r}")
        top = G.m - G.n + 2
        show("recurrent_level_counts", dynamics.recurrent_level_counts, G)
        show(f"effective_class_counts({top})", dynamics.effective_class_counts, G, top)
        if flag is None:
            path = os.path.join(workdir, f"{name}-counts.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(G.to_json())
            argv, shown = ["--graph", path], ["--graph", f"{name}-counts.json"]
        else:
            argv = shown = flag
        run_cli(["tutte-counts", *shown, "--max-degree", str(top)],
                ["tutte-counts", *argv, "--max-degree", str(top)])


def readback(build, *args) -> tuple:
    """What a graph built by ``build(*args)`` reads back."""
    G = build(*args)
    vertices = range(1, G.n + 1)
    matrix = tuple(tuple(G.multiplicity(i, j) for j in vertices) for i in vertices)
    return (G.to_json(), G.degrees, G.m, G.is_complete(), G.spanning_tree_count(),
            matrix)


def random_edges(rng: random.Random) -> tuple:
    """``(n, edges)``: 2..6 vertices, pairs drawn with repeats, either way
    round, with multiplicity 0..2 or none given; may be disconnected."""
    n = rng.randint(2, 6)
    edges = []
    for _ in range(rng.randint(1, 3 * n)):
        i, j = rng.sample(range(1, n + 1), 2)
        edges.append([i, j] if rng.random() < 0.3 else [i, j, rng.randint(0, 2)])
    return n, edges


def dense(n: int, edges: list) -> list:
    """The multiplicity matrix of a 1-based edge list."""
    mult = [[0] * n for _ in range(n)]
    for i, j, *e in edges:
        mult[i - 1][j - 1] += e[0] if e else 1
        mult[j - 1][i - 1] += e[0] if e else 1
    return mult


MATRICES = {
    "K1": [[0]],
    "zero-padded path": [[0, 2, 0], [2, 0, 1], [0, 1, 0]],
    "empty": [],
    "non-square": [[0, 1], [1]],
    "too many rows": [[0, 1], [1, 0], [0, 0]],
    "self-loop": [[1, 1], [1, 0]],
    "negative": [[0, -1], [-1, 0]],
    "asymmetric": [[0, 1], [2, 0]],
    "disconnected": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]],
    "float": [[0, 1.5], [1.5, 0]],
    "self-loop, negative and asymmetric": [[1, -1], [2, 0]],
    "negative and asymmetric": [[0, -1], [2, 0]],
    "short row reached by the symmetry check": [[0, 1, 0], [1, 0, 1], [0]],
    "float and non-square": [[0, 2.5], [1]],
    "asymmetric and disconnected": [[0, 1, 0], [0, 0, 0], [0, 0, 0]],
}
EDGE_LISTS = {
    "repeated, reversed and zero pairs": (3, [(1, 2), (2, 1), (2, 3, 2), (3, 2, 0), (1, 3, 0)]),
    "K1": (1, []),
    "no vertices": (0, []),
    "endpoint out of range, n = 0": (0, [(1, 2)]),
    "endpoint out of range, n = -2": (-2, [(1, -1)]),
    "endpoint out of range": (3, [(1, 4)]),
    "self-loop": (3, [(1, 2), (2, 2)]),
    "negative": (3, [(1, 2, -1)]),
    "bad entry": (3, [(1, 2, 3, 4)]),
    "disconnected": (4, [(1, 2), (3, 4)]),
    "only zero pairs": (2, [(1, 2, 0)]),
    "float multiplicity": (3, [(1, 2), (2, 3, 1.5)]),
    "float vertex count": (2.0, [(1, 2)]),
    "self-loop before out of range": (2, [(1, 1), (1, 5), (1, 2, -1)]),
    "out of range before self-loop": (0, [(0, 0, -1)]),
    "negative before float": (3, [(1, 2, -1), (2, 3, 0.5)]),
    "zero pair, then a self-loop": (3, [(1, 2, 0), (3, 3)]),
}
JSON_TEXTS = {
    "missing edges": '{"n": 2}',
    "not an object": "[1, 2]",
    "edges not a list": '{"n": 2, "edges": 5}',
    "float n": '{"n": 2.5, "edges": []}',
    "float multiplicity": '{"n": 3, "edges": [[1, 2], [2, 3, 2.0]]}',
    "not JSON": "{n: 2}",
}


def constructors(rng: random.Random) -> None:
    """Every constructor on the fixed inputs above, then on a few seeded
    random edge lists and their matrices."""
    print("== constructors")
    for name, mult in MATRICES.items():
        show(f"MultiGraph({name})", readback, MultiGraph, mult)
    for name, (n, edges) in EDGE_LISTS.items():
        show(f"from_edges({name})", readback, MultiGraph.from_edges, n, edges)
        text = json.dumps({"n": n, "edges": edges})
        show(f"from_json({name})", readback, MultiGraph.from_json, text)
    for name, text in JSON_TEXTS.items():
        show(f"from_json({name})", readback, MultiGraph.from_json, text)
    for n in (1, 2, 5, 0, -3, 2.5):
        show(f"complete({n!r})", readback, MultiGraph.complete, n)
    for k in (3, 5, 2, -1, "4"):
        show(f"wheel({k!r})", readback, MultiGraph.wheel, k)
    n, edges = sink_grid_edges(3)
    show("from_edges(grid3)", readback, MultiGraph.from_edges, n, edges)
    show("MultiGraph(grid3)", readback, MultiGraph, dense(n, edges))
    for k in range(6):
        n, edges = random_edges(rng)
        print(f"-- random edges {k}: n = {n}, {edges}")
        show("from_edges", readback, MultiGraph.from_edges, n, edges)
        show("from_json", readback, MultiGraph.from_json, {"n": n, "edges": edges})
        show("MultiGraph", readback, MultiGraph, dense(n, edges))


def kn_configs(rng: random.Random, n: int) -> list:
    """Configurations on K_n: small entries, debt, a tall sink over small
    entries, then huge entries.  Only the first three have a rank small
    enough for ``rank_greedy``, which steps once per unit of rank."""
    return [tuple(rng.randint(0, n) for _ in range(n)),
            tuple(rng.randint(-2 * n, n) for _ in range(n)),
            tuple(rng.randint(-1, 2) for _ in range(n - 1)) + (rng.randint(n, 5 * n),),
            tuple(rng.randint(-10**12, 10**12) for _ in range(n))]


def kn_functions(rng: random.Random) -> None:
    """``chiprank.complete`` on seeded configurations and words of K_n."""
    print("== complete")
    for n in (1, 2, 3, 5, 8, 13):
        for t, f in enumerate(kn_configs(rng, n)):
            print(f"-- K{n}, f = {f}")
            show("rank_formula", complete.rank_formula, f)
            show("rank_formula(count_ops)", complete.rank_formula, f, True)
            show("rank_formula_details", complete.rank_formula_details, f)
            if t < 3:
                show("rank_greedy", complete.rank_greedy, f)
            show("parking_via_cyclic_lemma", complete.parking_via_cyclic_lemma, f)
            show("t_operator", complete.t_operator, f)
            (word, sink), _ = complete.parking_via_cyclic_lemma(f)
            k = rng.randint(0, n + 1)
            show(f"theta_iterate({word!r}, {sink}, {k})", complete.theta_iterate, word, sink, k)
        base = rng.randint(-n, n)
        body = sorted(rng.randint(base, base + n) for _ in range(n - 1))
        f = tuple(body) + (rng.randint(-n, n),)
        print(f"-- K{n}, compact sorted f = {f}")
        show("t_operator", complete.t_operator, f)
        show("t_operator(inverse)", complete.t_operator, f, True)
    print("-- malformed")
    for f in ((), (1.5, 0), ("1", 0)):
        show(f"rank_formula({f!r})", complete.rank_formula, f)
        show(f"rank_greedy({f!r})", complete.rank_greedy, f)
        show(f"parking_via_cyclic_lemma({f!r})", complete.parking_via_cyclic_lemma, f)
    for args in (("ab", 0, 1), ("b", 3, 1), ("b", 3, 0), ("abb", 0, -1), ("abb", 0, 1.5),
                 ("abb", 0.5, 1), ("aXb", 0, 1)):
        show(f"theta_iterate{args!r}", complete.theta_iterate, *args)
    for f in ((4,), (0, 3, 1, 2), (0, 9, 1)):
        show(f"t_operator({f!r})", complete.t_operator, f)


def random_word(rng: random.Random, p: int) -> str:
    """A Dyck word of half-length p, drawn from all of them."""
    return rng.choice(list(dyck.dyck_words(p)))


def random_dn_word(rng: random.Random, n: int) -> str:
    """A word with n b's, n - 1 a's and no b-heavy strict prefix, drawn
    uniformly without listing them: shuffle the letters, then rotate past
    the first prefix of minimal height (the cycle lemma)."""
    letters = rng.sample("a" * (n - 1) + "b" * n, 2 * n - 1)
    h = low = cut = 0
    for pos, c in enumerate(letters):
        h += 1 if c == "a" else -1
        if h < low:
            low, cut = h, pos + 1
    return "".join(letters[cut:] + letters[:cut])


def word_commands(rng: random.Random) -> None:
    """The CLI's word and series commands on seeded words, thresholds and
    sink windows."""
    print("== word commands")
    words = [random_word(rng, p) for p in range(6)]
    words += [w + "b" for w in words[1:]]
    words += ["".join(rng.sample("aaabbb", 6)) for _ in range(3)]
    words += ["ba", "aXb", "ab "]
    for w in words:
        run_cli(["dyck", "stats", repr(w)], ["dyck", "stats", w])
        for s in (rng.randint(-5, 15), rng.randint(-50, 50)):
            run_cli(["strip", "leftright", repr(w), str(s)], ["strip", "leftright", w, str(s)])
    run_cli(["strip", "leftright", "'ab'", "1.5"], ["strip", "leftright", "ab", "1.5"])
    for n in (2, 3, 4, 5):
        lo = rng.randint(-8, 3)
        argv = ["genfun", "ln", "--n", str(n), "--format", "csv",
                "--lo", str(lo), "--hi", str(lo + rng.randint(-1, 12))]
        run_cli(argv, argv)
    for argv in (["genfun", "ln", "--n", "4", "--format", "csv"],
                 ["genfun", "ln", "--n", "1", "--format", "csv"],
                 ["genfun", "ln", "--n", "16", "--format", "csv"]):
        run_cli(argv, argv)


WORD_CALLS = (dyck.area, dyck.heights, dyck.delta, dyck.prerank, dyck.dinv, dyck.cdinv,
              dyck.coheights, dyck.cyclic_factorization, dyck.theta,
              dyck.phi_involution, dyck.zeta_haglund, dyck.r_map, dyck.to_dn_word,
              dyck.to_dyck_word)
MALFORMED_WORDS = ("", "b", "ba", "abba", "aabab", "bab", "aXb", "ab ", None, b"ab")
CARLITZ_ORDERS = ((0, 0), (0, 4), (3, 6), (8, 4), (5, 9), (2, 7), (6, 3),
                  (-1, 2), (2, -1), (1.5, 2), (2, "3"), (None, 1))


def series_terms(series) -> tuple:
    """A series' variables, truncation and every coefficient, in order."""
    return series.nvars, series.trunc, sorted(series.coeffs.items())


def word_functions(rng: random.Random) -> None:
    """The word statistics and maps on seeded balanced words with up to 13
    a's, their forms with the extra b, shuffled letters and malformed
    words; then the Carlitz series on fixed and seeded orders."""
    print("== word functions")
    words = [random_word(rng, p) for p in range(8)]
    words += [random_dn_word(rng, n)[:-1] for n in range(9, 15) for _ in range(2)]
    words += [w + "b" for w in words]
    words += ["".join(rng.sample("a" * p + "b" * (p + 1), 2 * p + 1)) for p in range(1, 7)]
    for w in words + list(MALFORMED_WORDS):
        print(f"-- w = {w!r}")
        for fn in WORD_CALLS:
            show(fn.__name__, fn, w)
    print("-- carlitz_catalan")
    orders = list(CARLITZ_ORDERS) + [(rng.randint(0, 12), rng.randint(0, 7)) for _ in range(3)]
    for t_q, t_z in orders:
        show(f"carlitz_catalan({t_q!r}, {t_z!r})",
             lambda a, b: series_terms(strip.carlitz_catalan(a, b)), t_q, t_z)


ORIENTATIONS = {
    "every edge oriented": {(1, 2): 2, (1, 3): 1, (2, 3): 2},
    "reversed pair": {(2, 1): 2, (1, 3): 1, (2, 3): 2},
    "head off its edge": {(1, 2): 3, (1, 3): 1, (2, 3): 2},
    "edge left out": {(1, 2): 2, (1, 3): 1},
    "float endpoint": {(1.0, 2): 2, (1, 3): 1, (2, 3): 2},
    "float head": {(1, 2): 2.0, (1, 3): 1, (2, 3): 2},
    "integer key": {1: 2},
    "bool endpoint": {(True, 2): 2, (1, 3): 1, (2, 3): 2},
    "bool head": {(1, 2): True, (1, 3): 1, (2, 3): 2},
}


def orientations() -> None:
    """``Orientation`` on K3 from valid and malformed head maps."""
    print("== orientations")
    K3 = MultiGraph.complete(3)
    for name, head in ORIENTATIONS.items():
        show(f"Orientation(K3, {name})", dynamics.Orientation, K3, head)


def random_unit(rng: random.Random, nvars: int, trunc: int, c0: int) -> TruncatedSeries:
    """A series in nvars variables truncated at trunc, with constant term
    c0 and up to six other seeded monomials, coefficients -3..3."""
    coeffs = {(0,) * nvars: c0}
    for _ in range(rng.randint(0, 6)):
        exps = [0] * nvars
        for _ in range(rng.randint(1, max(trunc, 1))):
            exps[rng.randrange(nvars)] += 1
        coeffs[tuple(exps)] = rng.randint(-3, 3)
    return TruncatedSeries(nvars, trunc, coeffs)


LN_REFUSALS = ((0, 3), (-2, 3), (3, -1), (1, -1), (2.5, 3), (3, "4"))
IDENTITY_ORDERS = ((1, 0), (1, 4), (2, 6), (3, 6), (4, 8), (5, 7), (0, 3), (3, -1), (2.0, 3))
BISTATISTIC_WINDOWS = ((1, (-5, 10)), (2, (-5, 15)), (3, (0, 0)), (4, (6, 2)), (0, (0, 3)),
                       (3, (1,)), (3, (1.5, 4)), (17, (0, 20)))


def series_functions(rng: random.Random) -> None:
    """The strip series on seeded sizes and truncations, the identity and
    bistatistic checks, series inverses and products, and the CLI's
    ``genfun ln`` in json and text and ``genfun identity``."""
    print("== series")
    sizes = [(n, rng.randint(0, 8)) for n in range(1, 8)] + [(n, 8) for n in range(2, 8)]
    for n, trunc in sizes + list(LN_REFUSALS):
        show(f"Ln_direct({n!r}, {trunc!r})",
             lambda a, b: series_terms(strip.Ln_direct(a, b)), n, trunc)
        show(f"Ln_via_toxy({n!r}, {trunc!r})",
             lambda a, b: series_terms(strip.Ln_via_toxy(a, b)), n, trunc)
    # 35357670 words, past any word list (the boundary-word expansion alone
    # would build 2.2e9 words); the lattice-path DP sums them in about 50 ms
    show("Ln_direct(18, 40)", lambda a, b: series_terms(strip.Ln_direct(a, b)), 18, 40)
    for max_n, trunc in IDENTITY_ORDERS:
        show(f"LnC_identity_check({max_n!r}, {trunc!r})", strip.LnC_identity_check,
             max_n, trunc)
    windows = list(BISTATISTIC_WINDOWS)
    for n in range(1, 6):
        lo = rng.randint(-8, 3)
        windows.append((n, (lo, lo + rng.randint(-1, 20))))
    for n, window in windows:
        show(f"Kn_bistatistic_check({n!r}, {window!r})", strip.Kn_bistatistic_check,
             n, window)
    print("-- inverse and product")
    for nvars in (1, 2, 3):
        for c0 in (1, -1):
            for _ in range(3):
                trunc = rng.randint(0, 6)
                unit = random_unit(rng, nvars, trunc, c0)
                other = random_unit(rng, nvars, trunc, rng.randint(-2, 2))
                print(f"-- unit {series_terms(unit)}, other {series_terms(other)}")
                show("inverse", lambda u: series_terms(u.inverse()), unit)
                show("other * unit.inverse()",
                     lambda a, u: series_terms(a * u.inverse()), other, unit)
    one = TruncatedSeries(2, 4, {(0, 0): 1})
    for c0 in (0, 2, -2):
        unit = random_unit(rng, 2, 4, c0)
        show(f"inverse {series_terms(unit)}", lambda u: series_terms(u.inverse()), unit)
        show("one * it.inverse()", lambda u: series_terms(one * u.inverse()), unit)
    show("one * a series of another truncation",
         lambda: one * TruncatedSeries(2, 3, {(0, 0): 1}))
    show("one * a float", lambda: one * 1.0)
    print("-- genfun commands")
    for n in range(1, 6):
        for fmt in ("json", "text"):
            argv = ["genfun", "ln", "--n", str(n), "--trunc", str(rng.randint(0, 8)),
                    "--format", fmt]
            run_cli(argv, argv)
    for argv in (["genfun", "ln", "--n", "3", "--format", "json"],
                 ["genfun", "ln", "--n", "0", "--trunc", "3"],
                 ["genfun", "ln", "--n", "18", "--trunc", "4", "--format", "text"],
                 ["genfun", "identity"],
                 ["genfun", "identity", "--max-n", "5", "--trunc", "7"],
                 ["genfun", "identity", "--max-n", "0"],
                 ["genfun", "identity", "--max-n", "3", "--trunc", "-1"]):
        run_cli(argv, argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    with tempfile.TemporaryDirectory() as workdir:
        for name, G, flag, small, configs in corpus(rng):
            library(name, G, small, configs)
            commands(name, G, flag, small, configs, workdir)
        class_counts(workdir)
    constructors(rng)
    kn_functions(rng)
    word_commands(rng)
    word_functions(rng)
    orientations()
    series_functions(rng)
    return 0


if __name__ == "__main__":
    sys.exit(main())
