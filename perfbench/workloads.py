"""The benchmark's four workloads: seeded inputs, operations and oracles.

Inputs come only from this file and ``random.Random(seed)``, never from
chiprank, so one seed gives byte-identical inputs at every commit.  Each
workload has

* ``make(rng, tiny, workdir)``: the graphs (as multiplicity matrices) and
  the fixed op list of one pass;
* ``run(cr, op, graphs)``: one operation through chiprank's public API (or
  its CLI entry point), on graphs built fresh for the pass;
* ``check(cr, op, specs, out)``: an oracle that reaches the answer by another
  route; it returns an error message, or None when the output is right.

``cr`` is a namespace of the imported chiprank modules (see run.py).
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
from collections import deque
from fractions import Fraction
from typing import Callable, NamedTuple

# ---------- graph and word generators (the benchmark's own) ----------


def complete_matrix(n: int) -> list:
    return [[0 if i == j else 1 for j in range(n)] for i in range(n)]


def wheel_matrix(k: int) -> list:
    """k-cycle plus a hub joined to every rim vertex; the hub is last (sink)."""
    n = k + 1
    mult = [[0] * n for _ in range(n)]
    for i in range(k):
        j = (i + 1) % k
        mult[i][j] = mult[j][i] = 1
        mult[i][k] = mult[k][i] = 1
    return mult


def grid_matrix(k: int) -> list:
    """k x k square grid whose boundary edges all lead to one sink (last
    vertex), so every grid vertex has degree 4."""
    n = k * k + 1
    sink = n - 1
    mult = [[0] * n for _ in range(n)]
    for r in range(k):
        for c in range(k):
            i = r * k + c
            for rr, cc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if 0 <= rr < k and 0 <= cc < k:
                    mult[i][rr * k + cc] = 1
                else:
                    mult[i][sink] += 1
                    mult[sink][i] += 1
    return mult


def _connected(mult: list) -> bool:
    seen = {0}
    queue = deque([0])
    while queue:
        i = queue.popleft()
        for j, e in enumerate(mult[i]):
            if e and j not in seen:
                seen.add(j)
                queue.append(j)
    return len(seen) == len(mult)


def spanning_trees(mult: list) -> int:
    """Spanning-tree count: the determinant of the reduced Laplacian."""
    k = len(mult) - 1
    a = [[Fraction(sum(mult[i]) if i == j else -mult[i][j]) for j in range(k)]
         for i in range(k)]
    det = Fraction(1)
    for c in range(k):
        p = next((r for r in range(c, k) if a[r][c]), None)
        if p is None:
            return 0
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, k):
            q = a[r][c] / a[c][c]
            for j in range(c, k):
                a[r][j] -= q * a[c][j]
    return int(det)


def random_multigraph(n: int, rng, edges: int, trees: tuple, max_mult: int = 2) -> list:
    """The rank-symmetry acceptance check's generator (i.i.d. pair
    multiplicities in 0..max_mult, resampled until connected), also resampled
    until the graph has exactly ``edges`` edges and a spanning-tree count in
    ``trees``.  The brute-force rank's cost grows steeply with the edge
    count, and its cache misses with the number of toppling classes per
    degree, which is the spanning-tree count; fixing both keeps one seed's
    sweep as costly as another's."""
    while True:
        mult = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                mult[i][j] = mult[j][i] = rng.randint(0, max_mult)
        if (sum(map(sum, mult)) == 2 * edges and _connected(mult)
                and trees[0] <= spanning_trees(mult) <= trees[1]):
            return mult


def random_dn_word(n: int, rng) -> str:
    """Uniform word with n b's, n - 1 a's and no b-heavy strict prefix: shuffle
    the letters, then rotate past the first prefix of minimal height."""
    letters = list("a" * (n - 1) + "b" * n)
    rng.shuffle(letters)
    h = low = cut = 0
    for pos, c in enumerate(letters):
        h += 1 if c == "a" else -1
        if h < low:
            low, cut = h, pos + 1
    return "".join(letters[cut:] + letters[:cut])


def word_values(word: str) -> list:
    """Number of b's before each a (the parking values a word encodes)."""
    out, b = [], 0
    for c in word:
        if c == "a":
            out.append(b)
        else:
            b += 1
    return out


def log_spaced(rng, count: int, lo: float, hi: float) -> list:
    """``count`` sizes log-evenly spaced over [lo, hi] (the midpoints of equal
    strata of log-space), each moved by up to 1% at random: the sizes set
    the cost, so they stay put from seed to seed."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (i + 0.5) / count) * (1 + (rng.random() - 0.5) / 50)
            for i in range(count)]


def degree_schedule(n: int, count: int, lo: int = -3, hi: int = 3) -> list:
    """Degrees of ``count`` configurations with n i.i.d. entries in [lo, hi],
    taken at the quantiles (j + 1/2) / count of the degree's exact
    distribution.  The brute-force rank's cost grows steeply with the degree,
    so drawing each configuration conditioned on its scheduled degree keeps
    the sweep's cost from moving with the seed."""
    dist = {0: 1}
    for _ in range(n):
        nxt = {}
        for d, c in dist.items():
            for x in range(lo, hi + 1):
                nxt[d + x] = nxt.get(d + x, 0) + c
        dist = nxt
    total = (hi - lo + 1) ** n
    out = []
    it = iter(sorted(dist))
    d = next(it)
    acc = dist[d]
    for j in range(count):
        while acc * count < (j + 0.5) * total:
            d = next(it)
            acc += dist[d]
        out.append(d)
    return out


# ---------- independent helpers for the oracles ----------


def laplacian_apply(mult: list, f, odometer) -> tuple:
    """f minus the sum over vertices of odometer[i] times Laplacian row i."""
    n = len(mult)
    out = list(f)
    for i, q in enumerate(odometer):
        if q:
            row = mult[i]
            for j in range(n):
                out[j] += q * row[j]
            out[i] -= q * sum(row)
    return tuple(out)


def heights(w: str) -> list:
    out, h = [], 0
    for c in w:
        if c == "a":
            out.append(h)
            h += 1
        else:
            h -= 1
    return out


def dinv(w: str) -> int:
    eta = heights(w)
    return sum(
        1
        for i in range(len(eta))
        for j in range(i + 1, len(eta))
        if eta[j] in (eta[i], eta[i] - 1)
    )


def _effective(cr, mult: list, g) -> bool:
    """Effectiveness through the parking representative (kernels), not the
    rank engine's cached class keys."""
    return cr.dynamics.parking_representative(cr.graphs.MultiGraph(mult), g)[-1] >= 0


class Inputs(NamedTuple):
    graphs: dict  # key -> multiplicity matrix
    ops: list


class Workload(NamedTuple):
    name: str
    make: Callable
    run: Callable
    check: Callable


# ---------- rank-sweep ----------
#
# The rank-symmetry acceptance mix (K3, K4, W5 and random 5-vertex
# multigraphs with multiplicities <= 2, entries in [-3, 3]).  One op is one
# rank_bruteforce on f and one on kappa - f, the two ranks that
# riemann_roch_check compares.  Dominated by the rank engine: class keys, the
# effectiveness cache and the removal-pattern search.


def make_rank_sweep(rng, tiny, workdir) -> Inputs:
    graphs = {"K3": complete_matrix(3), "K4": complete_matrix(4), "W5": wheel_matrix(5)}
    randoms = 2 if tiny else 8
    for i in range(randoms):
        graphs[f"R{i}"] = random_multigraph(5, rng, edges=10, trees=(75, 90))
    per_graph = 3 if tiny else 25
    ops = []
    for key, mult in graphs.items():
        for d in degree_schedule(len(mult), per_graph):
            while True:
                f = tuple(rng.randint(-3, 3) for _ in mult)
                if sum(f) == d:
                    break
            ops.append((key, f))
    return Inputs(graphs, ops)


def run_rank_sweep(cr, op, graphs):
    key, f = op
    G = graphs[key]
    r = cr.rank.rank_bruteforce(G, f)
    d = cr.rank.rank_bruteforce(G, cr.rank.kappa_dual(G, f))
    return (r.rank, tuple(r.witness), d.rank, tuple(d.witness))


def check_rank_sweep(cr, op, specs, out):
    key, f = op
    mult = specs[key]
    n = len(mult)
    degs = [sum(row) for row in mult]
    m = sum(degs) // 2
    dual = tuple(d - 2 - x for d, x in zip(degs, f))
    rank_f, wit_f, rank_d, wit_d = out
    if rank_f - rank_d != sum(f) + n - m:
        return f"rank symmetry fails: {rank_f} - {rank_d} != {sum(f) + n - m}"
    if key in ("K3", "K4"):
        expect = (cr.complete.rank_formula(f), cr.complete.rank_formula(dual))
        if (rank_f, rank_d) != expect:
            return f"ranks {(rank_f, rank_d)} != closed formula {expect}"
    for cfg, rk, wit in ((f, rank_f, wit_f), (dual, rank_d, wit_d)):
        if len(wit) != n or min(wit) < 0 or sum(wit) != rk + 1:
            return f"witness {wit} is not effective of degree {rk + 1}"
        if _effective(cr, mult, tuple(x - y for x, y in zip(cfg, wit))):
            return f"{cfg} minus witness {wit} is still effective"
    return None


# ---------- kn-cli ----------
#
# ``chiprank rank --complete N --config @file`` through cli.main in process,
# the paper's O(n) rank as a user runs it.  N runs log-evenly from 200 to
# 1000, with groups of alike sizes at the median and 90th percentile;
# configurations are shuffled parking values plus a random sink (the
# linear-scaling acceptance check's generator).  Dominated by building the
# dense K_N and is_complete(), not by the formula.


def make_kn_cli(rng, tiny, workdir) -> Inputs:
    count = 3 if tiny else 20
    lo, hi = (20, 60) if tiny else (200, 1000)
    sizes = log_spaced(rng, count, lo, hi)
    if not tiny:
        # The median and 90th-percentile ops (the 10th and 18th of 20) each
        # sit amid alike ops, so that each percentile is the median of a few
        # ops' best times, not one op's, whose best of eight or so passes
        # still moves by a fifth with the machine's load.
        for a, b in ((7, 12), (16, 19)):
            sizes[a:b] = [sizes[(a + b) // 2] * (1 + (rng.random() - 0.5) / 50)
                          for _ in range(b - a)]
    sizes = [round(x) for x in sizes]
    rng.shuffle(sizes)
    ops = []
    for i, n in enumerate(sizes):
        values = word_values(random_dn_word(n, rng))
        rng.shuffle(values)
        f = tuple(values) + (rng.randint(-3, 3 * n),)
        path = workdir / f"config-{i}.txt"
        path.write_text(",".join(map(str, f)) + "\n", encoding="utf-8")
        ops.append((n, "@" + str(path), f))
    return Inputs({}, ops)


def run_kn_cli(cr, op, graphs):
    n, config, _ = op
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cr.cli.main(["rank", "--complete", str(n), "--config", config])
    payload = json.loads(buf.getvalue())
    payload.pop("wall_ms", None)  # a timing, different on every pass
    return code, payload


def check_kn_cli(cr, op, specs, out):
    n, _, f = op
    code, payload = out
    if code != 0:
        return f"exit code {code}"
    greedy = cr.complete.rank_greedy(f)
    if payload.get("rank") != greedy or payload.get("degree") != sum(f):
        return f"printed {payload}, greedy rank {greedy}, degree {sum(f)}"
    return None


# ---------- sandpile ----------
#
# The dynamics API on mid-size graphs: stabilizing large piles on square
# grids and wheels, parking / recurrent representatives of random
# configurations and of deep debts (up to 1e5), and effective
# class counts on W6, W7 and K6.  Dominated by the kernels, through a few
# heavy calls instead of the rank sweep's many tiny ones.

# Four graphs of distinct sizes, 20 random configurations each: the median op
# then sits inside one graph's group rather than on the edge between two.
_SMALL_GRAPHS = ("K3", "W5", "W8", "W12")


def make_sandpile(rng, tiny, workdir) -> Inputs:
    # The sizes that set an op's cost (pile totals, debt depths) are fixed
    # up to 1%, so that seeds compare; the seed places the piles and debts
    # and draws the small entries and the random configurations.
    graphs = {"K3": complete_matrix(3), "K6": complete_matrix(6)}
    for k in (5, 6, 7, 8, 12):
        graphs[f"W{k}"] = wheel_matrix(k)
    side = 4 if tiny else 8
    graphs["G"] = grid_matrix(side)

    def jitter(x):
        return x + rng.randint(-(x // 100), x // 100)

    ops = []
    # Piles on one of the four centre cells: the work grows with the pile's
    # distance from the boundary, so a free position would set the cost.
    # Eight alike piles also give the 90th percentile a cluster to sit in.
    for _ in range(2 if tiny else 8):
        f = [0] * (side * side + 1)
        row, col = side // 2 - rng.randint(0, 1), side // 2 - rng.randint(0, 1)
        f[row * side + col] = jitter(2_000)
        ops.append(("stabilize", "G", tuple(f)))
    for key in ("W5",) if tiny else ("W5", "W8", "W12"):
        n = len(graphs[key])
        f = [rng.randint(0, 3) for _ in range(n)]
        for _ in range(3):
            f[rng.randrange(n - 1)] += jitter(50_000)
        ops.append(("stabilize", key, tuple(f)))
    for i in range(4 if tiny else 80):
        key = _SMALL_GRAPHS[i % len(_SMALL_GRAPHS)]
        f = tuple(rng.randint(-10, 25) for _ in graphs[key])
        ops.append(("parking" if i % 2 == 0 else "recurrent", key, f))
    # A recurrent representative is the complement of the parking one of the
    # complement, so its deep case is a deep surplus, whose complement
    # carries the debt.  (With the debt on f itself the cost swings between
    # O(1) and O(debt) with the small entries.)
    deep = (("K3", "parking", 2_000),) if tiny else (
        ("K3", "parking", 100_000), ("K3", "recurrent", 20_000),
        ("W5", "parking", 50_000), ("W5", "recurrent", 10_000),
        ("W6", "parking", 20_000), ("W6", "recurrent", 50_000))
    for key, kind, depth in deep:
        n = len(graphs[key])
        debt = jitter(depth) * (1 if kind == "parking" else -1)
        f = [rng.randint(0, 3) for _ in range(n)]
        f[rng.randrange(n - 1)] -= debt
        f[-1] += debt
        ops.append((kind, key, tuple(f)))
    for key in ("W6",) if tiny else ("W6", "W7", "K6"):
        ops.append(("class_counts", key, None))
    return Inputs(graphs, ops)


def run_sandpile(cr, op, graphs):
    kind, key, f = op
    G = graphs[key]
    if kind == "stabilize":
        return cr.dynamics.stabilize(G, f)
    if kind == "parking":
        return cr.dynamics.parking_representative(G, f)
    if kind == "recurrent":
        return cr.dynamics.recurrent_representative(G, f)
    return cr.dynamics.effective_class_counts(G, G.m - G.n + 3)


def _kn_parking(cr, f):
    return tuple(cr.complete.parking_via_cyclic_lemma(f)[1])


def check_sandpile(cr, op, specs, out):
    kind, key, f = op
    mult = specs[key]
    n = len(mult)
    degs = [sum(row) for row in mult]
    G = cr.graphs.MultiGraph(mult)
    if kind == "stabilize":
        stable, odo = out
        if min(odo) < 0 or odo[-1] != 0:
            return f"odometer {odo} is negative or fires the sink"
        if any(not 0 <= stable[i] < degs[i] for i in range(n - 1)):
            return "output is not stable"
        if tuple(stable) != laplacian_apply(mult, f, odo):
            return "stable output != f - sum(odometer_i * L_i)"
        return None
    if kind == "class_counts":
        trees = G.spanning_tree_count()
        m = sum(degs) // 2
        if sorted(out) != list(range(m - n + 4)):
            return f"degrees {sorted(out)} != 0..{m - n + 3}"
        if out[0] != 1:
            return f"{out[0]} effective classes of degree 0, not just the zero class"
        if any(out[d] != trees for d in range(m - n + 1, m - n + 4)):
            return f"counts {out} do not reach {trees} spanning trees"
        if any(out[d] > out[d + 1] for d in range(m - n + 3)):
            return f"counts {out} decrease with the degree"
        return None
    if len(out) != n or any(not 0 <= out[i] < degs[i] for i in range(n - 1)):
        return f"{kind} output {out} is not reduced off the sink"
    if cr.rank.canonical_class_key(G, out) != cr.rank.canonical_class_key(G, f):
        return f"{kind} output left the toppling class of the input"
    if key.startswith("K"):
        if kind == "parking":
            expect = _kn_parking(cr, f)
        else:
            flip = tuple(d - 1 - x for d, x in zip(degs, f))
            expect = tuple(d - 1 - x for d, x in zip(degs, _kn_parking(cr, flip)))
        if tuple(out) != expect:
            return f"{kind} output {out} != cyclic-lemma answer {expect}"
    return None


def sandpile_parity(cr, inputs) -> list:
    """Pure vs compiled kernels on every configuration of the op list;
    returns the mismatches (empty when the compiled extension is missing)."""
    try:
        compiled = importlib.import_module("chiprank._kernels")
    except ImportError:
        return []
    pure = importlib.import_module("chiprank._pykernels")
    bad = []
    for kind, key, f in inputs.ops:
        if f is None:
            continue
        n, degs, flat = cr.graphs.MultiGraph(inputs.graphs[key]).flat()
        for fn in ("stabilize", "burning_test", "parking_reduce"):
            want_cfg, got_cfg = list(f), list(f)
            want = getattr(pure, fn)(n, degs, flat, want_cfg)
            try:
                got = getattr(compiled, fn)(n, degs, flat, got_cfg)
            except OverflowError:
                continue  # too large for machine integers: the pure kernel runs
            if (got, got_cfg) != (want, want_cfg):
                bad.append(f"{fn} differs on {key} {f}")
    return bad


# ---------- genfun ----------
#
# Generating-function and Dyck-word checks: the stacked-series identity,
# Ln_direct alongside Ln_via_toxy, the area-Catalan series, the K_n
# bistatistic check, and Dyck statistics of seeded random words.  Runs in
# strip, series and dyck only; no graph or kernel calls.


def make_genfun(rng, tiny, workdir) -> Inputs:
    # The series checks take only sizes, fixed here so that seeds compare;
    # the seed draws the bistatistic windows and the Dyck words (lengths
    # 6..14 in turn).  The words are many, so that the 90th percentile,
    # which falls among the longest words, is a quantile of 28 of them
    # rather than the steep top of a handful: the words' costs hang on the
    # seed.
    ops = [("identity", 3, 6) if tiny else ("identity", 4, 8)]
    for n in (3, 4) if tiny else (3, 4, 5, 6):
        ops.append(("ln", n, 8))
    for tq, tz in ((3, 3),) if tiny else ((16, 5), (19, 6)):
        ops.append(("carlitz", tq, tz))
    for n in (4,) if tiny else (5, 6):
        lo = rng.randint(-8, 0)
        ops.append(("bistatistic", n, (lo, lo + 20)))
    for i in range(6 if tiny else 252):
        ops.append(("dyck", random_dn_word(6 + i % 9, rng), None))
    return Inputs({}, ops)


def run_genfun(cr, op, graphs):
    kind, a, b = op
    if kind == "identity":
        return cr.strip.LnC_identity_check(a, b)
    if kind == "ln":
        return cr.strip.Ln_direct(a, b), cr.strip.Ln_via_toxy(a, b)
    if kind == "carlitz":
        return cr.strip.carlitz_catalan(a, b)
    if kind == "bistatistic":
        return cr.strip.Kn_bistatistic_check(a, b)
    d = cr.dyck
    return (d.prerank(a), d.dinv(a), d.cdinv(a), d.phi_involution(a),
            d.zeta_haglund(a[:-1]))


def check_genfun(cr, op, specs, out):
    kind, a, b = op
    if kind in ("identity", "bistatistic"):
        return None if out is True else f"{kind} check returned {out!r}"
    if kind == "ln":
        direct, toxy = out
        if direct != toxy:
            return f"Ln_direct != Ln_via_toxy at n={a}, trunc={b}"
        if {(j, i): c for (i, j), c in direct.coeffs.items()} != direct.coeffs:
            return f"Ln series not symmetric in x and y at n={a}"
        return None
    if kind == "carlitz":
        # t_q covers the largest area p(p-1)/2, so each z^p column sums to
        # the Catalan number
        for p in range(b + 1):
            total = sum(c for (_, pp), c in out.coeffs.items() if pp == p)
            if total != math.comb(2 * p, p) // (p + 1):
                return f"z^{p} coefficients sum to {total}, not Catalan({p})"
        return None
    prerank, dinv_w, cdinv_w, phi, zeta = out
    if cr.dyck.phi_involution(phi) != a:
        return f"phi_involution is not self-inverse on {a}"
    if prerank != sum(heights(phi)):
        return f"prerank {prerank} != area(phi(w)) on {a}"
    if not dinv_w == cdinv_w == dinv(a) == dinv(phi):
        return f"dinv {dinv_w} / cdinv {cdinv_w} disagree with phi's dinv on {a}"
    swapped = "".join("a" if c == "b" else "b" for c in reversed(zeta))
    if swapped != cr.dyck.zeta_haglund(phi[:-1]):
        return f"zeta sweep/reversal identity fails on {a}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rank-sweep", make_rank_sweep, run_rank_sweep, check_rank_sweep),
        Workload("kn-cli", make_kn_cli, run_kn_cli, check_kn_cli),
        Workload("sandpile", make_sandpile, run_sandpile, check_sandpile),
        Workload("genfun", make_genfun, run_genfun, check_genfun),
    )
}
