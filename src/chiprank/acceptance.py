"""End-to-end acceptance checks, shared by ``chiprank verify all`` and the
test suite.

Each check returns (ok, detail); ``run_all`` executes every check and
reports one line per check.  Randomized checks draw from a seeded generator,
so runs are reproducible; the default seed matches the CLI default.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from itertools import product
from math import comb

from . import complete, dyck, dynamics, rank, strip
from .graphs import MultiGraph

DEFAULT_SEED = 20260814

# Documented constant for the linear-ops bound: the closed-form rank pipeline
# performs at most OPS_PER_VERTEX * n elementary integer operations.
OPS_PER_VERTEX = 17


def random_multigraph(n: int, rng: random.Random, max_mult: int = 2) -> MultiGraph:
    """A connected random multigraph: i.i.d. pair multiplicities, resampled
    until connected."""
    while True:
        edges = [(i, j, rng.randint(0, max_mult))
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        try:
            return MultiGraph.from_edges(n, edges)
        except ValueError:
            continue


def random_dn_word(n: int, rng: random.Random) -> str:
    """Uniform word with n b's, n-1 a's and no b-heavy strict prefix, by
    shuffling the letter multiset and rotating at the cyclic factorization."""
    letters = list("a" * (n - 1) + "b" * n)
    rng.shuffle(letters)
    u, v = dyck.cyclic_factorization("".join(letters))
    return v + u


def _theta_rotations(w: str):
    """How many theta rotations take the balanced word w to the staircase,
    or None if C(p, 2) of them, prerank's largest value, do not."""
    p = len(w) // 2
    for steps in range(comb(p, 2) + 1):
        if w == "ab" * p:
            return steps
        w = dyck.theta(w)
    return None


def check_complete_graph_showcase(seed: int) -> tuple:
    """K5 walkthrough: one configuration, three rank methods, one second."""
    start = time.perf_counter()
    f = (3, 1, 3, 4, -1)
    K5 = MultiGraph.complete(5)
    park = dynamics.parking_representative(K5, f)
    sp, park2 = complete.parking_via_cyclic_lemma(f)
    r_formula = complete.rank_formula(f)
    r_greedy = complete.rank_greedy(f)
    r_brute = rank.rank_bruteforce(K5, f).rank
    elapsed = time.perf_counter() - start
    ok = (
        park == (0, 3, 0, 1, 6)
        and park2 == park
        and r_formula == r_greedy == r_brute == 4
        and elapsed < 1.0
    )
    return ok, (
        f"parking={park}, rank formula/greedy/bruteforce="
        f"{r_formula}/{r_greedy}/{r_brute}, {elapsed:.3f}s"
    )


def check_formula_walkthrough(seed: int) -> tuple:
    """The n=11 closed-form computation, intermediate values included."""
    f = (0, 0, 0, 1, 1, 1, 4, 7, 7, 9, 26)
    d = complete.rank_formula_details(f)
    ok = (
        d["q"] == 2
        and d["r"] == 7
        and d["terms"] == [3, 2, 1, 1, 0, -1, 1, 2, 1, 2]
        and d["rank"] == 12
        and complete.rank_formula(f) == 12
    )
    return ok, f"q={d['q']}, r={d['r']}, terms={d['terms']}, rank={d['rank']}"


def check_strip_counts(seed: int) -> tuple:
    """Cell counts against thresholds, the largest right label, and the
    strip-read dinv on a fixed word and its involution image."""
    w11 = complete.phi1((0, 0, 0, 1, 1, 1, 4, 7, 7, 9), 11)
    l13, r13 = strip.left_right(w11, 13)
    l26 = strip.left_right(w11, 26)[0]
    w = "aabaaabbabbabbb"
    lr = strip.lastright(w)
    c1 = dyck.cdinv(w)
    c2 = dyck.cdinv(dyck.phi_involution(w))
    ok = (l13, r13, l26, lr, c1, c2) == (5, 6, 13, 18, 7, 7)
    return ok, f"left13={l13}, right13={r13}, left26={l26}, lastright={lr}, cdinv={c1}/{c2}"


def check_involution_identities(seed: int) -> tuple:
    """Rotation counts, by iterating theta and by prerank, the
    level-sweep/reversal identity, and the block involution on exhaustive
    small words plus a random sample; ten seconds."""
    start = time.perf_counter()
    rng = random.Random(seed)
    for n in range(1, 9):
        stair, pyramid = "ab" * n, "a" * n + "b" * n
        if not dyck.prerank(stair) == _theta_rotations(stair) == 0:
            return False, f"staircase prerank nonzero at n={n}"
        if not dyck.prerank(pyramid) == _theta_rotations(pyramid) == n * (n - 1) // 2:
            return False, f"pyramid prerank wrong at n={n}"
    if dyck.prerank("abaabb") != 2 or dyck.area("abaabb") != 1:
        return False, "fixed small-word statistics changed"
    w = "aabaabbabbaabaabbabb"
    if dyck.zeta_haglund(w) != "aabaaabaaabbabbbabbb":
        return False, "level sweep of the fixed word changed"
    if dyck.phi_involution(w) != "aabaabbabbaabaabbbab":
        return False, "block involution of the fixed word changed"
    if dyck.zeta_haglund(dyck.phi_involution(w)) != "aaabaaabaabbbabbbabb":
        return False, "sweep of the involuted fixed word changed"
    words = [dyck.to_dn_word(u) for u in dyck.dyck_words(5)]
    words += [random_dn_word(10, rng) for _ in range(150)]
    for wd in words:
        w0 = dyck.to_dyck_word(wd)
        img = dyck.phi_involution(wd)
        if dyck.phi_involution(img) != wd:
            return False, f"involution not self-inverse on {wd}"
        if dyck.prerank(wd) != _theta_rotations(w0):
            return False, f"prerank is not the rotation count on {wd}"
        if dyck.prerank(wd) != dyck.area(img):
            return False, f"prerank/area mismatch on {wd}"
        if dyck.dinv(wd) != dyck.dinv(img):
            return False, f"dinv not preserved on {wd}"
        if dyck.r_map(dyck.zeta_haglund(w0)) != dyck.zeta_haglund(
            dyck.to_dyck_word(img)
        ):
            return False, f"sweep/reversal identity fails on {wd}"
    elapsed = time.perf_counter() - start
    return elapsed < 10.0, f"{len(words)} words, {elapsed:.2f}s"


def check_rank_symmetry(seed: int) -> tuple:
    """Degree-shifted rank symmetry on 500 random configurations for each of
    five small multigraphs, by brute force, within two minutes."""
    start = time.perf_counter()
    rng = random.Random(seed)
    graphs = [
        MultiGraph.complete(3),
        MultiGraph.complete(4),
        MultiGraph.wheel(5),
        random_multigraph(5, rng),
        random_multigraph(5, rng),
    ]
    for G in graphs:
        for _ in range(500):
            f = tuple(rng.randint(-3, 3) for _ in range(G.n))
            if not rank.riemann_roch_check(G, f):
                return False, f"symmetry fails on {G!r} at {f}"
    elapsed = time.perf_counter() - start
    return elapsed < 120.0, f"5 graphs x 500 configs, {elapsed:.1f}s"


def check_method_agreement(seed: int) -> tuple:
    """formula == greedy == bruteforce over every sorted parking word of K4
    and K5 with sink swept through negative to past-symmetric values."""
    for n in (4, 5):
        G = MultiGraph.complete(n)
        hi = 2 * G.m - 2 * G.n + 3
        for word in dyck.dn_words(n):
            values = complete.decode_word(word)
            for sink in range(-3, hi + 1):
                f = values + (sink,)
                rf = complete.rank_formula(f)
                rg = complete.rank_greedy(f)
                rb = rank.rank_bruteforce(G, f).rank
                if not rf == rg == rb:
                    return False, f"{f} on K{n}: formula={rf} greedy={rg} brute={rb}"
    return True, "all sorted parking configurations of K4 and K5 agree"


def check_wheel_regression(seed: int) -> tuple:
    """Known ranks on the 5-wheel, plus the complete-graph pipeline giving a
    different (wrong) answer there — it is K_n-specific."""
    W5 = MultiGraph.wheel(5)
    r1 = rank.rank_bruteforce(W5, (0, 1, 0, 1, 0, 1)).rank
    r2 = rank.rank_bruteforce(W5, (0, 1, -1, 1, 0, 1)).rank
    off_graph = complete.rank_formula((0, 1, -1, 1, 0, 1))
    ok = r1 == 0 and r2 == 0 and off_graph != r2
    return ok, f"wheel ranks {r1}, {r2}; complete-graph formula off-graph gives {off_graph}"


def check_recurrence_duality(seed: int) -> tuple:
    """Burning and subset recurrence agree, and complementation maps stable
    configurations onto parking ones, over every stable configuration of
    K3, K4, and the 5-wheel."""
    for G in (MultiGraph.complete(3), MultiGraph.complete(4), MultiGraph.wheel(5)):
        for body in product(*(range(d) for d in G.degrees[:-1])):
            f = body + (0,)
            burn = dynamics.is_recurrent_burning(G, f)
            subs = dynamics.is_recurrent_subsets(G, f)
            comp = dynamics.beta(G, f)
            dual = dynamics.is_parking(G, comp, method="duality")
            direct = dynamics.is_parking(G, comp, method="subsets")
            if not burn == subs == dual == direct:
                return False, f"criteria disagree at {f} on {G!r}"
    return True, "all stable configurations of K3, K4, W5"


def check_class_counts(seed: int) -> tuple:
    """Effective-class counts by degree match the running sums of the
    recurrent level histogram, tallied by the burning test over every
    stable configuration and read from the top level down, hit the known
    K3 table, and stabilize at the spanning-tree number."""
    expected_k3 = {0: 1, 1: 3, 2: 3, 3: 3, 4: 3}
    for G, table in (
        (MultiGraph.complete(3), expected_k3),
        (MultiGraph.complete(4), None),
        (MultiGraph.wheel(5), None),
    ):
        d_max = G.m - G.n + 3
        counts = dynamics.effective_class_counts(G, d_max)
        top = G.m - G.n + 1
        shift = G.m - G.degrees[-1]  # the sum of a level-0 configuration
        levels = Counter(sum(body) - shift
                         for body in product(*(range(d) for d in G.degrees[:-1]))
                         if dynamics.is_recurrent_burning(G, body + (0,)))
        for d in range(d_max + 1):
            # parking sums up to d are the complements of levels top - d and up
            if counts[d] != sum(c for i, c in levels.items() if i >= top - d):
                return False, f"{G!r} at degree {d}: {counts[d]} by T(1, y), levels {levels}"
        if table and any(counts[d] != table[d] for d in table if d <= d_max):
            return False, f"K3 table mismatch: {counts}"
        trees = G.spanning_tree_count()
        for d in range(G.m - G.n + 1, d_max + 1):
            if counts[d] != trees:
                return False, f"count at degree {d} is {counts[d]}, trees {trees}"
    return True, "K3, K4, W5 counts agree and reach the spanning-tree number"


def check_series_identities(seed: int) -> tuple:
    """L_n equals every word's left_right counts over its sinks and the
    boundary-word expansion, the stacked series match the Catalan closed
    form, and the area-Catalan recurrence matches enumeration; two minutes."""
    start = time.perf_counter()
    for n in range(2, 6):
        direct = strip.Ln_direct(n, 10)
        counts = Counter(strip.left_right(w, s) for w in dyck.dn_words(n) for s in range(-40, 40))
        if direct.coeffs != {e: c for e, c in counts.items() if sum(e) <= 10}:
            return False, f"Ln_direct disagrees with left_right's counts at n={n}"
        if direct != strip.Ln_via_toxy(n, 10):
            return False, f"window vs boundary-word mismatch at n={n}"
        if direct != direct.map_exponents(lambda e: (e[1], e[0])):
            return False, f"series not symmetric at n={n}"
    if not strip.LnC_identity_check(5, 8):
        return False, "stacked-series identity fails"
    areas = Counter((dyck.area(w), p) for p in range(9) for w in dyck.dyck_words(p))
    if strip.carlitz_catalan(28, 8).coeffs != dict(areas):
        return False, "q-Catalan recurrence disagrees with enumeration"
    elapsed = time.perf_counter() - start
    return elapsed < 120.0, f"n=2..5 windows, closed form, q-Catalan; {elapsed:.1f}s"


def check_linear_scaling(seed: int) -> tuple:
    """Operation counts stay under OPS_PER_VERTEX * n as n sweeps 100 to
    100000, and the largest case runs in under a second."""
    rng = random.Random(seed)
    report = []
    for n in (100, 1_000, 10_000, 100_000):
        word = random_dn_word(n, rng)
        values = list(complete.decode_word(word))
        rng.shuffle(values)
        f = tuple(values) + (rng.randint(-3, 3 * n),)
        t0 = time.perf_counter()
        _, ops = complete.rank_formula(f, count_ops=True)
        dt = time.perf_counter() - t0
        report.append((n, ops, dt))
        if ops > OPS_PER_VERTEX * n:
            return False, f"ops {ops} exceed {OPS_PER_VERTEX}*{n}"
    biggest = report[-1]
    ok = biggest[2] < 1.0
    text = ", ".join(f"n={n}: {ops} ops {dt * 1000:.0f}ms" for n, ops, dt in report)
    return ok, text


CHECKS = [
    ("A01 complete-graph rank showcase", check_complete_graph_showcase),
    ("A02 closed-form rank walkthrough", check_formula_walkthrough),
    ("A03 strip counts and contacts", check_strip_counts),
    ("A04 involution identities", check_involution_identities),
    ("A05 rank symmetry by brute force", check_rank_symmetry),
    ("A06 rank methods agree on K4/K5", check_method_agreement),
    ("A07 wheel ranks and off-graph regression", check_wheel_regression),
    ("A08 recurrence criteria and duality", check_recurrence_duality),
    ("A09 class counts vs level histogram", check_class_counts),
    ("A10 series identities", check_series_identities),
    ("A11 linear-time rank scaling", check_linear_scaling),
]


def run_all(seed: int = DEFAULT_SEED) -> list:
    """Run every acceptance check; returns (name, ok, detail, seconds)."""
    results = []
    for name, fn in CHECKS:
        t0 = time.perf_counter()
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # noqa: BLE001 - a crash is a failure
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, ok, detail, time.perf_counter() - t0))
    return results
