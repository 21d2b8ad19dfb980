import json
import random
import subprocess
import sys
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chiprank
from chiprank import _backend, dynamics, rank
from chiprank.cli import main
from chiprank.complete import parking_via_cyclic_lemma, rank_formula
from chiprank.graphs import MultiGraph, _lattice_form, _residue, laplacian_row

from conftest import SMALL_GRAPHS
from test_graphs import _sink_grid


@st.composite
def graph_and_config(draw, lo=-4, hi=6):
    G = draw(st.sampled_from(SMALL_GRAPHS))
    f = draw(st.tuples(*[st.integers(lo, hi) for _ in range(G.n)]))
    return G, f


def test_rank_pinned(K3, K5):
    assert rank.rank_bruteforce(K3, (5, 0, 0)) == rank.RankResult(4, (0, 0, 5))
    assert rank.rank_bruteforce(K3, (0, 0, 0)) == rank.RankResult(0, (0, 0, 1))
    assert rank.rank_bruteforce(K3, (-1, 0, 0)) == rank.RankResult(-1, (0, 0, 0))
    res = rank.rank_bruteforce(K5, (3, 1, 3, 4, -1))
    assert res.rank == 4 and res.witness == (0, 0, 1, 0, 4)


def test_wheel_regression(W5):
    assert rank.rank_bruteforce(W5, (0, 1, 0, 1, 0, 1)).rank == 0
    assert rank.rank_bruteforce(W5, (0, 1, -1, 1, 0, 1)).rank == 0


@given(graph_and_config())
def test_class_key_is_a_class_invariant(gc):
    G, f = gc
    key = rank.canonical_class_key(G, f)
    for i in range(1, G.n + 1):
        shifted = tuple(x - r for x, r in zip(f, laplacian_row(G, i)))
        assert rank.canonical_class_key(G, shifted) == key
    bumped = tuple(x + (1 if i == 0 else 0) for i, x in enumerate(f))
    assert rank.canonical_class_key(G, bumped) != key


def test_class_key_separates_classes(K3):
    # same degree, different classes
    assert rank.canonical_class_key(K3, (1, 0, -1)) != rank.canonical_class_key(K3, (0, 1, -1))
    # enumerate: K3 has exactly 3 classes of each degree
    keys = {
        rank.canonical_class_key(K3, (a, b, -a - b))
        for a in range(-5, 6)
        for b in range(-5, 6)
    }
    assert len(keys) == 3


@settings(max_examples=60, deadline=None)
@given(graph_and_config())
def test_effectiveness_routes_agree(gc):
    """Cached-key effectiveness, parking-representative effectiveness, and
    nonnegativity of the brute-force rank all say the same thing."""
    G, f = gc
    eff = dynamics.is_effective_class(G, f)
    assert rank.is_effective_cached(G, f) == eff
    assert (rank.rank_bruteforce(G, f).rank >= 0) == eff


def test_cached_effectiveness_validates_on_a_warm_cache():
    K3 = MultiGraph.complete(3)
    assert rank.is_effective_cached(K3, (1, 2, 0))
    for bad in [(1, 2, 0, 0), (1.0, 2, 0)]:
        with pytest.raises(ValueError):
            rank.is_effective_cached(K3, bad)


def test_cache_holds_at_most_one_entry_per_jacobian_element():
    W5 = MultiGraph.wheel(5)
    for f in product(range(-1, 3), repeat=6):
        rank.rank_bruteforce(W5, f)
    assert len(W5._eff_cache) <= W5.spanning_tree_count()
    K3 = MultiGraph.complete(3)
    rank.rank_bruteforce(K3, (5, 0, 0))
    assert len(K3._eff_cache) <= K3.spanning_tree_count()


def _warm_caches(seed):
    """SMALL_GRAPHS, K5 and W6, each after 60 seeded rank and effectiveness
    calls with entries from -4 to 6."""
    graphs = SMALL_GRAPHS + [MultiGraph.complete(5), MultiGraph.wheel(6)]
    rng = random.Random(seed)
    for G in graphs:
        for _ in range(60):
            f = tuple(rng.randint(-4, 6) for _ in range(G.n))
            rank.rank_bruteforce(G, f)
            rank.is_effective_cached(G, f)
        assert G._eff_cache
    return graphs


def test_cache_entries_are_the_kernels_parking_configurations():
    """Every cache entry's parking part p, most of them taken from a
    neighbour's entry minus one chip with no kernel call, is the non-sink
    part of the parking configuration the kernel gives for its residue."""
    for G in _warm_caches(13):
        cols, k = _lattice_form(G), G.n - 1
        for res, e in G._eff_cache.items():
            p = e.p
            assert e.res == res and e.delta == sum(p)
            assert _residue(cols, p, k) == res
            assert dynamics.parking_representative(G, p + (0,))[:-1] == p
            assert dynamics.is_parking(G, p + (0,), method="duality")
            assert dynamics.is_parking(G, p + (0,), method="subsets")


def test_step_table_entries_are_the_borrow_neighbours():
    """Entry i of a residue's row of the step table, once filled, is the
    residue of res - e_i computed afresh, and the very key of its own
    cache entry."""
    for G in _warm_caches(14):
        cols, k = _lattice_form(G), G.n - 1
        filled = 0
        for res, e in G._eff_cache.items():
            assert len(e.steps) == k
            for i, v in enumerate(e.steps):
                if v is None:
                    continue
                filled += 1
                lower = tuple(x - (j == i) for j, x in enumerate(res))
                assert v == _residue(cols, lower, k)
                assert G._eff_cache[v].res is v
        assert filled


@pytest.mark.parametrize(
    "G",
    [
        MultiGraph.wheel(5),
        MultiGraph.complete(5),
        MultiGraph.wheel(6),
        MultiGraph.from_edges(4, [(1, 2, 2), (2, 3, 1), (3, 4, 3), (1, 4, 1), (1, 3, 2)]),
    ],
    ids=["W5", "K5", "W6", "multi4"],
)
def test_borrows_over_a_graphs_life_are_bounded_by_the_jacobian(G, monkeypatch):
    """The step table keeps every borrow a call takes, so 400 calls on one
    graph borrow at most once per (residue, i): (n - 1) |Jac(G)| in all."""
    borrow = rank._borrow
    borrows = 0

    def counting_borrow(*args):
        nonlocal borrows
        borrows += 1
        return borrow(*args)

    monkeypatch.setattr(rank, "_borrow", counting_borrow)
    rng = random.Random(10)
    for _ in range(400):
        rank.rank_bruteforce(G, tuple(rng.randint(-4, 6) for _ in range(G.n)))
    assert 0 < borrows <= (G.n - 1) * G.spanning_tree_count()


PINNED = [
    ("K3", (5, 0, 0), rank.RankResult(4, (0, 0, 5))),
    ("K3", (0, 0, 0), rank.RankResult(0, (0, 0, 1))),
    ("K3", (-1, 0, 0), rank.RankResult(-1, (0, 0, 0))),
    ("K5", (3, 1, 3, 4, -1), rank.RankResult(4, (0, 0, 1, 0, 4))),
    ("W5", (6,) * 6, rank.RankResult(31, (0, 0, 0, 1, 9, 22))),
]


def test_rank_results_do_not_depend_on_the_cache():
    """The same seeded calls give the same RankResults, lex-first witnesses
    included, whether each runs on a fresh graph or all run in shuffled
    order on one shared graph whose step table the earlier calls filled."""
    makers = {
        "K3": lambda: MultiGraph.complete(3),
        "K5": lambda: MultiGraph.complete(5),
        "W5": lambda: MultiGraph.wheel(5),
        "multi4": lambda: MultiGraph.from_edges(
            4, [(1, 2, 2), (2, 3, 1), (3, 4, 3), (1, 4, 1), (1, 3, 2)]
        ),
    }
    rng = random.Random(11)
    calls = [(key, f) for key, f, _ in PINNED]
    for key, make in makers.items():
        n = make().n
        calls += [(key, tuple(rng.randint(-4, 6) for _ in range(n))) for _ in range(50)]
    fresh = [rank.rank_bruteforce(makers[key](), f) for key, f in calls]
    shared = {key: make() for key, make in makers.items()}
    order = list(range(len(calls)))
    rng.shuffle(order)
    warm = [None] * len(calls)
    for i in order:
        key, f = calls[i]
        warm[i] = rank.rank_bruteforce(shared[key], f)
    assert warm == fresh
    assert fresh[: len(PINNED)] == [res for _, _, res in PINNED]


@pytest.mark.parametrize(
    "G, f",
    [
        (MultiGraph.wheel(30), (1,) + (0,) * 30),
        (MultiGraph.wheel(20), (0,) * 10 + (2, 0, 1) + (0,) * 8),
        (MultiGraph.complete(3), (-10**6, 0, 10**6 + 5)),
        (MultiGraph.complete(3), (10**6, 0, -10**6 + 5)),
        # 2 - 10^7 L_1: rank 10, so the search misses many times after f
        (MultiGraph.wheel(8), (-29999998, 10000002) + (2,) * 5 + (10000002, 10000002)),
    ],
    ids=["W30-one-chip", "W20-three-chips", "K3-deep-debt", "K3-deep-pile", "W8-deep-pile"],
)
def test_cache_misses_reduce_the_smaller_representative(G, f, monkeypatch, burnings):
    """f's own parking moves its chips in bulk, so the kernel burns at most
    n times whatever the size of f, and every later miss parks a cached
    parking configuration minus one chip, so neither a large Jacobian
    (about 3.5e12 on W30) nor a large f makes the reduction work long."""
    parked = []
    kernel = _backend.parking_reduce

    def parking_reduce(degs, adj, cfg):
        parked.append(tuple(cfg))
        return kernel(degs, adj, cfg)

    monkeypatch.setattr(_backend, "parking_reduce", parking_reduce)
    res = rank.rank_bruteforce(G, f)
    assert parked
    assert max(burnings) <= G.n
    # after f's own parking, every miss parks a cached parking configuration
    # minus one chip, whatever the size of f
    assert all(sum(map(abs, cfg[:-1])) <= G.m - G.n + 2 for cfg in parked[1:])
    if G.n == 3:
        assert res.rank == rank_formula(f)
        assert dynamics.parking_representative(G, f) == parking_via_cyclic_lemma(f)[1]
        rec = dynamics.recurrent_representative(G, f)
        assert rank.canonical_class_key(G, rec) == rank.canonical_class_key(G, f)
    else:
        assert res.rank >= 0 and dynamics.is_effective_class(G, f)
        assert rank.is_effective_cached(G, f)
        removed = tuple(x - y for x, y in zip(f, res.witness))
        assert not dynamics.is_effective_class(G, removed)


@settings(max_examples=30, deadline=None)
@given(graph_and_config(lo=-3, hi=4))
def test_rank_witness_invariants(gc):
    G, f = gc
    res = rank.rank_bruteforce(G, f)
    assert res.rank >= -1
    assert sum(res.witness) == res.rank + 1
    assert all(x >= 0 for x in res.witness)
    removed = tuple(x - y for x, y in zip(f, res.witness))
    assert not dynamics.is_effective_class(G, removed)


# SMALL_GRAPHS already holds the multi4 multigraph
ORACLE_GRAPHS = SMALL_GRAPHS + [
    MultiGraph.complete(1),
    MultiGraph.from_edges(3, [(1, 2), (2, 3)]),  # a path, so a tree
]


def _lex_patterns(total, parts):
    """Non-negative tuples of the given sum, in lexicographic order."""
    return sorted(p for p in product(range(total + 1), repeat=parts) if sum(p) == total)


def _reference_rank(G, f):
    """rank_bruteforce's definition with nothing shared: every pattern of
    each degree in lexicographic order, each class decided by parking."""
    if not dynamics.is_effective_class(G, f):
        return rank.RankResult(-1, (0,) * G.n)
    for dd in range(1, sum(f) + 1):
        for lam in _lex_patterns(dd, G.n):
            if not dynamics.is_effective_class(G, tuple(x - y for x, y in zip(f, lam))):
                return rank.RankResult(dd - 1, lam)
    return rank.RankResult(sum(f), _lex_patterns(sum(f) + 1, G.n)[0])


@st.composite
def oracle_case(draw):
    """A graph and a configuration of degree at most 12 - n, which keeps the
    reference's product over all patterns small."""
    G = draw(st.sampled_from(ORACLE_GRAPHS))
    f = draw(st.tuples(*[st.integers(-2, 4)] * G.n).filter(lambda f: sum(f) <= 12 - G.n))
    return G, f


@settings(max_examples=200, deadline=None)
@given(oracle_case())
def test_rank_matches_the_lex_order_oracle(gf):
    """Rank and witness (the lex-first failing pattern) both equal the
    reference's."""
    G, f = gf
    assert rank.rank_bruteforce(G, f) == _reference_rank(G, f)


def test_rank_zero_witness_means_not_effective(K4):
    res = rank.rank_bruteforce(K4, (-2, 0, 0, 0))
    assert res.rank == -1
    assert res.witness == (0, 0, 0, 0)


def test_all_smaller_removals_stay_effective(K3):
    """The brute-force answer really is a minimum: every removal pattern of
    size = rank keeps the class effective."""

    def patterns(total, parts):
        if parts == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in patterns(total - first, parts - 1):
                yield (first,) + rest

    for f in [(2, 1, 0), (3, 0, 0), (1, 1, 1), (4, 1, -1)]:
        r = rank.rank_bruteforce(K3, f).rank
        assert r >= 0
        for lam in patterns(r, 3):
            g = tuple(x - y for x, y in zip(f, lam))
            assert dynamics.is_effective_class(K3, g)


def test_search_space_guard(monkeypatch):
    monkeypatch.setattr(rank, "_MAX_CANDIDATES", 100)
    G = MultiGraph.complete(5)
    with pytest.raises(ValueError, match="search space"):
        rank.rank_bruteforce(G, (50, 0, 0, 0, 0))


@pytest.mark.parametrize("side", [15, 20])
def test_value_stage_counts_the_patterns_the_ball_reaches(side):
    """(2, 1, 0, ..., 0, 1, 0) on the sink grid: the mu with |mu| <= 4
    number C(4 + k, k) > 5e6, but f's parking representative has sink entry
    d - delta = 0, so the ball stops after layer 0 and the rank is 0, with
    the sink-pile witness.  A sink pile of 5 chips has delta = 0, so the
    ball could reach every mu with |mu| <= 5, and that is still refused."""
    G = _sink_grid(side)
    k = G.n - 1
    assert comb(4 + k, k) > rank._MAX_CANDIDATES < G.spanning_tree_count()
    f = (2, 1) + (0,) * (k - 3) + (1, 0)
    assert rank.rank_bruteforce(G, f) == rank.RankResult(0, (0,) * k + (1,))
    pile = (0,) * k + (5,)
    with pytest.raises(ValueError, match=f"{comb(5 + k, k)} patterns mu with "
                                         f"\\|mu\\| <= 5 both exceed {rank._MAX_CANDIDATES}"):
        rank.rank_bruteforce(G, pile)


def test_value_stage_callers_search_no_witness(monkeypatch, tmp_path):
    """riemann_roch_data, riemann_roch_check, rank_bounds_check and
    ``chiprank rr-check`` read ranks alone, so the witness walk never runs."""

    def refuse(*args):
        raise AssertionError("witness walk entered")

    monkeypatch.setattr(rank, "_lex_witness", refuse)
    rng = random.Random(18)
    for G in SMALL_GRAPHS + [MultiGraph.wheel(6)]:
        path = tmp_path / f"g{G.n}.json"
        path.write_text(G.to_json())
        for _ in range(30):
            f = tuple(rng.randint(-4, 8) for _ in range(G.n))
            rr = rank.riemann_roch_data(G, f)
            assert rr.holds and rank.riemann_roch_check(G, f)
            assert rank.rank_bounds_check(G, f)
            config = "--config=" + ",".join(map(str, f))
            assert main(["rr-check", "--graph", str(path), config]) == 0
    with pytest.raises(AssertionError, match="witness walk"):
        rank.rank_bruteforce(MultiGraph.complete(3), (2, 0, 0))


def test_value_stage_answers_past_the_witness_bound(monkeypatch, capsys):
    """W6 (6,)*7: the ball covers |Jac(W6)| = 320 residues, though the mu
    with |mu| <= 42 number C(48, 6) > 5e6, so the value stage answers; the
    witness walk would range over the C(43, 6) > 5e6 mu with |mu| <= 37,
    which the witness stage refuses."""
    W6 = MultiGraph.wheel(6)
    f = (6,) * 7
    rr = rank.riemann_roch_data(W6, f)
    assert (rr.rank, rr.dual_rank, rr.holds) == (36, -1, True)
    assert main(["rr-check", "--wheel", "6", "--config", "6,6,6,6,6,6,6"]) == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 36
    with pytest.raises(ValueError, match="witness search"):
        rank.rank_bruteforce(W6, f)
    # the 4-cycle (|Jac| = 4) at degree 40, with the limit lowered to 100:
    # C(43, 3) mu with |mu| <= 40, and as many for the witness walk
    monkeypatch.setattr(rank, "_MAX_CANDIDATES", 100)
    C4 = MultiGraph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    rr = rank.riemann_roch_data(C4, (10, 10, 10, 10))
    assert (rr.rank, rr.dual_rank, rr.holds) == (39, -1, True)
    with pytest.raises(ValueError, match="witness search"):
        rank.rank_bruteforce(C4, (10, 10, 10, 10))


@pytest.mark.parametrize("N", [36, 40, 200])
def test_sink_pile_witness_is_not_refused(N):
    """W6 (0, 1, 1, 1, 1, 2, N): the mu with |mu| <= N + 1 number more than
    5e6, but f minus N + 1 sink chips is not effective, so the witness
    walk stops at its first pattern, the sink pile, and is not refused."""
    W6 = MultiGraph.wheel(6)
    f = (0, 1, 1, 1, 1, 2, N)
    assert rank.rank_bruteforce(W6, f) == rank.RankResult(N, (0,) * 6 + (N + 1,))


@pytest.mark.parametrize(
    "G",
    [
        MultiGraph.wheel(5),
        MultiGraph.complete(5),
        MultiGraph.wheel(6),
        MultiGraph.from_edges(4, [(1, 2, 2), (2, 3, 1), (3, 4, 3), (1, 4, 1), (1, 3, 2)]),
    ],
    ids=["W5", "K5", "W6", "multi4"],
)
def test_rank_work_is_bounded_by_the_jacobian(G, monkeypatch):
    """Each call borrows at most (n - 1) |Jac(G)| times in the ball search,
    which expands every residue once, plus one borrow per probe of the
    witness walk, whatever the rank."""
    borrow, delta, walk = rank._borrow, rank._entry, rank._lex_witness
    counts = {"borrows": 0, "walk_probes": 0, "in_walk": False}

    def counting_borrow(*args):
        counts["borrows"] += 1
        return borrow(*args)

    def counting_delta(*args):
        counts["walk_probes"] += counts["in_walk"]
        return delta(*args)

    def flagged_walk(*args):
        counts["in_walk"] = True
        try:
            return walk(*args)
        finally:
            counts["in_walk"] = False

    monkeypatch.setattr(rank, "_borrow", counting_borrow)
    monkeypatch.setattr(rank, "_entry", counting_delta)
    monkeypatch.setattr(rank, "_lex_witness", flagged_walk)
    limit = (G.n - 1) * G.spanning_tree_count()
    rng = random.Random(9)
    for _ in range(400):
        f = tuple(rng.randint(-4, 6) for _ in range(G.n))
        counts["borrows"] = counts["walk_probes"] = 0
        rank.rank_bruteforce(G, f)
        assert counts["borrows"] <= limit + counts["walk_probes"], f


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rank_saturates_on_the_whole_jacobian(n):
    """With entries up to 20 most configurations have degree enough for the
    ball to cover Jac(K_n) before any residue breaks the degree bound; the
    rank then read off, deg(f) minus the largest delta, is the closed
    formula's, as is the rank of an early stop."""
    G = MultiGraph.complete(n)
    rng = random.Random(n)
    for _ in range(100):
        f = tuple(rng.randint(-10, 20) for _ in range(n))
        assert rank.rank_bruteforce(G, f).rank == rank_formula(f), f


def test_rank_past_the_old_pattern_cap(W5):
    """(6,)*6 on W5 once raised: the patterns of degree <= 37 number
    C(43, 6) > 5e6.  Those of degree 37 alone number C(42, 5), under it."""
    f = (6,) * 6
    res = rank.rank_bruteforce(W5, f)
    assert res == rank.RankResult(31, (0, 0, 0, 1, 9, 22))
    assert not dynamics.is_effective_class(W5, tuple(x - y for x, y in zip(f, res.witness)))


def test_kappa_and_dual(K4):
    assert rank.kappa(K4) == (1, 1, 1, 1)
    assert rank.kappa_dual(K4, (1, 0, 0, 0)) == (0, 1, 1, 1)


@settings(max_examples=40, deadline=None)
@given(graph_and_config(lo=-3, hi=3))
def test_rank_symmetry(gc):
    G, f = gc
    assert rank.riemann_roch_check(G, f)


def test_large_degree_rank_is_exact(K4, W5):
    # beyond degree 2m - 2n the rank is degree - m + n - 1
    for G in (K4, W5):
        top = 2 * G.m - 2 * G.n
        f = (top + 3,) + (0,) * (G.n - 1)
        assert rank.rank_bruteforce(G, f).rank == top + 3 - G.m + G.n - 1


def test_rank_bounds_spot_checks(K3, K4):
    assert rank.rank_bounds_check(K3, (2, 1, 0))
    assert rank.rank_bounds_check(K4, (1, 1, 0, -1))


def test_rank_result_is_a_named_tuple(K3):
    """A RankResult is a tuple (rank, witness), so importing the package
    loads no dataclasses machinery."""
    res = rank.rank_bruteforce(K3, (5, 0, 0))
    assert res == (4, (0, 0, 5)) and (res.rank, res.witness) == tuple(res)
    src = str(Path(chiprank.__file__).parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import chiprank; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
