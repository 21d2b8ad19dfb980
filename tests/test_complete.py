import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiprank import complete, dynamics, dyck, rank, strip
from chiprank.graphs import MultiGraph


@st.composite
def kn_config(draw, min_n=2, max_n=8, lo=-10, hi=15):
    n = draw(st.integers(min_n, max_n))
    return tuple(draw(st.integers(lo, hi)) for _ in range(n))


def test_equivalence_pinned():
    assert complete.is_equiv_kn((3, 1, 3, 4, -1), (0, 3, 0, 1, 6))
    assert not complete.is_equiv_kn((3, 1, 3, 4, -1), (0, 3, 0, 1, 7))  # degree
    assert not complete.is_equiv_kn((1, 0, -1), (0, 1, -1))
    assert complete.is_equiv_kn((1, 1, -2), (0, 0, 0))


@given(kn_config())
def test_equivalence_closed_under_lattice_moves(f):
    n = len(f)
    G = MultiGraph.complete(n)
    assert complete.is_equiv_kn(f, f)
    for i in range(1, n + 1):
        shifted = tuple(x - r for x, r in zip(f, G.laplacian_row(i)))
        assert complete.is_equiv_kn(f, shifted)
        assert complete.is_equiv_kn(shifted, f)


@given(kn_config())
def test_compact_normalize(f):
    g = complete.compact_normalize(f)
    assert complete.is_equiv_kn(f, g)
    assert sum(g) == sum(f)
    n = len(f)
    assert g[0] == 0
    assert all(0 <= x < n for x in g[:-1])


@settings(max_examples=150)
@given(kn_config(max_n=7))
def test_cyclic_lemma_matches_chip_dynamics(f):
    """The word-rotation route to the parking representative agrees with
    actual chip-firing on the complete graph."""
    n = len(f)
    G = MultiGraph.complete(n)
    sp, by_vertex = complete.parking_via_cyclic_lemma(f)
    assert by_vertex == dynamics.parking_representative(G, f)
    assert dyck.is_dn_word(sp.word)
    assert complete.decode_word(sp.word) == tuple(sorted(by_vertex[:-1]))
    assert sp.sink == by_vertex[-1]


def test_word_encoding_roundtrip():
    for n in range(2, 7):
        for w in dyck.dn_words(n):
            assert complete.phi1(complete.decode_word(w), n) == w


def test_phi1_rejects_bad_input():
    with pytest.raises(ValueError):
        complete.phi1((2, 0, 1), 4)  # not weakly increasing
    with pytest.raises(ValueError):
        complete.phi1((0, 1), 4)  # wrong length


def test_rank_formula_pinned():
    assert complete.rank_formula((3, 1, 3, 4, -1)) == 4
    assert complete.rank_formula((5, 0, 0)) == 4
    assert complete.rank_formula((0, 0, 0)) == 0
    assert complete.rank_formula((-1, 0, 0)) == -1


def test_rank_formula_details_pinned():
    d = complete.rank_formula_details((0, 0, 0, 1, 1, 1, 4, 7, 7, 9, 26))
    assert d["q"] == 2
    assert d["r"] == 7
    assert d["heights"] == [0, 1, 2, 2, 3, 4, 2, 0, 1, 0]
    assert d["terms"] == [3, 2, 1, 1, 0, -1, 1, 2, 1, 2]
    assert d["rank"] == 12


@settings(max_examples=200)
@given(kn_config(max_n=8, lo=-8, hi=12))
def test_formula_equals_greedy(f):
    assert complete.rank_formula(f) == complete.rank_greedy(f)


@settings(max_examples=60, deadline=None)
@given(kn_config(max_n=5, lo=-4, hi=6))
def test_formula_equals_bruteforce(f):
    G = MultiGraph.complete(len(f))
    assert complete.rank_formula(f) == rank.rank_bruteforce(G, f).rank


def _terms_rank(f):
    """The rank the details' per-position terms give."""
    return sum(t for t in complete.rank_formula_details(f)["terms"] if t > 0) - 1


@pytest.mark.parametrize("n, lo, hi", [(2, -6, 8), (3, -4, 7), (4, -3, 5), (5, -2, 3)])
def test_formula_matches_greedy_and_terms_on_a_window(n, lo, hi):
    """Every configuration with entries in lo..hi: the closed form read off
    the walk against the greedy steps and against the per-position terms."""
    for f in product(range(lo, hi + 1), repeat=n):
        r = complete.rank_formula(f)
        assert r == complete.rank_greedy(f) == _terms_rank(f), f
        assert complete.rank_formula_details(f)["rank"] == r


def _regime(f):
    """Which parts of the closed form f's rank runs through: the sign and
    size of Q, and whether the prefix before the a at index R keeps to the
    walk's tail (V < n - q) or reaches into its head."""
    n = len(f)
    _, _, best, q, sink = complete._walk(f)
    Q, R = divmod(sink + 1, n - 1)
    if Q < 0:
        return "Q < 0"
    size = "Q < n - 2" if Q < n - 2 else "Q >= n - 2"
    p = best + q
    return size, "R < n - 1 - p" if R < n - 1 - p else "R >= n - 1 - p"


def test_formula_matches_terms_on_random_large_n():
    """Seeded configurations up to n = 400 in every regime of the closed
    form, against the per-position terms, and against greedy where the
    rank is small enough for its O(n * rank) steps."""
    rng = random.Random(17)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(3, 400)
        body = [rng.randint(-3 * n, 3 * n) for _ in range(n - 1)]
        f = tuple(body) + (rng.randint(-2 * n * n, 2 * n * n),)
        seen[_regime(f)] += 1
        r = complete.rank_formula(f)
        assert r == _terms_rank(f), f
        if r < 2 * n:
            assert r == complete.rank_greedy(f), f
    regimes = {"Q < 0"} | {(size, side) for size in ("Q < n - 2", "Q >= n - 2")
                           for side in ("R < n - 1 - p", "R >= n - 1 - p")}
    assert set(seen) == regimes


def test_formula_on_one_and_two_vertices():
    """K_1 and K_2 have genus 0: the rank is the degree, or -1 below 0."""
    for a in range(-6, 7):
        assert complete.rank_formula((a,)) == max(a, -1)
        assert complete.rank_formula_details((a,))["rank"] == max(a, -1)
        for b in range(-6, 7):
            assert complete.rank_formula((a, b)) == max(a + b, -1), (a, b)
            assert complete.rank_greedy((a, b)) == max(a + b, -1), (a, b)


def test_single_vertex_rank():
    assert complete.rank_formula((4,)) == 4
    assert complete.rank_formula((0,)) == 0
    assert complete.rank_formula((-2,)) == -1
    assert complete.rank_greedy((-2,)) == -1


def test_operation_count_is_linear():
    # (0, 1, ..., n - 2, 3) parks with q = n, sink 3 and V = R: the walk
    # reads 6n - 1 items, the slices and filters 2(n - 1), the head's lows
    # n - 1 when Q > 0, the bisection n.bit_length() and the V count 2R
    for n, expected in ((2, 16), (3, 25), (5, 44), (11, 97), (60, 491)):
        f = tuple(range(n - 1)) + (3,)
        res, ops = complete.rank_formula(f, count_ops=True)
        assert res == complete.rank_formula(f)
        assert ops == expected
        if n >= 3:
            assert ops <= 17 * n


def test_single_vertex_takes_the_general_path():
    """K_1 has no strip: parking leaves f_0 on the sink with the word "b",
    normalizing leaves it as it is, greedy's rank is f_0 or -1, and the
    left and right counts are both 0."""
    for a in range(-5, 6):
        assert complete.parking_via_cyclic_lemma((a,)) == (complete.SortedParking("b", a), (a,))
        assert complete.compact_normalize((a,)) == (a,)
        assert complete.rank_greedy((a,)) == (a if a >= 0 else -1)
        assert strip.left_right("b", a) == (0, 0)


def test_operation_count_pinned():
    """Hand-counted tallies.  K_1 reads its one entry.  (0, 0, 0, 0, -2)
    walks H = [3, 2, 1, 0, -1] with q = 5 and sink -2, so Q < 0 and only the
    walk's (n - 1) + (2n + q) + 2n = 4 + 15 + 10 items are read.
    (1, 2, 3, 4, 5) walks H = [0, 0, 0, 0, -1] with q = 5 and sink 9, so
    Q, R = 2, 2; its 29 walk items, then slices 4 + 4, lows 0 + 4, at most
    3 bisection probes, and V = 2 heights sliced and counted, 19 in all."""
    assert complete.rank_formula((7,), count_ops=True) == (7, 1)
    assert complete.rank_formula((-3,), count_ops=True) == (-1, 1)
    assert complete.rank_formula((0, 0, 0, 0, -2), count_ops=True) == (-1, 29)
    assert complete.rank_formula((1, 2, 3, 4, 5), count_ops=True) == (9, 29 + 19)


def test_rank_step_pinned():
    sp = complete.SortedParking("ababababb", 3)
    assert complete.theta_iterate(sp.word, sp.sink, 1) == ("ababababb", 2)


def test_theta_iterate_pinned():
    assert complete.theta_iterate("abaabbb", 10, 1) == ("aabbabb", 9)


@pytest.mark.parametrize("k", [1.5, "2", None, -1])
def test_theta_iterate_refuses_a_bad_step_count(k):
    with pytest.raises(ValueError, match="step count|k must be >= 0"):
        complete.theta_iterate("abb", 0, k)
    # bools are ints, as for every integer argument
    assert complete.theta_iterate("abb", 0, True) == complete.theta_iterate("abb", 0, 1)


def test_rank_greedy_is_step_consistent():
    """Each zero-coordinate step costs exactly one rank."""
    for f in [(3, 1, 3, 4, -1), (5, 0, 0), (2, 2, 2, 0)]:
        r = complete.rank_greedy(f)
        sp, _ = complete.parking_via_cyclic_lemma(f)
        word, sink = complete.theta_iterate(sp.word, sp.sink, 1)
        g = complete.decode_word(word) + (sink,)
        if r >= 0:
            assert complete.rank_greedy(g) == r - 1


def test_rank_greedy_checks_no_word_per_step(monkeypatch):
    """rank_greedy steps its parked word unchecked: it makes as many word
    checks (none) whether it takes 0, 1 or 45 zero-coordinate steps."""
    is_dyck = dyck._is_dyck
    calls = 0

    def counting(w):
        nonlocal calls
        calls += 1
        return is_dyck(w)

    monkeypatch.setattr(dyck, "_is_dyck", counting)
    counts = []
    for f, r in [((0, 1, 2, 3, 0), 0), ((0, 0, 0, 0, 0), 0), ((0,) * 10 + (200,), 155)]:
        calls = 0
        assert complete.rank_greedy(f) == r == complete.rank_formula(f)
        counts.append(calls)
    assert counts == [0, 0, 0]


def test_t_operator_roundtrip_and_power():
    f = (0, 1, 1, 3, -1)
    g = complete.t_operator(f)
    assert complete.t_operator(g, inverse=True) == f
    n = len(f)
    h = f
    for _ in range(n - 1):
        h = complete.t_operator(h)
    K5 = MultiGraph.complete(5)
    assert h == tuple(x + r for x, r in zip(f, K5.laplacian_row(5)))
    assert complete.is_equiv_kn(h, f)


def test_t_operator_validates_input():
    with pytest.raises(ValueError):
        complete.t_operator((2, 0, 1, 3, -1))  # body not sorted


def test_off_graph_use_gives_wrong_answers(W5):
    """The fast pipeline is specific to complete graphs: on the 5-wheel's
    configuration it disagrees with the true rank."""
    true_rank = rank.rank_bruteforce(W5, (0, 1, -1, 1, 0, 1)).rank
    assert true_rank == 0
    assert complete.rank_formula((0, 1, -1, 1, 0, 1)) == -1
