import json
import random
import tracemalloc
from fractions import Fraction
from time import perf_counter

import pytest

from chiprank import complete, dyck, dynamics, rank, strip
from chiprank.graphs import (
    MultiGraph, _borrow, _lattice_form, _residue, check_config, degree,
    laplacian_row, topple,
)
from chiprank.series import TruncatedSeries

from conftest import SMALL_GRAPHS


def test_complete_graph_shape(K5):
    assert K5.n == 5
    assert K5.m == 10
    assert K5.degrees == (4, 4, 4, 4, 4)
    assert K5.is_complete()


def test_wheel_shape(W5):
    # 5 rim vertices, hub last (the sink); rim vertices touch two rim
    # neighbours and the hub.
    assert W5.n == 6
    assert W5.m == 10
    assert W5.degrees == (3, 3, 3, 3, 3, 5)
    assert not W5.is_complete()


def test_is_complete_checks_every_pair():
    assert MultiGraph.complete(1).is_complete()
    assert MultiGraph.complete(2).is_complete()
    # K5's edge count, with the pair 1-2 doubled and the pair 4-5 missing
    pairs = [(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
    G = MultiGraph.from_edges(5, [(1, 2, 2)] + pairs[1:-1])
    assert G.m == 10
    assert not G.is_complete()


def test_wheel_too_small():
    with pytest.raises(ValueError):
        MultiGraph.wheel(2)


def test_from_edges_accumulates_multiplicity():
    G = MultiGraph.from_edges(3, [(1, 2), (1, 2), (2, 3, 2), (1, 3)])
    assert G.multiplicity(1, 2) == 2
    assert G.multiplicity(2, 3) == 2
    assert G.multiplicity(3, 1) == 1
    assert G.degrees == (3, 4, 3)


def test_loops_rejected():
    with pytest.raises(ValueError):
        MultiGraph.from_edges(2, [(1, 1)])
    with pytest.raises(ValueError):
        MultiGraph([[1, 1], [1, 0]])


def test_asymmetric_rejected():
    with pytest.raises(ValueError):
        MultiGraph([[0, 1], [2, 0]])


def test_negative_multiplicity_rejected():
    with pytest.raises(ValueError):
        MultiGraph([[0, -1], [-1, 0]])


def test_short_row_rejected_before_any_cell_is_read():
    """The symmetry check of row 1 reads row 2, which is too short; every
    row's length is checked first.  A non-integer cell still wins over a
    short row."""
    with pytest.raises(ValueError, match="must be square"):
        MultiGraph([[0, 1, 0], [1, 0, 1], [0]])
    with pytest.raises(ValueError, match="must be integers"):
        MultiGraph([[0, 2.5], [1]])


def test_disconnected_rejected():
    with pytest.raises(ValueError):
        MultiGraph([[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(ValueError):
        MultiGraph.from_edges(3, [(1, 2)])


def test_json_roundtrip(multi4):
    text = multi4.to_json()
    again = MultiGraph.from_json(text)
    assert again == multi4
    assert hash(again) == hash(multi4)
    payload = json.loads(text)
    assert payload["n"] == 4
    assert all(len(e) == 3 for e in payload["edges"])


def test_laplacian_rows_sum_to_zero(W5):
    for i in range(1, W5.n + 1):
        row = laplacian_row(W5, i)
        assert sum(row) == 0
        assert row[i - 1] == W5.degree(i)
    with pytest.raises(ValueError):
        laplacian_row(W5, 0)
    with pytest.raises(ValueError):
        laplacian_row(W5, 7)


def test_topple_moves_chips_along_edges(K3):
    f = (3, 0, 0)
    assert topple(K3, f, 1) == (1, 1, 1)
    # toppling never changes the total
    assert degree(topple(K3, f, 2)) == degree(f)


def test_check_config_validates_length(K3):
    assert check_config(K3, [1, 2, 3]) == (1, 2, 3)
    with pytest.raises(ValueError):
        check_config(K3, (1, 2))
    with pytest.raises(ValueError):
        check_config(K3, (1, 2, 3, 4))


@pytest.mark.parametrize("call", [
    lambda K3: complete.rank_formula((2.7, 0, 0)),
    lambda K3: rank.rank_bruteforce(K3, (2.7, 0, 0)),
    lambda K3: dynamics.stabilize(K3, ("3", 0, 0)),
    lambda K3: MultiGraph([[0, 1.5], [1.5, 0]]),
    lambda K3: MultiGraph.from_edges(2.9, [(1, 2)]),
    lambda K3: MultiGraph.from_edges(3, [(1, 2), (2, 3, 1.0)]),
    lambda K3: TruncatedSeries(1, 3, {(1,): 0.5}),
    lambda K3: TruncatedSeries(1, 3, {(1.7,): 2}),
    lambda K3: TruncatedSeries(1, 2.5, {(1,): 1, (2,): 1}),
    lambda K3: TruncatedSeries(1.0, 3),
    lambda K3: strip.psi_involution("aabbb", 2.7),
    lambda K3: strip.Kn_bistatistic_check(3, (-2, 3.5)),
    lambda K3: complete.rank_formula_details((2.7, 0, 0)),
    lambda K3: strip.left_right("aabbb", 2.7),
    lambda K3: strip.carlitz_catalan(3.5, 2),
    lambda K3: strip.kn_degree_rank_table(3, -2, 3.5),
    lambda K3: TruncatedSeries(1, 3, {(1,): 1}).map_exponents(lambda e: (e[0] + 0.5,)),
    lambda K3: TruncatedSeries(1, 3, {(1,): 1}).map_exponents(lambda e: e, trunc=2.5),
    lambda K3: strip.vertex_label(3, 0.5, 1),
    lambda K3: strip.cell_label(3, 0.5, 1),
    lambda K3: dynamics.effective_class_counts(K3, 2.5),
    lambda K3: strip.Kn_bistatistic_check(3.0),
    lambda K3: strip.kn_degree_rank_table(3.0, 0, 2),
    lambda K3: strip.LnC_identity_check(2, 2.0),
    lambda K3: MultiGraph.complete(2.0),
    lambda K3: MultiGraph.wheel(3.0),
    lambda K3: complete.phi1((0, 1), 3.0),
    lambda K3: dyck.dyck_words(1.5),
    lambda K3: dyck.dyck_words(2.0),
    lambda K3: dyck.dn_words(2.0),
    lambda K3: strip.Ln_direct(3.0, 4),
    lambda K3: strip.Ln_via_toxy(3.0, 4),
    lambda K3: strip.h_series(2.5),
], ids=["rank_formula", "rank_bruteforce", "stabilize", "matrix", "n", "edge",
        "series_coeff", "series_exponent", "series_trunc", "series_nvars",
        "psi_threshold", "bistatistic_window", "rank_formula_details",
        "leftright_threshold", "carlitz_orders", "table_bounds",
        "map_exponents_image", "map_exponents_trunc", "vertex_label",
        "cell_label", "class_counts_degree", "bistatistic_n", "table_n",
        "identity_trunc", "complete_n", "wheel_k", "phi1_n", "dyck_words_half",
        "dyck_words_float", "dn_words_n", "Ln_direct_n", "Ln_via_toxy_n",
        "h_series_trunc"])
def test_non_integers_rejected_not_truncated(K3, call):
    with pytest.raises(ValueError, match="must be integers"):
        call(K3)


def test_spanning_tree_counts(K3, K4, K5, W5):
    assert K3.spanning_tree_count() == 3
    assert K4.spanning_tree_count() == 16
    # Cayley: n^(n-2)
    assert K5.spanning_tree_count() == 125
    assert W5.spanning_tree_count() == 121


def test_spanning_trees_multigraph():
    # doubling every edge of K3 scales the count by 2^(edges in a tree)
    G = MultiGraph.from_edges(3, [(1, 2, 2), (2, 3, 2), (1, 3, 2)])
    assert G.spanning_tree_count() == 3 * 2 * 2


def _kirchhoff(G: MultiGraph) -> int:
    """Determinant of the reduced Laplacian by Fraction elimination."""
    k = G.n - 1
    a = [[Fraction(x) for x in G.laplacian_row(i + 1)[:k]] for i in range(k)]
    det = Fraction(1)
    for c in range(k):
        p = next(r for r in range(c, k) if a[r][c])
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        for r in range(c + 1, k):
            q = a[r][c] / a[c][c]
            for j in range(c, k):
                a[r][j] -= q * a[c][j]
    return int(det)


def _random_multigraphs(seed: int, count: int, sizes=(2, 12)):
    rng = random.Random(seed)
    while count:
        n = rng.randint(*sizes)
        edges = [(i, j, rng.randint(1, 3))
                 for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < 0.4]
        try:
            yield MultiGraph.from_edges(n, edges)
        except ValueError:  # disconnected: draw again
            continue
        count -= 1


def test_spanning_trees_match_kirchhoff():
    graphs = SMALL_GRAPHS + list(_random_multigraphs(7, 40))
    for G in graphs:
        assert G.spanning_tree_count() == _kirchhoff(G), G.to_json()
    for n in range(2, 9):  # Cayley
        assert MultiGraph.complete(n).spanning_tree_count() == n ** (n - 2)


def _sink_grid_edges(side: int) -> tuple:
    """``(n, edges)``: the side x side grid whose boundary edges all lead to
    one sink, as a 1-based edge list that repeats each corner's sink pair."""
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


def _sink_grid(side: int) -> MultiGraph:
    """side x side grid whose boundary edges all lead to one sink."""
    return MultiGraph.from_edges(*_sink_grid_edges(side))


def test_borrow_is_a_unit_step_of_the_residue():
    """Each _borrow(cols, v, i, k) turns the residue v into the residue of
    v - e_i; the steps wrap entries with small Hermite diagonals often
    enough that some carries reach several entries past i."""
    rng = random.Random(11)
    grid = _sink_grid(6)
    assert set(grid.degrees[:-1]) == {4}
    graphs = [MultiGraph.wheel(30), grid, *_random_multigraphs(3, 4, sizes=(12, 12))]
    for G in graphs:
        cols = _lattice_form(G)
        k = G.n - 1
        small = [i for i in range(k) if cols[i][i] <= 10]
        reach = 0
        for start in ([0] * k, [rng.randint(-50, 50) for _ in range(k)]):
            v = list(_residue(cols, start, k))
            for step in range(300):
                i = rng.choice(small) if step % 3 else rng.randrange(k)
                expect = _residue(cols, [x - (r == i) for r, x in enumerate(v)], k)
                before = v[:]
                _borrow(cols, v, i, k)
                assert tuple(v) == expect, (G.to_json(), before, i)
                reach = max([reach] + [r - i for r in range(k) if before[r] != v[r]])
        assert reach >= 3, G.to_json()


def test_hermite_entries_are_bounded_by_the_diagonal():
    """Below the diagonal, each entry of the Hermite form lies in
    0 .. d - 1 for the diagonal entry d of its row; without that reduction
    the 10 x 10 grid's form holds entries of 288 digits."""
    for G in (MultiGraph.complete(60), MultiGraph.wheel(30), _sink_grid(10)):
        cols = _lattice_form(G)
        k = G.n - 1
        for c, col in enumerate(cols):
            assert col[:c] == [0] * c
            assert col[c] > 0
            assert all(0 <= col[r] < cols[r][r] for r in range(c + 1, k)), (G, c)


def test_adjacency_matches_matrix(multi4):
    for G in [multi4, *SMALL_GRAPHS, _sink_grid(4), MultiGraph([[0]])]:
        adj = G._adj
        dense = _dense(G.n, json.loads(G.to_json())["edges"])
        assert adj == tuple(
            tuple((j, e) for j, e in enumerate(row) if e) for row in dense
        )
        # equal pairs are one shared tuple
        pairs = {}
        assert all(pairs.setdefault(p, p) is p for row in adj for p in row)


def test_adjacency_survives_kernel_calls_on_another_graph():
    K4, W5 = MultiGraph.complete(4), MultiGraph.wheel(5)
    adj = K4._adj
    for f in range(3):
        dynamics.parking_representative(K4, (f, -1, 2, 0))
        dynamics.parking_representative(W5, (f, 0, -1, 2, 0, 1))
    assert K4._adj is adj


def _dense(n: int, edges) -> tuple:
    """The multiplicity matrix of a 1-based edge list, added up cell by cell."""
    mult = [[0] * n for _ in range(n)]
    for i, j, *e in edges:
        mult[i - 1][j - 1] += e[0] if e else 1
        mult[j - 1][i - 1] += e[0] if e else 1
    return tuple(map(tuple, mult))


def _random_edge_lists(seed: int, count: int):
    """``(n, edges)`` of connected random multigraphs on 2..8 vertices whose
    edge lists repeat pairs, give some reversed and hold zero multiplicities."""
    rng = random.Random(seed)
    while count:
        n = rng.randint(2, 8)
        edges = []
        for _ in range(rng.randint(n - 1, 3 * n)):
            i, j = rng.sample(range(1, n + 1), 2)
            edges.append((i, j) if rng.random() < 0.3 else (i, j, rng.randint(0, 3)))
        try:
            MultiGraph.from_edges(n, edges)
        except ValueError:  # disconnected: draw again
            continue
        yield n, edges
        count -= 1


def test_constructors_agree():
    """Every constructor stores the same graph for the same edges: the
    matrix, the edge list, its JSON and the named graphs agree with a dense
    matrix added up here, through the stored pairs, the queries, equality
    and hashing."""
    cases = [(G.n, json.loads(G.to_json())["edges"], G) for G in SMALL_GRAPHS]
    for n in range(1, 7):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        cases.append((n, pairs, MultiGraph.complete(n)))
    for k in range(3, 9):
        rim = [(i, i % k + 1) for i in range(1, k + 1)]
        cases.append((k + 1, rim + [(k + 1, i) for i in range(1, k + 1)], MultiGraph.wheel(k)))
    for n, edges in _random_edge_lists(24, 60):
        cases.append((n, edges, MultiGraph.from_edges(n, edges)))
    for n, edges, G in cases:
        dense = _dense(n, edges)
        assert G._adj == tuple(tuple((j, e) for j, e in enumerate(row) if e) for row in dense)
        assert G.degrees == tuple(map(sum, dense)) and G.m == sum(G.degrees) // 2
        assert G.is_complete() == all(dense[i][j] == (i != j) for i in range(n) for j in range(n))
        for i in range(n):
            assert G.laplacian_row(i + 1) == tuple(
                G.degrees[i] if j == i else -dense[i][j] for j in range(n))
            assert all(G.multiplicity(i + 1, j + 1) == dense[i][j] for j in range(n))
        for H in (MultiGraph(dense), MultiGraph.from_edges(n, edges),
                  MultiGraph.from_json(G.to_json())):
            assert H == G and hash(H) == hash(G), G.to_json()


def test_sink_grid_is_read_without_a_matrix():
    """The 60 x 60 sink grid, read from its JSON edge list, stabilizes a pile
    of 1000 chips in a fraction of the memory a dense 3601 x 3601 matrix
    would take on its own (about 100 MiB), and in under a second."""
    n, edges = _sink_grid_edges(60)
    text = json.dumps({"n": n, "edges": edges})
    f = [0] * n
    f[30 * 60 + 30] = 1000
    tracemalloc.start()
    try:
        start = perf_counter()
        stable, odometer = dynamics.stabilize(MultiGraph.from_json(text), f)
        elapsed = perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(stable) == 1000 and all(0 <= x < 4 for x in stable[:-1])
    assert odometer[30 * 60 + 30] > 0 and odometer[-1] == 0
    assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"
    assert elapsed < 1, f"{elapsed:.2f} s"
