import json
import random
import re
from collections import Counter
from itertools import accumulate, product
from math import comb, factorial, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chiprank import cli, dynamics
from chiprank.complete import parking_via_cyclic_lemma
from chiprank.graphs import MultiGraph, topple
from chiprank.rank import canonical_class_key

from conftest import SMALL_GRAPHS
from test_graphs import _random_multigraphs, _sink_grid


@st.composite
def graph_and_config(draw, lo=-6, hi=12, sandpile=False):
    G = draw(st.sampled_from(SMALL_GRAPHS))
    low = 0 if sandpile else lo
    f = draw(st.tuples(*[st.integers(low, hi) for _ in range(G.n)]))
    if sandpile:
        f = f[:-1] + (draw(st.integers(lo, hi)),)
    return G, f


def test_stabilize_pinned(K3):
    assert dynamics.stabilize(K3, (2, 0, 0)) == ((0, 1, 1), (1, 0, 0))


def test_stabilize_requires_nonnegative_nonsinks(K3):
    with pytest.raises(ValueError):
        dynamics.stabilize(K3, (-1, 0, 0))


@given(graph_and_config(sandpile=True))
def test_stabilize_is_stable_and_conserves_chips(gc):
    G, f = gc
    stable, odo = dynamics.stabilize(G, f)
    assert dynamics.is_stable(G, stable)
    assert sum(stable) == sum(f)
    assert odo[-1] == 0 and all(q >= 0 for q in odo)
    # the odometer is the certificate: replaying it reproduces the result
    replay = list(f)
    for i, q in enumerate(odo):
        row = G.laplacian_row(i + 1)
        replay = [x - q * r for x, r in zip(replay, row)]
    assert tuple(replay) == stable


@given(graph_and_config(sandpile=True))
def test_stabilize_order_independent(gc):
    """Toppling any unstable vertex first does not change the outcome."""
    G, f = gc
    stable, odo = dynamics.stabilize(G, f)
    for i in range(G.n - 1):
        if f[i] >= G.degrees[i]:
            g = topple(G, f, i + 1)
            stable2, odo2 = dynamics.stabilize(G, g)
            assert stable2 == stable
            assert odo2[i] + 1 == odo[i]


def test_recurrent_pinned(K3):
    assert dynamics.is_recurrent_burning(K3, (1, 1, 0))
    assert dynamics.is_recurrent_burning(K3, (0, 1, 0))
    assert not dynamics.is_recurrent_burning(K3, (0, 0, 0))


@given(graph_and_config(lo=0, hi=6))
def test_burning_equals_subset_criterion(gc):
    G, f = gc
    f = tuple(min(x, d - 1) for x, d in zip(f, G.degrees))  # make it stable
    assert dynamics.is_recurrent_burning(G, f) == dynamics.is_recurrent_subsets(G, f)


def test_burning_odometer_and_fixed_point_agree():
    """Firing the sink into a stable f and stabilizing topples every
    non-sink vertex exactly once (the odometer, which the burning test
    reads) exactly when it gives f back (the fixed point)."""
    for G in SMALL_GRAPHS:
        sink_row = G.laplacian_row(G.n)
        for body in product(*(range(d) for d in G.degrees[:-1])):
            for f in (body + (0,), body + (-3,)):
                cfg, odo = dynamics.stabilize(G, [x - r for x, r in zip(f, sink_row)])
                once = all(t == 1 for t in odo[:-1])
                assert dynamics.is_recurrent_burning(G, f) == once == (cfg == f)


@given(graph_and_config())
def test_beta_is_an_involution(gc):
    G, f = gc
    assert dynamics.beta(G, dynamics.beta(G, f)) == f


@given(graph_and_config(lo=0, hi=6))
def test_stable_complement_duality(gc):
    """A stable configuration is recurrent exactly when its complement is
    parking, under both parking criteria."""
    G, f = gc
    f = tuple(min(x, d - 1) for x, d in zip(f, G.degrees))
    rec = dynamics.is_recurrent_burning(G, f)
    comp = dynamics.beta(G, f)
    assert dynamics.is_parking(G, comp, method="duality") == rec
    assert dynamics.is_parking(G, comp, method="subsets") == rec


@settings(max_examples=60)
@given(graph_and_config())
def test_parking_reduction_is_idempotent_and_class_preserving(gc):
    G, f = gc
    p = dynamics.parking_representative(G, f)
    assert dynamics.is_parking(G, p, method="duality")
    assert dynamics.is_parking(G, p, method="subsets")
    assert dynamics.parking_representative(G, p) == p
    # same class: shifting f by any Laplacian row cannot change the result
    for i in range(1, G.n + 1):
        shifted = tuple(x - r for x, r in zip(f, G.laplacian_row(i)))
        assert dynamics.parking_representative(G, shifted) == p


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_parking_of_huge_entries_is_a_class_invariant(data):
    """Entries up to 1e18 park at once: adding t_i times Laplacian row i
    (|t_i| up to 1e12) leaves the parking representative unchanged, and on
    K_n it is the cyclic lemma's."""
    G = data.draw(st.sampled_from(SMALL_GRAPHS + [MultiGraph.complete(5),
                                                  MultiGraph.complete(6)]))
    f = data.draw(st.tuples(*[st.integers(-10**18, 10**18)] * G.n))
    t = data.draw(st.tuples(*[st.integers(-10**12, 10**12)] * G.n))
    shifted = list(f)
    for i, ti in enumerate(t):
        for j, r in enumerate(G.laplacian_row(i + 1)):
            shifted[j] += ti * r
    p = dynamics.parking_representative(G, f)
    assert dynamics.is_parking(G, p, method="duality")
    assert dynamics.is_parking(G, p, method="subsets")
    assert dynamics.parking_representative(G, shifted) == p
    if G.is_complete():
        assert p == parking_via_cyclic_lemma(f)[1]


# piles and debts far past any round-per-chip budget
DEEP = [
    (MultiGraph.wheel(30), (10**7,) + (0,) * 28 + (-10**7, 0)),
    (MultiGraph.wheel(20), tuple((-10**18, 10**18)[i % 2] for i in range(21))),
    (MultiGraph.wheel(20), tuple(random.Random(20).randint(-10**18, 10**18) for _ in range(21))),
    (_sink_grid(10), (0,) * 44 + (10**12,) + (0,) * 56),
]


@pytest.mark.parametrize("G, f", DEEP, ids=["W30-1e7", "W20-alternating-1e18",
                                           "W20-random-1e18", "grid10-pile-1e12"])
def test_deep_configurations_park_in_bulk(G, f, burnings):
    """One kernel call, within n burning rounds: debts are cleared and
    legal sets fired as often as they can be at once, not one round per
    chip.  The result burns completely and stays in f's class."""
    p = dynamics.parking_representative(G, f)
    assert len(burnings) == 1 and burnings[0] <= G.n
    assert dynamics.is_parking(G, p)
    assert canonical_class_key(G, p) == canonical_class_key(G, f)


def test_deep_wheel_parking_pinned():
    """Pinned from the one-chip-per-round reduction, an independent route
    that took about 10 s on this input."""
    f = (10**7,) + (0,) * 28 + (-10**7, 0)
    assert dynamics.parking_representative(MultiGraph.wheel(30), f) == (
        1, 1, 2, 0, 1, 0, 1, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1,
        0, 0, 1, 1, 1, -18)


def test_small_configurations_skip_the_hermite_form():
    """Parking reduces f itself, without the O(n^3) Hermite form, also past
    the m - n + 1 chips a parking configuration holds at most."""
    for f in [(-3, 5) + (0,) * 57 + (-2,), (29,) * 59 + (0,), (-29,) * 59 + (0,),
              (10**9,) + (0,) * 57 + (-10**9, 0)]:
        K60 = MultiGraph.complete(60)
        assert dynamics.is_parking(K60, dynamics.parking_representative(K60, f))
        assert K60._hnf is None


def test_parking_pinned(K5):
    assert dynamics.parking_representative(K5, (3, 1, 3, 4, -1)) == (0, 3, 0, 1, 6)


def test_parking_is_unique_in_class(K3):
    # walk the whole class of (0,0,0) within a small box: exactly one parking
    members = [
        (a, b, -a - b)
        for a in range(-4, 5)
        for b in range(-4, 5)
        if dynamics.parking_representative(K3, (a, b, -a - b))
        == dynamics.parking_representative(K3, (0, 0, 0))
    ]
    parkings = [f for f in members if f[0] >= 0 and f[1] >= 0 and dynamics.is_parking(K3, f)]
    assert parkings == [(0, 0, 0)]


def test_recurrent_representative_pinned(K3):
    assert dynamics.recurrent_representative(K3, (0, 0, 0)) == (1, 1, -2)


@settings(max_examples=40)
@given(graph_and_config())
def test_recurrent_representative_is_recurrent_and_equivalent(gc):
    G, f = gc
    r = dynamics.recurrent_representative(G, f)
    assert dynamics.is_stable(G, r)
    assert dynamics.is_recurrent_burning(G, r)
    assert dynamics.parking_representative(G, r) == dynamics.parking_representative(G, f)


def test_single_vertex_graph_edge_cases():
    G1 = MultiGraph([[0]])
    assert dynamics.stabilize(G1, (5,)) == ((5,), (0,))
    assert dynamics.parking_representative(G1, (-3,)) == (-3,)
    assert dynamics.is_parking(G1, (0,))


def test_orientation_from_parking_pinned(K3):
    o = dynamics.acyclic_orientation_from_parking(K3, (0, 1, 0))
    assert o.head == {(1, 2): 2, (1, 3): 1, (2, 3): 2}
    assert o.is_acyclic()
    assert [o.indegree(i) for i in (1, 2, 3)] == [1, 2, 0]
    assert dynamics.orientation_configuration(o) == (0, 1, -1)


def test_orientation_refusals(K3):
    """A non-edge, a reversed pair, a head off its edge, an edge left out,
    a key that is not a pair and a non-integer endpoint or head are
    refused; 1.0 == True == 1, so a float or bool endpoint would otherwise
    pass as the edge 1-2."""
    path = MultiGraph.from_edges(3, [(1, 2), (2, 3)])
    K2 = MultiGraph.complete(2)
    for G, head, match in [
        (path, {(1, 2): 2, (2, 3): 3, (1, 3): 1}, "non-edge"),
        (K3, {(2, 1): 2, (1, 3): 1, (2, 3): 2}, "non-edge"),
        (K3, {(1, 2): 3, (1, 3): 1, (2, 3): 2}, "one endpoint"),
        (K3, {(1, 2): 2, (1, 3): 1}, r"\(2, 3\) left unoriented"),
        (K2, {(1.0, 2): 2}, "must be integers"),
        (K2, {(1, 2): 2.0}, "must be integers"),
        (K3, {1: 2}, "not a vertex pair"),
        (K3, {(1, 2, 3): 2, (1, 3): 1, (2, 3): 2}, "not a vertex pair"),
        (K3, {(True, 2): 2, (1, 3): 1, (2, 3): 2}, "must be integers"),
        (K3, {(1, 2): True, (1, 3): 1, (2, 3): 2}, "must be integers"),
    ]:
        with pytest.raises(ValueError, match=match):
            dynamics.Orientation(G, head)


def test_indegree_counts_parallel_edges(multi4):
    # multi4's pairs: 1-2 twice, 1-3 twice, 1-4 once, 2-3 once, 3-4 three times
    o = dynamics.Orientation(multi4, {(1, 2): 2, (1, 3): 3, (1, 4): 1, (2, 3): 3, (3, 4): 4})
    assert [o.indegree(v) for v in (1, 2, 3, 4)] == [1, 2, 3, 3]


@settings(max_examples=40)
@given(graph_and_config())
def test_orientation_configuration_properties(gc):
    """Orienting along a parking configuration gives an acyclic orientation
    whose indegree-minus-one configuration has degree m - n, dominates the
    parking configuration, and is never effective."""
    G, f = gc
    p = dynamics.parking_representative(G, f)
    assert dynamics.is_parking(G, p, method="subsets")
    o = dynamics.acyclic_orientation_from_parking(G, p)
    assert o.is_acyclic()
    cfg = dynamics.orientation_configuration(o)
    assert sum(cfg) == G.m - G.n
    assert all(p[i] <= cfg[i] for i in range(G.n - 1))
    assert not dynamics.is_effective_class(G, cfg)


def test_recurrent_level_counts_pinned(K3, K4, W5):
    assert dynamics.recurrent_level_counts(K3) == [2, 1]
    assert dynamics.recurrent_level_counts(K4) == [6, 6, 3, 1]
    for G in (K3, K4, W5):
        assert sum(dynamics.recurrent_level_counts(G)) == G.spanning_tree_count()


def test_recurrent_level_counts_past_the_jacobian_limit():
    """W30 (|Jac| = 3.5·10^12) and the 6 x 6 sink grid have far more
    recurrent configurations than the enumeration limit, but a frontier of
    four and of eight vertices; their levels still sum to |Jac|."""
    for G, g in ((MultiGraph.wheel(30), 30), (_sink_grid(6), 48)):
        levels = dynamics.recurrent_level_counts(G)
        assert len(levels) == g + 1 == G.m - G.n + 2
        assert sum(levels) == G.spanning_tree_count() > dynamics._ENUM_LIMIT


def _prefix_walk(G, entry_range, split):
    """Histogram of non-sink sums over the parking configurations, found by
    extending prefixes of members one vertex at a time; ``hist[s]`` counts
    the members whose non-sink entries sum to s.

    ``entry_range(prefix)`` returns the half-open range of the next entry
    over the members that start with ``prefix``.  Parking configurations
    are closed downwards, so every prefix the walk reaches extends to a
    member.  ``_child_ranges`` gives the ranges of all of a prefix's
    children at once, from ``split`` (two kernel calls) when there are two
    or more and from the lone child's ``entry_range`` (one call)
    otherwise.  The children of length n - 2 are never stacked: their last
    entries' ranges are tallied at once, into a difference array.  The
    members found must number exactly |Jac(G)|.
    """
    last = G.n - 2
    if last < 0:
        return [1]  # the empty body is the one member
    # sums run up to sum(deg - 1) over the non-sink vertices
    diff = [0] * (sum(G.degrees[:-1]) - last + 1)
    stack = [((), 0, *entry_range(()))]  # explicit, as the walk is n - 1 levels deep
    if last == 0:  # n = 2: the empty prefix's range is the last entry's
        _, _, lo, hi = stack.pop()
        diff[lo] += 1
        diff[hi] -= 1
    while stack:
        prefix, s, lo, hi = stack.pop()
        kids = _child_ranges(entry_range, split, prefix, lo, hi)
        if len(prefix) + 1 < last:
            stack.extend((prefix + (c,), s + c, *r) for c, r in enumerate(kids, lo))
        else:
            for sc, (a, b) in enumerate(kids, s + lo):
                diff[sc + a] += 1
                diff[sc + b] -= 1
    hist = list(accumulate(diff))[:-1]
    assert sum(hist) == G.spanning_tree_count()
    return hist


def _child_ranges(entry_range, split, prefix, lo, hi):
    """The next entry's range after each child prefix + (c,), for c in
    lo .. hi - 1: ``split(prefix)`` returns ``(t, below, above)``, and the
    range is ``below`` for c < t and ``above`` for c >= t.  A lone child
    calls its own ``entry_range`` instead, one kernel call against two."""
    if hi - lo == 1:
        return [entry_range(prefix + (lo,))]
    t, below, above = split(prefix)
    return [below if c < t else above for c in range(lo, hi)]


def _parking_range(G):
    """The parking walk's ``(entry_range, split)`` for ``_prefix_walk``,
    from burning tests: a second route to the parking sums, independent of
    T(1, y).

    ``entry_range``: vertex j gets deg(j) chips, which no fire can burn,
    and every later vertex none.  Let U (holding j) be what the fire leaves
    unburnt.  Then j burns exactly when it holds fewer than deg(j) - e(j, U)
    chips, the edges the burnt vertices send it; and once it burns, the
    rest burn too, as no set avoiding j could fire legally in the parking
    configuration with j at 0 either.

    ``split``: burning is monotone, so the unburnt set of prefix + (c,)
    with deg(j + 1) chips on j + 1 takes one of two values.  With deg(j)
    chips held on j the fire leaves U0 and sends j the heat
    h = deg(j) - e(j, U0); every c >= h leaves U0 as well, and every c < h
    burns j and leaves U1, what the fire leaves with j at 0.
    """
    n, degs, adj = G.n, G.degrees, G._adj

    def burn(cfg):
        return set(dynamics._backend.burning_test(degs, adj, cfg))

    def heat(i, unburnt):
        # the edges the burnt vertices send i
        return degs[i] - sum(e for j, e in adj[i] if j in unburnt)

    def entry_range(prefix):
        j = len(prefix)
        return 0, heat(j, burn(prefix + (degs[j],) + (0,) * (n - 1 - j)))

    def split(prefix):
        j = len(prefix)
        k = j + 1
        rest = (0,) * (n - 1 - k)
        u0 = burn(prefix + (degs[j], degs[k]) + rest)
        u1 = burn(prefix + (0, degs[k]) + rest)
        return heat(j, u0), (0, heat(k, u1)), (0, heat(k, u0))

    return entry_range, split


def parking_walk(G):
    """The parking walk's histogram of non-sink sums."""
    return _prefix_walk(G, *_parking_range(G))


def counts_by_parking(G, d_max, hist=None):
    """Effective classes of each degree 0..d_max from the parking walk (or
    its histogram ``hist``): the running sums of the parking
    configurations' non-sink sums."""
    hist = (parking_walk(G) if hist is None else hist)[:d_max + 1]
    return dict(enumerate(accumulate(hist + [0] * (d_max + 1 - len(hist)))))


def test_effective_class_counts_pinned(K3):
    counts = dynamics.effective_class_counts(K3, 4)
    assert counts == counts_by_parking(K3, 4) == {0: 1, 1: 3, 2: 3, 3: 3, 4: 3}


@pytest.mark.parametrize("G", [
    MultiGraph.wheel(6), MultiGraph.wheel(7), MultiGraph.wheel(8),
    MultiGraph.complete(5), MultiGraph.complete(6), MultiGraph.complete(7),
    _sink_grid(2), _sink_grid(3),
    MultiGraph.wheel(3), MultiGraph.wheel(4), MultiGraph.wheel(5),
    MultiGraph.wheel(9), MultiGraph.wheel(10),
    MultiGraph.complete(1), MultiGraph.complete(2), MultiGraph.complete(3),
    MultiGraph.complete(4),
], ids=["W6", "W7", "W8", "K5", "K6", "K7", "grid2", "grid3",
        "W3", "W4", "W5", "W9", "W10", "K1", "K2", "K3", "K4"])
def test_effective_class_counts_equal_the_level_tails(G):
    """T(1, y)'s counts against the parking walk's sums, past the degree
    where every class is effective, on graphs whose stable cube is too
    large for the cube test below: the recurrent levels, reversed, are the
    walk's histogram (parking sums above g = m - n + 1 never occur), and
    T(1, 1) is |Jac(G)|."""
    d_max = G.m - G.n + 3
    counts = dynamics.effective_class_counts(G, d_max)
    hist = parking_walk(G)
    assert counts == counts_by_parking(G, d_max, hist)
    levels = dynamics.recurrent_level_counts(G)
    assert levels[::-1] == hist[:len(levels)] and not any(hist[len(levels):])
    assert counts[d_max] == sum(levels) == G.spanning_tree_count()


@st.composite
def small_multigraphs(draw):
    """Random connected multigraphs, multiplicities up to 3, whose stable
    cube has at most 2·10^4 cells."""
    n = draw(st.integers(1, 6))
    edges = [(i, j, draw(st.integers(0, 3)))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    try:
        G = MultiGraph.from_edges(n, edges)
    except ValueError:  # disconnected
        assume(False)
    assume(prod(G.degrees[:-1]) <= 2 * 10**4)
    return G


def _cube_reference(G):
    """Parking sums and recurrent levels, from every cell of the stable cube."""
    sizes = [range(d) for d in G.degrees[:-1]]
    parking = Counter(sum(body) for body in product(*sizes)
                      if dynamics.is_parking(G, body + (0,)))
    levels = [0] * (G.m - G.n + 2)
    shift = G.m - G.degrees[-1]
    for body in product(*sizes):
        if dynamics.is_recurrent_burning(G, body + (0,)):
            levels[sum(body) - shift] += 1
    return parking, levels


@settings(max_examples=25, deadline=None)
@given(st.one_of(st.sampled_from(SMALL_GRAPHS), small_multigraphs()))
def test_prefix_walks_match_the_stable_cube(G):
    parking, levels = _cube_reference(G)
    hist = parking_walk(G)
    assert Counter({s: c for s, c in enumerate(hist) if c}) == parking
    assert dynamics.recurrent_level_counts(G) == levels
    d_max = G.m - G.n + 2
    counts = dynamics.effective_class_counts(G, d_max)
    assert counts == {d: sum(c for s, c in parking.items() if s <= d)
                      for d in range(d_max + 1)}
    assert counts == counts_by_parking(G, d_max, hist)
    assert counts[d_max] == G.spanning_tree_count()


def _check_split(G):
    """Walk the parking prefix tree with the per-child ranges; at every
    parent, ``_child_ranges`` must give each child c the range
    ``entry_range(prefix + (c,))``."""
    entry_range, split = _parking_range(G)
    stack = [((), *entry_range(()))] if G.n >= 3 else []
    while stack:
        prefix, lo, hi = stack.pop()
        each = [entry_range(prefix + (c,)) for c in range(lo, hi)]
        assert _child_ranges(entry_range, split, prefix, lo, hi) == each
        if len(prefix) + 3 < G.n:
            stack.extend((prefix + (c,), *r) for c, r in enumerate(each, lo))


def test_split_agrees_with_each_childs_range():
    for G in SMALL_GRAPHS + [MultiGraph.complete(6), MultiGraph.wheel(7)]:
        _check_split(G)


@settings(max_examples=25, deadline=None)
@given(small_multigraphs())
def test_split_agrees_with_each_childs_range_on_multigraphs(G):
    _check_split(G)


@pytest.mark.parametrize("G, calls", [
    (MultiGraph.wheel(7), 465),
    (MultiGraph.complete(6), 277),
    (MultiGraph.wheel(6), 177),
    (MultiGraph.from_edges(300, [(i, i + 1) for i in range(1, 300)]), 299),
])
def test_prefix_walks_make_two_kernel_calls_per_split(monkeypatch, G, calls):
    """A parent with two or more children costs two burning tests, a parent
    with one child one.  The bound of one call per prefix is 609, 570 and
    232 on W7, K6 and W6; the path, whose parents each have one child,
    meets it."""
    made = Counter()
    for name in ("burning_test", "stabilize"):
        kernel = getattr(dynamics._backend, name)

        def counting(*args, name=name, kernel=kernel):
            made[name] += 1
            return kernel(*args)

        monkeypatch.setattr(dynamics._backend, name, counting)
    parking_walk(G)
    assert made == {"burning_test": calls}


def test_class_counts_smallest_graphs():
    G1 = MultiGraph([[0]])  # the empty body is the one parking configuration
    assert dynamics.recurrent_level_counts(G1) == [1]
    assert dynamics.effective_class_counts(G1, 2) == {0: 1, 1: 1, 2: 1}
    assert counts_by_parking(G1, 2) == {0: 1, 1: 1, 2: 1}
    G2 = MultiGraph.from_edges(2, [(1, 2, 3)])
    assert dynamics.recurrent_level_counts(G2) == [1, 1, 1]
    assert dynamics.effective_class_counts(G2, 3) == {0: 1, 1: 2, 2: 3, 3: 3}
    assert counts_by_parking(G2, 3) == {0: 1, 1: 2, 2: 3, 3: 3}


def test_class_counts_walk_a_long_path():
    """The DP's frontier on a path is three vertices wide, whatever its
    length; a path has one class per degree, and one recurrent
    configuration."""
    P = MultiGraph.from_edges(2000, [(i, i + 1) for i in range(1, 2000)])
    assert dynamics.effective_class_counts(P, 3) == {0: 1, 1: 1, 2: 1, 3: 1}
    assert dynamics.recurrent_level_counts(P) == [1]


def _refuse(*args):
    raise AssertionError("called past the guard")


def test_class_count_guard_counts_the_jacobian(monkeypatch):
    """The guard counts |Jac| and the frontier's partitions, not
    stable-cube cells: C30's cube has 2^29 cells but only 30 classes.
    T(1, y) needs no kernel.  K6, with |Jac(K6)| = 1296 past the lowered
    limit, takes the inversion enumerator, which the guard does not
    bound."""
    C30 = MultiGraph.from_edges(30, [(i, i % 30 + 1) for i in range(1, 31)])
    assert dynamics.recurrent_level_counts(C30) == [29, 1]
    assert dynamics.effective_class_counts(C30, 3) == {0: 1, 1: 30, 2: 30, 3: 30}
    assert counts_by_parking(C30, 3) == {0: 1, 1: 30, 2: 30, 3: 30}

    monkeypatch.setattr(dynamics, "_ENUM_LIMIT", 1000)
    W7 = MultiGraph.wheel(7)  # |Jac| 841, cube 3^7 = 2187
    assert sum(dynamics.recurrent_level_counts(W7)) == 841
    counts = dynamics.effective_class_counts(W7, 10)
    assert counts == counts_by_parking(W7, 10)
    assert counts[10] == 841

    monkeypatch.setattr(dynamics._backend, "burning_test", _refuse)
    monkeypatch.setattr(dynamics._backend, "stabilize", _refuse)
    K6 = MultiGraph.complete(6)  # |Jac| 1296
    assert dynamics.recurrent_level_counts(K6) == [
        120, 240, 270, 240, 180, 120, 70, 35, 15, 5, 1]
    assert dynamics.effective_class_counts(K6, 13)[13] == 1296


def _sink_source_orientations(G):
    """Every acyclic orientation of G whose only source is the sink, by
    brute force over all orientations, each as a frozenset of its
    ``head`` items."""
    pairs = [(i + 1, j + 1) for i, row in enumerate(G._adj) for j, _ in row if i < j]
    found = set()
    for heads in product(*pairs):
        o = dynamics.Orientation(G, dict(zip(pairs, heads)))
        sources = [v for v in range(1, G.n + 1) if o.indegree(v) == 0]
        if sources == [G.n] and o.is_acyclic():
            found.add(frozenset(o.head.items()))
    return found


@pytest.mark.parametrize("G", [
    *(MultiGraph.complete(n) for n in range(2, 6)),
    *(MultiGraph.wheel(k) for k in range(3, 6)),
    *_random_multigraphs(5, 5, sizes=(5, 5)),
], ids=["K2", "K3", "K4", "K5", "W3", "W4", "W5", "R0", "R1", "R2", "R3", "R4"])
def test_top_parking_configurations_peel_to_sink_source_orientations(G):
    """T(1, 0), the recurrent configurations at level 0, counts the acyclic
    orientations whose only source is the sink (Greene and Zaslavsky,
    1983): the parking configurations of degree g = m - n + 1 peel into
    exactly those orientations, each once."""
    g = G.m - G.n + 1
    tops = [body + (0,) for body in product(*(range(d) for d in G.degrees[:-1]))
            if sum(body) == g and dynamics.is_parking(G, body + (0,))]
    peeled = set()
    for f in tops:
        o = dynamics.acyclic_orientation_from_parking(G, f)
        assert o.is_acyclic()
        peeled.add(frozenset(o.head.items()))
    assert len(peeled) == len(tops) == dynamics.recurrent_level_counts(G)[0]
    assert peeled == _sink_source_orientations(G)


def test_bell_numbers():
    assert [dynamics._bell(w, 10**8) for w in range(1, 14)] == [
        1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597, 27644437]
    # past the cap, the rows stop at the first Bell number beyond it
    assert dynamics._bell(500, 1000) == 4140


def test_class_counts_refuse_past_both_bounds(monkeypatch, capsys, tmp_path):
    """K13 less one edge is not complete, so the frontier DP takes it: its
    frontier reaches 13 vertices, Bell(13) = 27644437 partitions, and
    |Jac| = 11·13^10: both past the limit, so the counts and the levels are
    refused with both bounds named, before any state is built.  Either
    bound within the limit answers: a binary tree of 63 vertices, with a
    frontier of 18, has C(m, g) = C(62, 0) = 1, and one more edge closing
    an 11-cycle gives C(63, 1) = 63 but |Jac| = 11."""
    monkeypatch.setattr(dynamics, "_frontier_states", _refuse)
    edges = [(i, j) for i in range(1, 14) for j in range(i + 1, 14) if (i, j) != (1, 2)]
    G = MultiGraph.from_edges(13, edges)
    msg = (r"widest frontier has 13 vertices and Bell\(13\) > 10000000 partitions,"
           r" Jac\(G\) has 1516443410339 elements; both exceed 10000000")
    with pytest.raises(ValueError, match=msg):
        dynamics.effective_class_counts(G, 3)
    with pytest.raises(ValueError, match=msg):
        dynamics.recurrent_level_counts(G)
    path = tmp_path / "k13-less-an-edge.json"
    path.write_text(json.dumps({"n": 13, "edges": edges}))
    assert cli.main(["tutte-counts", "--graph", str(path), "--max-degree", "3"]) == 1
    assert re.search(msg, capsys.readouterr().err)
    # K13 itself takes the inversion enumerator's route and answers
    levels = dynamics.recurrent_level_counts(MultiGraph.complete(13))
    assert sum(levels) == 13**11 and levels[0] == factorial(12)
    monkeypatch.undo()

    monkeypatch.setattr(dynamics, "_ENUM_LIMIT", 50)
    tree = [(i, i // 2) for i in range(2, 64)]
    assert dynamics._frontier_plan(MultiGraph.from_edges(63, tree))[1] == 18
    G = MultiGraph.from_edges(63, tree + [(32, 63)])
    assert G.spanning_tree_count() == 11
    assert dynamics.effective_class_counts(G, 2) == {0: 1, 1: 11, 2: 11}
    monkeypatch.setattr(dynamics, "_ENUM_LIMIT", 10)
    with pytest.raises(ValueError, match=r"Jac\(G\) has 11 elements; both exceed 10$"):
        dynamics.effective_class_counts(G, 2)
    monkeypatch.setattr(MultiGraph, "spanning_tree_count", _refuse)
    assert dynamics.effective_class_counts(MultiGraph.from_edges(63, tree), 2) == {
        0: 1, 1: 1, 2: 1}


def test_class_count_refusal_prints_no_exact_bell_number(monkeypatch):
    """K_{2,2100} with its two hubs last: the frontier reaches 2101 rim
    vertices, and the exact Bell(2101) has more digits than Python's
    default limit on int-to-str conversion, so the refusal names the bound
    it passed, and |Jac| = 2^2099 * 2100 prints by size."""
    monkeypatch.setattr(dynamics, "_frontier_states", _refuse)
    G = MultiGraph.from_edges(2102, [(i, j) for i in range(1, 2101) for j in (2101, 2102)])
    msg = ("class counts: the widest frontier has 2101 vertices and Bell(2101) > 10000000"
           " partitions, Jac(G) has about 2^2110 elements; both exceed 10000000")
    with pytest.raises(ValueError, match=f"^{re.escape(msg)}$"):
        dynamics.effective_class_counts(G, 3)


def test_class_counts_of_a_binary_tree_keep_one_state(monkeypatch):
    """The 2047-vertex binary tree in index order (vertex i's parent is
    i // 2, and the sink a leaf): the frontier grows to 514 vertices, but
    a state whose components can no longer meet is dropped, so one state
    lives after every step; a tree has one spanning tree.  C(m, g) = 1
    spares the Hermite form."""
    T = MultiGraph.from_edges(2047, [(i, i // 2) for i in range(2, 2048)])
    steps, width = dynamics._frontier_plan(T)
    assert width == 514
    assert all(len(states) == 1 for states in dynamics._frontier_states(T, steps))
    monkeypatch.setattr(MultiGraph, "spanning_tree_count", _refuse)
    assert dynamics.effective_class_counts(T, 3) == {0: 1, 1: 1, 2: 1, 3: 1}


def _dp_poly(G):
    """T(1, y) packed, as the frontier DP leaves it, called directly."""
    for states in dynamics._frontier_states(G, dynamics._frontier_plan(G)[0]):
        pass
    (poly,) = states.values()
    return poly


def test_inversion_enumerator_equals_the_frontier_dp():
    """On K1-K10 the recurrence's packed int is the DP's, slot for slot,
    and the levels unpack from it."""
    for n in range(1, 11):
        K = MultiGraph.complete(n)
        bits = 8 * dynamics._coefficient_bytes(K)
        poly = dynamics._inversion_enumerator(n, bits)
        assert poly == _dp_poly(K)
        levels = dynamics.recurrent_level_counts(K)
        assert sum(c << i * bits for i, c in enumerate(levels)) == poly


def test_complete_slots_hold_the_tree_count():
    """K_n's slots are sized from n^(n-2), a byte or more narrower than
    ``_coefficient_bytes``' from K4 on; the levels are those unpacked from
    the enumerator run in the wider slots, for K1-K40."""
    for n in range(1, 41):
        K = MultiGraph.complete(n)
        bits = 8 * dynamics._coefficient_bytes(K)
        raw = dynamics._inversion_enumerator(n, bits)
        g = comb(n - 1, 2)
        wide = [raw >> i * bits & ((1 << bits) - 1) for i in range(g + 1)]
        assert dynamics.recurrent_level_counts(K) == wide


def test_complete_class_counts_count_trees_and_orderings():
    """T_{K_n}(1, 1) = n^(n-2) (Cayley) and T_{K_n}(1, 0) = (n - 1)!, the
    acyclic orientations whose only source is the sink, for n up to 30;
    the levels run up to g = C(n - 1, 2)."""
    for n in range(2, 31):
        K = MultiGraph.complete(n)
        levels = dynamics.recurrent_level_counts(K)
        assert len(levels) == comb(n - 1, 2) + 1
        assert sum(levels) == n ** (n - 2)
        assert levels[0] == factorial(n - 1)
        g = len(levels) - 1
        assert dynamics.effective_class_counts(K, g + 1)[g + 1] == n ** (n - 2)


def test_complete_route_needs_no_plan_kernel_or_hermite_form(monkeypatch):
    monkeypatch.setattr(dynamics, "_frontier_plan", _refuse)
    monkeypatch.setattr(dynamics, "_frontier_states", _refuse)
    for kernel in ("stabilize", "burning_test", "parking_reduce"):
        monkeypatch.setattr(dynamics._backend, kernel, _refuse)
    monkeypatch.setattr(MultiGraph, "spanning_tree_count", _refuse)
    for n in (1, 2, 6, 13, 30):
        K = MultiGraph.complete(n)
        assert dynamics.effective_class_counts(K, 3)[0] == 1
        assert K._hnf is None


def test_complete_route_refuses_before_any_product(monkeypatch, capsys):
    """Past ``_COMPLETE_LIMIT`` the count is refused, naming the bound,
    before the recurrence takes a product."""
    monkeypatch.setattr(dynamics, "_inversion_enumerator", _refuse)
    over = dynamics._COMPLETE_LIMIT + 1
    msg = rf"K_{over} is past K_{over - 1}, .*\(_COMPLETE_LIMIT\)$"
    with pytest.raises(ValueError, match=msg):
        dynamics.recurrent_level_counts(MultiGraph.complete(over))
    monkeypatch.setattr(dynamics, "_COMPLETE_LIMIT", 5)
    K6 = MultiGraph.complete(6)
    for count in (dynamics.recurrent_level_counts,
                  lambda G: dynamics.effective_class_counts(G, 3)):
        with pytest.raises(ValueError, match=r"K_6 is past K_5, .*\(_COMPLETE_LIMIT\)$"):
            count(K6)
    assert cli.main(["tutte-counts", "--complete", "6", "--max-degree", "3"]) == 1
    assert "_COMPLETE_LIMIT" in capsys.readouterr().err


def test_class_counts_refuse_a_degree_past_the_tail_limit(monkeypatch, capsys):
    """From degree g on every count is T(1, 1), so a d_max more than
    ``_TAIL_LIMIT`` past g is refused before T(1, y) is computed or any
    entry built; the last one accepted answers with the constant tail."""
    K3 = MultiGraph.complete(3)  # g = 1
    top = 1 + dynamics._TAIL_LIMIT
    counts = dynamics.effective_class_counts(K3, top)
    assert len(counts) == top + 1 and counts[2] == counts[top] == 3
    monkeypatch.setattr(dynamics, "_tutte_y", _refuse)
    msg = rf"d_max {top + 1} is more than {top - 1} \(_TAIL_LIMIT\) past g = 1"
    with pytest.raises(ValueError, match=msg):
        dynamics.effective_class_counts(K3, top + 1)
    assert cli.main(["tutte-counts", "--complete", "3", "--max-degree", str(10**20)]) == 1
    assert "_TAIL_LIMIT" in capsys.readouterr().err


def _meeting_groups(G, t):
    """The frontier after step t of the order sink, 0, ..., n - 2, and the
    position sets of its vertices that share a component of the edges with
    an endpoint processed after step t, found by BFS; None for the sets
    when the frontier meets in at most one component."""
    n, adj = G.n, G._adj
    at = [*range(1, n), 0]
    front = sorted((u for u in range(n)
                    if at[u] <= t and any(at[w] > t for w, _ in adj[u])), key=at.__getitem__)
    seen, comps = set(), []
    for s in front:
        if s in seen:
            continue
        seen.add(s)
        comp, todo = {s}, [s]
        while todo:
            u = todo.pop()
            for w, _ in adj[u]:
                if (at[u] > t or at[w] > t) and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    todo.append(w)
        comps.append(frozenset(p for p, u in enumerate(front) if u in comp))
    if len(comps) <= 1:
        return None
    return {c for c in comps if len(c) > 1}


def _ladder(rungs, rng):
    label = list(range(1, 2 * rungs + 1))
    rng.shuffle(label)
    edges = [(2 * i + 1, 2 * i + 2) for i in range(rungs)]
    edges += [(i, i + 2) for i in range(1, 2 * rungs - 1)]
    return MultiGraph.from_edges(2 * rungs, [(label[a - 1], label[b - 1]) for a, b in edges])


def _plan_oracle_graphs():
    rng = random.Random(35)
    graphs = list(SMALL_GRAPHS)
    while len(graphs) < len(SMALL_GRAPHS) + 50:
        n = rng.randint(2, 9)
        edges = [(i, j, rng.randint(1, 2)) for i in range(1, n + 1)
                 for j in range(i + 1, n + 1) if rng.random() < 0.4]
        try:
            graphs.append(MultiGraph.from_edges(n, edges))
        except ValueError:  # disconnected: draw again
            continue
    tree = [(i, i // 2) for i in range(2, 64)]
    graphs += [MultiGraph.from_edges(63, tree), MultiGraph.from_edges(63, tree + [(32, 63)]),
               _sink_grid(6), MultiGraph.wheel(30), _ladder(20, rng)]
    return graphs


def test_frontier_plan_groups_match_a_bfs():
    """Each step's groups are the frontier positions that can still meet
    through unprocessed vertices, as a BFS over the later edges finds
    them: None when they all can, else one set per meeting set of two or
    more, in any order."""
    for G in _plan_oracle_graphs():
        steps, _ = dynamics._frontier_plan(G)
        assert len(steps) == G.n
        for t, (_, _, groups) in enumerate(steps):
            if groups is not None:
                groups = {frozenset(group) for group in groups}
            assert groups == _meeting_groups(G, t)


@pytest.mark.parametrize("call", [
    dynamics.parking_representative,
    dynamics.recurrent_representative,
    dynamics.is_effective_class,
    dynamics.is_parking,
])
def test_parking_checks_the_config_once(conversions, K5, call):
    """One integer check per public call: the reduction and its self-check
    run on the checked tuple."""
    checks = conversions.checks
    for f in [(3, 1, 3, 4, -1), (0, 1, 2, 3, 0), (10**6, 0, 0, 0, -10**6)]:
        checks.clear()
        call(K5, f)
        assert checks == [(f,)]


@pytest.mark.parametrize("call", [
    dynamics.is_recurrent_burning,
    dynamics.is_recurrent_subsets,
])
def test_recurrence_checks_the_config_once(conversions, K5, call):
    """One integer check per public call: the stability test and the
    criterion run on the checked tuple."""
    checks = conversions.checks
    for f, recurrent in [((3, 3, 3, 3, 0), True), ((0, 1, 2, 3, 0), True),
                         ((0, 0, 2, 3, 0), False)]:
        checks.clear()
        assert call(K5, f) is recurrent
        assert checks == [(f,)]
    checks.clear()
    with pytest.raises(ValueError, match="stable configuration"):
        call(K5, (4, 0, 0, 0, 0))
    assert checks == [((4, 0, 0, 0, 0),)]


def test_orientation_from_parking_checks_the_config_once(conversions, K5):
    """One integer check per call, with the same errors: a negative
    non-sink entry is not a sandpile configuration, and a sandpile that
    is not parking cannot be peeled."""
    checks = conversions.checks
    f = (0, 1, 2, 3, 0)
    assert dynamics.acyclic_orientation_from_parking(K5, f).is_acyclic()
    assert checks == [(f,)]
    for f, err in [((0, -1, 2, 3, 0), "not a sandpile configuration"),
                   ((3, 3, 3, 3, 0), "peeling requires a parking configuration")]:
        checks.clear()
        with pytest.raises(ValueError, match=err):
            dynamics.acyclic_orientation_from_parking(K5, f)
        assert checks == [(f,)]
