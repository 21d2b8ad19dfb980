"""The kernels against dense round-robin reference loops.

The references below sweep every non-sink vertex in index order, round after
round, over the rows of a dense multiplicity matrix that ``test_graphs._dense``
adds up from an edge list: the one a random graph is built from, or a named
graph's JSON.  They share no code with ``chiprank._pykernels``, which runs
the same sweeps on the graph's sparse rows, so they check its reading of
those rows, its bulk moves and its round guards.
"""

import json

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import chiprank
from chiprank import _backend, _pykernels
from chiprank.graphs import MultiGraph

from conftest import SMALL_GRAPHS
from test_graphs import _dense, _sink_grid


def _matrix(G):
    """G's multiplicity matrix, added up from its JSON edge list."""
    return _dense(G.n, json.loads(G.to_json())["edges"])


GRAPHS = [(G, _matrix(G)) for G in
          SMALL_GRAPHS + [MultiGraph.wheel(8), MultiGraph.wheel(12), _sink_grid(5)]]


def dense_stabilize(mult, cfg):
    """Returns ``(odometer, rounds)``; rounds counts the final idle sweep."""
    n, degs = len(mult), list(map(sum, mult))
    odo = [0] * n
    rounds = 0
    active = True
    while active:
        active = False
        for i in range(n - 1):
            d = degs[i]
            if cfg[i] >= d:
                q = cfg[i] // d
                odo[i] += q
                cfg[i] -= q * d
                row = mult[i]
                for j in range(n):
                    e = row[j]
                    if e and j != i:
                        cfg[j] += q * e
                active = True
        rounds += 1
    return odo, rounds


def dense_burning(mult, cfg):
    n = len(mult)
    burnt = [False] * n
    burnt[n - 1] = True
    heat = list(mult[n - 1])
    changed = True
    while changed:
        changed = False
        for k in range(n - 1):
            if not burnt[k] and cfg[k] < heat[k]:
                burnt[k] = True
                row = mult[k]
                for j in range(n):
                    heat[j] += row[j]
                changed = True
    return [k for k in range(n - 1) if not burnt[k]]


def dense_parking(mult, cfg):
    """Returns the smallest ``MAX_ROUNDS`` under which the dense reduction
    settles: its own rounds, or those of a stabilization inside it."""
    n = len(mult)
    if n == 1:
        return 0
    rounds = need = 0
    while any(cfg[i] < 0 for i in range(n - 1)):
        row = mult[n - 1]
        cfg[n - 1] -= sum(row)
        for j in range(n - 1):
            cfg[j] += row[j]
        need = max(need, dense_stabilize(mult, cfg)[1])
        rounds += 1
    while True:
        unburnt = dense_burning(mult, cfg)
        if not unburnt:
            return max(need, rounds)
        inside = [False] * n
        for k in unburnt:
            inside[k] = True
        for k in unburnt:
            row = mult[k]
            out = 0
            for j in range(n):
                if not inside[j]:
                    out += row[j]
                    cfg[j] += row[j]
            cfg[k] -= out
        rounds += 1


@st.composite
def random_multigraph(draw):
    """``(G, mult)``: a connected multigraph on 2..8 vertices, multiplicities
    up to 3, and its matrix added up from the same edge list."""
    n = draw(st.integers(2, 8))
    edges = [(i, j, draw(st.integers(0, 3)))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    try:
        return MultiGraph.from_edges(n, edges), _dense(n, edges)
    except ValueError:  # disconnected
        assume(False)


@st.composite
def graph_and_config(draw, pile):
    """``(G, mult, f)``: entries from -10 to 30, and one of them raised by
    up to ``pile``."""
    G, mult = draw(st.one_of(st.sampled_from(GRAPHS), random_multigraph()))
    f = draw(st.lists(st.integers(-10, 30), min_size=G.n, max_size=G.n))
    f[draw(st.integers(0, G.n - 1))] += draw(st.integers(0, pile))
    return G, mult, f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graph_and_config(pile=10**5))
def test_stabilize_matches_dense(gc):
    """Also under the smallest guard the dense loop settles within."""
    G, mult, f = gc
    want_cfg = list(f)
    want, rounds = dense_stabilize(mult, want_cfg)
    cfg = list(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pykernels, "MAX_ROUNDS", rounds)
        assert _pykernels.stabilize(G.degrees, G._adj, cfg) == want
    assert cfg == want_cfg


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graph_and_config(pile=10**5))
def test_stabilize_counts_a_round_per_sweep(gc):
    """A round is one sweep that fires: where the dense loop takes
    ``rounds`` sweeps, the last of them idle, one guard less still settles
    and two less raises."""
    G, mult, f = gc
    rounds = dense_stabilize(mult, list(f))[1]
    assume(rounds >= 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pykernels, "MAX_ROUNDS", rounds - 2)
        with pytest.raises(RuntimeError, match="stabilization"):
            _pykernels.stabilize(G.degrees, G._adj, list(f))
        mp.setattr(_pykernels, "MAX_ROUNDS", rounds - 1)
        _pykernels.stabilize(G.degrees, G._adj, list(f))


def test_debt_sweeps_count_n_minus_1_a_round(monkeypatch):
    """One chip of debt on vertex n - 2 of K_n takes n - 1 sweeps, and one
    sink firing clears it: the dense reduction's round is n - 1 sweeps."""
    monkeypatch.setattr(_pykernels, "MAX_ROUNDS", 1)
    for n in (3, 4, 5, 8):
        K = MultiGraph.complete(n)
        cfg = [0] * n
        cfg[n - 2] = -1
        want = list(cfg)
        assert dense_parking(_matrix(K), want) == 1
        _pykernels.parking_reduce(K.degrees, K._adj, cfg)
        assert cfg == want


def test_single_vertex_graph_never_meets_the_guards(monkeypatch):
    G1 = MultiGraph([[0]])
    monkeypatch.setattr(_pykernels, "MAX_ROUNDS", 0)
    for f in ([5], [-5]):
        cfg = list(f)
        assert _pykernels.stabilize(G1.degrees, G1._adj, cfg) == [0]
        _pykernels.parking_reduce(G1.degrees, G1._adj, cfg)
        assert cfg == f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graph_and_config(pile=10**5))
def test_burning_matches_dense(gc):
    G, mult, f = gc
    cfg = list(f)
    assert _pykernels.burning_test(G.degrees, G._adj, cfg) == dense_burning(mult, f)
    assert cfg == f


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graph_and_config(pile=300))
# K3 [1, 2, 0]: its debt phase takes n - 1 sweeps a round
@example((*GRAPHS[1], [1, 2, 0]))
def test_parking_matches_dense(gc):
    """Also under the smallest guard the dense loops settle within."""
    G, mult, f = gc
    want = list(f)
    rounds = dense_parking(mult, want)
    cfg = list(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pykernels, "MAX_ROUNDS", rounds)
        _pykernels.parking_reduce(G.degrees, G._adj, cfg)
    assert cfg == want


def test_burning_starts_from_every_vertex_below_its_heat(multi4):
    """Vertex 2 holds -1 chips and has no edge to the sink: it burns at
    once, and its heat burns vertices 1 and 3."""
    assert _pykernels.burning_test(multi4.degrees, multi4._adj, [1, -1, 3, 0]) == []
    assert dense_burning(_matrix(multi4), [1, -1, 3, 0]) == []


def test_unburnt_sets_fire_in_bulk(burnings):
    """K30's largest stable configuration: nothing burns, and the whole
    non-sink set fires 28 times at once, so two burnings, not 29."""
    K30 = MultiGraph.complete(30)
    cfg = [28] * 29 + [0]
    _backend.parking_reduce(K30.degrees, K30._adj, cfg)
    assert cfg == [0] * 29 + [28 * 29]
    assert burnings == [2]


def test_round_guards_raise(monkeypatch, K3):
    K2 = MultiGraph.complete(2)
    monkeypatch.setattr(_pykernels, "MAX_ROUNDS", 0)
    with pytest.raises(RuntimeError, match="stabilization"):
        _pykernels.stabilize(K3.degrees, K3._adj, [2, 0, 0])
    # K2's [3, 0] is unstable, so the first stabilization raises; [-1, 5]
    # is stable and in debt, so the borrowing phase does; K3's [1, 1, 0] is
    # stable with no debt and does not burn, so the burning phase does
    for G, cfg in ((K2, [3, 0]), (K2, [-1, 5]), (K3, [1, 1, 0])):
        with pytest.raises(RuntimeError, match="parking reduction"):
            _pykernels.parking_reduce(G.degrees, G._adj, cfg)


def test_backend_names_are_the_kernels_themselves():
    # dynamics calls the kernels through _backend with no wrapper in between
    for name in ("stabilize", "burning_test", "parking_reduce"):
        assert getattr(_backend, name) is getattr(_pykernels, name)
    assert chiprank.COMPILED_KERNELS is False
