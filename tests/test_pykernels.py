"""The kernels against dense round-robin reference loops.

The references below sweep every non-sink vertex in index order, round after
round, over dense rows of ``flat``.  They share no code with
``chiprank._pykernels``, so they check its worklist traversal.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import chiprank
from chiprank import _backend, _pykernels
from chiprank.graphs import MultiGraph

from conftest import SMALL_GRAPHS
from test_graphs import _sink_grid

GRAPHS = SMALL_GRAPHS + [MultiGraph.wheel(8), MultiGraph.wheel(12), _sink_grid(5)]


def dense_stabilize(n, degs, flat, cfg):
    """Returns ``(odometer, rounds)``; rounds counts the final idle sweep."""
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
                row = i * n
                for j in range(n):
                    e = flat[row + j]
                    if e and j != i:
                        cfg[j] += q * e
                active = True
        rounds += 1
    return odo, rounds


def dense_burning(n, degs, flat, cfg):
    burnt = [False] * n
    burnt[n - 1] = True
    heat = [flat[(n - 1) * n + k] for k in range(n)]
    changed = True
    while changed:
        changed = False
        for k in range(n - 1):
            if not burnt[k] and cfg[k] < heat[k]:
                burnt[k] = True
                row = k * n
                for j in range(n):
                    heat[j] += flat[row + j]
                changed = True
    return [k for k in range(n - 1) if not burnt[k]]


def dense_parking(n, degs, flat, cfg):
    """Returns the smallest ``MAX_ROUNDS`` under which the dense reduction
    settles: its own rounds, or those of a stabilization inside it."""
    if n == 1:
        return 0
    rounds = need = 0
    while any(cfg[i] < 0 for i in range(n - 1)):
        row = (n - 1) * n
        cfg[n - 1] -= degs[n - 1]
        for j in range(n - 1):
            cfg[j] += flat[row + j]
        need = max(need, dense_stabilize(n, degs, flat, cfg)[1])
        rounds += 1
    while True:
        unburnt = dense_burning(n, degs, flat, cfg)
        if not unburnt:
            return max(need, rounds)
        inside = [False] * n
        for k in unburnt:
            inside[k] = True
        for k in unburnt:
            row = k * n
            out = 0
            for j in range(n):
                if not inside[j]:
                    out += flat[row + j]
                    cfg[j] += flat[row + j]
            cfg[k] -= out
        rounds += 1


@st.composite
def random_multigraph(draw):
    """A connected multigraph on 2..8 vertices, multiplicities up to 3."""
    n = draw(st.integers(2, 8))
    edges = [(i, j, draw(st.integers(0, 3)))
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    try:
        return MultiGraph.from_edges(n, edges)
    except ValueError:  # disconnected
        assume(False)


@st.composite
def graph_and_config(draw, pile):
    """Entries from -10 to 30, and one of them raised by up to ``pile``."""
    G = draw(st.one_of(st.sampled_from(GRAPHS), random_multigraph()))
    f = draw(st.lists(st.integers(-10, 30), min_size=G.n, max_size=G.n))
    f[draw(st.integers(0, G.n - 1))] += draw(st.integers(0, pile))
    return G, f


@settings(max_examples=200, deadline=None)
@given(graph_and_config(pile=10**5))
def test_stabilize_matches_dense(gc):
    """Also under the smallest guard the dense loop settles within."""
    G, f = gc
    n, degs, flat = G.flat()
    want_cfg = list(f)
    want, rounds = dense_stabilize(n, degs, flat, want_cfg)
    cfg = list(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pykernels, "MAX_ROUNDS", rounds)
        assert _pykernels.stabilize(n, degs, flat, cfg) == want
    assert cfg == want_cfg


@settings(max_examples=200, deadline=None)
@given(graph_and_config(pile=10**5))
def test_burning_matches_dense(gc):
    G, f = gc
    n, degs, flat = G.flat()
    cfg = list(f)
    assert _pykernels.burning_test(n, degs, flat, cfg) == dense_burning(n, degs, flat, f)
    assert cfg == f


@settings(max_examples=200, deadline=None)
@given(graph_and_config(pile=300))
def test_parking_matches_dense(gc):
    """Also under the smallest guard the dense loops settle within."""
    G, f = gc
    n, degs, flat = G.flat()
    want = list(f)
    rounds = dense_parking(n, degs, flat, want)
    cfg = list(f)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_pykernels, "MAX_ROUNDS", rounds)
        _pykernels.parking_reduce(n, degs, flat, cfg)
    assert cfg == want


def test_burning_starts_from_every_vertex_below_its_heat(multi4):
    """Vertex 2 holds -1 chips and has no edge to the sink: it burns at
    once, and its heat burns vertices 1 and 3."""
    n, degs, flat = multi4.flat()
    assert _pykernels.burning_test(n, degs, flat, [1, -1, 3, 0]) == []
    assert dense_burning(n, degs, flat, [1, -1, 3, 0]) == []


def test_round_guards_raise(monkeypatch, K3):
    K2 = MultiGraph.complete(2)
    monkeypatch.setattr(_pykernels, "MAX_ROUNDS", 0)
    with pytest.raises(RuntimeError, match="stabilization"):
        _pykernels.stabilize(*K3.flat(), [2, 0, 0])
    for cfg in ([-1, 5], [3, 0]):  # the sink-firing phase, then the burning one
        with pytest.raises(RuntimeError, match="parking reduction"):
            _pykernels.parking_reduce(*K2.flat(), cfg)


def test_backend_names_are_the_kernels_themselves():
    # dynamics calls the kernels through _backend with no wrapper in between
    for name in ("stabilize", "burning_test", "parking_reduce"):
        assert getattr(_backend, name) is getattr(_pykernels, name)
    assert chiprank.COMPILED_KERNELS is False
