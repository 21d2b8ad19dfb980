"""Sandpile dynamics: stabilization, recurrence, parking, orientations.

Conventions: vertex n (the last one) is the sink.  A *sandpile configuration*
has non-negative entries at every non-sink vertex; the sink entry is
unconstrained.  "Parking" configurations (superstable in part of the
literature) and recurrent configurations are exchanged by the complement map
``beta``.  Toppling equivalence f ~ g means f - g lies in the lattice spanned
by the Laplacian rows.
"""

from __future__ import annotations

from itertools import accumulate, combinations
from math import comb
from typing import Sequence

from . import _backend
from .graphs import MultiGraph, _as_ints, check_config

__all__ = [
    "is_stable",
    "stabilize",
    "is_recurrent_burning",
    "is_recurrent_subsets",
    "is_parking",
    "beta",
    "parking_representative",
    "recurrent_representative",
    "Orientation",
    "acyclic_orientation_from_parking",
    "orientation_configuration",
    "is_effective_class",
    "effective_class_counts",
    "recurrent_level_counts",
    "check_complete_limit",
]

# Guard for the class counts' frontier DP (``_tutte_y``): refused when both
# bounds on its live states, Bell(widest frontier) and |Jac(G)|, exceed it.
_ENUM_LIMIT = 10_000_000
# The largest K_n whose class counts ``_tutte_y`` computes, by the tree
# inversion enumerator; K_68 takes 3.1-3.3 s on a 2-core machine, and the
# time grows about as n^7.
_COMPLETE_LIMIT = 68
# How far past g = m - n + 1, where every count is T(1, 1), the class
# counts run: the counts' list and dict grow with d_max, not with G.
_TAIL_LIMIT = 100_000


def _require_sandpile(G: MultiGraph, f: tuple) -> tuple:
    """f, a checked configuration, once its non-sink entries are seen to be
    non-negative."""
    for i in range(G.n - 1):
        if f[i] < 0:
            raise ValueError(
                f"not a sandpile configuration: negative entry at vertex {i + 1}"
            )
    return f


def _require_stable(G: MultiGraph, f: Sequence[int], criterion: str) -> tuple:
    """f, checked, once it is seen to be a stable sandpile configuration,
    the input the recurrence ``criterion`` expects."""
    f = _require_sandpile(G, check_config(G, f))
    if not all(f[i] < G.degrees[i] for i in range(G.n - 1)):
        raise ValueError(f"{criterion} expects a stable configuration")
    return f


def is_stable(G: MultiGraph, f: Sequence[int]) -> bool:
    """True when every non-sink vertex holds fewer chips than its degree."""
    f = _require_sandpile(G, check_config(G, f))
    return all(f[i] < G.degrees[i] for i in range(G.n - 1))


def stabilize(G: MultiGraph, f: Sequence[int]) -> tuple:
    """Topple until stable; returns ``(stable_config, odometer)``.

    The odometer counts how many times each vertex toppled.  The result does
    not depend on the toppling order, and the sink never topples.
    """
    cfg = list(_require_sandpile(G, check_config(G, f)))
    odo = _backend.stabilize(G.degrees, G._adj, cfg)
    return tuple(cfg), tuple(odo)


def is_recurrent_burning(G: MultiGraph, f: Sequence[int]) -> bool:
    """Burning test: f (which must be stable) is recurrent iff its
    complement ``beta(f)`` is parking, that is, iff a fire lit at the sink
    burns every vertex of ``beta(f)`` (Dhar's burning, ``_is_parking``).
    Equivalently, firing the sink into f and stabilizing topples every
    non-sink vertex exactly once.
    """
    f = _require_stable(G, f, "burning test")
    return _is_parking(G, _beta(G, f))


def is_recurrent_subsets(G: MultiGraph, f: Sequence[int]) -> bool:
    """Recurrence by the subset criterion (exponential; an oracle).

    f is recurrent iff every nonempty set Y of non-sink vertices contains a
    vertex whose chip count is at least its degree inside Y.
    """
    f = _require_stable(G, f, "subset criterion")
    adj = G._adj
    nonsink = range(G.n - 1)
    for size in range(1, G.n):
        for Y in combinations(nonsink, size):
            inside = set(Y)
            if not any(f[k] >= sum(e for j, e in adj[k] if j in inside) for k in Y):
                return False
    return True


def beta(G: MultiGraph, f: Sequence[int]) -> tuple:
    """Complement map: every entry i goes to deg(i) - 1 - f(i), sink included.

    An involution exchanging parking and recurrent configurations.
    """
    return _beta(G, check_config(G, f))


def _beta(G: MultiGraph, f: tuple) -> tuple:
    """``beta`` on a checked configuration."""
    return tuple(d - 1 - x for d, x in zip(G.degrees, f))


def is_parking(G: MultiGraph, f: Sequence[int], method: str = "duality") -> bool:
    """Parking check: no nonempty set of non-sink vertices can fire legally.

    ``method="duality"`` (default) runs Dhar's burning test on f, the test
    that the complement ``beta(f)`` is recurrent; ``method="subsets"``
    searches directly for a set Y all of whose members could fire (f(k) at
    least the number of edges leaving Y from k, for every k in Y).
    """
    f = _require_sandpile(G, check_config(G, f))
    if method == "duality":
        return _is_parking(G, f)
    if method == "subsets":
        adj = G._adj
        nonsink = range(G.n - 1)
        for size in range(1, G.n):
            for Y in combinations(nonsink, size):
                inside = set(Y)
                if all(f[k] >= sum(e for j, e in adj[k] if j not in inside) for k in Y):
                    return False
        return True
    raise ValueError(f"unknown method {method!r}")


def _is_parking(G: MultiGraph, f: tuple) -> bool:
    """The parking test on a checked configuration: every non-sink entry
    lies in 0 .. deg - 1 (a lone overfull vertex already fires legally),
    and Dhar's fire, lit at the sink, burns every vertex (the unburnt set
    is the largest one that could fire legally)."""
    degs = G.degrees
    if any(not 0 <= f[i] < degs[i] for i in range(G.n - 1)):
        return False
    return not _backend.burning_test(degs, G._adj, f)


def parking_representative(G: MultiGraph, f: Sequence[int]) -> tuple:
    """The unique parking configuration toppling-equivalent to f.

    Works for arbitrary integer entries.  The reduction stabilizes, has
    every indebted vertex borrow as often as its debt needs at once, then
    fires the largest legal set as often as stays legal, until nothing can
    fire (``_pykernels.parking_reduce``).  Each move is made in bulk, so
    the burnings are bounded by the graph, and piles and debts of 10^18
    chips cost big-integer arithmetic and the sweeps of a bulk
    stabilization, not one round per chip.  f is checked once, here; the
    reduction (``_park``), which the other parking routes and the rank
    cache call directly, runs on the checked tuple.
    """
    return _park(G, check_config(G, f))


def _park(G: MultiGraph, f: tuple) -> tuple:
    """``parking_representative`` on a checked configuration: the kernel
    reduces f itself, and its result is taken as it is."""
    cfg = list(f)
    _backend.parking_reduce(G.degrees, G._adj, cfg)
    return tuple(cfg)


def recurrent_representative(G: MultiGraph, f: Sequence[int]) -> tuple:
    """The unique recurrent configuration toppling-equivalent to f.

    Computed through the complement map: beta of the parking representative
    of beta(f).  Since beta flips every entry (sink included), the result
    lands in the class of f itself.
    """
    return _beta(G, _park(G, _beta(G, check_config(G, f))))


# ---------- acyclic orientations ----------


class Orientation:
    """An orientation of a multigraph where parallel edges point one way.

    ``head[(i, j)]`` (with i < j, 1-based) names the endpoint all i-j edges
    point at.  Every pair with at least one edge appears, and no other.
    """

    __slots__ = ("graph", "head")

    def __init__(self, graph: MultiGraph, head: dict):
        edges = dict.fromkeys((i + 1, j + 1) for i, row in enumerate(graph._adj)
                              for j, _ in row if i < j)
        for pair, h in head.items():
            try:
                i, j = pair
            except (TypeError, ValueError):
                raise ValueError(f"orientation key {pair!r} is not a vertex pair") from None
            # 1.0 == True == 1, so a float or bool endpoint would pass the
            # lookup below
            if any(isinstance(x, bool) for x in (i, j, h)):
                raise ValueError("orientation endpoints and heads must be integers")
            _as_ints((i, j, h), "orientation endpoints and heads")
            if (i, j) not in edges:
                raise ValueError(f"orienting a non-edge: {(i, j)}")
            if h not in (i, j):
                raise ValueError(f"head of {(i, j)} must be one endpoint")
        for pair in edges:  # in order, so the first pair left out is named
            if pair not in head:
                raise ValueError(f"edge {pair} left unoriented")
        self.graph = graph
        self.head = dict(head)

    def indegree(self, v: int) -> int:
        g = self.graph
        g._check_vertex(v)
        return sum(e for u, e in g._adj[v - 1] if self.head[tuple(sorted((u + 1, v)))] == v)

    def is_acyclic(self) -> bool:
        n = self.graph.n
        indeg = [0] * n
        succ = [[] for _ in range(n)]
        for (i, j), h in self.head.items():
            tail = i if h == j else j
            succ[tail - 1].append(h - 1)
            indeg[h - 1] += 1
        queue = [v for v in range(n) if indeg[v] == 0]
        seen = 0
        while queue:
            v = queue.pop()
            seen += 1
            for w in succ[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return seen == n

    def __repr__(self) -> str:
        arrows = ", ".join(
            f"{i if h == j else j}->{h}" for (i, j), h in sorted(self.head.items())
        )
        return f"Orientation({arrows})"


def acyclic_orientation_from_parking(G: MultiGraph, f: Sequence[int]) -> Orientation:
    """Peel a parking configuration into an acyclic orientation.

    Vertices are processed sink-first; at each step some unprocessed vertex
    has fewer chips than its edges towards the processed side (that is what
    parking means), and all those edges are oriented towards it.  The sink
    ends up a global source and every non-sink vertex satisfies
    f(i) < indegree(i).
    """
    f = check_config(G, f)
    if not _is_parking(G, _require_sandpile(G, f)):
        raise ValueError("peeling requires a parking configuration")
    n, adj = G.n, G._adj
    order = [n - 1]  # 0-based processing order, sink first
    remaining = set(range(n - 1))
    while remaining:
        for k in sorted(remaining):
            if f[k] < sum(e for i, e in adj[k] if i not in remaining):
                break
        else:
            raise AssertionError("internal error: parking peel got stuck")
        order.append(k)
        remaining.discard(k)
    rank_of = {v: t for t, v in enumerate(order)}
    head = {}
    for i, row in enumerate(adj):
        for j, _ in row:
            if i < j:
                later = i if rank_of[i] > rank_of[j] else j
                head[(i + 1, j + 1)] = later + 1
    return Orientation(G, head)


def orientation_configuration(o: Orientation) -> tuple:
    """indegree - 1 at every vertex; degree m - n, never effective when the
    orientation is acyclic."""
    return tuple(o.indegree(v) - 1 for v in range(1, o.graph.n + 1))


# ---------- effectiveness and class counting ----------


def is_effective_class(G: MultiGraph, f: Sequence[int]) -> bool:
    """Is some non-negative configuration toppling-equivalent to f?

    Happens exactly when the parking representative has a non-negative sink
    entry (all other entries of a parking configuration are >= 0 already).
    """
    return _park(G, check_config(G, f))[-1] >= 0


def _bell(w: int, cap: int | None = None) -> int:
    """Bell(w), the number of partitions of a w-set, from the Bell triangle;
    with ``cap``, the first Bell number past it once one is (the rows stop
    there)."""
    row = [1]
    for _ in range(w - 1):
        if cap is not None and row[-1] > cap:
            break
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def _frontier_plan(G: MultiGraph) -> tuple:
    """``(steps, width)`` for ``_frontier_states``: the vertices in the order
    sink, 0, 1, ..., n - 2, and for each one ``(back, keep, groups)``.

    The frontier is the list of processed vertices that still have an
    unprocessed neighbour, in processing order, with the new vertex last
    while its edges are folded in.  ``back`` lists the new vertex's bundles
    to processed vertices as ``(position, multiplicity)``; ``keep`` is the
    positions that stay on the frontier afterwards, or None when all do;
    ``groups`` is None when every pair of frontier vertices can still meet
    through unprocessed vertices, and otherwise the position tuples of the
    vertices that can meet, one per such set of two or more.  ``width`` is
    the widest frontier, new vertex included.

    After step t, H_t is the graph of every edge with an unprocessed
    endpoint; two frontier vertices can still be joined exactly when they
    share a component of it.  Going backwards, H_t only gains edges, so one
    union-find serves every step: the groups are read off the roots of the
    step's frontier before the step's own edges are added.
    """
    n, adj = G.n, G._adj
    order = [n - 1, *range(n - 1)]
    at = [*range(1, n), 0]  # each vertex's step
    # the step after which u leaves the frontier: its own or its last neighbour's
    leave = [max([at[u]] + [at[w] for w, _ in adj[u]]) for u in range(n)]
    frontier, plan, width = [], [], 0
    for t, v in enumerate(order):
        back = [(frontier.index(u), e) for u, e in adj[v] if at[u] < t]
        frontier.append(v)
        width = max(width, len(frontier))
        keep = None
        if leave[v] == t or any(leave[u] == t for u, _ in adj[v] if at[u] < t):
            keep = tuple(p for p, u in enumerate(frontier) if leave[u] > t)
            frontier = [frontier[p] for p in keep]
        plan.append((back, keep, tuple(frontier)))
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    steps = [None] * n
    for t in range(n - 1, -1, -1):
        back, keep, front = plan[t]
        roots = {}
        for p, u in enumerate(front):
            roots.setdefault(find(u), []).append(p)
        groups = None
        if len(roots) > 1:
            groups = [tuple(group) for group in roots.values() if len(group) > 1]
        steps[t] = (back, keep, groups)
        v = order[t]
        for u, _ in adj[v]:
            parent[find(u)] = find(v)
    return steps, width


def _joined(key: tuple, groups: list) -> bool:
    """Can the components labelled in ``key`` still all meet, when only the
    frontier positions within one of ``groups`` can be joined?"""
    labels = set(key)
    if len(labels) == 1:
        return True
    links = [{key[p] for p in group} for group in groups]
    reached = {key[0]}
    grew = True
    while grew:
        grew = False
        for link in links:
            if not link.isdisjoint(reached) and not link <= reached:
                reached |= link
                grew = True
    return len(reached) == len(labels)


def _coefficient_bytes(G: MultiGraph) -> int:
    """Bytes per packed coefficient of T(1, y): enough for prod(deg + 1),
    which bounds the spanning forests of G and so every coefficient of
    every state."""
    return -(-sum((d + 1).bit_length() for d in G.degrees) // 8)


def _frontier_states(G: MultiGraph, steps: list):
    """Yield the live states after each step of ``steps``
    (``_frontier_plan``): a dict from the frontier's partition into
    components to a polynomial in y.

    The partition is a tuple that labels each frontier position with the
    position of its component's first vertex, so equal partitions have
    equal keys.  The polynomial is packed into one int, ``bits`` bits per
    coefficient, and sums (y - 1)^(|A| - merges) over the edge sets A of
    the processed bundles with that partition.  The new vertex v starts
    alone; it merges with some of the components its bundles reach and
    skips the others.  Merging with a component it reaches by E edges in
    all contributes (y^E - 1)/(y - 1) = 1 + y + ... + y^(E - 1): the sum,
    over which bundle first merges, of y^e for each later one, whose
    endpoints are then already joined.  A component none of whose
    vertices stays on the frontier must merge, or it would close off from
    the rest.  At y = 1 a state counts forests, which
    ``_coefficient_bytes`` bounds.  A state is dropped when v's component
    leaves the frontier while others remain, or when its components can no
    longer all meet through unprocessed vertices; each survivor extends to
    a spanning tree that fixes it, so at most |Jac(G)| live at once.
    After the last step the one state, the empty partition, holds T(1, y).
    """
    bits = 8 * _coefficient_bytes(G)
    spreads = {}
    states = {(): 1}
    for back, keep, groups in steps:
        grown = {}
        for key, val in states.items():
            reach = {}
            for p, e in back:
                reach[key[p]] = reach.get(key[p], 0) + e
            for e in reach.values():
                if e not in spreads:  # 1 + y + ... + y^(e - 1)
                    spreads[e] = ((1 << e * bits) - 1) // ((1 << bits) - 1)
            if keep is None:
                forced, optional = [], list(reach)
            else:
                stays = {key[p] for p in keep if p < len(key)}
                forced = [c for c in reach if c not in stays]
                optional = [c for c in reach if c in stays]
            for c in forced:
                val *= spreads[reach[c]]
            choices = [(forced, val)]
            for c in optional:
                choices += [(merged + [c], x * spreads[reach[c]]) for merged, x in choices]
            for merged, x in choices:
                if len(merged) > 1:
                    low = min(merged)
                    merged = set(merged)
                    new = tuple([low if c in merged else c for c in key]) + (low,)
                else:
                    low = merged[0] if merged else len(key)
                    new = key + (low,)
                if keep is not None:
                    first = {}
                    new = tuple([first.setdefault(new[p], i) for i, p in enumerate(keep)])
                    if keep and low not in first:
                        continue  # v's component closed off from the rest
                if groups is not None and not _joined(new, groups):
                    continue
                grown[new] = grown.get(new, 0) + x
        states = grown
        yield states


def _inversion_enumerator(n: int, bits: int) -> int:
    """J_(n-1)(y), the inversion enumerator of the labelled trees on n
    vertices, packed ``bits`` bits per coefficient: T(1, y) of K_n.

    Mallows and Riordan (1968): J_0 = 1 and J_(m+1) is the sum over
    i = 0..m of C(m, i) [i + 1]_y J_i J_(m-i), with
    [i + 1]_y = 1 + y + ... + y^i.  The factor [i + 1]_y is not multiplied
    in: the sum equals the sum over k of y^k S_k, S_k the sum of the terms
    with i >= k without it, so each step adds the products up from i = m
    down and takes the S_k by Horner's rule.  C(m, i) = C(m, m - i), so
    each product is taken once for i and m - i.  No coefficient along the
    way exceeds one of J_(m+1)'s, so none exceeds (m + 2)^m <= n^(n-2),
    the spanning trees of K_n, which ``_tutte_y``'s slots for K_n hold.
    """
    J = [1]
    for m in range(n - 1):
        terms = [comb(m, i) * J[i] * J[m - i] for i in range(m // 2 + 1)]
        tail = poly = 0
        for i in range(m, -1, -1):
            tail += terms[min(i, m - i)]
            poly = (poly << bits) + tail
        J.append(poly)
    return J[-1]


def check_complete_limit(n: int) -> None:
    """Refuse K_n's class counts past K_``_COMPLETE_LIMIT``: in ``_tutte_y``
    before any product, and in ``chiprank tutte-counts --complete N``
    before K_N is built."""
    if n > _COMPLETE_LIMIT:
        raise ValueError(
            f"class counts: K_{n} is past K_{_COMPLETE_LIMIT}, the largest"
            f" complete graph counted (_COMPLETE_LIMIT)"
        )


def _tutte_y(G: MultiGraph) -> list:
    """The coefficients of T(1, y), from y^0 up to y^g with g = m - n + 1.

    One route per graph class.  K_n's is the tree inversion enumerator
    J_(n-1) (``_inversion_enumerator``), refused past K_``_COMPLETE_LIMIT``
    before any product is taken; it needs no frontier plan, kernel or
    Hermite form.  Every other graph's is the frontier DP
    (``_frontier_states``), refused before any state is built when both
    bounds on the live states exceed ``_ENUM_LIMIT``: Bell(width), the
    partitions of the widest frontier, and |Jac(G)|.  A spanning tree
    leaves out g of the m edges, so |Jac(G)| <= C(m, g), and |Jac(G)| is
    computed only when that bound exceeds the limit too (a tree, whatever
    its frontier, needs no Hermite form).  Both routes pack the
    coefficients in slots wide enough for the largest: on K_n, n^(n-2),
    the sum of all of them; elsewhere ``_coefficient_bytes``.
    """
    if G.is_complete():
        check_complete_limit(G.n)
        size = -(-(G.n ** max(G.n - 2, 0)).bit_length() // 8)
        poly = _inversion_enumerator(G.n, 8 * size)
    else:
        size = _coefficient_bytes(G)
        steps, width = _frontier_plan(G)
        limit = _ENUM_LIMIT
        if (_bell(width, limit) > limit and comb(G.m, G.m - G.n + 1) > limit
                and (jac := G.spanning_tree_count()) > limit):
            raise ValueError(
                f"class counts: the widest frontier has {width} vertices and"
                f" Bell({width}) = {_bell(width)} partitions, Jac(G) has {jac}"
                f" elements; both exceed {limit}"
            )
        for states in _frontier_states(G, steps):
            pass
        (poly,) = states.values()
    g = G.m - G.n + 1
    raw = poly.to_bytes((g + 1) * size, "little")
    return [int.from_bytes(raw[i * size:(i + 1) * size], "little") for i in range(g + 1)]


def recurrent_level_counts(G: MultiGraph) -> list:
    """Histogram of recurrent configurations by level.

    level(f) = sum of non-sink entries - m + deg(sink); ranges over
    0 .. m - n + 1, and the histogram lists how many recurrent stable
    configurations sit at each level.  The total is the number of spanning
    trees.  By Merino's theorem the count at level i is [y^i] T(1, y): the
    histogram is ``_tutte_y``'s, with its refusals, and no configuration is
    enumerated.  On K_n it is the tree inversion enumerator J_(n-1).
    """
    return _tutte_y(G)


def effective_class_counts(G: MultiGraph, d_max: int) -> dict:
    """Number of effective toppling classes of each degree 0..d_max.

    Each effective class of degree d has exactly one parking
    representative, with sink = d - sum >= 0, so the count is the running
    sum of the parking configurations' non-sink sums up to d.  By Merino's
    theorem, [y^i] T(1, y) counts the recurrent configurations at level i,
    and so, through the complement map, the parking configurations with
    non-sink sum g - i (g = m - n + 1): the counts are the running sums of
    T(1, y)'s coefficients read from y^g down, and from degree g on every
    count is T(1, 1).  T(1, y) comes from ``_tutte_y``, which never
    enumerates Jac(G) and runs no kernel: on K_n the tree inversion
    enumerator, up to K_``_COMPLETE_LIMIT``; on any other graph a DP over
    the vertices that keeps only the connectivity of the frontier, refused
    only when both the widest frontier's Bell number and |Jac(G)| exceed
    ``_ENUM_LIMIT``.  A d_max more than ``_TAIL_LIMIT`` past g is refused
    first, before anything is built.  ``recurrent_level_counts`` returns
    the same coefficients from y^0 up.
    """
    (d_max,) = _as_ints((d_max,), "d_max")
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    g = G.m - G.n + 1
    if d_max > g + _TAIL_LIMIT:
        raise ValueError(
            f"d_max {d_max} is more than {_TAIL_LIMIT} (_TAIL_LIMIT) past g = {g};"
            f" every count from degree g on is T(1, 1)"
        )
    sums = list(accumulate(_tutte_y(G)[::-1][:d_max + 1]))
    sums += sums[-1:] * (d_max + 1 - len(sums))
    return dict(enumerate(sums))
