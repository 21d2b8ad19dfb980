"""Sandpile dynamics: stabilization, recurrence, parking, orientations.

Conventions: vertex n (the last one) is the sink.  A *sandpile configuration*
has non-negative entries at every non-sink vertex; the sink entry is
unconstrained.  "Parking" configurations (superstable in part of the
literature) and recurrent configurations are exchanged by the complement map
``beta``.  Toppling equivalence f ~ g means f - g lies in the lattice spanned
by the Laplacian rows.
"""

from __future__ import annotations

from itertools import combinations, product
from math import prod
from typing import Sequence

from . import _backend
from .graphs import MultiGraph, _lattice_form, _residue, check_config

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
]

# Enumeration guard for the exhaustive class counters.
_ENUM_LIMIT = 10_000_000


def _require_sandpile(G: MultiGraph, f: Sequence[int]) -> tuple:
    f = check_config(G, f)
    for i in range(G.n - 1):
        if f[i] < 0:
            raise ValueError(
                f"not a sandpile configuration: negative entry at vertex {i + 1}"
            )
    return f


def is_stable(G: MultiGraph, f: Sequence[int]) -> bool:
    """True when every non-sink vertex holds fewer chips than its degree."""
    f = _require_sandpile(G, f)
    return all(f[i] < G.degrees[i] for i in range(G.n - 1))


def stabilize(G: MultiGraph, f: Sequence[int]) -> tuple:
    """Topple until stable; returns ``(stable_config, odometer)``.

    The odometer counts how many times each vertex toppled.  The result does
    not depend on the toppling order, and the sink never topples.
    """
    f = _require_sandpile(G, f)
    n, degs, flat = G.flat()
    cfg = list(f)
    odo = _backend.stabilize(n, degs, flat, cfg)
    return tuple(cfg), tuple(odo)


def is_recurrent_burning(G: MultiGraph, f: Sequence[int]) -> bool:
    """Burning test: fire the sink into f and watch the fire spread.

    f (which must be stable) is recurrent iff stabilizing f minus the sink's
    Laplacian row topples every non-sink vertex exactly once and returns to f.
    """
    f = check_config(G, f)
    if not is_stable(G, f):
        raise ValueError("burning test expects a stable configuration")
    burned_once, cfg = _fire_sink(G, f)
    if burned_once != (tuple(cfg) == f):
        raise AssertionError("odometer and fixed point disagree")
    return burned_once


def _fire_sink(G: MultiGraph, f: Sequence[int]) -> tuple:
    """Fire the sink into f and stabilize.

    Returns ``(burned_once, cfg)``: whether every non-sink vertex toppled
    exactly once (the recurrence criterion), and the stabilized result.
    """
    n, degs, flat = G.flat()
    cfg = [x + e for x, e in zip(f, flat[(n - 1) * n:])]
    cfg[-1] -= degs[-1]
    odo = _backend.stabilize(n, degs, flat, cfg)
    return all(odo[i] == 1 for i in range(n - 1)), cfg


def is_recurrent_subsets(G: MultiGraph, f: Sequence[int]) -> bool:
    """Recurrence by the subset criterion (exponential; an oracle).

    f is recurrent iff every nonempty set Y of non-sink vertices contains a
    vertex whose chip count is at least its degree inside Y.
    """
    f = check_config(G, f)
    if not is_stable(G, f):
        raise ValueError("subset criterion expects a stable configuration")
    nonsink = range(G.n - 1)
    for size in range(1, G.n):
        for Y in combinations(nonsink, size):
            if not any(f[k] >= sum(G.mult[i][k] for i in Y) for k in Y):
                return False
    return True


def beta(G: MultiGraph, f: Sequence[int]) -> tuple:
    """Complement map: every entry i goes to deg(i) - 1 - f(i), sink included.

    An involution exchanging parking and recurrent configurations.
    """
    f = check_config(G, f)
    return tuple(d - 1 - x for d, x in zip(G.degrees, f))


def is_parking(G: MultiGraph, f: Sequence[int], method: str = "duality") -> bool:
    """Parking check: no nonempty set of non-sink vertices can fire legally.

    ``method="duality"`` (default) tests whether the complement ``beta(f)``
    is recurrent via burning; ``method="subsets"`` searches directly for a
    set Y all of whose members could fire (f(k) at least the number of edges
    leaving Y from k, for every k in Y).
    """
    f = _require_sandpile(G, f)
    n = G.n
    if any(f[i] >= G.degrees[i] for i in range(n - 1)):
        return False  # a lone overfull vertex already fires legally
    if method == "duality":
        return is_recurrent_burning(G, beta(G, f))
    if method == "subsets":
        nonsink = range(n - 1)
        for size in range(1, n):
            for Y in combinations(nonsink, size):
                outside = [j for j in range(n) if j not in Y]
                if all(f[k] >= sum(G.mult[j][k] for j in outside) for k in Y):
                    return False
        return True
    raise ValueError(f"unknown method {method!r}")


def parking_representative(G: MultiGraph, f: Sequence[int]) -> tuple:
    """The unique parking configuration toppling-equivalent to f.

    Works for arbitrary integer entries.  The reduction fires the sink
    until no non-sink entry is negative, then maximal legal sets until
    nothing can fire, so its work grows with the chips it moves.  When f's
    non-sink part holds more chips (in absolute value) than any parking
    configuration (m - n + 1) and than its residue modulo the toppling
    lattice, the reduction starts from that residue, with the rest of the
    degree on the sink.  The output always passes ``is_parking``.
    """
    f = check_config(G, f)
    n, degs, flat = G.flat()
    chips = sum(map(abs, f[:-1]))
    if chips > G.m - n + 1:
        res = _residue(_lattice_form(G), f, n - 1)
        if chips > sum(res):
            f = res + (sum(f) - sum(res),)
    cfg = list(f)
    _backend.parking_reduce(n, degs, flat, cfg)
    out = tuple(cfg)
    if not is_parking(G, out):
        raise AssertionError("internal error: reduction left a non-parking state")
    return out


def recurrent_representative(G: MultiGraph, f: Sequence[int]) -> tuple:
    """The unique recurrent configuration toppling-equivalent to f.

    Computed through the complement map: beta of the parking representative
    of beta(f).  Since beta flips every entry (sink included), the result
    lands in the class of f itself.
    """
    f = check_config(G, f)
    return beta(G, parking_representative(G, beta(G, f)))


# ---------- acyclic orientations ----------


class Orientation:
    """An orientation of a multigraph where parallel edges point one way.

    ``head[(i, j)]`` (with i < j, 1-based) names the endpoint all i-j edges
    point at.  Only pairs with at least one edge appear.
    """

    __slots__ = ("graph", "head")

    def __init__(self, graph: MultiGraph, head: dict):
        for (i, j), h in head.items():
            if not (1 <= i < j <= graph.n) or graph.mult[i - 1][j - 1] == 0:
                raise ValueError(f"orienting a non-edge: {(i, j)}")
            if h not in (i, j):
                raise ValueError(f"head of {(i, j)} must be one endpoint")
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                if graph.mult[i][j] and (i + 1, j + 1) not in head:
                    raise ValueError(f"edge {(i + 1, j + 1)} left unoriented")
        self.graph = graph
        self.head = dict(head)

    def indegree(self, v: int) -> int:
        g = self.graph
        g._check_vertex(v)
        total = 0
        for (i, j), h in self.head.items():
            if h == v:
                total += g.mult[i - 1][j - 1]
        return total

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
    if not is_parking(G, f):
        raise ValueError("peeling requires a parking configuration")
    n = G.n
    order = [n - 1]  # 0-based processing order, sink first
    remaining = set(range(n - 1))
    while remaining:
        for k in sorted(remaining):
            if f[k] < sum(G.mult[i][k] for i in range(n) if i not in remaining):
                break
        else:
            raise AssertionError("internal error: parking peel got stuck")
        order.append(k)
        remaining.discard(k)
    rank_of = {v: t for t, v in enumerate(order)}
    head = {}
    for i in range(n):
        for j in range(i + 1, n):
            if G.mult[i][j]:
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
    return parking_representative(G, f)[-1] >= 0


def _stable_cube(G: MultiGraph):
    """Every stable sandpile configuration with sink entry 0, as tuples of
    non-sink entries (the sink entry plays no role in recurrence or parking).
    Refuses cubes beyond the enumeration guard."""
    sizes = G.degrees[:-1]
    cells = prod(sizes)
    if cells > _ENUM_LIMIT:
        raise ValueError(f"stable cube has {cells} cells; enumeration refused")
    return product(*map(range, sizes))


def recurrent_level_counts(G: MultiGraph) -> list:
    """Histogram of recurrent configurations by level.

    level(f) = sum of non-sink entries - m + deg(sink); ranges over
    0 .. m - n + 1, and the histogram lists how many recurrent stable
    configurations sit at each level.  The total is the number of spanning
    trees.
    """
    top = G.m - G.n + 1
    counts = [0] * (top + 1)
    shift = G.m - G.degrees[-1]
    for body in _stable_cube(G):
        if _fire_sink(G, body + (0,))[0]:
            level = sum(body) - shift
            if not 0 <= level <= top:
                raise AssertionError(f"recurrent level {level} out of range")
            counts[level] += 1
    return counts


def effective_class_counts(G: MultiGraph, d_max: int) -> dict:
    """Number of effective toppling classes of each degree 0..d_max.

    Counted two independent ways, which must agree:

    * enumerate parking configurations and count those whose non-sink sum is
      at most d (each effective class of degree d has exactly one parking
      representative with sink = d - sum >= 0);
    * enumerate recurrent configurations by level and sum the histogram tail,
      using the complement bijection between parking sums and levels.
    """
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    n, degs, flat = G.flat()
    # the burning closure consumes everything exactly on parking configurations
    parking_sums = [
        sum(body)
        for body in _stable_cube(G)
        if not _backend.burning_test(n, degs, flat, body + (0,))
    ]

    levels = recurrent_level_counts(G)
    top = G.m - n + 1
    out = {}
    for d in range(d_max + 1):
        by_parking = sum(1 for s in parking_sums if s <= d)
        by_levels = sum(levels[k] for k in range(max(0, top - d), top + 1))
        if by_parking != by_levels:
            raise AssertionError(
                f"class count mismatch at degree {d}: "
                f"{by_parking} by parking vs {by_levels} by levels"
            )
        out[d] = by_parking
    return out
