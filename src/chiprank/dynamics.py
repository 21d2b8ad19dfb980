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
from typing import Sequence

from . import _backend
from .graphs import MultiGraph, _as_ints, _lattice_form, _residue, check_config

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

# Enumeration guard for the exhaustive class counters: the most elements of
# Jac(G) (spanning trees) they enumerate.
_ENUM_LIMIT = 10_000_000


def _require_sandpile(G: MultiGraph, f: tuple) -> tuple:
    """f, a checked configuration, once its non-sink entries are seen to be
    non-negative."""
    for i in range(G.n - 1):
        if f[i] < 0:
            raise ValueError(
                f"not a sandpile configuration: negative entry at vertex {i + 1}"
            )
    return f


def is_stable(G: MultiGraph, f: Sequence[int]) -> bool:
    """True when every non-sink vertex holds fewer chips than its degree."""
    return _is_stable(G, check_config(G, f))


def _is_stable(G: MultiGraph, f: tuple) -> bool:
    """``is_stable`` on a checked configuration."""
    f = _require_sandpile(G, f)
    return all(f[i] < G.degrees[i] for i in range(G.n - 1))


def stabilize(G: MultiGraph, f: Sequence[int]) -> tuple:
    """Topple until stable; returns ``(stable_config, odometer)``.

    The odometer counts how many times each vertex toppled.  The result does
    not depend on the toppling order, and the sink never topples.
    """
    return _stabilize(G, check_config(G, f))


def _stabilize(G: MultiGraph, f: tuple) -> tuple:
    """``stabilize`` on a checked configuration."""
    n, degs, flat = G.flat()
    cfg = list(_require_sandpile(G, f))
    odo = _backend.stabilize(n, degs, flat, cfg)
    return tuple(cfg), tuple(odo)


def is_recurrent_burning(G: MultiGraph, f: Sequence[int]) -> bool:
    """Burning test: fire the sink into f and watch the fire spread.

    f (which must be stable) is recurrent iff stabilizing f minus the sink's
    Laplacian row topples every non-sink vertex exactly once and returns to f.
    """
    f = check_config(G, f)
    if not _is_stable(G, f):
        raise ValueError("burning test expects a stable configuration")
    return _is_recurrent(G, f)


def _is_recurrent(G: MultiGraph, f: tuple) -> bool:
    """The burning test on a checked stable configuration.  Its two
    readings, the odometer and the fixed point, must agree."""
    odo, cfg = _fire_sink(G, f)
    burned_once = all(odo[i] == 1 for i in range(G.n - 1))
    if burned_once != (tuple(cfg) == f):
        raise AssertionError("odometer and fixed point disagree")
    return burned_once


def _fire_sink(G: MultiGraph, f: Sequence[int]) -> tuple:
    """Fire the sink into f and stabilize.

    Returns ``(odometer, cfg)``: how often each vertex toppled (every
    non-sink vertex exactly once is the recurrence criterion), and the
    stabilized result.
    """
    n, degs, flat = G.flat()
    cfg = [x + e for x, e in zip(f, flat[(n - 1) * n:])]
    cfg[-1] -= degs[-1]
    return _backend.stabilize(n, degs, flat, cfg), cfg


def is_recurrent_subsets(G: MultiGraph, f: Sequence[int]) -> bool:
    """Recurrence by the subset criterion (exponential; an oracle).

    f is recurrent iff every nonempty set Y of non-sink vertices contains a
    vertex whose chip count is at least its degree inside Y.
    """
    f = check_config(G, f)
    if not _is_stable(G, f):
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
    return _beta(G, check_config(G, f))


def _beta(G: MultiGraph, f: tuple) -> tuple:
    """``beta`` on a checked configuration."""
    return tuple(d - 1 - x for d, x in zip(G.degrees, f))


def is_parking(G: MultiGraph, f: Sequence[int], method: str = "duality") -> bool:
    """Parking check: no nonempty set of non-sink vertices can fire legally.

    ``method="duality"`` (default) tests whether the complement ``beta(f)``
    is recurrent via burning; ``method="subsets"`` searches directly for a
    set Y all of whose members could fire (f(k) at least the number of edges
    leaving Y from k, for every k in Y).
    """
    f = _require_sandpile(G, check_config(G, f))
    if method == "duality":
        return _is_parking(G, f)
    if method == "subsets":
        n = G.n
        nonsink = range(n - 1)
        for size in range(1, n):
            for Y in combinations(nonsink, size):
                outside = [j for j in range(n) if j not in Y]
                if all(f[k] >= sum(G.mult[j][k] for j in outside) for k in Y):
                    return False
        return True
    raise ValueError(f"unknown method {method!r}")


def _is_parking(G: MultiGraph, f: tuple) -> bool:
    """The duality test on a checked configuration: every non-sink entry
    lies in 0 .. deg - 1 (a lone overfull vertex already fires legally),
    and ``beta(f)`` passes the burning test."""
    degs = G.degrees
    if any(not 0 <= f[i] < degs[i] for i in range(G.n - 1)):
        return False
    return _is_recurrent(G, _beta(G, f))


def parking_representative(G: MultiGraph, f: Sequence[int]) -> tuple:
    """The unique parking configuration toppling-equivalent to f.

    Works for arbitrary integer entries.  The reduction fires the sink
    until no non-sink entry is negative, then maximal legal sets until
    nothing can fire, so its work grows with the chips it moves.  When f's
    non-sink part holds more chips (in absolute value) than any parking
    configuration (m - n + 1) and than its residue modulo the toppling
    lattice, the reduction starts from that residue, with the rest of the
    degree on the sink.  f is checked once, here; the reduction
    (``_park``), which the other parking routes and the rank cache call
    directly, runs on the checked tuple, and its output always passes the
    duality test of ``is_parking``.
    """
    return _park(G, check_config(G, f))


def _park(G: MultiGraph, f: tuple) -> tuple:
    """``parking_representative`` on a checked configuration.  Raises
    AssertionError, whatever the optimization flags, if the kernel's
    result is not parking."""
    n, degs, flat = G.flat()
    chips = sum(map(abs, f[:-1]))
    if chips > G.m - n + 1:
        res = _residue(_lattice_form(G), f, n - 1)
        if chips > sum(res):
            f = res + (sum(f) - sum(res),)
    cfg = list(f)
    _backend.parking_reduce(n, degs, flat, cfg)
    out = tuple(cfg)
    if not _is_parking(G, out):
        raise AssertionError("internal error: reduction left a non-parking state")
    return out


def recurrent_representative(G: MultiGraph, f: Sequence[int]) -> tuple:
    """The unique recurrent configuration toppling-equivalent to f.

    Computed through the complement map: beta of the parking representative
    of beta(f).  Since beta flips every entry (sink included), the result
    lands in the class of f itself.
    """
    return _recurrent(G, check_config(G, f))


def _recurrent(G: MultiGraph, f: tuple) -> tuple:
    """``recurrent_representative`` on a checked configuration."""
    return _beta(G, _park(G, _beta(G, f)))


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
    if not _is_parking(G, _require_sandpile(G, f)):
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
    return _is_effective(G, check_config(G, f))


def _is_effective(G: MultiGraph, f: tuple) -> bool:
    """``is_effective_class`` on a checked configuration."""
    return _park(G, f)[-1] >= 0


def _prefix_walk(G: MultiGraph, entry_range, split) -> list:
    """Histogram of non-sink sums over the parking or the recurrent
    configurations, found by extending prefixes of members one vertex at a
    time; ``hist[s]`` counts the members whose non-sink entries sum to s.

    ``entry_range(prefix)`` returns the half-open range of the next entry
    over the members that start with ``prefix``.  Both sets are closed
    coordinatewise (parking configurations downwards, recurrent ones upwards
    within the stable cube), so every prefix the walk reaches extends to a
    member.  ``_child_ranges`` gives the ranges of all of a prefix's
    children at once, from ``split`` (two kernel calls) when there are two
    or more and from the lone child's ``entry_range`` (one call) otherwise.
    So the walk makes one call for the empty prefix and, for each prefix
    of length 0 .. n - 3, two calls or one, never more than the children
    it ranges: at most one call per prefix of length 0 .. n - 2, and
    (n - 1)·|Jac(G)| in all.  The children of length n - 2 are never
    stacked: their last entries' ranges are tallied at once, into a
    difference array.  The guard counts |Jac(G)| before any
    call, and the members found must number exactly that many.
    """
    order = G.spanning_tree_count()
    if order > _ENUM_LIMIT:
        raise ValueError(f"Jac(G) has {order} elements; enumeration refused")
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
    if sum(hist) != order:
        raise AssertionError(
            f"prefix walk found {sum(hist)} configurations, not |Jac| = {order}"
        )
    return hist


def _child_ranges(entry_range, split, prefix: tuple, lo: int, hi: int) -> list:
    """The next entry's range after each child prefix + (c,), for c in
    lo .. hi - 1: ``split(prefix)`` returns ``(t, below, above)``, and the
    range is ``below`` for c < t and ``above`` for c >= t.  A lone child
    calls its own ``entry_range`` instead, one kernel call against two."""
    if hi - lo == 1:
        return [entry_range(prefix + (lo,))]
    t, below, above = split(prefix)
    return [below if c < t else above for c in range(lo, hi)]


def _parking_range(G: MultiGraph) -> tuple:
    """The parking walk's ``(entry_range, split)``, from burning tests.

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
    n, degs, flat = G.flat()
    mult = G.mult

    def burn(cfg):
        return _backend.burning_test(n, degs, flat, cfg)

    def heat(i, unburnt):
        # the edges the burnt vertices send i
        return degs[i] - sum(mult[i][u] for u in unburnt)

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


def _recurrent_range(G: MultiGraph) -> tuple:
    """The recurrent walk's ``(entry_range, split)``, from fire-the-sink
    stabilizations: the mirror image of ``_parking_range``, on the other
    kernel.

    ``entry_range``: vertex j gets -1 chips and every later vertex deg - 1,
    then the sink fires.  Nothing topples twice, so j receives at most
    deg(j) chips and never topples.  It ends up holding -1 + e(j, T + sink),
    with T the toppled set, and it topples exactly when it starts with at
    least deg(j) - e(j, T + sink) chips: those entries below deg(j) keep
    the configuration recurrent.

    ``split``: with -1 on both j and j + 1, j never topples and ends up
    holding -1 + e(j, T0 + sink); every c below t = deg(j) - 1 minus that
    leaves j untoppled and topples T0 again, and every c >= t topples j and
    the same set as c = deg(j) - 1, the second stabilization.
    """
    degs = G.degrees
    full = tuple(d - 1 for d in degs[:-1]) + (0,)

    def need(i, fired):
        # the fewest chips i can start with and still topple
        return degs[i] - 1 - fired[i]

    def entry_range(prefix):
        j = len(prefix)
        fired = _fire_sink(G, prefix + (-1,) + full[j + 1:])[1]
        return need(j, fired), degs[j]

    def split(prefix):
        j = len(prefix)
        k = j + 1
        low = _fire_sink(G, prefix + (-1, -1) + full[k + 1:])[1]
        high = _fire_sink(G, prefix + (full[j], -1) + full[k + 1:])[1]
        return need(j, low), (need(k, low), degs[k]), (need(k, high), degs[k])

    return entry_range, split


def recurrent_level_counts(G: MultiGraph) -> list:
    """Histogram of recurrent configurations by level.

    level(f) = sum of non-sink entries - m + deg(sink); ranges over
    0 .. m - n + 1, and the histogram lists how many recurrent stable
    configurations sit at each level.  The total is the number of spanning
    trees.  The configurations come from a prefix walk over the recurrent
    up-set, never from the whole stable cube: two fire-the-sink
    stabilizations range all the children of a prefix that has several,
    and one those of a prefix that has one (at most (n - 1)·|Jac(G)| kernel
    calls); graphs with more than ``_ENUM_LIMIT`` spanning trees are
    refused before any kernel call.
    """
    hist = _prefix_walk(G, *_recurrent_range(G))
    shift = G.m - G.degrees[-1]
    # the lowest recurrent sum is shift, the highest the end of hist
    if any(hist[:shift]):
        raise AssertionError("recurrent level below 0")
    return hist[shift:]


def effective_class_counts(G: MultiGraph, d_max: int) -> dict:
    """Number of effective toppling classes of each degree 0..d_max.

    Counted two independent ways, through different kernels, which must
    agree:

    * walk the parking configurations (a down-set: two burning tests range
      the next entry after every child of a prefix) and take the running
      sum of their non-sink sums up to d; each effective class of degree d
      has exactly one parking representative, with sink = d - sum >= 0;
    * walk the recurrent configurations by level (``recurrent_level_counts``)
      and sum the histogram tail, using the complement bijection between
      parking sums and levels.

    Each walk makes at most two kernel calls per prefix that has children
    and one for the empty prefix, and never more than (n - 1)·|Jac(G)|;
    graphs with more than ``_ENUM_LIMIT`` spanning trees are refused before
    any kernel call.
    """
    (d_max,) = _as_ints((d_max,), "d_max")
    if d_max < 0:
        raise ValueError("d_max must be >= 0")
    parking = _prefix_walk(G, *_parking_range(G))
    levels = recurrent_level_counts(G)
    top = G.m - G.n + 1
    out = {}
    by_parking = by_levels = 0
    for d in range(d_max + 1):
        if d < len(parking):
            by_parking += parking[d]
        if d <= top:
            by_levels += levels[top - d]
        if by_parking != by_levels:
            raise AssertionError(
                f"class count mismatch at degree {d}: "
                f"{by_parking} by parking vs {by_levels} by levels"
            )
        out[d] = by_parking
    return out
