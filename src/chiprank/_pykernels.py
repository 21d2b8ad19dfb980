"""Kernels for stabilization, burning, and parking reduction.

These are the inner loops shared by the dynamics layer and the rank engine.
Each takes (n, degs, flat) graph buffers, where ``flat`` is the row-major
multiplicity matrix, and a configuration.  Everything is exact integer
arithmetic, so entries may be arbitrarily large.

The kernels read per-vertex ``(neighbour, multiplicity)`` lists, built from
``flat`` and kept for the last buffer seen, and visit only the vertices a
worklist holds: ``stabilize`` fires unstable vertices from a FIFO queue, and
burning spreads heat along the edges of each vertex that burns.  The order
of the work cannot change the results, because each is unique: the stable
configuration and its odometer (least action), the unburnt set (the largest
set no fire can enter), and the parking representative of a class.
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import ge, lt

# Safety valve against runaway loops on adversarial inputs; generous compared
# to anything the library itself generates.
MAX_ROUNDS = 10_000_000

# The adjacency lists of the last ``flat`` buffer seen.  ``MultiGraph.flat()``
# returns one cached tuple per graph, so repeated calls on a graph hit this.
_last = (None, None)


def _adjacency(n, flat):
    """Per-vertex lists of ``(neighbour, multiplicity)`` pairs, for the
    non-zero entries of each row of ``flat``.  They are kept for the last
    buffer seen, so a buffer must not change between calls."""
    global _last
    key, adj = _last
    if key is not flat:
        # rows share one tuple per distinct pair, so a list costs a pointer
        # per neighbour (8.5 MB on K_1000, against 81.5 MB unshared); when
        # every multiplicity is 0 or 1, each row picks its pairs from one
        # table of (j, 1) at C speed
        rows = range(0, n * n, n)
        if max(flat) <= 1:
            ones = list(zip(range(n), repeat(1)))
            adj = [list(compress(ones, flat[i:i + n])) for i in rows]
        else:
            pairs = {}
            adj = [[pairs.setdefault(p, p) for p in enumerate(flat[i:i + n]) if p[1]]
                   for i in rows]
        _last = (flat, adj)
    return adj


def stabilize(n, degs, flat, cfg):
    """Topple unstable non-sink vertices (batched) until none remain.

    Mutates ``cfg`` in place and returns the odometer (times toppled, one
    entry per vertex; the sink never topples).  Entries may be negative:
    only vertices with cfg[i] >= deg(i) fire, so debt just sits still.

    Unstable vertices wait in a FIFO queue, taken one generation at a time:
    the vertices queued when the previous generation ends.  Each fires all
    the times its chips allow at once, so a vertex that gathers chips while
    it waits fires them together.  Each generation fires at least what one
    parallel step (every unstable vertex at once) would, and n - 1 parallel
    steps fire at least what one sweep of a round-robin loop over the
    non-sink vertices in index order does (the dense reference in
    ``tests/test_pykernels.py``), so one round is counted per n - 1
    generations: any input that reference settles within ``MAX_ROUNDS``
    sweeps settles here too.
    """
    adj = _adjacency(n, flat)
    sink = n - 1
    odo = [0] * n
    queued = list(map(ge, cfg, degs))
    queued[sink] = False
    queue = list(compress(range(n), queued))
    queued[sink] = True  # the sink never fires
    generations = 0
    while queue:
        generations += 1
        if generations > MAX_ROUNDS * sink:
            raise RuntimeError("stabilization did not settle (input too extreme)")
        later = []
        for i in queue:
            queued[i] = False
            d = degs[i]
            q = cfg[i] // d
            odo[i] += q
            cfg[i] -= q * d
            for j, e in adj[i]:
                c = cfg[j] + q * e
                cfg[j] = c
                if c >= degs[j] and not queued[j]:
                    queued[j] = True
                    later.append(j)
        queue = later
    return odo


def burning_test(n, degs, flat, cfg):
    """Dhar burning closure from the sink.

    Returns the list of vertices (0-based) that stay unburnt; empty means the
    fire consumed everything.  ``cfg`` is read only.  A non-sink vertex burns
    once its chips cannot cover the edges arriving from burnt territory.

    ``heat[k]`` counts the edges from burnt vertices into k.  Every vertex
    already below the sink's edges into it burns at once (a negative entry
    burns with no edge to the sink at all); then each vertex that burns
    passes heat along its edges, which may burn its neighbours.
    """
    adj = _adjacency(n, flat)
    sink = n - 1
    heat = list(flat[sink * n:])
    burnt = list(map(lt, cfg, heat))
    burnt[sink] = False
    fire = list(compress(range(n), burnt))
    burnt[sink] = True
    for k in fire:  # grows as vertices burn
        for j, e in adj[k]:
            if not burnt[j]:
                h = heat[j] + e
                heat[j] = h
                if cfg[j] < h:
                    burnt[j] = True
                    fire.append(j)
    return [k for k in range(sink) if not burnt[k]]


def parking_reduce(n, degs, flat, cfg):
    """Reduce ``cfg`` (in place) to the parking configuration of its class.

    Phase 1: while some non-sink entry is negative, fire the sink once and
    stabilize the non-sink vertices.  Phase 2: repeatedly run the burning
    closure; the unburnt set is legal to fire as a block (every member keeps
    a non-negative count), and firing maximal legal blocks drives the
    configuration down to the unique parking representative, reached exactly
    when the fire consumes every vertex.
    """
    if n == 1:
        return
    adj = _adjacency(n, flat)
    sink = n - 1
    rounds = 0
    while any(cfg[i] < 0 for i in range(sink)):
        cfg[sink] -= degs[sink]
        for j, e in adj[sink]:
            cfg[j] += e
        stabilize(n, degs, flat, cfg)
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise RuntimeError("parking reduction did not settle (input too extreme)")
    while True:
        unburnt = burning_test(n, degs, flat, cfg)
        if not unburnt:
            return
        inside = [False] * n
        for k in unburnt:
            inside[k] = True
        for k in unburnt:
            out = 0
            for j, e in adj[k]:
                if not inside[j]:
                    out += e
                    cfg[j] += e
            cfg[k] -= out
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise RuntimeError("parking reduction did not settle (input too extreme)")
