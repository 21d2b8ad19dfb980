"""Kernels for stabilization, burning, and parking reduction.

These are the inner loops shared by the dynamics layer and the rank engine.
Each takes a graph as ``(degs, adj, cfg)``: the vertex degrees, the
per-vertex ``(neighbour, multiplicity)`` tuples that a ``MultiGraph`` stores
as its ``_adj``, and a configuration; vertex ``len(degs) - 1`` is the sink.
Everything is exact integer arithmetic, so entries may be arbitrarily large.

The kernels visit only the vertices a worklist holds: ``stabilize`` fires
unstable vertices from a FIFO queue, and burning spreads heat along the
edges of each vertex that burns.  The order of the work cannot change the
results, because each is unique: the stable configuration and its odometer
(least action), the unburnt set (the largest set no fire can enter), and the
parking representative of a class.
"""

from __future__ import annotations

from itertools import compress
from operator import ge, lt

# Safety valve against runaway loops on adversarial inputs; generous compared
# to anything the library itself generates.
MAX_ROUNDS = 10_000_000


def stabilize(degs, adj, cfg):
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
    n = len(degs)
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


def burning_test(degs, adj, cfg):
    """Dhar burning closure from the sink.

    Returns the list of vertices (0-based) that stay unburnt; empty means the
    fire consumed everything.  ``cfg`` is read only.  A non-sink vertex burns
    once its chips cannot cover the edges arriving from burnt territory.

    ``heat[k]`` counts the edges from burnt vertices into k.  Every vertex
    already below the sink's edges into it burns at once (a negative entry
    burns with no edge to the sink at all); then each vertex that burns
    passes heat along its edges, which may burn its neighbours.
    """
    n = len(degs)
    sink = n - 1
    heat = [0] * n
    for j, e in adj[sink]:
        heat[j] = e
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


def parking_reduce(degs, adj, cfg):
    """Reduce ``cfg`` (in place) to the parking configuration of its class.

    Phase 1: while some non-sink entry is negative, fire the sink once and
    stabilize the non-sink vertices.  Phase 2: repeatedly run the burning
    closure; the unburnt set is legal to fire as a block (every member keeps
    a non-negative count), and firing maximal legal blocks drives the
    configuration down to the unique parking representative, reached exactly
    when the fire consumes every vertex.
    """
    n = len(degs)
    sink = n - 1
    rounds = 0
    while any(cfg[i] < 0 for i in range(sink)):
        cfg[sink] -= degs[sink]
        for j, e in adj[sink]:
            cfg[j] += e
        stabilize(degs, adj, cfg)
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise RuntimeError("parking reduction did not settle (input too extreme)")
    while True:
        unburnt = burning_test(degs, adj, cfg)
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
