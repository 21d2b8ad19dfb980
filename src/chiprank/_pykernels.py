"""Kernels for stabilization, burning, and parking reduction.

These are the inner loops shared by the dynamics layer and the rank engine.
Each takes a graph as ``(degs, adj, cfg)``: the vertex degrees, the
per-vertex ``(neighbour, multiplicity)`` tuples that a ``MultiGraph`` stores
as its ``_adj``, and a configuration; vertex ``len(degs) - 1`` is the sink.
Everything is exact integer arithmetic, so entries may be arbitrarily large.

The kernels visit only the vertices a worklist holds: ``stabilize`` fires
unstable vertices from a FIFO queue, ``parking_reduce`` clears debts from
one, and burning spreads heat along the edges of each vertex that burns.
Every move is made in bulk: a vertex fires or borrows, and an unburnt set
fires, as many times at once as stays legal.  The order of the work cannot
change the results, because each is unique: the stable configuration and
its odometer (least action), the unburnt set (the largest set no fire can
enter), and the parking representative of a class.
"""

from __future__ import annotations

from itertools import compress
from operator import ge, lt

# Safety valve against runaway loops on adversarial inputs; generous compared
# to anything the library itself generates.
MAX_ROUNDS = 10_000_000
_UNSETTLED = "parking reduction did not settle (input too extreme)"


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

    Every move is made in bulk, as many times at once as stays legal.
    Phase 1 stabilizes, then clears the debts the way ``stabilize`` of the
    complement deg - 1 - cfg would: each indebted non-sink vertex, taken
    from a FIFO queue in generations, borrows ceil(-cfg[i] / deg(i)) times,
    which leaves it holding 0 .. deg - 1, and neighbours that go negative
    join the queue (the sink takes on debt freely).  Borrowing only takes
    chips from the others, so the result is stable, with no debt.  The loop
    is spelt out: calling ``stabilize`` on the complement costs two more
    O(n) passes, up to a third of a small reduction.

    Phase 2 fires Dhar's unburnt set S, the largest set that can fire
    legally, t times at once, t the least floor(cfg[x] / out_S(x)) over the
    x in S with edges leaving S.  With cfg = p + L z (p the answer), a legal
    firing never overshoots z, and the vertices where z is largest form a
    legal set, so each round lowers max z by at least one; from a stable
    start, max z is bounded by the graph alone.

    Past ``MAX_ROUNDS`` (counted as in ``stabilize`` in phase 1, one per
    burning in phase 2) it raises, naming the parking reduction.
    """
    n = len(degs)
    sink = n - 1
    try:
        stabilize(degs, adj, cfg)
    except RuntimeError:
        raise RuntimeError(_UNSETTLED) from None
    queued = [c < 0 for c in cfg]
    queued[sink] = False
    queue = list(compress(range(n), queued))
    queued[sink] = True  # the sink never borrows
    generations = 0
    while queue:
        generations += 1
        if generations > MAX_ROUNDS * sink:
            raise RuntimeError(_UNSETTLED)
        later = []
        for i in queue:
            queued[i] = False
            d = degs[i]
            t = cfg[i] // d  # negative: i borrows -t times
            cfg[i] -= t * d
            for j, e in adj[i]:
                c = cfg[j] + t * e
                cfg[j] = c
                if c < 0 and not queued[j]:
                    queued[j] = True
                    later.append(j)
        queue = later
    rounds = 0
    while True:
        unburnt = burning_test(degs, adj, cfg)
        if not unburnt:
            return
        rounds += 1
        if rounds > MAX_ROUNDS:
            raise RuntimeError(_UNSETTLED)
        inside = [False] * n
        for k in unburnt:
            inside[k] = True
        leaving = [(k, [(j, e) for j, e in adj[k] if not inside[j]]) for k in unburnt]
        t = min(cfg[k] // sum(e for _, e in out) for k, out in leaving if out)
        for k, out in leaving:
            for j, e in out:
                cfg[j] += t * e
                cfg[k] -= t * e
