"""Kernels for stabilization, burning, and parking reduction.

These are the inner loops shared by the dynamics layer and the rank engine.
Each takes a graph as ``(degs, adj, cfg)``: the vertex degrees, the
per-vertex ``(neighbour, multiplicity)`` tuples that a ``MultiGraph`` stores
as its ``_adj``, and a configuration; vertex ``len(degs) - 1`` is the sink.
Everything is exact integer arithmetic, so entries may be arbitrarily large.

``stabilize`` and the debt phase of ``parking_reduce`` run round-robin
sweeps over the non-sink vertices in index order, the schedule of the dense
references in ``tests/test_pykernels.py``: one round is one sweep, and a
sweep reads all n vertices, O(n) plus the edges of those that move.
Burning spreads heat along the edges of each vertex that burns.  Every
move is made in bulk: a vertex fires or borrows, and an unburnt set fires,
as many times at once as stays legal.  The order of the work cannot change
the results, because each is unique (the abelian property): the stable
configuration and its odometer (least action), the unburnt set (the
largest set no fire can enter), and the parking representative of a class.
"""

from __future__ import annotations

from itertools import compress
from operator import lt

# Safety valve against runaway loops on adversarial inputs; generous compared
# to anything the library itself generates.
MAX_ROUNDS = 10_000_000
_UNSETTLED = "parking reduction did not settle (input too extreme)"


def stabilize(degs, adj, cfg):
    """Topple unstable non-sink vertices (batched) until none remain.

    Mutates ``cfg`` in place and returns the odometer (times toppled, one
    entry per vertex; the sink never topples).  Entries may be negative:
    only vertices with cfg[i] >= deg(i) fire, so debt just sits still.

    Each round sweeps the non-sink vertices in index order, and every
    unstable one fires all the times its chips allow at once: the schedule
    of the dense reference in ``tests/test_pykernels.py``, on the sparse
    rows.  A sweep reads all n vertices, O(n) plus the edges of those that
    fire.  Past ``MAX_ROUNDS`` sweeps that fire it raises; the sweep that
    finds nothing to fire is not counted.
    """
    return _fire(degs, adj, cfg, MAX_ROUNDS, "stabilization did not settle (input too extreme)")


def _fire(degs, adj, cfg, limit, unsettled):
    """``stabilize``, raising ``unsettled`` past ``limit`` sweeps that fire."""
    sink = len(degs) - 1
    odo = [0] * len(degs)
    rounds = 0
    while True:
        fired = False
        for i in range(sink):
            d = degs[i]
            if cfg[i] >= d:
                q = cfg[i] // d
                odo[i] += q
                cfg[i] -= q * d
                for j, e in adj[i]:
                    cfg[j] += q * e
                fired = True
        if not fired:
            return odo
        rounds += 1
        if rounds > limit:
            raise RuntimeError(unsettled)


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
    complement deg - 1 - cfg would: sweeps in index order, in which each
    indebted non-sink vertex borrows ceil(-cfg[i] / deg(i)) times, which
    leaves it holding 0 .. deg - 1 (the sink takes on debt freely).
    Borrowing only takes chips from the others, so the result is stable,
    with no debt.  The loop is spelt out: calling ``stabilize`` on the
    complement costs two more O(n) passes, up to a third of a small
    reduction.

    Phase 2 fires Dhar's unburnt set S, the largest set that can fire
    legally, t times at once, t the least floor(cfg[x] / out_S(x)) over the
    x in S with edges leaving S.  With cfg = p + L z (p the answer), a legal
    firing never overshoots z, and the vertices where z is largest form a
    legal set, so each round lowers max z by at least one; from a stable
    start, max z is bounded by the graph alone.

    Past ``MAX_ROUNDS`` rounds it raises, naming the parking reduction: in
    phase 1, n - 1 sweeps that move are a round; in phase 2, a burning is.
    The dense reference clears debts by firing the sink, k times in all,
    stabilizing after each, then fires its unburnt set once a burning.  A
    sweep that moves fires or borrows at least once, and by least action
    no vertex borrows more than k times, so there are at most (n - 1) k
    debt sweeps; from f without debt, no vertex fires more often than the
    reference's burnings.  With debt, only the tests bound the first
    stabilization's sweeps by the reference's rounds.  One chip of debt on
    vertex n - 2 of K_n, or of a path ending at the sink, takes n - 1
    sweeps, and one sink firing clears it: the unit is tight.
    """
    n = len(degs)
    sink = n - 1
    _fire(degs, adj, cfg, MAX_ROUNDS * sink, _UNSETTLED)
    sweeps = 0
    while True:
        borrowed = False
        for i in range(sink):
            if cfg[i] < 0:
                d = degs[i]
                t = cfg[i] // d  # negative: i borrows -t times
                cfg[i] -= t * d
                for j, e in adj[i]:
                    cfg[j] += t * e
                borrowed = True
        if not borrowed:
            break
        sweeps += 1
        if sweeps > MAX_ROUNDS * sink:
            raise RuntimeError(_UNSETTLED)
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
