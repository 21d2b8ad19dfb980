"""Divisor rank on multigraphs by exhaustive search, plus sanity checks.

The rank of a configuration f is the largest r such that f stays effective
after removing *any* r chips; equivalently rank(f) + 1 is the least degree of
an effective lambda with f - lambda not effective.  A class of degree d and
element g of Jac(G) (named by the non-sink residue modulo the Hermite form
of the reduced Laplacian) is effective iff d >= delta(g), the non-sink chip
count of its one parking representative.  Each graph's cache (``_Table``)
gives each residue it meets a dense int id, never more than |Jac(G)| of
them, and holds per id the non-sink part p of that parking configuration,
delta = sum(p), and the residue's row of the step table: the ids of its
k = n - 1 borrow neighbours res - e_i, each filled the first time a step
from res along i is taken.  The searches step on ids alone.

Removing lambda moves the residue by lambda's non-sink part mu alone, so the
rank is found by a breadth-first search over residues, not over removal
patterns: the ball of residues res_f - mu grows one layer per |mu| (each
residue one step from the layer before) until one breaks the degree bound
or the ball covers Jac(G).  That visits each residue once per call.  Only
the witness, the lex-first failing pattern, walks removal patterns, and
only those of degree rank + 1.  Both take every step from the step table,
so ``graphs._borrow`` runs at most once per (residue, i): at most
(n - 1) |Jac(G)| times over the graph's life, however many calls it serves.

The two searches are two stages, each refused on the size of what it
searches.  The value stage (``_rank``: f's delta test, then the ball) is all
that ``riemann_roch_data``, ``rank_bounds_check`` and ``chiprank rr-check``
run; it refuses when both |Jac(G)| and the number of mu the ball can
reach, |mu| <= deg f - delta(res_f), exceed ``_MAX_CANDIDATES``.
``rank_bruteforce`` alone adds the witness stage, one walk from f's id,
refused only past its first pattern (the sink pile) when the mu with
|mu| <= rank + 1 exceed it.

Every residue a step reaches is w = v - e_i for a residue v already in the
cache, so its p comes from p_v: parking configurations are closed
downwards (Dhar's burning), so when p_v[i] > 0, p_v - e_i is the parking
configuration of w and no kernel runs; otherwise the kernel parks
p_v - e_i, which holds at most m - n + 2 non-sink chips whatever f is.
Only f's own residue parks f.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Sequence

# is_effective_class (the uncached parking route) is not used here; it stays
# importable as rank.is_effective_class because the benchmark's tracer
# (perfbench/spans.py) wraps that binding to count cache misses, and
# raises KeyError on --trace 1 without it
from .dynamics import _park, is_effective_class
from .graphs import MultiGraph, _borrow, _count_text, _lattice_form, _residue, check_config, degree

__all__ = [
    "RankResult",
    "rank_bruteforce",
    "kappa",
    "RiemannRochData",
    "riemann_roch_data",
    "riemann_roch_check",
    "rank_bounds_check",
    "canonical_class_key",
]


class RankResult(NamedTuple):
    """Outcome of a rank computation.

    ``witness`` is an effective configuration of degree rank + 1 such that
    f - witness is not effective (for rank -1, f itself is not effective and
    the witness is the zero configuration).
    """

    rank: int
    witness: tuple


# ---------- toppling-class canonical keys ----------


def canonical_class_key(G: MultiGraph, f: Sequence[int]) -> tuple:
    """A value equal for f and g exactly when f ~ g.

    Two configurations are toppling-equivalent iff they have the same degree
    and their non-sink difference lies in the lattice spanned by the reduced
    Laplacian; the key pairs the degree with the canonical residue of the
    non-sink part modulo that lattice.
    """
    f = check_config(G, f)
    return (sum(f), _residue(_lattice_form(G), f, G.n - 1))


class _Table:
    """G's rank cache: ``ids`` maps each residue met to its id, and the
    lists indexed by id hold its res, p, delta and row of the step table,
    whose slot i is None until a step along i is taken.  Only ``_entry``
    and ``_step`` read ``ids``."""

    __slots__ = ("ids", "res", "p", "delta", "steps")

    def __init__(self):
        self.ids, self.res, self.p, self.delta, self.steps = {}, [], [], [], []

    def add(self, res: tuple, p: tuple) -> int:
        a = self.ids[res] = len(self.res)
        self.res.append(res)
        self.p.append(p)
        self.delta.append(sum(p))
        self.steps.append([None] * len(p))
        return a


def _entry(G: MultiGraph, f: tuple) -> int:
    """The id of f's non-sink residue in G's cache, made on the first
    call: a class of degree d and that residue is effective iff d >= delta.
    A miss parks f itself, the one entry made from a configuration given
    from outside; every other entry is made by ``_step``, the first time
    a step of the table reaches its residue."""
    t = G._eff_cache
    if t is None:
        t = G._eff_cache = _Table()
    res = _residue(_lattice_form(G), f, G.n - 1)
    a = t.ids.get(res)
    return t.add(res, _park(G, f)[:-1]) if a is None else a


def _step(G: MultiGraph, a: int, i: int) -> int:
    """Fill slot i of id a's row of the step table with the id of
    res - e_i, found by one ``_borrow``, and return it.  If that residue
    has no id yet, its parking part is a's p minus e_i, which is parking
    while it has no negative entry; only when entry i would go negative
    does the kernel park it (sink 0)."""
    t = G._eff_cache
    v = list(t.res[a])
    _borrow(_lattice_form(G), v, i, len(v))
    v = tuple(v)
    b = t.ids.get(v)
    if b is None:
        p = t.p[a]
        p = (*p[:i], p[i] - 1, *p[i + 1:])
        if p[i] < 0:
            p = _park(G, p + (0,))[:-1]
        b = t.add(v, p)
    t.steps[a][i] = b
    return b


# ---------- rank ----------

_MAX_CANDIDATES = 5_000_000


def rank_bruteforce(G: MultiGraph, f: Sequence[int]) -> RankResult:
    """Rank by a breadth-first search over the residues of f - lambda, then
    the lex-first removal pattern of degree rank + 1 as the witness.

    f - lambda, for lambda of degree r with non-sink part mu, is effective
    iff delta(res_f - mu) <= deg(f) - r, and the sink chips of lambda do not
    move the residue; so rank(f) >= r iff every residue within distance r of
    res_f (reached by some mu with |mu| <= r) has delta <= deg(f) - r.  The
    value stage (``_rank``) finds the rank that way; the witness stage,
    which only this function runs, walks from f's cache id to the
    lex-first failing pattern of degree rank + 1 (``_lex_witness``), whose
    first pattern, the sink pile (0, ..., 0, rank + 1), already fails at
    rank -1 and rank = deg(f).  Only f's own residue parks f; every other
    kernel input is a cached p minus one chip, so none grows with f.

    Raises if the walk would pass the sink pile and its patterns, the mu
    with |mu| <= rank + 1, number more than ``_MAX_CANDIDATES``.
    """
    f = check_config(G, f)
    d = degree(f)
    r, start = _rank(G, f, d)
    # past the sink pile (kept when f minus r + 1 sink chips is effective)
    # the walk ranges over the C(r + n, n - 1) mu with |mu| <= r + 1
    if G._eff_cache.delta[start] < d - r and (walk := comb(r + G.n, G.n - 1)) > _MAX_CANDIDATES:
        raise ValueError(f"witness search space: {_count_text(walk)} patterns mu with"
                         f" |mu| <= {_count_text(r + 1)} exceed {_MAX_CANDIDATES}")
    return RankResult(r, _lex_witness(G, start, d, r + 1))


def _rank(G: MultiGraph, f: tuple, d: int) -> tuple:
    """The value stage, on a checked configuration f of degree d: the delta
    test on f's cache id, then the residue ball (``_ball_rank``).
    Returns (rank, f's id); ``riemann_roch_data``, ``rank_bounds_check``
    and ``chiprank rr-check`` read the rank alone.

    The rank is at most d - delta(res_f), f's parking sink entry, so the
    ball stops by layer d - delta + 1 and holds at most min(|Jac(G)|,
    C(d - delta + n - 1, n - 1)) residues, the second being the number of
    mu with |mu| <= d - delta; raises if both exceed ``_MAX_CANDIDATES``.
    As d - delta <= d, the test can fire only if C(d + n - 1, n - 1) is
    past the limit, and then it is taken on f's own parking before
    ``_entry`` builds the Hermite form, so a refusal on K_n (|Jac| by
    Cayley's formula) builds none.
    """
    k = G.n - 1
    if comb(max(d, 0) + k, k) > _MAX_CANDIDATES and (reach := d - sum(_park(G, f)[:-1])) >= 0:
        count = comb(reach + k, k)
        if count > _MAX_CANDIDATES and (jac := G.spanning_tree_count()) > _MAX_CANDIDATES:
            raise ValueError(f"rank search space: |Jac(G)| = {_count_text(jac)} residues and"
                             f" {_count_text(count)} patterns mu with |mu| <="
                             f" {_count_text(reach)} both exceed {_MAX_CANDIDATES}")
    start = _entry(G, f)
    if d < G._eff_cache.delta[start]:
        return -1, start
    return _ball_rank(G, start, d), start


def _ball_rank(G: MultiGraph, start: int, d: int) -> int:
    """rank(f), for effective f of degree d whose non-sink residue has the
    cache id start.  Layer dd holds the ids of the residues first reached
    with |mu| = dd, each one step of the table from a residue of the layer
    before.  The ball reads every slot of a row it expands, so it fills
    the row's missing slots (``_step``) first."""
    delta, steps = G._eff_cache.delta, G._eff_cache.steps
    top = delta[start]
    seen = {start}
    layer = [start]
    for dd in range(1, d + 1):
        bound = d - dd
        if top > bound:
            return dd - 1
        nxt = []
        for a in layer:
            row = steps[a]
            if None in row:
                for i, b in enumerate(row):
                    if b is None:
                        _step(G, a, i)
            for b in row:
                if b in seen:
                    continue
                seen.add(b)
                if delta[b] > top:
                    top = delta[b]
                    if top > bound:
                        return dd - 1
                nxt.append(b)
        if not nxt:
            # the ball covers Jac(G): no larger layer adds a residue
            return d - top
        layer = nxt
    return d


def _lex_witness(G: MultiGraph, start: int, d: int, dd: int) -> tuple:
    """The lex-first lambda of degree dd = rank(f) + 1 <= d + 1 with
    f - lambda not effective, for f of degree d whose non-sink residue has
    the cache id start.  The walk goes depth-first over lambda's non-sink
    part mu (the sink entry is whatever degree mu leaves); each step raises
    one entry j of mu, so the id of res_f - mu is slot j of the previous
    pattern's row of the step table (or of the row saved where the walk
    backs up), filled by ``_step`` if the table lacks it."""
    delta, steps = G._eff_cache.delta, G._eff_cache.steps
    k = G.n - 1
    bound = d - dd
    mu = [0] * k
    used = 0              # chips in mu
    a = start             # the id of res_f - mu
    saved = [None] * k    # saved[j]: the id before mu[j] last left 0
    while True:
        if delta[a] > bound:
            return (*mu, dd - used)
        src = a
        j = k - 1
        if used == dd:
            # no sink chip left to move into mu: zero the last nonzero
            # mu[j] and raise the entry before it (j > 0: the walk returns
            # by its last pattern, (dd, 0, ..., 0))
            while not mu[j]:
                j -= 1
            src = saved[j]
            used -= mu[j]
            mu[j] = 0
            j -= 1
        if not mu[j]:
            saved[j] = src
        mu[j] += 1
        used += 1
        a = steps[src][j]
        if a is None:
            a = _step(G, src, j)


def kappa(G: MultiGraph) -> tuple:
    """The configuration with deg(i) - 2 chips at every vertex (degree
    2m - 2n); the pivot of the rank symmetry below."""
    return tuple(d - 2 for d in G.degrees)


def kappa_dual(G: MultiGraph, f: Sequence[int]) -> tuple:
    """kappa - f, the configuration paired with f by the rank symmetry."""
    return tuple(k - x for k, x in zip(kappa(G), check_config(G, f)))


class RiemannRochData(NamedTuple):
    """Both sides of the rank symmetry for one configuration f.

    ``holds`` says whether rank - dual_rank equals degree + n - m, where
    dual_config is kappa - f.
    """

    rank: int
    dual_config: tuple
    dual_rank: int
    degree: int
    holds: bool


def riemann_roch_data(G: MultiGraph, f: Sequence[int]) -> RiemannRochData:
    """Brute-force ranks of f and of kappa - f, and whether
    rank(f) - rank(kappa - f) equals deg(f) + n - m.  Runs the value stage
    alone: no witness is searched for."""
    f = check_config(G, f)
    dual = tuple(k - x for k, x in zip(kappa(G), f))
    d = degree(f)
    r = _rank(G, f, d)[0]
    rd = _rank(G, dual, degree(dual))[0]
    return RiemannRochData(r, dual, rd, d, r - rd == d + G.n - G.m)


def riemann_roch_check(G: MultiGraph, f: Sequence[int]) -> bool:
    """Does rank(f) - rank(kappa - f) equal deg(f) + n - m?"""
    return riemann_roch_data(G, f).holds


def rank_bounds_check(G: MultiGraph, f: Sequence[int]) -> bool:
    """Spot-check rank inequalities around f, from the value stage alone.

    (i) if deg(f) > 2m - 2n the rank equals deg(f) - m + n - 1 exactly;
    (ii) adding an effective mu moves the rank up by between 0 and
    deg(mu), checked on four mu and then on each single chip.
    """
    f = check_config(G, f)
    d = degree(f)
    r = _rank(G, f, d)[0]
    if d > 2 * G.m - 2 * G.n and r != d - G.m + G.n - 1:
        return False
    trials = [tuple((t + i) % 2 + (i == t % G.n) for i in range(G.n)) for t in range(4)]
    chips = [tuple(int(i == j) for i in range(G.n)) for j in range(G.n)]
    for mu in trials + chips:
        dm = degree(mu)
        r2 = _rank(G, tuple(x + y for x, y in zip(f, mu)), d + dm)[0]
        if not r <= r2 <= r + dm:
            return False
    return True
