"""Divisor rank on multigraphs by exhaustive search, plus sanity checks.

The rank of a configuration f is the largest r such that f stays effective
after removing *any* r chips; equivalently rank(f) + 1 is the least degree of
an effective lambda with f - lambda not effective.  A class of degree d and
element g of Jac(G) (named by the non-sink residue modulo the Hermite form
of the reduced Laplacian) is effective iff d >= delta(g), the non-sink chip
count of its one parking representative.  Each graph caches one entry per
residue, so never more than |Jac(G)| of them: the non-sink part p of that
parking configuration, delta = sum(p), and the residue's row of the step
table, its k = n - 1 borrow neighbours res - e_i, each filled the first
time a step from res along i is taken.

Removing lambda moves the residue by lambda's non-sink part mu alone, so the
rank is found by a breadth-first search over residues, not over removal
patterns: the ball of residues res_f - mu grows one layer per |mu| (each
residue one step from the layer before) until one breaks the degree bound
or the ball covers Jac(G).  That visits each residue once per call.  Only
the witness, the lex-first failing pattern, walks removal patterns, and
only those of degree rank + 1.  Both take every step from the step table,
so ``graphs._borrow`` runs at most once per (residue, i): at most
(n - 1) |Jac(G)| times over the graph's life, however many calls it serves.

Every residue a step reaches is w = v - e_i for a residue v already in the
cache, so its entry comes from p_v: parking configurations are closed
downwards (Dhar's burning), so when p_v[i] > 0, p_v - e_i is the parking
configuration of w and no kernel runs; otherwise the kernel parks
p_v - e_i, which holds at most m - n + 2 non-sink chips whatever f is.
Only f's own residue parks f.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Sequence

# is_effective_class (the uncached parking route) is not used here; it stays
# importable as rank.is_effective_class
from .dynamics import _park, is_effective_class
from .graphs import MultiGraph, _borrow, _lattice_form, _residue, check_config, degree

__all__ = [
    "RankResult",
    "rank_bruteforce",
    "kappa",
    "RiemannRochData",
    "riemann_roch_data",
    "riemann_roch_check",
    "rank_bounds_check",
    "canonical_class_key",
    "is_effective_cached",
]


@dataclass(frozen=True)
class RankResult:
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


def is_effective_cached(G: MultiGraph, f: Sequence[int]) -> bool:
    """Effectiveness of the class of f, memoized per graph: after the first
    probe into an element of Jac(G), a probe costs one class key and one
    dictionary lookup.  A miss parks f itself."""
    f = check_config(G, f)
    return sum(f) >= _delta(G, _residue(_lattice_form(G), f, G.n - 1), f)


class _Entry:
    """G's cache entry for one residue res of Jac(G): the non-sink part p of
    the parking representative of its classes, delta = sum(p), and res's
    row of the step table, whose entry i is the residue of res - e_i once a
    step along i has been taken (None before).  The row holds residues, the
    cache's own keys, not entries: entries that pointed at each other would
    form reference cycles, which outlive the graph until the cyclic garbage
    collector runs."""

    __slots__ = ("res", "p", "delta", "steps")

    def __init__(self, res: tuple, p: tuple):
        self.res = res
        self.p = p
        self.delta = sum(p)
        self.steps = [None] * len(p)


def _delta(G: MultiGraph, res: tuple, f: tuple) -> int:
    """delta(res), the non-sink chip count of the parking representative of
    the classes with non-sink residue res; a class of degree d and residue
    res is effective iff d >= delta(res).

    G's cache maps each residue to its ``_Entry``, which holds delta and the
    residue's row of the step table.  f is a configuration of residue res,
    parked on a miss; this is the one entry made from a configuration given
    from outside.  Every other entry is made by ``_step``, the first time a
    step of the table reaches its residue."""
    e = G._eff_cache.get(res)
    if e is None:
        e = G._eff_cache[res] = _Entry(res, _park(G, f)[:-1])
    return e.delta


def _step(G: MultiGraph, e: _Entry, i: int) -> _Entry:
    """Fill entry i of e's row of the step table with the residue of
    e.res - e_i, found by one ``_borrow``, and return that residue's
    entry (the row keeps the key the cache holds).  If that residue has
    no entry yet, its parking part is e.p minus e_i, which is parking while
    it has no negative entry; only when entry i would go negative does the
    kernel park it (sink 0)."""
    v = list(e.res)
    _borrow(_lattice_form(G), v, i, len(v))
    v = tuple(v)
    cache = G._eff_cache
    w = cache.get(v)
    if w is None:
        p = e.p
        p = (*p[:i], p[i] - 1, *p[i + 1:])
        if p[i] < 0:
            p = _park(G, p + (0,))[:-1]
        w = cache[v] = _Entry(v, p)
    e.steps[i] = w.res
    return w


# ---------- rank ----------

_MAX_CANDIDATES = 5_000_000


def rank_bruteforce(
    G: MultiGraph, f: Sequence[int], *, max_candidates: int = _MAX_CANDIDATES
) -> RankResult:
    """Rank by a breadth-first search over the residues of f - lambda, then
    the lex-first removal pattern of degree rank + 1 as the witness.

    f - lambda, for lambda of degree r with non-sink part mu, is effective
    iff delta(res_f - mu) <= deg(f) - r, and the sink chips of lambda do not
    move the residue; so rank(f) >= r iff every residue within distance r of
    res_f (reached by some mu with |mu| <= r) has delta <= deg(f) - r.  The
    ball around res_f grows one layer per degree (``_ball_rank``) and stops
    at the first residue that breaks that bound, or when a layer comes out
    empty because the ball covers Jac(G).  For rank < deg(f) the witness is
    the lex-first failing pattern of degree rank + 1 (``_lex_witness``);
    for rank = deg(f), removing deg(f) + 1 chips leaves negative degree, and
    the witness is (0, ..., 0, deg(f) + 1).

    delta is read from G's cache of parking configurations (``_delta``).
    Only res_f's entry parks f itself; the ball and the walk take every
    other residue from the step table, and a step taken for the first time
    (``_step``) makes the new residue's entry from its neighbour's minus
    one chip, and only if that chip is missing does the kernel park it, so
    no kernel input but f's grows with f.

    Raises if the patterns of degree max(deg(f) - m + n, deg(f)) + 1 (beyond
    which no failure can first occur) would exceed ``max_candidates``: both
    the ball, whose residues are each reached by some mu of at most that
    size, and the witness walk fit inside that count.
    """
    return _rank(G, check_config(G, f), max_candidates)


def _rank(G: MultiGraph, f: tuple, max_candidates: int = _MAX_CANDIDATES) -> RankResult:
    """``rank_bruteforce`` on a checked configuration."""
    k = G.n - 1
    d = degree(f)
    res_f = _residue(_lattice_form(G), f, k)
    if _delta(G, res_f, f) > d:
        return RankResult(-1, (0,) * G.n)
    # C(ceiling + n - 1, n - 1): the patterns of degree ceiling, or the mu
    # with |mu| <= ceiling
    ceiling = max(d - G.m + G.n, d) + 1
    if comb(ceiling + k, k) > max_candidates:
        raise ValueError(
            f"rank search space exceeds {max_candidates} candidate patterns"
        )
    start = G._eff_cache[res_f]
    r = _ball_rank(G, start, d)
    if r == d:
        return RankResult(d, (0,) * k + (d + 1,))
    return RankResult(r, _lex_witness(G, start, d, r + 1))


def _ball_rank(G: MultiGraph, start: _Entry, d: int) -> int:
    """rank(f), for effective f of degree d whose non-sink residue has the
    cache entry start.  Layer dd holds the entries of the residues first
    reached with |mu| = dd, each one step of the table from a residue of
    the layer before; a step not yet in the table is filled by ``_step``."""
    cache = G._eff_cache
    top = start.delta
    seen = {start.res}
    layer = [start]
    for dd in range(1, d + 1):
        bound = d - dd
        if top > bound:
            return dd - 1
        nxt = []
        for e in layer:
            for i, v in enumerate(e.steps):
                if v is None:
                    v = _step(G, e, i).res
                if v in seen:
                    continue
                seen.add(v)
                w = cache[v]
                if w.delta > top:
                    top = w.delta
                    if top > bound:
                        return dd - 1
                nxt.append(w)
        if not nxt:
            # the ball covers Jac(G): no larger layer adds a residue
            return d - top
        layer = nxt
    return d


def _lex_witness(G: MultiGraph, start: _Entry, d: int, dd: int) -> tuple:
    """The lex-first lambda of degree dd = rank(f) + 1 <= d with f - lambda
    not effective, for f of degree d whose non-sink residue has the cache
    entry start.  The walk goes depth-first over lambda's non-sink part mu
    (the sink entry is whatever degree mu leaves); each step raises one
    entry j of mu, so the residue of res_f - mu is entry j of the previous
    pattern's row of the step table (or of the row saved where the walk
    backs up), filled by ``_step`` if the table lacks it."""
    k = G.n - 1
    bound = d - dd
    mu = [0] * k
    used = 0              # chips in mu
    e = start             # the entry of res_f - mu
    saved = [None] * k    # saved[j]: the entry before mu[j] last left 0
    while True:
        if e.delta > bound:
            return (*mu, dd - used)
        src = e
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
        v = src.steps[j]
        e = _step(G, src, j) if v is None else G._eff_cache[v]


def kappa(G: MultiGraph) -> tuple:
    """The configuration with deg(i) - 2 chips at every vertex (degree
    2m - 2n); the pivot of the rank symmetry below."""
    return tuple(d - 2 for d in G.degrees)


def kappa_dual(G: MultiGraph, f: Sequence[int]) -> tuple:
    """kappa - f, the configuration paired with f by the rank symmetry."""
    return _kappa_dual(G, check_config(G, f))


def _kappa_dual(G: MultiGraph, f: tuple) -> tuple:
    return tuple(k - x for k, x in zip(kappa(G), f))


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
    rank(f) - rank(kappa - f) equals deg(f) + n - m."""
    return _riemann_roch(G, check_config(G, f))


def _riemann_roch(G: MultiGraph, f: tuple) -> RiemannRochData:
    """``riemann_roch_data`` on a checked configuration."""
    dual = _kappa_dual(G, f)
    r = _rank(G, f).rank
    rd = _rank(G, dual).rank
    d = degree(f)
    return RiemannRochData(r, dual, rd, d, r - rd == d + G.n - G.m)


def riemann_roch_check(G: MultiGraph, f: Sequence[int]) -> bool:
    """Does rank(f) - rank(kappa - f) equal deg(f) + n - m?"""
    return riemann_roch_data(G, f).holds


def rank_bounds_check(G: MultiGraph, f: Sequence[int], *, trials: int = 4) -> bool:
    """Spot-check rank inequalities around f.

    (i) if deg(f) > 2m - 2n the rank equals deg(f) - m + n - 1 exactly;
    (ii) adding an effective mu moves the rank up by between 0 and deg(mu);
    (iii) adding a single chip moves the rank up by 0 or 1.
    """
    f = check_config(G, f)
    r = _rank(G, f).rank
    d = degree(f)
    if d > 2 * G.m - 2 * G.n and r != d - G.m + G.n - 1:
        return False
    for t in range(trials):
        mu = tuple((t + i) % 2 + (1 if i == t % G.n else 0) for i in range(G.n))
        r2 = _rank(G, tuple(x + y for x, y in zip(f, mu))).rank
        if not (r <= r2 <= r + degree(mu)):
            return False
    for i in range(G.n):
        bumped = tuple(x + (1 if j == i else 0) for j, x in enumerate(f))
        r2 = _rank(G, bumped).rank
        if r2 not in (r, r + 1):
            return False
    return True
