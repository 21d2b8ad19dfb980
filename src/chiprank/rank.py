"""Divisor rank on multigraphs by exhaustive search, plus sanity checks.

The rank of a configuration f is the largest r such that f stays effective
after removing *any* r chips; equivalently rank(f) + 1 is the least degree of
an effective lambda with f - lambda not effective.  A class of degree d and
element g of Jac(G) (named by the non-sink residue modulo the Hermite form
of the reduced Laplacian) is effective iff d >= delta(g), the non-sink chip
count of its one parking representative.  Each graph caches, per residue,
the non-sink part p of that parking configuration (delta = sum(p)), so the
cache never holds more than |Jac(G)| entries.

Removing lambda moves the residue by lambda's non-sink part mu alone, so the
rank is found by a breadth-first search over residues, not over removal
patterns: the ball of residues res_f - mu grows one layer per |mu| (each
residue one ``graphs._borrow`` from the layer before) until one breaks the
degree bound or the ball covers Jac(G).  That visits each residue once per
call, at most (n - 1) |Jac(G)| borrows.  Only the witness, the lex-first
failing pattern, walks removal patterns, and only those of degree
rank + 1.

Every residue the search reaches is w = v - e_i for a residue v already in
the cache, so its entry comes from p_v: parking configurations are closed
downwards (Dhar's burning), so when p_v[i] > 0, p_v - e_i is the parking
configuration of w and no kernel runs; otherwise the kernel parks
p_v - e_i, which holds at most m - n + 2 non-sink chips whatever f is.
Only f's own residue parks f.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import NamedTuple, Sequence

# is_effective_class is bound here for the CLI's effective command, which
# answers through rank.is_effective_class (the uncached parking route)
from .dynamics import is_effective_class, parking_representative
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
    d, res = canonical_class_key(G, f)
    return d >= _delta(G, res, f)


def _delta(G: MultiGraph, res: tuple, src: tuple, i: int | None = None) -> int:
    """delta(res), the non-sink chip count of the parking representative of
    the classes with non-sink residue res; a class of degree d and residue
    res is effective iff d >= delta(res).  The one reader and writer of G's
    cache, which maps each residue to that representative's non-sink part.

    With i None, src is a configuration of residue res, parked on a miss.
    Otherwise src is a cached residue and res = src - e_i; a miss takes
    src's entry minus e_i, which is parking while it has no negative entry,
    and parks it (sink 0) only when entry i would go negative."""
    cache = G._eff_cache
    p = cache.get(res)
    if p is None:
        if i is None:
            p = parking_representative(G, src)[:-1]
        else:
            p = cache[src]
            p = (*p[:i], p[i] - 1, *p[i + 1:])
            if p[i] < 0:
                p = parking_representative(G, p + (0,))[:-1]
        cache[res] = p
    return sum(p)


# ---------- rank ----------


def rank_bruteforce(
    G: MultiGraph, f: Sequence[int], *, max_candidates: int = 5_000_000
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
    Only res_f's entry parks f itself; the ball and the walk reach every
    other residue by one borrow from a cached one, whose entry minus one
    chip is the new entry unless that chip is missing, and only then does
    the kernel park it, so no kernel input but f's grows with f.

    Raises if the patterns of degree max(deg(f) - m + n, deg(f)) + 1 (beyond
    which no failure can first occur) would exceed ``max_candidates``: both
    the ball, whose residues are each reached by some mu of at most that
    size, and the witness walk fit inside that count.
    """
    f = check_config(G, f)
    cols = _lattice_form(G)
    k = G.n - 1
    d = degree(f)
    res_f = _residue(cols, f, k)
    if _delta(G, res_f, f) > d:
        return RankResult(-1, (0,) * G.n)
    # C(ceiling + n - 1, n - 1): the patterns of degree ceiling, or the mu
    # with |mu| <= ceiling
    ceiling = max(d - G.m + G.n, d) + 1
    if comb(ceiling + k, k) > max_candidates:
        raise ValueError(
            f"rank search space exceeds {max_candidates} candidate patterns"
        )
    r = _ball_rank(G, cols, f, d, res_f)
    if r == d:
        return RankResult(d, (0,) * k + (d + 1,))
    return RankResult(r, _lex_witness(G, cols, f, d, res_f, r + 1))


def _ball_rank(G: MultiGraph, cols: list, f: tuple, d: int, res_f: tuple) -> int:
    """rank(f), for effective f of degree d and non-sink residue res_f.
    Layer dd holds the residues first reached with |mu| = dd, each probed
    from the residue of the layer before that it was borrowed from."""
    k = G.n - 1
    top = _delta(G, res_f, f)
    seen = {res_f}
    layer = [res_f]
    for dd in range(1, d + 1):
        bound = d - dd
        if top > bound:
            return dd - 1
        nxt = []
        for res in layer:
            for i in range(k):
                v = list(res)
                _borrow(cols, v, i, k)
                v = tuple(v)
                if v in seen:
                    continue
                seen.add(v)
                delta = _delta(G, v, res, i)
                if delta > top:
                    top = delta
                    if top > bound:
                        return dd - 1
                nxt.append(v)
        if not nxt:
            # the ball covers Jac(G): no larger layer adds a residue
            return d - top
        layer = nxt
    return d


def _lex_witness(
    G: MultiGraph, cols: list, f: tuple, d: int, res_f: tuple, dd: int
) -> tuple:
    """The lex-first lambda of degree dd = rank(f) + 1 <= d with f - lambda
    not effective.  The walk goes depth-first over lambda's non-sink part
    mu (the sink entry is whatever degree mu leaves); each step raises one
    entry j of mu, so the residue follows by one ``_borrow`` from the
    previous pattern's (or from the one saved where the walk backs up), and
    is probed from that residue and j."""
    k = G.n - 1
    mu = [0] * k
    used = 0              # chips in mu
    v, src, j = res_f, f, None  # the residue of res_f - mu, and whence it came
    saved = [None] * k    # saved[j]: the residue before mu[j] last left 0
    while True:
        if _delta(G, v, src, j) > d - dd:
            return (*mu, dd - used)
        src = v
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
        v = list(src)
        _borrow(cols, v, j, k)
        v = tuple(v)


def kappa(G: MultiGraph) -> tuple:
    """The configuration with deg(i) - 2 chips at every vertex (degree
    2m - 2n); the pivot of the rank symmetry below."""
    return tuple(d - 2 for d in G.degrees)


def kappa_dual(G: MultiGraph, f: Sequence[int]) -> tuple:
    """kappa - f, the configuration paired with f by the rank symmetry."""
    f = check_config(G, f)
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
    f = check_config(G, f)
    dual = kappa_dual(G, f)
    r = rank_bruteforce(G, f).rank
    rd = rank_bruteforce(G, dual).rank
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
    r = rank_bruteforce(G, f).rank
    d = degree(f)
    if d > 2 * G.m - 2 * G.n and r != d - G.m + G.n - 1:
        return False
    for t in range(trials):
        mu = tuple((t + i) % 2 + (1 if i == t % G.n else 0) for i in range(G.n))
        r2 = rank_bruteforce(G, tuple(x + y for x, y in zip(f, mu))).rank
        if not (r <= r2 <= r + degree(mu)):
            return False
    for i in range(G.n):
        bumped = tuple(x + (1 if j == i else 0) for j, x in enumerate(f))
        r2 = rank_bruteforce(G, bumped).rank
        if r2 not in (r, r + 1):
            return False
    return True
