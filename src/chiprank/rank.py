"""Divisor rank on multigraphs by exhaustive search, plus sanity checks.

The rank of a configuration f is the largest r such that f stays effective
after removing *any* r chips; equivalently rank(f) + 1 is the least degree of
an effective lambda with f - lambda not effective.  Ranks here are computed
by brute force over chip-removal patterns, with effectiveness memoized per
toppling class so sweeps over many configurations stay fast.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

from .dynamics import is_effective_class
from .graphs import MultiGraph, check_config, degree

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


def _column_hnf(mat: list) -> list:
    """Lower-triangular column Hermite form of a nonsingular integer matrix.

    Only integer column operations are used, so the columns of the result
    span the same lattice as the columns of ``mat``.
    """
    k = len(mat)
    cols = [[mat[r][c] for r in range(k)] for c in range(k)]
    for i in range(k):
        while True:
            live = [c for c in range(i, k) if cols[c][i] != 0]
            if not live:
                raise ValueError("matrix is singular")
            if len(live) == 1:
                break
            live.sort(key=lambda c: abs(cols[c][i]))
            a, b = live[0], live[1]
            q = cols[b][i] // cols[a][i]
            for r in range(k):
                cols[b][r] -= q * cols[a][r]
        c = live[0]
        cols[i], cols[c] = cols[c], cols[i]
        if cols[i][i] < 0:
            for r in range(k):
                cols[i][r] = -cols[i][r]
    return cols


def _lattice_form(G: MultiGraph) -> list:
    if G._hnf is None:
        k = G.n - 1
        reduced = [list(G.laplacian_row(i + 1)[:k]) for i in range(k)]
        G._hnf = _column_hnf(reduced) if k else []
    return G._hnf


def _residue(cols: list, f: Sequence[int], k: int) -> tuple:
    v = list(f[:k])
    for i in range(k):
        col = cols[i]
        q = v[i] // col[i]
        if q:
            for r in range(i, k):
                v[r] -= q * col[r]
    return tuple(v)


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
    """Effectiveness of the class of f, memoized per graph.

    Keyed by the canonical class key, so repeated probes into the same
    toppling class (as rank searches make constantly) cost one dictionary
    lookup after the first.
    """
    d = sum(f)
    if d < 0:
        return False
    return _probe(G, (d, _residue(_lattice_form(G), f, G.n - 1)), f)


def _probe(G: MultiGraph, key: tuple, f: tuple, lam: tuple | None = None) -> bool:
    """Effectiveness of the class of f - lam (of f when lam is None), whose
    class key is ``key``.  The one reader and writer of G's effectiveness
    cache; f - lam is only built on a miss."""
    cache = G._eff_cache
    hit = cache.get(key)
    if hit is None:
        g = f if lam is None else tuple(x - y for x, y in zip(f, lam))
        hit = cache[key] = is_effective_class(G, g)
    return hit


# ---------- rank ----------


def _removal_patterns(total: int, parts: int) -> Iterator[tuple]:
    """Non-negative integer tuples with the given sum, lexicographically."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _removal_patterns(total - first, parts - 1):
            yield (first,) + rest


def _search_space(ceiling: int, parts: int) -> int:
    # sum over d <= ceiling of C(d + parts - 1, parts - 1)
    from math import comb

    return comb(ceiling + parts, parts)


def rank_bruteforce(
    G: MultiGraph, f: Sequence[int], *, max_candidates: int = 5_000_000
) -> RankResult:
    """Rank by increasing-degree search over chip-removal patterns.

    For d = 0, 1, 2, ... tries every non-negative lambda of degree d in
    lexicographic order and returns d - 1 with the first lambda making
    f - lambda non-effective.  The search is capped at degree
    max(deg(f) - m + n, deg(f)) + 1, beyond which no failure can first occur.
    Raises if the number of candidate patterns would exceed
    ``max_candidates``.
    """
    f = check_config(G, f)
    zero = (0,) * G.n
    if not is_effective_cached(G, f):
        return RankResult(-1, zero)
    d = degree(f)
    ceiling = max(d - G.m + G.n, d) + 1
    if _search_space(ceiling, G.n) > max_candidates:
        raise ValueError(
            f"rank search space exceeds {max_candidates} candidate patterns"
        )
    cols = _lattice_form(G)
    k = G.n - 1
    res_f = _residue(cols, f, k) if k else ()
    for dd in range(1, ceiling + 1):
        if d - dd < 0:
            # every removal of more than deg(f) chips fails; lex-first wins
            return RankResult(dd - 1, next(_removal_patterns(dd, G.n)))
        for lam in _removal_patterns(dd, G.n):
            shifted = tuple(x - y for x, y in zip(res_f, lam))
            if not _probe(G, (d - dd, _residue(cols, shifted, k)), f, lam):
                return RankResult(dd - 1, lam)
    raise AssertionError("internal error: rank search exhausted its ceiling")


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
