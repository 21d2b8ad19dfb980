"""Divisor rank on multigraphs by exhaustive search, plus sanity checks.

The rank of a configuration f is the largest r such that f stays effective
after removing *any* r chips; equivalently rank(f) + 1 is the least degree of
an effective lambda with f - lambda not effective.  Ranks here are computed
by brute force over chip-removal patterns.  A class of degree d and element
g of Jac(G) (named by the non-sink residue modulo the Hermite form of the
reduced Laplacian) is effective iff d >= delta(g), the non-sink chip count
of its one parking representative; each graph caches delta per residue, so
the cache never holds more than |Jac(G)| entries, and a miss parks the
probed configuration.

The search reduces one configuration per call, f itself: it walks the
removal patterns of each degree depth-first in lexicographic order, and
each pattern's residue follows from an earlier one by a one-chip borrow
(``graphs._borrow``).
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
    dictionary lookup."""
    f = check_config(G, f)
    return _probe(G, *canonical_class_key(G, f), f)


def _probe(
    G: MultiGraph, d: int, res: tuple, f: tuple, lam: tuple | None = None
) -> bool:
    """Is the class of f - lam (of f when lam is None), of degree d and
    non-sink residue res, effective, that is, is d >= delta(res)?  The one
    reader and writer of G's cache of delta."""
    cache = G._eff_cache
    delta = cache.get(res)
    if delta is None:
        g = f if lam is None else tuple(x - y for x, y in zip(f, lam))
        delta = cache[res] = sum(parking_representative(G, g)[:-1])
    return d >= delta


# ---------- rank ----------


def rank_bruteforce(
    G: MultiGraph, f: Sequence[int], *, max_candidates: int = 5_000_000
) -> RankResult:
    """Rank by increasing-degree search over chip-removal patterns.

    For d = 1, 2, ..., deg(f) tries every non-negative lambda of degree d in
    lexicographic order and returns d - 1 with the first lambda making
    f - lambda non-effective; if none does, the rank is deg(f), since
    removing deg(f) + 1 chips leaves negative degree, and the witness is the
    lex-first pattern of that degree.  Raises if the candidate patterns up to
    degree max(deg(f) - m + n, deg(f)) + 1 (beyond which no failure can
    first occur) would exceed ``max_candidates``.

    The patterns of one degree are walked depth-first over lambda's
    non-sink part mu, in lexicographic order; the sink entry is whatever
    degree mu leaves.  Each step raises one entry of mu by one, so the
    residue of f - lambda follows by one ``_borrow`` from the previous
    pattern's residue (or from the one saved where the walk backs up) in
    place of a fresh ``_residue``.
    """
    f = check_config(G, f)
    cols = _lattice_form(G)
    k = G.n - 1
    d = degree(f)
    res_f = _residue(cols, f, k)
    if not _probe(G, d, res_f, f):
        return RankResult(-1, (0,) * G.n)
    # sum over degrees up to the ceiling of C(degree + n - 1, n - 1)
    ceiling = max(d - G.m + G.n, d) + 1
    if comb(ceiling + G.n, G.n) > max_candidates:
        raise ValueError(
            f"rank search space exceeds {max_candidates} candidate patterns"
        )
    for dd in range(1, d + 1):
        mu = [0] * k
        used = 0            # chips in mu
        v = list(res_f)     # the residue of res_f - mu
        saved = [None] * k  # saved[j]: v as it was when mu[j] last left 0
        while True:
            lam = (*mu, dd - used)
            if not _probe(G, d - dd, tuple(v), f, lam):
                return RankResult(dd - 1, lam)
            j = k - 1
            if used == dd or not k:
                # no sink chip left to move into mu: zero the last nonzero
                # mu[j] and raise the entry before it, or stop after
                # (dd, 0, ..., 0)
                while j >= 0 and not mu[j]:
                    j -= 1
                if j <= 0:
                    break
                v = saved[j]
                used -= mu[j]
                mu[j] = 0
                j -= 1
            if not mu[j]:
                saved[j] = v[:]
            mu[j] += 1
            used += 1
            _borrow(cols, v, j, k)
    # every removal of more than deg(f) chips fails; the lex-first one wins
    return RankResult(d, (0,) * k + (d + 1,))


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
