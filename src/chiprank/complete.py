"""Linear-time rank machinery on complete graphs.

On K_n a configuration is pinned by its residues mod n and its degree, and
parking configurations correspond to words with n b's and n-1 a's whose
strict prefixes never go b-heavy (the i-th a sits after value-of-vertex-i
b's).  Everything here runs in O(n) integer operations: normalization,
parking via the cyclic lemma, and a closed-form rank.  Words travel as ASCII
strings at the API boundary; the pipelines themselves work on value
histograms so no strings are built unless asked for.

The rank is read off the parking walk (``_walk``), the heights after each b
of the word of the residues' histogram.  On a path whose strict prefixes stay
non-negative, every level is crossed upwards as often as downwards, so the
parked word's a-heights, which the closed form sums over, are as a multiset
its heights after its first n - 1 b's, and those are a rotation of the walk.
The rank is then a few passes over slices of the walk (``_walk_rank``), with
no per-vertex list of values, heights or terms; ``rank_formula_details``
builds those lists as an inspection view.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import partial
from itertools import accumulate, repeat
from operator import ge, gt
from typing import NamedTuple, Sequence

from .dyck import _first_return_rotation, _heights, is_dn_word
from .graphs import _as_ints

__all__ = [
    "SortedParking",
    "is_equiv_kn",
    "compact_normalize",
    "is_compact_sorted",
    "phi1",
    "decode_word",
    "parking_via_cyclic_lemma",
    "rank_greedy",
    "rank_formula",
    "rank_formula_details",
    "theta_iterate",
    "t_operator",
]


class SortedParking(NamedTuple):
    """A sorted parking configuration on K_n: the word encoding its first
    n - 1 values (weakly increasing) plus the sink entry."""

    word: str
    sink: int


def _as_config(f: Sequence[int]) -> tuple:
    f = _as_ints(f)
    if not f:
        raise ValueError("configuration must not be empty")
    return f


# ---------- toppling equivalence on K_n ----------


def is_equiv_kn(f: Sequence[int], g: Sequence[int]) -> bool:
    """f ~ g on K_n: equal degree and all entrywise differences congruent
    mod n (firing a vertex shifts every entry by -1 mod n)."""
    f, g = _as_config(f), _as_config(g)
    if len(f) != len(g):
        raise ValueError("configurations live on different complete graphs")
    n = len(f)
    if sum(f) != sum(g):
        return False
    r = (f[0] - g[0]) % n
    return all((x - y) % n == r for x, y in zip(f, g))


def compact_normalize(f: Sequence[int]) -> tuple:
    """The equivalent configuration with non-sink entries reduced mod n
    relative to the first entry (so they land in 0..n-1, first entry 0) and
    the degree balanced onto the sink."""
    f = _as_config(f)
    n = len(f)
    base = f[0]
    body = [(x - base) % n for x in f[:-1]]
    return tuple(body) + (sum(f) - sum(body),)


def is_compact_sorted(f: Sequence[int]) -> bool:
    """Weakly increasing non-sink entries with spread at most n."""
    f = _as_config(f)
    body = f[:-1]
    if any(x > y for x, y in zip(body, body[1:])):
        return False
    return not body or body[-1] - body[0] <= len(f)


# ---------- words ----------


def phi1(values: Sequence[int], n: int) -> str:
    """Word of a weakly increasing value list: the i-th a is preceded by
    values[i] b's, padded to n b's total."""
    values = _as_ints(values, "parking values")
    (n,) = _as_ints((n,), "n")
    if len(values) != n - 1:
        raise ValueError(f"need {n - 1} values for n = {n}")
    if any(x > y for x, y in zip(values, values[1:])) or any(
        not 0 <= v <= n for v in values
    ):
        raise ValueError("values must be weakly increasing within 0..n")
    out = []
    emitted = 0
    for v in values:
        out.append("b" * (v - emitted))
        out.append("a")
        emitted = v
    out.append("b" * (n - emitted))
    return "".join(out)


def decode_word(word: str) -> tuple:
    """Inverse of phi1: number of b's before each a."""
    if not is_dn_word(word):
        raise ValueError("expected a word with one trailing extra b")
    # the i-th a follows i a's and i - eta_i b's, eta_i its height
    return tuple(i - h for i, h in enumerate(_heights(word)))


# ---------- parking via the cyclic lemma ----------


def _walk(f: tuple) -> tuple:
    """The cyclic lemma on a validated configuration of n >= 1 vertices.

    With residues r_i = (f_i - f_0) mod n over the non-sink entries, d[v] is
    one less than the number of residues equal to v, and the walk H, the
    prefix sums of d, is the height after the (v+1)-th b of the word that
    writes, for each v, the a's of value v and then a b; H[n-1] = -1.
    Rotating the prefix up to H's first minimum best (q b's and p = best + q
    a's) to the back parks f: each residue drops by q mod n, and the sink
    becomes deg f - sum(r) + n(q - p) - q.  Returns (d, H, best, q, sink).
    """
    n = len(f)
    base = f[0]
    d = [-1] * n
    for x in f[:-1]:
        d[(x - base) % n] += 1
    H = list(accumulate(d))
    best = min(H)
    q = H.index(best) + 1
    # sum(r) = n(n - 1) - sum(A), A[v] = H[v] + v + 1 the a's of value <= v,
    # and n(q - p) = -n * best
    sink = sum(f) + sum(H) + n * (3 - n) // 2 - n * best - q
    return d, H, best, q, sink


def parking_via_cyclic_lemma(f: Sequence[int]) -> tuple:
    """Parking representative on K_n, by rotating the encoding word.

    Returns ``(SortedParking, parking_config)``: the sorted form as a word
    plus sink, and the parking configuration in original vertex order (each
    normalized value shifts by -q mod n, q the number of b's rotated away;
    the result is toppling-equivalent to f, not merely a permutation).
    """
    f = _as_config(f)
    n = len(f)
    d, _, _, q, sink = _walk(f)
    word = _parked_word(d, q)
    shift = f[0] + q
    vertex_order = tuple((x - shift) % n for x in f[:-1]) + (sink,)
    return SortedParking(word, sink), vertex_order


def _parked_word(d: list, q: int) -> str:
    """The sorted parking word of ``_walk``'s d and q: for each value, its
    a's and then a b, starting at value q."""
    return "".join("a" * (k + 1) + "b" for k in d[q:] + d[:q])


# ---------- rank ----------


def _zero_step(word: str, sink: int) -> tuple:
    """One reduction step on a checked sorted parking pair with a zero
    coordinate (word other than "b"): rotate the word's first return block
    to the back (theta on the balanced part) and charge the sink for the
    a's that block contained.  Returns the (word, sink) pair."""
    rotated, u = _first_return_rotation(word[:-1])
    # the sink pays for the a's of the rotated block a u b
    return rotated + "b", sink - 1 - u.count("a")


def rank_greedy(f: Sequence[int]) -> int:
    """Rank on K_n by repeated zero-coordinate steps.

    Parks f, then peels first-return blocks while the sink stays
    non-negative; hitting the staircase word short-circuits to
    steps + sink, and a negative sink ends the search at steps - 1.

    Cost: an O(n) parking (the sorted word only, without the vertex order
    that ``parking_via_cyclic_lemma`` also builds), then up to rank + 1
    steps of O(n) each, so O(n * (rank + 1)) in all, where
    ``rank_formula`` is O(n) at any rank.
    The parked word is valid and each step keeps it so, so the steps run
    unchecked: a Python loop over the rotated first-return block, and
    string slicing for the rest.  On K_1000 with entries up to 3000 (rank
    about 10^6, 28096 steps) it took 0.09 s, against 0.5 ms for
    ``rank_formula`` (Python 3.11, shared 2-core x86-64 machine).
    """
    f = _as_config(f)
    d, _, _, q, sink = _walk(f)
    word = _parked_word(d, q)
    stair = "ab" * (len(word) // 2) + "b"
    steps = 0
    while True:
        if sink < 0:
            return steps - 1
        if word == stair:
            return steps + sink
        word, sink = _zero_step(word, sink)
        steps += 1


def _rank(f: tuple) -> tuple:
    """The closed-form rank of a validated configuration, a non-empty tuple
    of ints, as ``(rank, ops)``, ops the items its passes read; the one core
    behind ``rank_formula`` and the strip's K_n walks."""
    n = len(f)
    if n == 1:
        return (f[0] if f[0] >= 0 else -1), 1
    _, H, best, q, sink = _walk(f)
    rank, ops = _walk_rank(H, best, q, sink)
    # the walk's histogram; accumulate, min, index; sum(f), sum(H)
    return rank, ops + (n - 1) + (2 * n + q) + 2 * n


def _walk_rank(H: list, best: int, q: int, sink: int) -> tuple:
    """The closed form's last stage, read off ``_walk``'s heights, as
    ``(rank, ops)``, ops the items its passes read.

    The sorted parking word's heights after its first n - 1 b's are
    beta = H[q:] - best, then H[:q-1] - best - 1, and as a multiset they
    are its a-heights eta (up-crossings of each level match down-crossings).
    With sink + 1 = Q(n-1) + R, the sum of max(0, Q - eta_i + [i < R]) is
    rank + 1.  It is the sum of max(0, Q - beta_j), plus the number of
    a's before index R at a level <= Q.  The prefix before the a at index R
    holds V b's and ends at height R - V, so those a's are the j < V with
    beta_j <= Q plus one up-step for each level 0..min(Q, R - V - 1) that
    no down-step in the prefix matches.  Each part is a pass over a slice
    of H.
    """
    n = len(H)
    Q, R = divmod(sink + 1, n - 1)
    if Q < 0:  # every term is at most Q + 1 <= 0
        return -1, 0
    T = Q + best  # beta_j <= Q iff H <= T in the tail, H <= T + 1 in the head
    tail, head = H[q:], H[:q - 1]
    low = list(filter(partial(gt, T), tail))
    low_head = list(filter(partial(gt, T + 1), head))
    below = T * len(low) - sum(low) + (T + 1) * len(low_head) - sum(low_head)
    # the a at index R of the parked word is the a at index p + R (mod n - 1)
    # of the unparked one, of value w, the least w with A[w] > that index
    i = (best + q + R) % (n - 1)
    w = bisect_right(range(n), i, key=lambda v: H[v] + v + 1)
    V = (w - q) % n
    seen = (sum(map(ge, repeat(T), tail[:V]))
            + sum(map(ge, repeat(T + 1), head[:max(0, V - len(tail))])))
    # slices; filters; sums of the lows; bisection probes (at most
    # n.bit_length()); the first V heights' slices and count
    ops = (n - 1) + (n - 1) + len(low) + len(low_head) + n.bit_length() + 2 * V
    return below + seen + max(0, min(Q + 1, R - V)) - 1, ops


def rank_formula(f: Sequence[int], count_ops: bool = False):
    """Closed-form rank on K_n in O(n) integer operations.

    Parks f by the cyclic lemma, writes sink + 1 = q(n-1) + r, and the rank
    is the sum of the positive parts of q - eta_i + [i < r] over the sorted
    parking word's a-heights eta, minus one.  On a path whose strict
    prefixes stay non-negative, the up-crossings of each level equal its
    down-crossings, so the a-heights are, as a multiset, the heights after
    the first n - 1 b's; those come straight from the parking walk, and the
    rank is read off them with a few passes over slices of it, without a
    per-vertex list (``_walk_rank``).  ``rank_formula_details`` is an
    inspection view that builds the per-position lists.

    With ``count_ops=True`` returns ``(rank, ops)``, ops the items read by
    the passes it ran, each tallied beside its pass (``_rank``).
    """
    rank, ops = _rank(_as_config(f))
    return (rank, ops) if count_ops else rank


def rank_formula_details(f: Sequence[int]) -> dict:
    """The formula's intermediate data, for inspection: quotient q,
    remainder r, the sorted parking word's heights, the per-position terms,
    and the rank (which ``rank_formula`` finds without these lists)."""
    f = _as_config(f)
    if len(f) == 1:
        return {"q": None, "r": None, "heights": [], "terms": [], "rank": _rank(f)[0]}
    d, H, best, q, sink = _walk(f)
    values = [v for v, k in enumerate(d[q:] + d[:q]) for _ in range(k + 1)]
    heights = [i - v for i, v in enumerate(values)]
    Q, R = divmod(sink + 1, len(heights))
    return {"q": Q, "r": R, "heights": heights,
            "terms": [Q - h + (i < R) for i, h in enumerate(heights)],
            "rank": _walk_rank(H, best, q, sink)[0]}


def theta_iterate(word: str, sink: int, k: int) -> tuple:
    """Apply the zero-coordinate step k times to (word, sink)."""
    (k,) = _as_ints((k,), "the step count k")
    if k < 0:
        raise ValueError("k must be >= 0")
    (sink,) = _as_ints((sink,), "the sink entry")
    if not is_dn_word(word):
        raise ValueError("expected a sorted parking word")
    if k and word == "b":
        raise ValueError("expected a sorted parking word with a zero coordinate")
    for _ in range(k):
        word, sink = _zero_step(word, sink)
    return (word, sink)


# ---------- the T operator ----------


def t_operator(f: Sequence[int], inverse: bool = False) -> tuple:
    """Topple the largest non-sink entry of a compact sorted configuration
    and re-sort (or undo that).  Keeps the compact sorted shape; n - 1
    forward applications add the sink's Laplacian row."""
    f = _as_config(f)
    n = len(f)
    if n < 2:
        raise ValueError("the T operator needs at least one non-sink vertex")
    if not is_compact_sorted(f):
        raise ValueError("expected weakly increasing entries with spread <= n")
    body, sink = f[:-1], f[-1]
    if inverse:
        return tuple(x - 1 for x in body[1:]) + (body[0] + (n - 1), sink - 1)
    return (body[-1] - (n - 1),) + tuple(x + 1 for x in body[:-1]) + (sink + 1,)
