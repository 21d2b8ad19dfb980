"""Spiral-labeled strip geometry and generating-function identities.

A word with n b's and n-1 a's draws a lattice path in a strip of n-1 rows of
unit cells; translating the path by all multiples of (n-1, n) tiles the strip,
and the cells get integer labels that grow by n going north, by n-1 going
west, and by 1 going northeast.  The path copies split the strip cells into a
*left* and a *right* region, and counting cells by label against a threshold
s turns configurations on the complete graph K_n into lattice statistics.
The series identities at the bottom tie those counts to the Carlitz
q-analogue of the Catalan numbers.

The public functions validate their arguments; the ``_``-prefixed helpers
take words and numbers that are already validated and run unchecked.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .complete import _rank
from .dyck import _dn, _heights, dn_words, dyck_words, phi_involution
from .graphs import _as_ints
from .series import TruncatedSeries

__all__ = [
    "vertex_label",
    "cell_label",
    "left_right",
    "lastright",
    "psi_involution",
    "h_series",
    "Ln_direct",
    "Ln_via_toxy",
    "carlitz_catalan",
    "LnC_identity_check",
    "Kn_bistatistic_check",
    "kn_degree_rank_table",
]

_DIRECT_LIMIT = 200_000  # refuse Ln_direct beyond this many words
_WALK_LIMIT = 10_000_000  # refuse the K_n (word, sink) walk beyond this many pairs


def _word_count(n: int) -> tuple:
    """(count, text) for the words of K_n, n >= 1: the Catalan number
    C(2n - 2, n - 1)/n and its decimal text.  The count is built up term by
    term, C_(k+1) = C_k * 2(2k + 1)/(k + 2), and stops at the first term
    past the larger limit, so a huge n costs a few dozen steps; the count
    is then that term (a lower bound) and the text "more than" the limit."""
    cap = max(_DIRECT_LIMIT, _WALK_LIMIT)
    words = 1
    for k in range(n - 1):
        words = words * 2 * (2 * k + 1) // (k + 2)
        if words > cap:
            return words, f"more than {cap}"
    return words, str(words)


def vertex_label(n: int, x: int, y: int) -> int:
    """Label of the lattice point (x, y) in the n-strip (rows 0..n-1)."""
    n, x, y = _as_ints((n, x, y), "the strip size and coordinates")
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= y <= n - 1:
        raise ValueError(f"vertex row {y} outside the strip (0..{n - 1})")
    return _vertex_label(n, x, y)


def _vertex_label(n: int, x: int, y: int) -> int:
    """``vertex_label`` of ints already in range, unchecked."""
    return y + (y - x) * (n - 1)


def cell_label(n: int, x: int, y: int) -> int:
    """Label of the unit cell with southwest corner (x, y).

    Cells occupy rows y = 0..n-2.  Labels step by +n to the north, +(n-1) to
    the west, +1 to the northeast, and the cell northwest of the origin has
    label 0; the cells touching the diagonal carry 1..n-2.
    """
    n, x, y = _as_ints((n, x, y), "the strip size and coordinates")
    if n < 2:
        raise ValueError("the strip needs n >= 2")
    if not 0 <= y <= n - 2:
        raise ValueError(f"cell row {y} outside the strip (0..{n - 2})")
    return y + (y - 1 - x) * (n - 1)


def _row_labels(wd: str) -> tuple:
    """(n, L) for a validated word wd with its trailing extra b: n is its
    number of b's, and L its row labels (``_labels``)."""
    n = wd.count("b")
    return n, _labels(_heights(wd), n)


def _labels(heights: list, n: int) -> list:
    """The per-row first left-region labels of an n-strip word whose a's
    sit at the given heights: row i holds the cell just west of the path's
    i-th north step, labeled (i-1) + eta_i * (n-1)."""
    return [i + h * (n - 1) for i, h in enumerate(heights)]


def left_right(w: str, s: int) -> tuple:
    """(left, right) cell counts against the threshold s.

    left  = number of left-region cells with label <= s,
    right = number of right-region cells with label > s.

    Row i contributes the left labels L_i, L_i + (n-1), ... (walking west)
    and the right labels L_i - (n-1), L_i - 2(n-1), ... (walking east).
    """
    n, L = _row_labels(_dn(w))
    (s,) = _as_ints((s,), "the threshold s")
    if n == 1:
        return (0, 0)
    return _counts(L, n, s)


def _counts(L: list, n: int, s: int) -> tuple:
    """left_right's two counts from the row labels L of an n-strip, n >= 2."""
    left = right = 0
    for Li in L:
        k = (s - Li) // (n - 1) + 1
        if k > 0:
            left += k
        k = -((s - (Li - (n - 1))) // (n - 1))
        if k > 0:
            right += k
    return (left, right)


def lastright(w: str) -> int:
    """Largest label in the right region: over rows, (i-1) + (eta_i - 1)(n-1)."""
    n, L = _row_labels(_dn(w))
    if n == 1:
        raise ValueError("the single-vertex strip has no cells")
    return max(Li - (n - 1) for Li in L)


def psi_involution(w: str, s: int) -> tuple:
    """The involution (w, s) -> (phi(w), lastright(w) - 1 - s); it exchanges
    the left count at s with the right count at the image."""
    wd = _dn(w)
    (s,) = _as_ints((s,), "the threshold s")
    return (phi_involution(w), lastright(wd) - 1 - s)


# ---------- generating functions ----------


def h_series(trunc: int) -> TruncatedSeries:
    """(1 - xy) / ((1 - x)(1 - y)) = 1 + sum of x^i + y^i."""
    coeffs = {(0, 0): 1}
    for i in range(1, trunc + 1):
        coeffs[(i, 0)] = 1
        coeffs[(0, i)] = 1
    return TruncatedSeries(2, trunc, coeffs)


def Ln_direct(n: int, trunc: int) -> TruncatedSeries:
    """Sum of x^left(w, s) y^right(w, s) over all words and all integer s,
    truncated at total degree ``trunc``.

    For n = 1 the strip has no cells and the series is H by convention.
    Both counts are monotone in s, so each word contributes a finite window:
    downward from the smallest left label while the right count stays within
    the truncation, and upward until the left count leaves it.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return h_series(trunc)
    words, text = _word_count(n)
    if words > _DIRECT_LIMIT:
        raise ValueError(f"{text} words is past the direct-enumeration limit")
    total: dict = {}
    for w in dn_words(n):
        L = _row_labels(w)[1]
        start = min(L)
        s = start - 1
        while True:
            l, r = _counts(L, n, s)
            if r > trunc:
                break
            total[(l, r)] = total.get((l, r), 0) + 1
            s -= 1
        s = start
        while True:
            l, r = _counts(L, n, s)
            if r == 0 and l > trunc:
                break
            if l + r <= trunc:
                total[(l, r)] = total.get((l, r), 0) + 1
            s += 1
    return TruncatedSeries(2, trunc, total)


def _an_words(n: int) -> Iterator[str]:
    """Every word with n b's and n - 1 a's (no prefix condition)."""
    length = 2 * n - 1
    for a_pos in combinations(range(length), n - 1):
        word = ["b"] * length
        for p in a_pos:
            word[p] = "a"
        yield "".join(word)


def _word_weight(w: str) -> tuple:
    """Exponents (alpha, beta) of a word's height profile: each a at
    non-negative height h contributes h + 1 to alpha, each below-ground a
    contributes -h - 1 to beta."""
    alpha = beta = 0
    h = 0
    for c in w:
        if c == "a":
            if h >= 0:
                alpha += h + 1
            else:
                beta += -h - 1
            h += 1
        else:
            h -= 1
    return alpha, beta


def Ln_via_toxy(n: int, trunc: int) -> TruncatedSeries:
    """The same series as Ln_direct, from the boundary-word expansion:
    H times (sum of weights of b...b words minus weights of a...a words)
    over all words with n b's and n - 1 a's."""
    if n < 2:
        raise ValueError("the boundary-word expansion needs n >= 2")
    inner: dict = {}
    for w in _an_words(n):
        if w[0] == "b" and w[-1] == "b":
            sign = 1
        elif w[0] == "a" and w[-1] == "a":
            sign = -1
        else:
            continue
        e = _word_weight(w)
        inner[e] = inner.get(e, 0) + sign
    return h_series(trunc) * TruncatedSeries(2, trunc, inner)


def carlitz_catalan(t_q: int, t_z: int) -> TruncatedSeries:
    """Area-weighted Catalan series C(q, z): coefficient of q^a z^p counts
    balanced words with p a's and area a, kept for a <= t_q, p <= t_z.

    Computed two ways which must agree: direct enumeration of balanced
    words, and the first-return recurrence C = 1 + z C(q, z) C(q, qz)
    iterated to its fixed point under truncation.
    """
    t_q, t_z = _as_ints((t_q, t_z), "truncation orders")
    if t_q < 0 or t_z < 0:
        raise ValueError("truncation orders must be >= 0")
    trunc = t_q + t_z

    def boxed(e):
        return e[0] <= t_q and e[1] <= t_z

    direct: dict = {}
    for p in range(t_z + 1):
        for w in dyck_words(p):
            a = sum(_heights(w))
            if a <= t_q:
                direct[(a, p)] = direct.get((a, p), 0) + 1
    by_enum = TruncatedSeries._make(2, trunc, direct)

    # Neither the products nor the shift z -> qz lowers an exponent, so a
    # monomial outside the box feeds only monomials outside it: trimming to
    # the box every round leaves every coefficient inside it exact.
    z = TruncatedSeries.monomial(2, trunc, (0, 1))
    one = TruncatedSeries.one(2, trunc)

    def step(C):
        shifted = C.map_exponents(lambda e: (e[0] + e[1], e[1])).filter(boxed)
        return (one + z * C * shifted).filter(boxed)

    C = one
    for _ in range(t_z + 1):
        C = step(C)
    # t_z + 1 rounds settle all z-degrees <= t_z; check the fixed point there
    if step(C) != C:
        raise AssertionError("first-return recurrence did not reach a fixed point")

    if by_enum != C:
        raise AssertionError("Catalan series disagree between enumeration and recurrence")
    return C


def LnC_identity_check(max_n: int, trunc: int) -> bool:
    """Does sum over n of L_n z^(n-1) match the closed rational form
    H (C_x + C_y - C_x C_y) / (1 - C_x z C_y), with C_x = C(x, xz) and
    C_y = C(y, yz), on the window z-degree < max_n, xy-degree <= trunc?"""
    max_n, trunc = _as_ints((max_n, trunc), "max_n and trunc")
    if max_n < 1:
        raise ValueError("need max_n >= 1")
    tz = max_n - 1
    T = trunc + tz

    lhs: dict = {}
    for n in range(1, max_n + 1):
        for (i, j), c in Ln_direct(n, trunc).coeffs.items():
            lhs[(i, j, n - 1)] = c
    lhs_series = TruncatedSeries(3, T, lhs)

    C = carlitz_catalan(trunc, tz)
    Cx = C.map_exponents(lambda e: (e[0] + e[1], 0, e[1]), nvars=3, trunc=T)
    Cy = C.map_exponents(lambda e: (0, e[0] + e[1], e[1]), nvars=3, trunc=T)
    H3 = h_series(trunc).map_exponents(lambda e: (e[0], e[1], 0), nvars=3, trunc=T)
    z = TruncatedSeries.monomial(3, T, (0, 0, 1))
    one = TruncatedSeries.one(3, T)
    rhs = H3 * (Cx + Cy - Cx * Cy) * (one - Cx * z * Cy).inverse()

    def windowed(e):
        return e[2] <= tz and e[0] + e[1] <= trunc

    return lhs_series.filter(windowed) == rhs.filter(windowed)


# ---------- complete-graph bistatistic ----------


def Kn_bistatistic_check(n: int, window: Sequence[int] = (-5, 15)) -> bool:
    """Per-configuration check tying strip counts to rank and degree on K_n.

    For every word w and every sink value s in the window, the configuration
    decoded from (w, s) must satisfy rank = left(w, s) - 1 and
    degree = C(n-1, 2) - 1 + left - right.  For n = 1 (no strip) the rank
    closed form rank = f1 (or -1 when negative) is checked instead.
    Refuses more than 10^7 (word, sink) pairs, as ``_kn_walk`` does.
    """
    (n,) = _as_ints((n,), "n")
    lo, hi = _as_ints(window, "window bounds")
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        return all(
            _rank((s,)) == (s if s >= 0 else -1) for s in range(lo, hi + 1)
        )
    base = comb(n - 1, 2)
    stair = "ab" * (n - 1) + "b"
    for w, L, degree, s, rank in _kn_walk(n, lo, hi):
        left, right = _counts(L, n, s)
        if rank != left - 1 or degree != base - 1 + left - right:
            return False
        if s == 0 and w == stair and rank != 0:
            return False
    return True


def kn_degree_rank_table(n: int, lo: int, hi: int) -> dict:
    """How many (word, sink) pairs on K_n carry each (degree, rank), the sink
    running over lo..hi.  Returns {(degree, rank): count}.  Refuses more
    than 10^7 (word, sink) pairs, as ``_kn_walk`` does."""
    n, lo, hi = _as_ints((n, lo, hi), "n and the sink bounds")
    if n < 2:
        raise ValueError("need n >= 2")
    out: dict = {}
    for _, _, degree, _, rank in _kn_walk(n, lo, hi):
        out[degree, rank] = out.get((degree, rank), 0) + 1
    return out


def _kn_walk(n: int, lo: int, hi: int) -> Iterator[tuple]:
    """(word, row labels, degree, sink, rank) for every word of K_n, n >= 2,
    and every sink lo..hi; refused before the first word when those pairs
    number more than ``_WALK_LIMIT``.

    A word's decoded values are already its sorted parking values (the
    closed form's parking leaves them and the sink as they are), and the
    i-th of them is i minus the height eta_i before the word's i-th a, so
    each word's heights are read once, for its values and its row labels
    alike.  The closed form ranks the first sink; every later sink costs
    one comparison.  With s + 1 = q(n-1) + r, the closed form sums the
    positive parts of q - eta_i + [i < r].  Moving the sink from s to s + 1
    raises only term r, by one, also at the wrap from (q, n - 2) to
    (q + 1, 0), so the rank rises by one iff eta_r <= q."""
    (words, text), sinks = _word_count(n), max(hi - lo + 1, 0)
    if words * sinks > _WALK_LIMIT:
        raise ValueError(f"{text} words x {sinks} sinks is past the walk limit"
                         f" of {_WALK_LIMIT} (word, sink) pairs")
    for w in dn_words(n) if sinks else ():
        heights = _heights(w)
        L = _labels(heights, n)
        values = tuple(i - h for i, h in enumerate(heights))
        degree, rank = sum(values) + lo, _rank(values + (lo,))
        yield w, L, degree, lo, rank
        for s in range(lo, hi):
            q, r = divmod(s + 1, n - 1)
            rank += heights[r] <= q
            degree += 1
            yield w, L, degree, s + 1, rank
