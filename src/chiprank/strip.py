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

from math import comb, inf
from operator import add, mul
from typing import Iterator, Sequence

from .complete import _rank
from .dyck import _contact_labels, _dn, _heights, dn_words, phi_involution
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

_WALK_LIMIT = 10_000_000  # refuse the K_n (word, sink) walk beyond this many pairs
_BUDGET = 5 * 10**10  # bits of packed work a pass may take; a dict term takes as long as 2**13


def _word_count(n: int) -> tuple:
    """(count, text) for the words of K_n, n >= 1: the Catalan number
    C(2n - 2, n - 1)/n, built term by term, C_(k+1) = C_k * 2(2k + 1)/(k + 2),
    and its decimal text; past the walk limit, a few dozen steps at any n,
    the first term past it (a lower bound) and "more than" the limit."""
    words = 1
    for k in range(n - 1):
        words = words * 2 * (2 * k + 1) // (k + 2)
        if words > _WALK_LIMIT:
            return words, f"more than {_WALK_LIMIT}"
    return words, str(words)


def _require_trunc(trunc: int) -> None:
    """Refuse a negative truncation, naming it."""
    if trunc < 0:
        raise ValueError("need trunc >= 0")


def vertex_label(n: int, x: int, y: int) -> int:
    """Label of the lattice point (x, y) in the n-strip (rows 0..n-1)."""
    n, x, y = _as_ints((n, x, y), "the strip size and coordinates")
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0 <= y <= n - 1:
        raise ValueError(f"vertex row {y} outside the strip (0..{n - 1})")
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
    number of b's, and L its per-row first left-region labels.  Row i holds
    the cell just west of the path's i-th north step, whose label is that
    step's start, i + eta_i (n - 1) (``dyck._contact_labels``)."""
    return wd.count("b"), _contact_labels(_heights(wd))


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
    """(1 - xy) / ((1 - x)(1 - y)) = 1 + sum of x^i + y^i, which is L_2."""
    (trunc,) = _as_ints((trunc,), "trunc")
    return Ln_direct(2, trunc)


def Ln_direct(n: int, trunc: int) -> TruncatedSeries:
    """Sum of x^left(w, s) y^right(w, s) over all words and all integer s,
    truncated at total degree ``trunc``, refused in O(1) past the budget.
    For n = 1 the strip has no cells and the series is H = L_2 by convention."""
    n, trunc = _as_ints((n, trunc), "n and trunc")
    if n < 1:
        raise ValueError("need n >= 1")
    _require_trunc(trunc)
    m = max(n - 1, 1)
    q = trunc // m  # farther sinks shift q = -1 or n - 2 past trunc (``_sink_sum``)
    return TruncatedSeries._make(2, trunc, _sink_sum(m + 1, trunc, -(q + 1) * m, (m + q) * m - 1))


def Ln_via_toxy(n: int, trunc: int) -> TruncatedSeries:
    """The same series as Ln_direct, from the boundary-word expansion:
    H times (sum of weights of b...b words minus weights of a...a words)
    over all words with n b's and n - 1 a's, an a at height h weighing
    x^(h + 1), or y^(-h - 1) below ground.  Refused in O(1) past the budget.

    H F = F/(1 - x) + F/(1 - y) - F: each term of a sum F adds its
    coefficient along its row and its column up to the truncation, the
    |F| (2 trunc + 1) dict terms the budget charges, never a trunc^2 box."""
    n, trunc = _as_ints((n, trunc), "n and trunc")
    if n < 2:
        raise ValueError("the boundary-word expansion needs n >= 2")
    _require_trunc(trunc)
    _require_budget(n, trunc, n + 2 * (trunc // (n - 1)) + 2 * trunc + 1, n)  # H's terms as q's
    out = {}
    for end, sign in zip("ba", (1, -1)):  # n = 2's a?a never ends at -1: its sum is 0
        for (a, b), c in _word_sum(n, trunc, n * n, end + "?" * (2 * n - 3) + end, -1, -n,
                                   range(-n, 2 * n)):
            c *= sign
            out[a, b] = out.get((a, b), 0) - c
            for i in range(trunc - a - b + 1):
                out[a + i, b] = out.get((a + i, b), 0) + c
                out[a, b + i] = out.get((a, b + i), 0) + c
    return TruncatedSeries._make(2, trunc, out)


def _require_budget(n: int, trunc: int, qs: int, qtop: int, spent: int = 0) -> int:
    """spent plus the work a K_n pass over qs q's, none above qtop, takes at
    most, refused past ``_BUDGET``: per q, its slots' terms at 2**13; per DP
    run (n + 4 at most), at most m(m + 4) live states of slots at 2m bits
    (m Catalan(m) < 4^m), m = n - 1."""
    m = n - 1
    slots = (min(trunc, m * min(max(qtop + 1, 0), m)) + 1) * min(trunc + n, m * n // 2)
    cost = spent + slots * (min(qs, n + 4) * 2 * m * m * (m + 4) + qs * 2**13)
    if cost > _BUDGET:
        raise ValueError(f"about 2^{cost.bit_length() - 1} bits of work is past"
                         f" the strip budget of {_BUDGET} bits")
    return cost


def _pack(terms, S: int, w: int) -> int:
    """One int holding, for each ((a, b), c) in terms, c >= 0 in the w-bit
    slot aS + b: the coefficient of x^a y^b."""
    return sum(c << (a * S + b) * w for (a, b), c in terms)


def _unpack(P: int, S: int, w: int, trunc: int, i: int = 0) -> list:
    """[((a, b), c)] over the non-zero w-bit slots of P that a ``_cut`` mask
    keeps, b <= trunc - a, the j-th standing for x^a y^b with aS + b = i + j:
    ``_pack``'s inverse on such a P.  A long P is halved first, so no slot
    costs a shift of the whole int, and the slots past each row's cut are
    never read."""
    k = -(-P.bit_length() // w)
    if k > 256:
        h = k // 2
        return (_unpack(P & (1 << h * w) - 1, S, w, trunc, i)
                + _unpack(P >> h * w, S, w, trunc, i + h))
    slot, (a0, b0) = (1 << w) - 1, divmod(i, S)
    return [((a, b), c) for a in range(a0, (i + k - 1) // S + 1)
            for b in range(b0 if a == a0 else 0, min(trunc - a, S - 1, i + k - 1 - a * S) + 1)
            if (c := P >> (a * S + b - i) * w & slot)]


def _cut(trunc: int, S: int, w: int, rows: range) -> int:
    """The mask of the w-bit slots aS + b with a in rows, b <= trunc - a, b < S."""
    return sum((1 << (min(trunc - a, S - 1) + 1) * w) - 1 << a * S * w for a in rows)


def _word_sum(n: int, trunc: int, xmax: int, pattern: str, end: int, floor: int,
              exps: range, switch: range = range(0)) -> list:
    """[((a, b), count)] of x^a y^b, a <= xmax, a + b <= trunc, over words
    filling ``pattern`` (? for either letter) whose path from height 0 stays
    >= ``floor`` and ends at ``end``; an a at height h, flag f multiplies by
    x^c, or y^-c if c = exps[h - floor + f] < 0.  Paths start at flag 0 if
    ``switch`` names a-indices (else 1), fork to flag 1 after the i-th a
    (from 0) for i in it, and end at flag 1.  A state is an int with x^a y^b
    in w-bit slot aS + b: K_n's counts, n >= 2, are <= m Catalan(m),
    m = n - 1, and no b in the mask reaches S after one more a."""
    S, w = min(trunc + n, (n - 1) * n // 2), ((n - 1) * comb(2 * n - 2, n - 1) // n).bit_length()
    mask = _cut(trunc, S, w, range(min(trunc, xmax) + 1))
    shifts = [c * S * w if c >= 0 else -c * w for c in exps]
    layer = {(0, 0 if switch else 1): 1}
    for p, letter in enumerate(pattern):
        nxt, room = {}, len(pattern) - p - 1  # room: letters after this one
        for (h, f), P in layer.items():
            if letter != "b" and h + 1 - end <= room:
                up = P << shifts[h - floor + f] & mask
                for g in (0, 1) if not f and (p + h) // 2 in switch else (f,):
                    nxt[h + 1, g] = nxt.get((h + 1, g), 0) + up
            if letter != "a" and h > floor and end - h + 1 <= room:
                nxt[h - 1, f] = nxt.get((h - 1, f), 0) + P
        layer = nxt
    return _unpack(layer.get((end, 1), 0), S, w, trunc)


def _sink_sum(n: int, trunc: int, lo: int, hi: int) -> dict:
    """{(left, right): count} over K_n's words, n >= 2, and sinks lo..hi, cut
    at left + right <= trunc.  For s = qm + r, m = n - 1, 0 <= r < m, the i-th
    a, at height eta, adds (q_i - eta)^+ to left and (eta - q_i)^+ to right,
    q_i = q + [i <= r]: one ``_word_sum`` per q, going from q + 1 to q after
    the r-th a.  As 0 <= eta < m, q < -1 (> n - 2) is q = -1 (n - 2) shifted."""
    m, out, memo = n - 1, {}, {}
    qs = range(lo // m, hi // m + 1 if lo <= hi else lo // m)  # none for an empty window
    _require_budget(n, trunc, len(qs), hi // m)
    for q in qs:
        base = -1 if q < -1 else n - 2 if q > n - 2 else q
        key = base, range(max(lo - q * m, 0), min(hi - q * m, m - 1) + 1)
        if key not in memo:
            exps = range(base + 1, base - 2 * m - 1, -1)
            memo[key] = _word_sum(n, trunc, m * (base + 1), "?" * 2 * m, 0, 0, exps, key[1])
        dx, dy = ((q - base) * m, 0) if q > base else (0, (base - q) * m)
        for (a, b), c in memo[key]:
            if a + dx + b + dy <= trunc:
                out[a + dx, b + dy] = out.get((a + dx, b + dy), 0) + c
    return out


def carlitz_catalan(t_q: int, t_z: int) -> TruncatedSeries:
    """Area-weighted Catalan series C(q, z): coefficient of q^a z^p counts
    balanced words with p a's and area a, kept for a <= t_q, p <= t_z.

    Computed one z-degree at a time from the first-return recurrence
    C_p(q) = sum over a + b = p - 1 of q^a C_a(q) C_b(q) (Carlitz and
    Riordan, 1964) on one int per C_p, ``width`` bits per power of q, cut
    to q^t_q at each step: no exponent falls, so each kept one is exact.
    """
    t_q, t_z = _as_ints((t_q, t_z), "truncation orders")
    if t_q < 0 or t_z < 0:
        raise ValueError("truncation orders must be >= 0")
    # every coefficient of every product below counts balanced words with
    # p <= t_z a's, so it is at most Catalan(t_z) < 2^width: no slot carries
    width = (comb(2 * t_z, t_z) // (t_z + 1)).bit_length()
    keep = (1 << (t_q + 1) * width) - 1
    polys, lifted, coeffs = [], [], {}
    for p in range(t_z + 1):
        c = sum(map(mul, lifted, reversed(polys))) & keep if p else 1
        polys.append(c)
        lifted.append(c << p * width & keep)  # q^p C_p
        coeffs.update(((a, p), v) for (_, a), v in _unpack(c, t_q + 1, width, t_q))
    return TruncatedSeries._make(2, t_q + t_z, coeffs)


def LnC_identity_check(max_n: int, trunc: int) -> bool:
    """Does sum over n of L_n z^(n-1) match the closed rational form
    H (C_x + C_y - C_x C_y) / (1 - C_x z C_y), with C_x = C(x, xz) and
    C_y = C(y, yz), on the window z-degree < max_n, xy-degree <= trunc?

    Charged, before any pass, for the work of ``_identity_rhs`` on ints of
    at most b = (trunc S + 1) 2max_n bits, S = 2 trunc + 1: at most
    (3 min(max_n, trunc + 1) + 2) max_n products, each at b 1.5^k bits,
    k = (b >> 11).bit_length(), for Karatsuba's three half-size products
    per halving, and (max_n + 3)(trunc + 1) shifts of b bits, a row each,
    to build its mask and pack H and the X_p; then for its L_n passes."""
    max_n, trunc = _as_ints((max_n, trunc), "max_n and trunc")
    if max_n < 1:
        raise ValueError("need max_n >= 1")
    _require_trunc(trunc)
    bits = (trunc * (2 * trunc + 1) + 1) * 2 * max_n
    k = (bits >> 11).bit_length()
    products, shifts = (3 * min(max_n, trunc + 1) + 2) * max_n, (max_n + 3) * (trunc + 1)
    cost = (products * bits * 3**k >> k) + shifts * bits
    for n in range(2, max(max_n, 2) + 1):  # at most n + 1 + 2 trunc / (n - 1) q's
        cost = _require_budget(n, trunc, n + 1 + 2 * trunc // (n - 1), n, cost)

    H = Ln_direct(2, trunc)  # L_1 = H = L_2
    lhs = {}
    for n in range(1, max_n + 1):
        L = H if n < 3 else Ln_direct(n, trunc)
        lhs.update(((a, b, n - 1), c) for (a, b), c in L.coeffs.items())
    return lhs == _identity_rhs(max_n, trunc, H)


def _identity_rhs(max_n: int, trunc: int, H: TruncatedSeries) -> dict:
    """{(a, b, p): c} of H (C_x + C_y - C_x C_y) / (1 - C_x z C_y) at z^p,
    p < max_n, cut at a + b <= trunc, one packed (x, y) int per z-degree;
    H is ``h_series(trunc)``, 1 + x + y + x^2 + y^2 + ...

    With X_p = x^p C_p(x), Y_p = y^p C_p(y) and P_p = sum of X_a Y_(p - a),
    1/(1 - zP) = sum of G_p z^p, G_0 = 1, G_p = sum over j >= 1 of
    P_(j - 1) G_(p - j); as C_x C_y G = (G - 1)/z, the z^p coefficient is
    H (sum of (X_a + Y_a) G_(p - a) - G_(p + 1)), two non-negative sides
    subtracted slot by slot as they are unpacked.  x^a y^b sits in slot
    aS + b, S = 2 trunc + 1, so no product's y-degree reaches the next row,
    and every slot is at most its series' coefficient sum at x = y = 1 (H's
    coefficients are 0 or 1), read off the same recurrences on Catalan
    numbers: no slot carries."""
    S, tz = 2 * trunc + 1, max_n - 1
    cat = [comb(2 * p, p) // (p + 1) for p in range(max_n + 1)]
    g = [1]
    for p in range(1, max_n + 1):
        g.append(sum(map(mul, cat[1:], reversed(g))))
    w = max(2 * sum(map(mul, cat, reversed(g[:max_n]))), g[max_n]).bit_length()
    mask = _cut(trunc, S, w, range(trunc + 1))
    C = carlitz_catalan(trunc, tz).coeffs
    cols = [[(a + p, c) for (a, q), c in C.items() if q == p and a + p <= trunc]
            for p in range(max_n)]
    X = [_pack((((a, 0), c) for a, c in col), S, w) for col in cols]
    Y = [_pack((((0, b), c) for b, c in col), S, w) for col in cols]
    P = [sum(map(mul, X[:p + 1], reversed(Y[:p + 1]))) & mask for p in range(max_n)]
    G = [1]
    for p in range(1, max_n + 1):
        G.append(sum(map(mul, P, reversed(G))) & mask)
    Hp, XY, out = _pack(H.coeffs.items(), S, w), list(map(add, X, Y)), {}
    for p in range(max_n):
        pos = sum(map(mul, XY, reversed(G[:p + 1]))) & mask
        for (a, b), c in _unpack(Hp * pos & mask, S, w, trunc):
            out[a, b, p] = c
        for (a, b), c in _unpack(Hp * G[p + 1] & mask, S, w, trunc):
            out[a, b, p] = out.get((a, b, p), 0) - c
    return {e: c for e, c in out.items() if c}


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
    window = _as_ints(window, "window bounds")
    if len(window) != 2:
        raise ValueError(f"window must be a pair of sink bounds (lo, hi), got {window!r}")
    lo, hi = window
    if n < 1:
        raise ValueError("need n >= 1")
    if n == 1:
        _check_walk(1, lo, hi)
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
    running over lo..hi.  Returns {(degree, rank): count}, from the uncut
    ``_sink_sum``: rank = left - 1, degree = C(n - 1, 2) - 1 + left - right."""
    n, lo, hi = _as_ints((n, lo, hi), "n and the sink bounds")
    if n < 2:
        raise ValueError("need n >= 2")
    base = comb(n - 1, 2)
    return {(base - 1 + left - right, left - 1): c
            for (left, right), c in _sink_sum(n, inf, lo, hi).items()}


def _check_walk(n: int, lo: int, hi: int) -> None:
    """Refuse a K_n walk over sinks lo..hi past ``_WALK_LIMIT`` pairs, in O(1)."""
    (words, text), sinks = _word_count(n), max(hi - lo + 1, 0)
    if words * sinks > _WALK_LIMIT:
        raise ValueError(f"{text} words x {sinks} sinks is past the walk limit"
                         f" of {_WALK_LIMIT} (word, sink) pairs")


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
    _check_walk(n, lo, hi)
    for w in dn_words(n) if hi >= lo else ():
        heights = _heights(w)
        L = _contact_labels(heights)
        values = tuple(i - h for i, h in enumerate(heights))
        degree, rank = sum(values) + lo, _rank(values + (lo,))
        yield w, L, degree, lo, rank
        for s in range(lo, hi):
            q, r = divmod(s + 1, n - 1)
            rank += heights[r] <= q
            degree += 1
            yield w, L, degree, s + 1, rank
