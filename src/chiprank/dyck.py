"""Dyck words, their statistics, and the involutions connecting them.

Words are ASCII strings over the letters a and b.  Two closely related
families appear: *balanced* words (Dyck words proper: as many a's as b's,
no prefix with more b's than a's) and words with exactly one extra b whose
strict prefixes are never b-heavy; the latter encode sorted parking
configurations on complete graphs, and the two forms convert by appending or
stripping the final b.  The i-th *height* is the number of a's minus the
number of b's before the i-th a.

The public functions validate their words; the ``_``-prefixed helpers take
words that are already validated and run unchecked, except the entry
checks the public functions share, ``_check_letters``, ``_dn`` and
``_checked_heights``, which checks a word within its height scan.  Each
statistic and map is one pass over the word or its heights (``cdinv`` adds
a sort), never a loop over pairs or levels.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterator

from .graphs import _as_ints

__all__ = [
    "heights",
    "delta",
    "is_dyck_word",
    "is_dn_word",
    "to_dn_word",
    "to_dyck_word",
    "area",
    "theta",
    "coheights",
    "prerank",
    "dinv",
    "cdinv",
    "cyclic_factorization",
    "phi_involution",
    "zeta_haglund",
    "r_map",
    "dyck_words",
    "dn_words",
]


def _check_letters(w: str) -> str:
    # strip stops at the first letter other than a or b from either end, so
    # anything left over holds one
    if not isinstance(w, str) or w.strip("ab"):
        raise ValueError("words use only the letters 'a' and 'b'")
    return w


def delta(w: str) -> int:
    """Number of a's minus number of b's."""
    _check_letters(w)
    return 2 * w.count("a") - len(w)


def heights(w: str) -> list:
    """Height before each a: a's minus b's in the strict prefix."""
    return _heights(_check_letters(w))


def _heights(w: str) -> list:
    out = []
    h = 0
    for c in w:
        if c == "a":
            out.append(h)
            h += 1
        else:
            h -= 1
    return out


def is_dyck_word(w: str) -> bool:
    """Balanced with no b-heavy prefix."""
    return _is_dyck(_check_letters(w))


def _is_dyck(w: str) -> bool:
    h = 0
    for c in w:
        h += 1 if c == "a" else -1
        if h < 0:
            return False
    return h == 0


def is_dn_word(w: str) -> bool:
    """One more b than a, with every strict prefix non-b-heavy."""
    return _check_letters(w).endswith("b") and _is_dyck(w[:-1])


def to_dn_word(w: str) -> str:
    if not is_dyck_word(w):
        raise ValueError("expected a balanced word")
    return w + "b"


def to_dyck_word(w: str) -> str:
    if not is_dn_word(w):
        raise ValueError("expected a word with one trailing extra b")
    return w[:-1]


def _dn(w: str) -> str:
    """w with one trailing extra b: appended to a balanced w, kept as is on
    a word that already has it, refused on any other word."""
    return w + "b" if 2 * len(_checked_heights(w)) == len(w) else w


def _checked_heights(w: str, balanced: bool = False) -> list:
    """w's heights, refused unless w is balanced or, when ``balanced`` is
    false, has one trailing extra b.  The height falls only on b's, so each
    prefix's is at least the next a's or the final one, 2·#a - len(w): the
    heights alone decide both shapes, no height below 0 and an end at 0 or -1."""
    eta = _heights(_check_letters(w))
    end = 2 * len(eta) - len(w)
    if min(eta, default=0) < 0 or end != 0 and (balanced or end != -1):
        raise ValueError("expected a balanced word" if balanced else
                         "expected a balanced word or one with a trailing extra b")
    return eta


# ---------- statistics ----------


def area(w: str) -> int:
    """Sum of the heights."""
    return sum(heights(w))


def theta(w: str) -> str:
    """One rotation step: factor w = a u b v at the first return to height
    zero and produce v a b u.  Fixes nothing but the staircase (ab)^p."""
    if not is_dyck_word(w) or not w:
        raise ValueError("theta acts on nonempty balanced words")
    return _first_return_rotation(w)[0]


def _first_return_rotation(w: str) -> tuple:
    """``(v a b u, u)`` for a nonempty balanced w = a u b v split at its
    first return to height zero; theta's image plus the rotated block's
    inside.  Unchecked: callers validate w."""
    h = 0
    for pos, c in enumerate(w):
        h += 1 if c == "a" else -1
        if h == 0:
            break
    u = w[1:pos]
    return w[pos + 1 :] + "ab" + u, u


def coheights(w: str) -> list:
    """Distances below the last highest point.

    With m the largest index attaining the maximal height, the i-th
    coheight is eta_m - eta_i for i <= m and eta_m - eta_i - 1 after it.
    """
    eta = heights(w)
    if not eta:
        return []
    top = max(eta)
    m = max(i for i, h in enumerate(eta) if h == top)  # 0-based
    return [top - h if i <= m else top - h - 1 for i, h in enumerate(eta)]


def prerank(w: str) -> int:
    """Number of theta rotations needed to reach the staircase, read as
    the sum of the coheights, in closed form: len(eta)·top - sum(eta), less
    one for each a after the last one at the largest height top.
    O(len w)."""
    eta = _checked_heights(w)
    if not eta:
        return 0
    top = max(eta)
    return len(eta) * top - sum(eta) - eta[::-1].index(top)


def dinv(w: str) -> int:
    """Pairs i < j of a-positions with equal heights or with the later one
    exactly one lower.  One scan with a tally per height: each a adds the
    earlier a's at its own height and one above.  O(len w)."""
    eta = heights(w)
    # any a/b word is accepted, so heights can be negative
    low = min(eta, default=0)
    tally = [0] * (max(eta, default=0) - low + 2)
    count = 0
    for h in eta:
        h -= low
        count += tally[h] + tally[h + 1]
        tally[h] += 1
    return count


def cdinv(w: str) -> int:
    """dinv read off the strip drawing: pairs of north steps whose contact
    labels differ by at most n - 1.  The labels are sorted and each one's
    partners found by bisection, O(n log n), with no test of equal
    heights."""
    labels = sorted(_contact_labels(_checked_heights(w)))
    k = len(labels)  # n - 1
    # bisect_right counts each label itself and the ones below it too
    return sum([bisect_right(labels, x + k) for x in labels]) - k * (k + 1) // 2


def _contact_labels(eta: list) -> list:
    """``strip.vertex_label`` of the point where each north step of a word
    with n b's and the n - 1 heights eta starts: i + eta_i·(n - 1) for the
    i-th."""
    return [i + h * len(eta) for i, h in enumerate(eta)]


# ---------- involutions ----------


def cyclic_factorization(w: str) -> tuple:
    """Split w = uv at the end of the shortest prefix of minimal height.

    For any word with one more b than a, the rotation vu is the unique
    cyclic conjugate whose strict prefixes are never b-heavy.
    """
    _check_letters(w)
    if w.count("b") != w.count("a") + 1:
        raise ValueError("expected one more b than a")
    best = 0
    best_pos = 0
    h = 0
    for pos, c in enumerate(w):
        h += 1 if c == "a" else -1
        if h < best:
            best = h
            best_pos = pos + 1
    return w[:best_pos], w[best_pos:]


def phi_involution(w: str) -> str:
    """Reverse the two blocks on either side of the last highest north step.

    Acts on words with the trailing extra b; balanced input is converted in
    and back out.  Equals the unique non-b-heavy conjugate of the reversal,
    preserves dinv, and turns prerank into area.  The heights give the
    last a at the largest height, the m-th, at position 2m - eta_m.
    O(len w).
    """
    eta = _checked_heights(w)
    if not eta:
        return w
    top = max(eta)
    m = len(eta) - 1 - eta[::-1].index(top)
    balanced = 2 * len(eta) == len(w)
    wd, cut = w + "b" * balanced, 2 * m - top + 1
    res = wd[:cut][::-1] + wd[cut:][::-1]
    return res[:-1] if balanced else res


def zeta_haglund(w: str) -> str:
    """Sweep the height sequence level by level.

    For each level i, keep the subsequence of heights equal to i or i - 1,
    rewriting i as a and i - 1 as b; concatenating the sweeps bottom-up gives
    a balanced word whose area and dinv swap roles with the input's bounce
    data.  ``zeta_haglund((\"ab\") * n) == \"a\" * n + \"b\" * n``.
    One pass: height h appends an a to level h and a b to level h + 1.
    O(len w).
    """
    eta = _checked_heights(w, balanced=True)
    levels = [""] * (max(eta, default=0) + 2)
    for h in eta:
        levels[h] += "a"
        levels[h + 1] += "b"
    return "".join(levels)


def r_map(w: str) -> str:
    """Reverse the word and swap the letters."""
    _check_letters(w)
    return "".join("a" if c == "b" else "b" for c in reversed(w))


# ---------- enumeration ----------


def dyck_words(p: int) -> Iterator[str]:
    """All balanced words with p a's, lexicographically."""
    (p,) = _as_ints((p,), "the word size p")
    if p < 0:
        raise ValueError("need p >= 0")
    return _balanced(p, [], 0, 0)


def _balanced(p: int, prefix: list, na: int, nb: int) -> Iterator[str]:
    """The balanced words with p a's that start with ``prefix``, which holds
    na a's and nb b's, lexicographically."""
    if na == p and nb == p:
        yield "".join(prefix)
        return
    if na < p:
        prefix.append("a")
        yield from _balanced(p, prefix, na + 1, nb)
        prefix.pop()
    if nb < na:
        prefix.append("b")
        yield from _balanced(p, prefix, na, nb + 1)
        prefix.pop()


def dn_words(n: int) -> Iterator[str]:
    """All words with n b's, n - 1 a's, and no b-heavy strict prefix."""
    (n,) = _as_ints((n,), "the word size n")
    if n < 1:
        raise ValueError("need n >= 1")
    return (w + "b" for w in _balanced(n - 1, [], 0, 0))
