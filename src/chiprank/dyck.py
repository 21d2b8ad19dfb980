"""Dyck words, their statistics, and the involutions connecting them.

Words are ASCII strings over the letters a and b.  Two closely related
families appear: *balanced* words (Dyck words proper: as many a's as b's,
no prefix with more b's than a's) and words with exactly one extra b whose
strict prefixes are never b-heavy; the latter encode sorted parking
configurations on complete graphs, and the two forms convert by appending or
stripping the final b.  The i-th *height* is the number of a's minus the
number of b's before the i-th a.

The public functions validate their words; the ``_``-prefixed helpers take
words that are already validated and run unchecked, except the two entry
checks the public functions share, ``_check_letters`` and ``_dn``.
"""

from __future__ import annotations

from typing import Iterator

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
    return _is_dn(_check_letters(w))


def _is_dn(w: str) -> bool:
    return w.endswith("b") and _is_dyck(w[:-1])


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
    _check_letters(w)
    if _is_dn(w):
        return w
    if _is_dyck(w):
        return w + "b"
    raise ValueError("expected a balanced word or one with a trailing extra b")


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
    return _coheights(heights(w))


def _coheights(eta: list) -> list:
    """coheights from the height list eta."""
    if not eta:
        return []
    top = max(eta)
    m = max(i for i, h in enumerate(eta) if h == top)  # 0-based
    return [top - h if i <= m else top - h - 1 for i, h in enumerate(eta)]


def prerank(w: str) -> int:
    """Number of theta rotations needed to reach the staircase.

    Computed twice — by literally iterating theta and as the sum of the
    coheights — and the two counts must agree.
    """
    w0 = _dn(w)[:-1]
    p = len(w0) // 2
    stair = "ab" * p
    steps = 0
    cur = w0
    while cur != stair:
        # theta keeps a nonempty balanced word nonempty and balanced
        cur = _first_return_rotation(cur)[0]
        steps += 1
        if steps > p * p:
            raise AssertionError("theta iteration failed to reach the staircase")
    by_coheights = sum(_coheights(_heights(w0)))
    if steps != by_coheights:
        raise AssertionError(
            f"prerank mismatch: {steps} rotations vs coheight sum {by_coheights}"
        )
    return steps


def dinv(w: str) -> int:
    """Pairs i < j of a-positions with equal heights or with the later one
    exactly one lower."""
    eta = heights(w)
    count = 0
    for i in range(len(eta)):
        for j in range(i + 1, len(eta)):
            if eta[j] == eta[i] or eta[j] == eta[i] - 1:
                count += 1
    return count


def cdinv(w: str) -> int:
    """dinv read off the strip drawing: pairs of north steps whose contact
    labels differ by at most n - 1."""
    wd = _dn(w)
    n = wd.count("b")
    from .strip import _vertex_label

    eta = _heights(wd)
    contacts = []
    x = 0
    i = 0
    for c in wd:
        if c == "a":
            contacts.append(_vertex_label(n, x, i))
            i += 1
        else:
            x += 1
    if contacts != [i + h * (n - 1) for i, h in enumerate(eta)]:
        raise AssertionError("internal error: contact labels disagree with heights")
    count = 0
    for i in range(len(contacts)):
        for j in range(i + 1, len(contacts)):
            if abs(contacts[i] - contacts[j]) <= n - 1:
                count += 1
    return count


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
    u, v = w[:best_pos], w[best_pos:]
    if not _is_dn(v + u):
        raise AssertionError("internal error: rotation has a b-heavy prefix")
    return u, v


def phi_involution(w: str) -> str:
    """Reverse the two blocks on either side of the last highest north step.

    Acts on words with the trailing extra b; balanced input is converted in
    and back out.  Equals the unique non-b-heavy conjugate of the reversal,
    preserves dinv, and turns prerank into area.
    """
    wd = _dn(w)
    eta = _heights(wd)
    if not eta:
        return w
    top = max(eta)
    m = max(i for i, h in enumerate(eta) if h == top)  # 0-based a-index
    seen = -1
    for pos, c in enumerate(wd):
        if c == "a":
            seen += 1
            if seen == m:
                break
    u, v = wd[: pos + 1], wd[pos + 1 :]
    res = u[::-1] + v[::-1]
    return res if wd == w else to_dyck_word(res)


def zeta_haglund(w: str) -> str:
    """Sweep the height sequence level by level.

    For each level i, keep the subsequence of heights equal to i or i - 1,
    rewriting i as a and i - 1 as b; concatenating the sweeps bottom-up gives
    a balanced word whose area and dinv swap roles with the input's bounce
    data.  ``zeta_haglund((\"ab\") * n) == \"a\" * n + \"b\" * n``.
    """
    if not is_dyck_word(w):
        raise ValueError("expected a balanced word")
    eta = _heights(w)
    if not eta:
        return ""
    parts = []
    for level in range(0, max(eta) + 2):
        parts.append(
            "".join("a" if h == level else "b" for h in eta if h in (level, level - 1))
        )
    return "".join(parts)


def r_map(w: str) -> str:
    """Reverse the word and swap the letters."""
    _check_letters(w)
    return "".join("a" if c == "b" else "b" for c in reversed(w))


# ---------- enumeration ----------


def dyck_words(p: int) -> Iterator[str]:
    """All balanced words with p a's, lexicographically."""

    def rec(prefix, na, nb):
        if na == p and nb == p:
            yield "".join(prefix)
            return
        if na < p:
            prefix.append("a")
            yield from rec(prefix, na + 1, nb)
            prefix.pop()
        if nb < na:
            prefix.append("b")
            yield from rec(prefix, na, nb + 1)
            prefix.pop()

    if p < 0:
        raise ValueError("need p >= 0")
    yield from rec([], 0, 0)


def dn_words(n: int) -> Iterator[str]:
    """All words with n b's, n - 1 a's, and no b-heavy strict prefix."""
    if n < 1:
        raise ValueError("need n >= 1")
    for w in dyck_words(n - 1):
        yield w + "b"
