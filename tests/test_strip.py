import json
import os
import re
import subprocess
import sys
from collections import Counter
from itertools import combinations
from math import comb
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiprank import cli, complete, dyck, strip
from chiprank.series import TruncatedSeries


def test_vertex_label_geometry():
    n = 11
    # vertices on the main diagonal carry 0..n-1
    for y in range(n):
        assert strip.vertex_label(n, y, y) == y
    # one step north adds n, one step west adds n - 1
    for x in range(-5, 6):
        for y in range(n - 1):
            assert strip.vertex_label(n, x, y + 1) == strip.vertex_label(n, x, y) + n
        for y in range(n):
            assert strip.vertex_label(n, x - 1, y) == strip.vertex_label(n, x, y) + n - 1
    with pytest.raises(ValueError):
        strip.vertex_label(n, 0, n)
    with pytest.raises(ValueError):
        strip.vertex_label(n, 0, -1)


def test_cell_label_geometry():
    n = 11
    # the cell with the origin at its north-west corner is 0
    assert strip.cell_label(n, -1, 0) == 0
    # diagonal cells carry 1..n-2
    for y in range(1, n - 1):
        assert strip.cell_label(n, y - 1, y) == y
    for x in range(-5, 6):
        for y in range(n - 2):
            assert strip.cell_label(n, x, y + 1) == strip.cell_label(n, x, y) + n
        for y in range(n - 1):
            assert strip.cell_label(n, x - 1, y) == strip.cell_label(n, x, y) + n - 1
            if y + 1 <= n - 2:
                assert strip.cell_label(n, x + 1, y + 1) == strip.cell_label(n, x, y) + 1
    with pytest.raises(ValueError):
        strip.cell_label(n, 0, n - 1)


def test_left_right_pinned():
    w11 = "aaabaaabbbabbbaabbabb"
    assert strip.left_right(w11, 13) == (5, 6)
    assert strip.left_right(w11, 26) == (13, 1)
    assert strip.lastright(w11) == 35
    assert strip.lastright("aabaaabbabbabbb") == 18


def test_lastright_single_row_raises():
    with pytest.raises(ValueError):
        strip.lastright("b")


DN5 = [dyck.to_dn_word(w) for w in dyck.dyck_words(4)]


@pytest.mark.parametrize("w", DN5)
def test_left_right_monotone_with_boundary(w):
    lr = strip.lastright(w)
    prev = None
    for s in range(-15, 40):
        left, right = strip.left_right(w, s)
        assert left >= 0 and right >= 0
        if prev is not None:
            assert left >= prev[0]
            assert right <= prev[1]
        prev = (left, right)
    assert strip.left_right(w, lr)[1] == 0
    assert strip.left_right(w, lr - 1)[1] >= 1


@pytest.mark.parametrize("w", DN5)
def test_psi_involution_swaps_left_and_right(w):
    for s in range(-10, 31):
        w2, s2 = strip.psi_involution(w, s)
        assert strip.psi_involution(w2, s2) == (w, s)
        left, right = strip.left_right(w, s)
        left2, right2 = strip.left_right(w2, s2)
        assert (left, right) == (right2, left2)


def test_h_series_is_the_two_ray_indicator():
    H = strip.h_series(4)
    for i in range(5):
        assert H.coefficient((i, 0)) == 1
        assert H.coefficient((0, i)) == 1
    assert H.coefficient((1, 1)) == 0


def test_L1_is_h():
    assert strip.Ln_direct(1, 6) == strip.h_series(6)


def test_Ln_routes_agree_small():
    for n in (2, 3):
        direct = strip.Ln_direct(n, 8)
        assert direct == strip.Ln_via_toxy(n, 8)
        assert direct == direct.map_exponents(lambda e: (e[1], e[0]))


def test_L3_pinned_low_degrees():
    L3 = strip.Ln_direct(3, 3)
    assert L3.coefficient((0, 0)) == 1
    assert L3.coefficient((1, 0)) == 2
    assert L3.coefficient((0, 1)) == 2
    assert L3.coefficient((1, 1)) == 1
    assert L3.coefficient((2, 0)) == 2


def test_Ln_direct_guards_against_blowup():
    """Past the old 2·10^5-word limit the DP still answers: (18, 40) sums
    35357670 words; a blowup is refused by the budget instead."""
    direct = strip.Ln_direct(18, 40)
    assert direct == strip.Ln_via_toxy(18, 40)
    assert direct == direct.map_exponents(lambda e: (e[1], e[0]))
    with pytest.raises(ValueError, match="past the strip budget"):
        strip.Ln_direct(3, 10**7)


def test_carlitz_pinned():
    c = strip.carlitz_catalan(8, 4)
    # area generating polynomial over the 5 words with 3 a's
    row3 = {e[0]: v for e, v in c.coeffs.items() if e[1] == 3}
    assert row3 == {0: 1, 1: 2, 2: 1, 3: 1}
    # each z-degree p sums to the Catalan number, area caps at p(p-1)/2
    for p in range(5):
        total = sum(v for e, v in c.coeffs.items() if e[1] == p)
        assert total == comb(2 * p, p) // (p + 1)
        assert all(e[0] <= p * (p - 1) // 2 for e in c.coeffs if e[1] == p)


def area_counts(t_q, t_z):
    """{(area, p): words} over the balanced words with p <= t_z a's and
    area <= t_q, by enumeration."""
    counted = Counter(
        (dyck.area(w), p) for p in range(t_z + 1) for w in dyck.dyck_words(p)
    )
    return {e: k for e, k in counted.items() if e[0] <= t_q}


@pytest.mark.parametrize("t_q, t_z", [(3, 6), (0, 4), (5, 9), (8, 4), (0, 0)])
def test_carlitz_where_the_area_box_bites(t_q, t_z):
    """With t_q below the largest area t_z(t_z-1)/2, the recurrence drops
    monomials on q every round; each kept coefficient still counts the
    balanced words of that size and area, and matches the series computed
    with room for every area."""
    c = strip.carlitz_catalan(t_q, t_z)
    assert c.coeffs == area_counts(t_q, t_z)
    roomy = strip.carlitz_catalan(t_z * (t_z - 1) // 2, t_z)
    assert c.coeffs == {e: k for e, k in roomy.coeffs.items() if e[0] <= t_q}


@pytest.mark.parametrize("t_q, t_z", [(5, 2), (6, 2), (6, 4), (15, 6), (28, 8), (36, 9)])
def test_carlitz_matches_enumeration(t_q, t_z):
    """The orders the identity checks and the box test's roomy series use:
    the recurrence against every balanced word."""
    c = strip.carlitz_catalan(t_q, t_z)
    assert (c.nvars, c.trunc) == (2, t_q + t_z)
    assert c.coeffs == area_counts(t_q, t_z)


def area_dp(t_q, t_z):
    """{(area, p): words} over the balanced words with p <= t_z a's and
    area <= t_q, by a DP over (step, height): an a taken at height h adds
    h to the area, and no prefix climbs higher than the steps left can
    come down."""
    out = {}
    for p in range(t_z + 1):
        ways = {(0, 0): 1}  # (height, area) -> prefixes
        for step in range(2 * p):
            nxt = Counter()
            for (h, a), c in ways.items():
                if h < 2 * p - step - 1 and a + h <= t_q:
                    nxt[h + 1, a + h] += c
                if h:
                    nxt[h - 1, a] += c
            ways = nxt
        out.update({(a, p): c for (h, a), c in ways.items()})
    return out


@pytest.mark.parametrize("t_q, t_z", [(60, 12), (120, 16), (7, 16), (0, 16)])
def test_carlitz_matches_the_area_dp_past_enumeration(t_q, t_z):
    """Orders with up to 35357670 words per z-degree, which no enumeration
    reaches in Tier-1: the packed recurrence against the area DP."""
    assert strip.carlitz_catalan(t_q, t_z).coeffs == area_dp(t_q, t_z)


def test_area_dp_matches_enumeration():
    assert area_dp(15, 6) == area_counts(15, 6)
    assert area_dp(3, 7) == area_counts(3, 7)


def ln_by_sink_windows(n, trunc):
    """Ln_direct's series by the per-sink loop it replaced: every sink of
    each word's window counted from scratch by ``_counts``, O(n) a sink."""
    total = Counter()
    for w in dyck.dn_words(n):
        L = strip._row_labels(w)[1]
        s = min(L) - 1
        while True:
            left, right = strip._counts(L, n, s)
            if right > trunc:
                break
            total[left, right] += 1
            s -= 1
        s = min(L)
        while True:
            left, right = strip._counts(L, n, s)
            if right == 0 and left > trunc:
                break
            if left + right <= trunc:
                total[left, right] += 1
            s += 1
    return TruncatedSeries(2, trunc, total)


@pytest.mark.parametrize("n", range(2, 9))
def test_Ln_direct_matches_the_per_sink_windows(n):
    for trunc in range(11):
        assert strip.Ln_direct(n, trunc) == ln_by_sink_windows(n, trunc), trunc


def ln_by_sink_steps(n, trunc):
    """{(left, right): count} of L_n, n >= 2, by the word walk Ln_direct ran
    before its DP: each word's sinks below its smallest left label move
    only right, and above it label s + 1 lies in row (s + 1) mod (n - 1),
    so a step raises left or lowers right, O(1) a sink."""
    total = Counter()
    for w in dyck.dn_words(n):
        L = strip._row_labels(w)[1]
        s = min(L) - 1
        left, right = strip._counts(L, n, s)  # left == 0
        for r in range(right, trunc + 1):
            total[0, r] += 1
        while right or left <= trunc:
            s += 1
            if s >= L[s % (n - 1)]:
                left += 1
            else:
                right -= 1
            if left + right <= trunc:
                total[left, right] += 1
    return total


@pytest.mark.parametrize("n, top", [(n, 12) for n in range(1, 11)] + [(11, 8), (12, 8)])
def test_Ln_direct_matches_the_word_walk(n, top):
    """The DP against every word's sink walk, at each truncation up to top:
    a term's coefficient does not depend on the truncation, so one walk at
    top serves all.  L_1 is H by convention."""
    walked = ln_by_sink_steps(n, top) if n > 1 else Counter(
        {e: 1 for i in range(top + 1) for e in ((i, 0), (0, i))})
    for trunc in range(top + 1):
        kept = {e: c for e, c in walked.items() if sum(e) <= trunc}
        assert strip.Ln_direct(n, trunc).coeffs == kept, trunc


def word_weight(w):
    """x^alpha y^beta of a word's height profile: each a at height h >= 0
    adds h + 1 to alpha, each a below ground -h - 1 to beta."""
    alpha = beta = h = 0
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


def boundary_word_weights(n):
    """{(alpha, beta): signed count} by the word list Ln_via_toxy built
    before its DP: the weights of the b...b words minus those of the a...a
    words, each made by placing n - 1 (n - 3) a's among its 2n - 3 inner
    letters."""
    inner = Counter()
    for end, sign, a_count in (("b", 1, n - 1), ("a", -1, n - 3)):
        if a_count < 0:  # n = 2 has no a...a word
            continue
        for a_pos in combinations(range(1, 2 * n - 2), a_count):
            word = [end] + ["b"] * (2 * n - 3) + [end]
            for p in a_pos:
                word[p] = "a"
            inner[word_weight(word)] += sign
    return inner


@pytest.mark.parametrize("n", range(2, 11))
def test_Ln_via_toxy_matches_the_boundary_words(n):
    inner = boundary_word_weights(n)
    for trunc in (0, 1, 5, 10):
        expected = strip.h_series(trunc) * TruncatedSeries(2, trunc, inner)
        assert strip.Ln_via_toxy(n, trunc) == expected, trunc


def test_identity_check_small():
    assert strip.LnC_identity_check(3, 6)


def identity_rhs_3var(max_n, trunc):
    """{(a, b, p): c} of H (C_x + C_y - C_x C_y) / (1 - C_x z C_y) as
    three-variable series to total degree trunc + max_n - 1, cut to the
    identity's window: z-degree < max_n, xy-degree <= trunc."""
    tz = max_n - 1
    T = trunc + tz
    C = strip.carlitz_catalan(trunc, tz)
    Cx = C.map_exponents(lambda e: (e[0] + e[1], 0, e[1]), nvars=3, trunc=T)
    Cy = C.map_exponents(lambda e: (0, e[0] + e[1], e[1]), nvars=3, trunc=T)
    H3 = strip.h_series(trunc).map_exponents(lambda e: (e[0], e[1], 0), nvars=3, trunc=T)
    z = TruncatedSeries.monomial(3, T, (0, 0, 1))
    one = TruncatedSeries.one(3, T)
    rhs = H3 * (Cx + Cy - Cx * Cy) / (one - Cx * z * Cy)
    return {e: c for e, c in rhs.coeffs.items() if e[2] <= tz and e[0] + e[1] <= trunc}


@pytest.mark.parametrize("max_n, trunc",
                         [(m, t) for m in range(1, 7) for t in range(9)] + [(12, 10)])
def test_identity_rhs_matches_the_three_variable_series(max_n, trunc):
    """The z-graded packed right side, coefficient by coefficient."""
    packed = strip._identity_rhs(max_n, trunc, strip.h_series(trunc))
    oracle = identity_rhs_3var(max_n, trunc)
    for e in packed.keys() | oracle.keys():
        assert packed.get(e, 0) == oracle.get(e, 0), e


def skew_L3(monkeypatch):
    """Make strip.Ln_direct return L_3 with its x y coefficient off by one."""
    real = strip.Ln_direct

    def skewed(n, trunc):
        series = real(n, trunc)
        if n == 3:
            series.coeffs[1, 1] = series.coeffs.get((1, 1), 0) + 1
        return series

    monkeypatch.setattr(strip, "Ln_direct", skewed)


def test_identity_check_fails_on_one_wrong_coefficient(monkeypatch):
    assert strip.LnC_identity_check(4, 8)
    skew_L3(monkeypatch)
    assert not strip.LnC_identity_check(4, 8)


def test_genfun_identity_exits_1_when_it_fails(capsys, monkeypatch):
    skew_L3(monkeypatch)
    code = cli.main(["genfun", "identity", "--max-n", "4", "--trunc", "8"])
    out = capsys.readouterr().out
    assert code == 1 and '"holds": false' in out
    assert json.loads(out) == {"max_n": 4, "trunc": 8, "holds": False}


def test_bistatistic_check_small():
    assert strip.Kn_bistatistic_check(3, window=(-5, 10))
    assert strip.Kn_bistatistic_check(1, window=(-5, 10))


def test_degree_rank_table_pinned():
    # sinks -3..6 over the two sorted parking words of K3
    table = strip.kn_degree_rank_table(3, -3, 6)
    assert table == {
        (-3, -1): 1,
        (-2, -1): 2,
        (-1, -1): 2,
        (0, -1): 1,
        (0, 0): 1,
        (1, 0): 2,
        (2, 1): 2,
        (3, 2): 2,
        (4, 3): 2,
        (5, 4): 2,
        (6, 5): 2,
        (7, 6): 1,
    }


def test_degree_rank_table_matches_direct_ranks():
    """Each table row is reproduced by running the public rank formula,
    which validates its input, on the configurations it claims to count;
    the table's own walk ranks them unchecked."""
    for n, lo, hi in [(2, -4, 6), (3, -5, 7), (4, -2, 8), (5, -3, 12), (6, -9, 20)]:
        rebuilt = Counter(
            (sum(f), complete.rank_formula(f))
            for w in dyck.dn_words(n)
            for f in (complete.decode_word(w) + (s,) for s in range(lo, hi + 1))
        )
        assert strip.kn_degree_rank_table(n, lo, hi) == rebuilt, n


def test_kn_walk_matches_the_closed_form():
    """The walk's stepped rank and degree agree with the public rank formula
    on every (word, sink) pair with n <= 7 and sinks -8..3n."""
    for n in range(2, 8):
        lo, hi = -8, 3 * n
        walked = list(strip._kn_walk(n, lo, hi))
        pairs = [(w, s) for w in dyck.dn_words(n) for s in range(lo, hi + 1)]
        assert [(w, s) for w, _, _, s, _ in walked] == pairs, n
        for w, _, degree, s, rank in walked:
            f = complete.decode_word(w) + (s,)
            assert (degree, rank) == (sum(f), complete.rank_formula(f)), (w, s)


def test_kn_walk_refuses_before_the_first_word(monkeypatch):
    """Past the pair limit the K_n walk refuses with its count and the
    limit, before a word is made; an empty sink range makes no word.  The
    degree-rank table makes no word at all: its DP answers 9694845 words
    x 21 sinks, which the walk refuses."""

    def refuse(n):
        raise AssertionError("word made before the guard")

    monkeypatch.setattr(strip, "dn_words", refuse)
    assert sum(strip.kn_degree_rank_table(16, -5, 15).values()) == 9694845 * 21
    with pytest.raises(ValueError, match="9694845 words x 2 sinks"):
        strip.Kn_bistatistic_check(16, (0, 1))
    assert strip.kn_degree_rank_table(16, 1, 0) == {}
    monkeypatch.setattr(strip, "_WALK_LIMIT", 20)
    with pytest.raises(ValueError, match="5 words x 5 sinks"):
        list(strip._kn_walk(4, 0, 4))
    monkeypatch.undo()
    assert strip.Kn_bistatistic_check(4, (0, 3))


@pytest.mark.parametrize("n", range(2, 13))
def test_degree_rank_table_matches_the_walk(n):
    """The DP's table against a tally of the closed-form walk, which ranks
    every (word, sink) pair: one walk over sinks -30..15 serves the windows
    (-5, 15), (-30, 7) and an empty one."""
    by_sink = Counter(map(itemgetter(2, 3, 4), strip._kn_walk(n, -30, 15)))
    for lo, hi in ((-5, 15), (-30, 7), (4, 3)):
        tally = Counter()
        for (degree, s, rank), c in by_sink.items():
            if lo <= s <= hi:
                tally[degree, rank] += c
        assert strip.kn_degree_rank_table(n, lo, hi) == tally, (lo, hi)


@pytest.mark.parametrize("n", range(13, 21))
def test_degree_rank_table_counts_every_pair_past_the_walk(n):
    """Past the walk's reach the table still counts each of the
    Catalan(n - 1) x 21 (word, sink) pairs once, and no rank passes the
    degree or falls below -1."""
    table = strip.kn_degree_rank_table(n, -5, 15)
    assert sum(table.values()) == comb(2 * n - 2, n - 1) // n * 21
    assert min(rank for _, rank in table) == -1
    assert all(rank <= max(degree, -1) for degree, rank in table)


def test_word_count_stops_past_the_limit():
    """The K_n word count is the Catalan number while it stays under the
    limit; past it, a huge n is refused at once with the limit's message."""
    for n in range(1, 17):  # C_15 = 9694845, C_16 = 35357670
        words, text = strip._word_count(n)
        assert words == comb(2 * n - 2, n - 1) // n and text == str(words)
    assert strip._word_count(17) == (35357670, "more than 10000000")
    for n in (10**4, 10**5):
        with pytest.raises(ValueError, match="walk limit"):
            strip.Kn_bistatistic_check(n, (0, 1))
        assert strip.kn_degree_rank_table(n, 1, 0) == {}
    # K_1 has one word, so its sink window alone meets the limit, and is
    # refused before the first sink
    for hi, sinks in ((10**7, "10000001"), (10**12, "1000000000001")):
        with pytest.raises(ValueError, match=rf"^1 words x {sinks} sinks is past the walk limit"):
            strip.Kn_bistatistic_check(1, (0, hi))


BUDGET = r"about 2\^\d+ bits of work is past the strip budget of 50000000000 bits"
BUDGET_CALLS = ("Ln_direct(3, 10**7)", "Ln_direct(10**5, 2)", "Ln_via_toxy(3, 10**7)",
                "Ln_via_toxy(10**4, 40)", "h_series(10**8)", "LnC_identity_check(3, 10**4)",
                "LnC_identity_check(10**6, 2)", "kn_degree_rank_table(10**4, -5, 15)",
                "kn_degree_rank_table(10**5, 0, 0)")


def test_series_refuse_past_the_budget_before_a_state(monkeypatch):
    """Past the budget the series, the identity check and the table refuse
    with the budget's message before the DP builds a state."""

    def refuse(*args):
        raise AssertionError("state built before the budget check")

    monkeypatch.setattr(strip, "_word_sum", refuse)
    for call in BUDGET_CALLS:
        with pytest.raises(ValueError, match=rf"^{BUDGET}$"):
            eval("strip." + call)


def test_series_refuse_past_the_budget_in_a_fresh_process():
    """The same refusals in a fresh process under a timeout, so a check that
    goes missing fails in seconds rather than building the series."""
    src = os.path.dirname(os.path.dirname(strip.__file__))
    code = ("from chiprank import strip\n"
            f"for call in {BUDGET_CALLS!r}:\n"
            "    try:\n        eval('strip.' + call)\n"
            "    except ValueError as e:\n        print(e)\n")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(BUDGET_CALLS)
    assert all(re.fullmatch(BUDGET, line) for line in lines), lines


def test_series_refusals_name_their_argument():
    """A negative truncation is refused by its own name, not the series
    ring's variable count, and a window that is not a pair is named too."""
    for call in (lambda: strip.Ln_direct(3, -1), lambda: strip.Ln_direct(1, -1),
                 lambda: strip.Ln_via_toxy(3, -1), lambda: strip.h_series(-1),
                 lambda: strip.LnC_identity_check(3, -1),
                 lambda: strip.LnC_identity_check(1, -2)):
        with pytest.raises(ValueError, match=r"^need trunc >= 0$"):
            call()
    for window in ((1,), (1, 2, 3), ()):
        with pytest.raises(ValueError, match=r"^window must be a pair of sink bounds"
                                             rf" \(lo, hi\), got {re.escape(repr(window))}$"):
            strip.Kn_bistatistic_check(3, window)
    with pytest.raises(ValueError, match=r"^window bounds must be integers$"):
        strip.Kn_bistatistic_check(3, (1.5, 4))


NOT_STRINGS = [None, b"ab", ["a", "b"]]
STRAY_LETTERS = ["ab\n", " ab", "aXb", "abb ", "\tabb"]


@pytest.mark.parametrize("word", NOT_STRINGS + STRAY_LETTERS)
def test_strip_words_are_validated_at_the_boundary(word):
    for call in (lambda w: strip.left_right(w, 0), strip.lastright,
                 lambda w: strip.psi_involution(w, 0)):
        with pytest.raises(ValueError):
            call(word)
