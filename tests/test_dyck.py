from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chiprank
from chiprank import dyck, strip


def catalan(p):
    return comb(2 * p, p) // (p + 1)


@st.composite
def random_word(draw, min_n=2, max_n=10):
    """A word with n b's and n-1 a's, no b-heavy strict prefix, sampled by
    rotating a random letter arrangement."""
    n = draw(st.integers(min_n, max_n))
    letters = draw(st.permutations(list("a" * (n - 1) + "b" * n)))
    u, v = dyck.cyclic_factorization("".join(letters))
    return v + u


def all_dn(max_n):
    for n in range(2, max_n + 1):
        yield from dyck.dn_words(n)


def test_heights_and_area():
    assert list(dyck.heights("aababb")) == [0, 1, 1]
    assert dyck.area("aababb") == 2
    assert dyck.area("ab" * 5) == 0
    assert dyck.area("a" * 4 + "b" * 4) == 6


def test_delta_counts_a_minus_b_on_any_word():
    assert [dyck.delta(w) for w in ("", "aababb", "abb", "aab", "bbba")] == [0, 0, -1, 1, -2]
    with pytest.raises(ValueError, match="only the letters 'a' and 'b'"):
        dyck.delta("abc")
    assert chiprank.delta is dyck.delta


def test_word_predicates():
    assert dyck.is_dyck_word("aababb")
    assert not dyck.is_dyck_word("abba")
    assert not dyck.is_dyck_word("ba")
    assert dyck.is_dn_word("abb")
    assert not dyck.is_dn_word("bab")
    assert not dyck.is_dn_word("aabb")


def test_form_conversions():
    assert dyck.to_dn_word("aababb") == "aababbb"
    assert dyck.to_dyck_word("aababbb") == "aababb"
    with pytest.raises(ValueError):
        dyck.to_dn_word("aabab")  # not balanced
    with pytest.raises(ValueError):
        dyck.to_dyck_word("aabb")  # no extra b
    for w in dyck.dyck_words(5):
        assert dyck.to_dyck_word(dyck.to_dn_word(w)) == w


def test_enumeration_counts_and_order():
    for p in range(1, 8):
        words = list(dyck.dyck_words(p))
        assert len(words) == catalan(p)
        assert words == sorted(words)
        assert all(dyck.is_dyck_word(w) for w in words)
    for n in range(2, 8):
        words = list(dyck.dn_words(n))
        assert len(words) == catalan(n - 1)
        assert all(dyck.is_dn_word(w) for w in words)


def test_theta_pinned():
    # rotating at the first return: a u b v -> v a b u
    assert dyck.theta("aabb") == "abab"
    assert dyck.theta("abab") == "abab"
    assert dyck.theta("aababb") == "ababab"


def test_prerank_pinned():
    assert dyck.prerank("abaabb") == 2
    assert dyck.prerank("a" * 8 + "b" * 8) == 28
    assert dyck.prerank("ab" * 5) == 0


def theta_rotations(w):
    """How many theta rotations take the word w, balanced or with its extra
    b, to the staircase; fails once they pass C(p, 2), prerank's largest
    value."""
    w = w[:-1] if dyck.is_dn_word(w) else w
    p = len(w) // 2
    steps = 0
    while w != "ab" * p:
        w = dyck.theta(w)
        steps += 1
        assert steps <= comb(p, 2), "theta did not reach the staircase"
    return steps


@given(random_word())
def test_prerank_dual_routes_agree_and_theta_terminates(w):
    """prerank sums the coheights; iterating theta counts the rotations."""
    assert dyck.prerank(w) == theta_rotations(w) <= comb(len(w) // 2, 2)


def test_prerank_counts_theta_rotations_on_every_word():
    """Both routes on every word with up to 10 b's, in both forms."""
    for w in all_dn(10):
        assert dyck.prerank(w) == dyck.prerank(w[:-1]) == theta_rotations(w)


def test_coheights_pinned():
    assert list(dyck.coheights("aababbb")) == [1, 0, 0]
    assert list(dyck.coheights("aaabbbb")) == [2, 1, 0]
    assert list(dyck.coheights("ababab")) == [0, 0, 0]


def test_dinv_and_cdinv_pinned():
    assert dyck.dinv("aababbb") == 1
    assert dyck.cdinv("aabaaabbabbabbb") == 7
    assert dyck.cdinv(dyck.phi_involution("aabaaabbabbabbb")) == 7


@given(random_word(max_n=8))
def test_cdinv_equals_dinv(w):
    """The cell-reading and the pair-reading of the statistic agree."""
    assert dyck.cdinv(w) == dyck.dinv(w)


def test_cdinv_equals_dinv_on_every_word():
    for w in all_dn(10):
        assert dyck.cdinv(w) == dyck.dinv(w) == dyck.cdinv(w[:-1])


# The statistics' definitions, pair by pair and level by level: quadratic
# oracles for the one-pass library code.


def every_word():
    """Every word with 1..10 b's and no b-heavy strict prefix, in both
    forms: with the extra b and balanced."""
    for w in ["b", *all_dn(10)]:
        yield w
        yield w[:-1]


def dinv_pairs(w):
    """Pairs i < j of a's with equal heights or the later one exactly one
    lower."""
    eta = dyck.heights(w)
    return sum(1 for i in range(len(eta)) for j in range(i + 1, len(eta))
               if eta[j] in (eta[i], eta[i] - 1))


def strip_contacts(w):
    """``strip.vertex_label`` of the point (x, i) where the i-th a of w, in
    its form with n b's, starts, after x b's."""
    wd = w if dyck.is_dn_word(w) else dyck.to_dn_word(w)
    n = wd.count("b")
    contacts, x = [], 0
    for c in wd:
        if c == "a":
            contacts.append(strip.vertex_label(n, x, len(contacts)))
        else:
            x += 1
    return n, contacts


def cdinv_pairs(w):
    """Pairs of north steps whose strip contact labels differ by at most
    n - 1."""
    n, c = strip_contacts(w)
    return sum(1 for i in range(len(c)) for j in range(i + 1, len(c))
               if abs(c[i] - c[j]) <= n - 1)


def zeta_sweep(w):
    """Level by level, the heights equal to the level (as a) or one below
    it (as b), in order; the levels joined bottom-up."""
    eta = dyck.heights(w)
    return "".join("a" if h == level else "b"
                   for level in range(max(eta, default=-1) + 2)
                   for h in eta if h in (level, level - 1))


def phi_split(w):
    """Split at the last a of largest height, found from the height list,
    and reverse both blocks."""
    wd = w if dyck.is_dn_word(w) else dyck.to_dn_word(w)
    eta = dyck.heights(wd)
    if not eta:
        return w
    top = max(eta)
    m = max(i for i, h in enumerate(eta) if h == top)
    cut = [pos for pos, c in enumerate(wd) if c == "a"][m] + 1
    res = wd[:cut][::-1] + wd[cut:][::-1]
    return res if wd == w else dyck.to_dyck_word(res)


ORACLES = {
    "dinv": dinv_pairs,
    "cdinv": cdinv_pairs,
    "prerank": lambda w: sum(dyck.coheights(w)),
    "phi_involution": phi_split,
    "zeta_haglund": zeta_sweep,
}


@pytest.mark.parametrize("name", ORACLES)
def test_one_pass_statistics_match_their_definitions_on_every_word(name):
    """Every word up to 10 b's in both forms; zeta takes balanced words
    only."""
    for w in every_word():
        if name != "zeta_haglund" or dyck.is_dyck_word(w):
            assert getattr(dyck, name)(w) == ORACLES[name](w), w


# prerank, cdinv, phi_involution and zeta_haglund check their word inside
# its height scan; the two-pass route checks its shape with the predicates'
# own walk first, then takes the heights.


def two_pass_heights(w, balanced):
    """The heights of w once the predicates accept its shape, with the
    errors ``_dn`` and ``zeta_haglund`` raised before their scans fused."""
    if dyck.is_dyck_word(w) or not balanced and dyck.is_dn_word(w):
        return dyck.heights(w)
    raise ValueError("expected a balanced word" if balanced else
                     "expected a balanced word or one with a trailing extra b")


def two_pass_prerank(w):
    eta = two_pass_heights(w, False)
    if not eta:
        return 0
    top = max(eta)
    return len(eta) * top - sum(eta) - eta[::-1].index(top)


def two_pass_cdinv(w):
    two_pass_heights(w, False)
    return cdinv_pairs(w)


def two_pass_phi(w):
    two_pass_heights(w, False)
    return phi_split(w)


def two_pass_zeta(w):
    two_pass_heights(w, True)
    return zeta_sweep(w)


def outcome(fn, w):
    """fn's value on w, or the type and message of what it raised."""
    try:
        return fn(w)
    except Exception as exc:
        return type(exc), str(exc)


FUSED = {"prerank": two_pass_prerank, "cdinv": two_pass_cdinv,
         "phi_involution": two_pass_phi, "zeta_haglund": two_pass_zeta}
ANY_WORDS = ["".join("ab"[(k >> i) & 1] for i in range(length))
             for length in range(9) for k in range(2 ** length)]


@pytest.mark.parametrize("name", FUSED)
def test_fused_scans_match_the_two_pass_route(name):
    """Every word up to 10 b's in both forms, every a/b word up to 8
    letters, and words that are not a/b strings: the same value, or the
    same exception type and message."""
    odd = [None, b"ab", ["a", "b"], "aXb", "ab ", "\nab", "abc", "AB", 3]
    for w in [*every_word(), *ANY_WORDS, *odd]:
        assert outcome(getattr(dyck, name), w) == outcome(FUSED[name], w), w


def test_phi_is_the_canonical_conjugate_of_the_reversal():
    """phi's docstring: the unique non-b-heavy conjugate of the reversal."""
    for n in range(1, 11):
        for w in dyck.dn_words(n):
            u, v = dyck.cyclic_factorization(w[::-1])
            assert dyck.phi_involution(w) == v + u, w


@given(st.text(alphabet="ab", max_size=40))
def test_dinv_matches_its_definition_on_any_word(w):
    """dinv checks letters only, so its heights can be negative."""
    assert dyck.dinv(w) == dinv_pairs(w)


def test_cdinv_contacts_are_the_strip_vertex_labels():
    """cdinv's labels, computed inside ``dyck``, are ``strip.vertex_label``
    at every point where a north step starts, for n <= 8."""
    for n in range(1, 9):
        for w in dyck.dn_words(n):
            assert dyck._contact_labels(dyck.heights(w)) == strip_contacts(w)[1], w


def test_phi_pinned():
    w = "aabaabbabbaabaabbabb"
    assert dyck.phi_involution(w) == "aabaabbabbaabaabbbab"
    assert dyck.zeta_haglund(w) == "aabaaabaaabbabbbabbb"
    assert dyck.zeta_haglund(dyck.phi_involution(w)) == "aaabaaabaabbbabbbabb"
    assert dyck.r_map(dyck.zeta_haglund(w)) == "aaabaaabaabbbabbbabb"


@given(random_word())
def test_phi_is_an_involution_preserving_the_statistics(w):
    img = dyck.phi_involution(w)
    assert dyck.phi_involution(img) == w
    assert dyck.prerank(w) == dyck.area(dyck.to_dyck_word(img))
    assert dyck.dinv(img) == dyck.dinv(w)


def test_phi_on_balanced_words_exhaustive():
    for p in range(1, 7):
        for w in dyck.dyck_words(p):
            img = dyck.phi_involution(w)
            assert dyck.is_dyck_word(img)
            assert dyck.phi_involution(img) == w
            assert dyck.r_map(dyck.zeta_haglund(w)) == dyck.zeta_haglund(img)


def test_r_map_is_an_area_preserving_involution():
    for p in range(1, 7):
        for w in dyck.dyck_words(p):
            r = dyck.r_map(w)
            assert dyck.is_dyck_word(r)
            assert dyck.r_map(r) == w
            assert dyck.area(r) == dyck.area(w)


def test_zeta_pinned_small():
    assert dyck.zeta_haglund("ab") == "ab"
    assert dyck.zeta_haglund("aabb") == "abab"
    assert dyck.zeta_haglund("abab") == "aabb"


def test_zeta_is_a_bijection_on_each_size():
    for p in range(1, 8):
        words = list(dyck.dyck_words(p))
        images = {dyck.zeta_haglund(w) for w in words}
        assert len(images) == len(words)
        assert all(dyck.is_dyck_word(w) for w in images)


def test_cyclic_factorization_pinned():
    assert dyck.cyclic_factorization("bab") == ("b", "ab")
    # a word already in canonical form splits after its final letter
    assert dyck.cyclic_factorization("abb") == ("abb", "")
    assert dyck.cyclic_factorization("bba") == ("bb", "a")


@given(st.integers(1, 10).flatmap(lambda n: st.permutations(list("a" * (n - 1) + "b" * n))))
def test_cyclic_factorization_properties(letters):
    w = "".join(letters)
    u, v = dyck.cyclic_factorization(w)
    assert u + v == w
    assert dyck.is_dn_word(v + u)
    # the rotation is unique: no other split point works
    others = [
        w[k:] + w[:k]
        for k in range(1, len(w))
        if w[k:] + w[:k] != v + u
    ]
    assert not any(dyck.is_dn_word(o) for o in others)


def test_statistics_reject_malformed_words():
    with pytest.raises(ValueError):
        dyck.area("abx")
    with pytest.raises(ValueError):
        dyck.prerank("ba")
    with pytest.raises(ValueError):
        dyck.theta("ba")
    with pytest.raises(ValueError):
        dyck.phi_involution("aabab")


WORD_FUNCTIONS = [n for n in dyck.__all__ if n not in ("dyck_words", "dn_words")]


@pytest.mark.parametrize("name", WORD_FUNCTIONS)
@pytest.mark.parametrize("word", [None, b"ab", ["a", "b"], "ab\n", " ab", "aXb",
                                  "aabb\n", "\nabb"])
def test_every_word_function_validates_its_input(name, word):
    """Inner loops run unchecked, so each public entry point must refuse a
    non-string or a stray letter itself, wherever it sits in the word."""
    with pytest.raises(ValueError):
        getattr(dyck, name)(word)


def qt_catalan(n):
    """Sum of q^prerank t^dinv over dn_words(n), as {(prerank, dinv): count}."""
    return Counter((dyck.prerank(w), dyck.dinv(w)) for w in dyck.dn_words(n))


def test_qt_catalan_pinned():
    # C_3(q, t) = q^3 + q^2 t + q t^2 + t^3 + q t
    assert qt_catalan(4) == {(3, 0): 1, (2, 1): 1, (1, 2): 1, (0, 3): 1, (1, 1): 1}


@pytest.mark.parametrize("n", range(1, 10))
def test_qt_catalan_is_symmetric(n):
    table = qt_catalan(n)
    assert sum(table.values()) == catalan(n - 1)
    assert table == {(t, q): c for (q, t), c in table.items()}
