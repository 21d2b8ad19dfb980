import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiprank.series import TruncatedSeries


class Series(TruncatedSeries):
    """TruncatedSeries with the ring operations that only tests use: the
    difference, negation, quotient, ``filter`` and the constructors
    ``zero``, ``one`` and ``monomial``.  Every result is a Series, through
    ``_make``; it equals the TruncatedSeries with the same coefficients."""

    __slots__ = ()

    @classmethod
    def of(cls, s: TruncatedSeries) -> "Series":
        return cls._make(s.nvars, s.trunc, s.coeffs)

    @classmethod
    def zero(cls, nvars: int, trunc: int) -> "Series":
        return cls(nvars, trunc)

    @classmethod
    def one(cls, nvars: int, trunc: int) -> "Series":
        return cls(nvars, trunc, {(0,) * nvars: 1})

    @classmethod
    def monomial(cls, nvars: int, trunc: int, exps, coeff: int = 1) -> "Series":
        return cls(nvars, trunc, {tuple(exps): coeff})

    def __sub__(self, other):
        return self + other * -1

    def __neg__(self):
        return self * -1

    def __truediv__(self, other):
        self._compat(other)
        return self * other.inverse()

    def filter(self, keep) -> "Series":
        """Only the monomials whose exponent tuple passes ``keep``."""
        return self._make(self.nvars, self.trunc,
                          {e: c for e, c in self.coeffs.items() if keep(e)})


def series_strategy(nvars=2, trunc=5, coeff_lo=-6, coeff_hi=6):
    exps = st.tuples(*[st.integers(0, trunc) for _ in range(nvars)]).filter(
        lambda e: sum(e) <= trunc
    )
    return st.dictionaries(exps, st.integers(coeff_lo, coeff_hi), max_size=8).map(
        lambda d: Series(nvars, trunc, d)
    )


def test_constructor_drops_zeros_and_overflow():
    s = TruncatedSeries(2, 3, {(0, 0): 1, (1, 1): 0, (4, 0): 9})
    assert s.coeffs == {(0, 0): 1}
    assert s.coefficient((1, 1)) == 0
    assert s.coefficient((4, 0)) == 0


def test_constructor_rejects_bad_monomials():
    for coeffs in ({(0,): 1}, {(-1, 0): 1}, {(0, -2): 3}, {(1.0, 0): 1},
                   {(1, 0): 1.0}, {(1, 0): 0.5}):
        with pytest.raises(ValueError):
            TruncatedSeries(2, 3, coeffs)


def test_basic_constructors():
    one = Series.one(2, 4)
    zero = Series.zero(2, 4)
    x = Series.monomial(2, 4, (1, 0))
    assert one.coefficient((0, 0)) == 1
    assert zero.coeffs == {}
    assert (x * x).coefficient((2, 0)) == 1


@given(series_strategy(), series_strategy(), series_strategy())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Series.zero(a.nvars, a.trunc)
    assert a * Series.one(a.nvars, a.trunc) == a


@given(series_strategy())
def test_scalar_arithmetic(a):
    assert a * 2 == a + a
    assert a * 0 == Series.zero(a.nvars, a.trunc)
    assert -a + a == Series.zero(a.nvars, a.trunc)


def test_geometric_inverse():
    T = 7
    one_minus_x = TruncatedSeries(2, T, {(0, 0): 1, (1, 0): -1})
    inv = one_minus_x.inverse()
    for k in range(T + 1):
        assert inv.coefficient((k, 0)) == 1
    assert one_minus_x * inv == Series.one(2, T)


@settings(max_examples=60)
@given(series_strategy())
def test_inverse_roundtrip_for_units(a):
    unit = a - TruncatedSeries(2, a.trunc, {(0, 0): a.coefficient((0, 0)) - 1})
    assert unit.coefficient((0, 0)) == 1
    assert unit * unit.inverse() == Series.one(2, a.trunc)
    assert (a * unit) / unit == a


def geometric_inverse(s):
    """1/s as the geometric series c0 * sum of (1 - c0*s)^k, k <= trunc,
    for a constant term c0 of +1 or -1: one product per term."""
    c0 = s.coefficient((0,) * s.nvars)
    one = Series.one(s.nvars, s.trunc)
    v = one - s * c0
    out, power = one, one
    for _ in range(s.trunc):
        power = power * v
        out = out + power
    return out * c0


@st.composite
def unit_series(draw):
    """A series in 1..3 variables with constant term +1 or -1."""
    nvars = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, 6))
    a = draw(series_strategy(nvars, trunc))
    c0 = draw(st.sampled_from([1, -1]))
    zero = (0,) * nvars
    return a - TruncatedSeries(nvars, trunc, {zero: a.coefficient(zero) - c0})


@settings(max_examples=100)
@given(unit_series(), st.data())
def test_graded_inverse_matches_the_geometric_series(unit, data):
    """The degree-by-degree inverse equals the geometric series it
    replaced, and so does the quotient built on it."""
    assert unit.inverse() == geometric_inverse(unit)
    other = data.draw(series_strategy(unit.nvars, unit.trunc))
    assert other / unit == other * geometric_inverse(unit)


def test_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(1, 0): 1}).inverse()
    with pytest.raises(ValueError):
        TruncatedSeries(2, 3, {(0, 0): 2}).inverse()


def test_negative_unit_inverse():
    s = TruncatedSeries(1, 4, {(0,): -1, (1,): 1})
    assert s * s.inverse() == Series.one(1, 4)


def test_map_exponents_swap_and_embed():
    s = TruncatedSeries(2, 4, {(1, 0): 3, (0, 2): 5})
    swapped = s.map_exponents(lambda e: (e[1], e[0]))
    assert swapped.coefficient((0, 1)) == 3
    assert swapped.coefficient((2, 0)) == 5
    lifted = s.map_exponents(lambda e: (e[0], e[1], 0), nvars=3)
    assert lifted.nvars == 3
    assert lifted.coefficient((1, 0, 0)) == 3


def test_map_exponents_substitution_is_multiplicative():
    # z -> qz on one factor distributes over products
    T = 6
    a = TruncatedSeries(2, T, {(0, 1): 1, (1, 2): 2})
    b = TruncatedSeries(2, T, {(0, 0): 1, (2, 1): -1})
    sub = lambda e: (e[0] + e[1], e[1])
    assert (a * b).map_exponents(sub) == a.map_exponents(sub) * b.map_exponents(sub)


def test_filter_keeps_a_window():
    s = Series(2, 5, {(0, 0): 1, (1, 1): 2, (3, 0): 4})
    low = s.filter(lambda e: sum(e) <= 1)
    assert low.coeffs == {(0, 0): 1}


def test_truncation_absorbs_high_degrees():
    T = 3
    x = Series.monomial(2, T, (1, 0))
    p = x * x * x
    assert p.coefficient((3, 0)) == 1
    assert (p * x).coeffs == {}  # degree 4 falls off


def test_text_and_json_forms():
    s = TruncatedSeries(2, 4, {(0, 0): 1, (1, 0): -2, (0, 2): 1})
    assert s.to_text() == "1 - 2*x + y^2"
    assert s.to_json_dict() == {"[0, 0]": 1, "[0, 2]": 1, "[1, 0]": -2}


def test_sorted_items_order():
    s = TruncatedSeries(2, 4, {(0, 2): 1, (1, 0): 1, (0, 0): 1, (2, 0): 1})
    assert [e for e, _ in s.sorted_items()] == [(0, 0), (1, 0), (0, 2), (2, 0)]


def canonical(r):
    """r as the validating constructor would build it from r's own
    coefficients, after checking that nothing needs dropping."""
    assert all(r.coeffs.values()), "zero coefficient stored"
    assert all(sum(e) <= r.trunc for e in r.coeffs), "monomial above trunc"
    return TruncatedSeries(r.nvars, r.trunc, r.coeffs)


@st.composite
def series_triple(draw):
    """Two series on the same ring, nvars 1..3, plus an int scalar."""
    nvars = draw(st.integers(1, 3))
    trunc = draw(st.integers(0, 5))
    a = draw(series_strategy(nvars, trunc))
    b = draw(series_strategy(nvars, trunc))
    return a, b, draw(st.integers(-3, 3))


@settings(max_examples=80)
@given(series_triple())
def test_results_stay_canonical(abk):
    a, b, k = abk
    # a unit with a's higher terms: a minus its constant term, plus 1 or -1
    c0 = (0,) * a.nvars
    sign = 1 if k >= 0 else -1
    unit = a - TruncatedSeries(a.nvars, a.trunc, {c0: a.coefficient(c0) - sign})
    results = [
        a + b, a - b, a - a, -a, a * b, a * k, k * a, a * 0, a * a,
        a.filter(lambda e: e[0] % 2 == 0),
        a.map_exponents(lambda e: e[::-1]),
        a.map_exponents(lambda e: (e[0] + sum(e),) + e[1:]),
        a.map_exponents(lambda e: e + (1,), nvars=a.nvars + 1),
        a.map_exponents(lambda e: e, trunc=a.trunc + 2),
        a.map_exponents(lambda e: e, trunc=max(a.trunc - 2, 0)),
        unit.inverse(),
        a / unit,
    ]
    for r in results:
        assert r == canonical(r)


def test_map_exponents_checks_the_images():
    s = TruncatedSeries(2, 4, {(1, 0): 3, (0, 2): 5})
    with pytest.raises(ValueError):
        s.map_exponents(lambda e: (e[0] - 1, e[1]))
    with pytest.raises(ValueError):
        s.map_exponents(lambda e: e + (0,))
    with pytest.raises(ValueError):
        s.map_exponents(lambda e: e, nvars=0)
    # an image above the truncation drops out
    assert s.map_exponents(lambda e: (e[0] + 4, e[1])).coeffs == {}
