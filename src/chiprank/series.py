"""Exact multivariate power series, truncated by total degree.

Coefficients are Python ints; monomials are exponent tuples.  All arithmetic
is exact on every kept monomial: a product of series truncated at total
degree T has correct coefficients up to T because dropped terms can only feed
higher degrees.  Division is by series with constant term +-1 only (the only
integer units), by a recurrence taken in order of total degree.

The constructor validates its coefficients.  Ring results come from
``_make``, which trusts them: they are built from validated series, so only
the zero coefficients that cancellation leaves need dropping.
"""

from __future__ import annotations

import json
from operator import add
from typing import Callable, Mapping

from .graphs import _as_ints


def _check_shape(nvars: int, trunc: int) -> tuple:
    """(nvars, trunc) as ints, once they are a valid variable count and
    truncation."""
    nvars, trunc = _as_ints((nvars, trunc), "variable counts and truncations")
    if nvars < 1 or trunc < 0:
        raise ValueError("need nvars >= 1 and trunc >= 0")
    return nvars, trunc


class TruncatedSeries:
    __slots__ = ("nvars", "trunc", "coeffs")

    def __init__(self, nvars: int, trunc: int, coeffs: Mapping | None = None):
        nvars, trunc = _check_shape(nvars, trunc)
        self.nvars = nvars
        self.trunc = trunc
        clean = {}
        if coeffs:
            for exps, c in coeffs.items():
                exps = _as_ints(exps, "monomial exponents")
                if len(exps) != nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad monomial {exps}")
                (c,) = _as_ints((c,), "series coefficients")
                if c and sum(exps) <= trunc:
                    clean[exps] = clean.get(exps, 0) + c
                    if not clean[exps]:
                        del clean[exps]
        self.coeffs = clean

    @classmethod
    def _make(cls, nvars: int, trunc: int, coeffs: dict) -> "TruncatedSeries":
        """A series on coefficients that are already valid: int values on
        exponent tuples of length nvars, non-negative, of total degree at
        most trunc.  Only zero coefficients are dropped; nothing is checked."""
        s = object.__new__(cls)
        s.nvars = nvars
        s.trunc = trunc
        s.coeffs = {e: c for e, c in coeffs.items() if c}
        return s

    # ---------- constructors ----------

    @classmethod
    def zero(cls, nvars: int, trunc: int) -> "TruncatedSeries":
        return cls(nvars, trunc)

    @classmethod
    def one(cls, nvars: int, trunc: int) -> "TruncatedSeries":
        return cls(nvars, trunc, {(0,) * nvars: 1})

    @classmethod
    def monomial(
        cls, nvars: int, trunc: int, exps, coeff: int = 1
    ) -> "TruncatedSeries":
        return cls(nvars, trunc, {tuple(exps): coeff})

    # ---------- ring operations ----------

    def _compat(self, other: "TruncatedSeries") -> None:
        if not isinstance(other, TruncatedSeries):
            raise TypeError("expected a TruncatedSeries")
        if (self.nvars, self.trunc) != (other.nvars, other.trunc):
            raise ValueError("series have different variable counts or truncations")

    def __add__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return self._make(self.nvars, self.trunc, out)

    def __sub__(self, other):
        self._compat(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) - c
        return self._make(self.nvars, self.trunc, out)

    def __neg__(self):
        return self._make(
            self.nvars, self.trunc, {e: -c for e, c in self.coeffs.items()}
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return self._make(
                self.nvars, self.trunc, {e: c * other for e, c in self.coeffs.items()}
            )
        self._compat(other)
        T = self.trunc
        a = [(e, sum(e), c) for e, c in self.coeffs.items()]
        b = [(e, sum(e), c) for e, c in other.coeffs.items()]
        b.sort(key=lambda t: t[1])
        out: dict = {}
        for e1, d1, c1 in a:
            room = T - d1
            for e2, d2, c2 in b:
                if d2 > room:
                    break
                e = tuple(map(add, e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return self._make(self.nvars, self.trunc, out)

    __rmul__ = __mul__

    def inverse(self) -> "TruncatedSeries":
        """Multiplicative inverse; the constant term c0 must be +1 or -1.
        Degree by degree, about one product's work: X = 1/self has X_0 = c0
        and X_e = -c0 * sum of D_f * X_(e - f) over self's terms D_f, f != 0."""
        zero = (0,) * self.nvars
        c0 = self.coeffs.get(zero, 0)
        if c0 not in (1, -1):
            raise ValueError("inverse needs a unit (+-1) constant term")
        terms = sorted((sum(f), f, -c0 * c) for f, c in self.coeffs.items() if f != zero)
        layers = [{zero: c0}]  # X's terms by total degree
        for d in range(1, self.trunc + 1):
            layer: dict = {}
            for df, f, cf in terms:
                if df > d:
                    break
                for g, cg in layers[d - df].items():
                    e = tuple(map(add, f, g))
                    layer[e] = layer.get(e, 0) + cf * cg
            layers.append(layer)
        out = {e: c for layer in layers for e, c in layer.items()}
        return self._make(self.nvars, self.trunc, out)

    def __truediv__(self, other):
        self._compat(other)
        return self * other.inverse()

    # ---------- structure ----------

    def coefficient(self, exps) -> int:
        return self.coeffs.get(tuple(exps), 0)

    def filter(self, keep: Callable) -> "TruncatedSeries":
        """Series with only the monomials whose exponent tuple passes
        ``keep``."""
        return self._make(
            self.nvars, self.trunc, {e: c for e, c in self.coeffs.items() if keep(e)}
        )

    def map_exponents(
        self, fn: Callable, nvars: int | None = None, trunc: int | None = None
    ) -> "TruncatedSeries":
        """Reindex monomials (for substitutions like z -> x*z); ``fn`` maps an
        exponent tuple to a new one.  Images above the truncation drop out;
        the images themselves are checked like the constructor's monomials."""
        nvars, trunc = _check_shape(
            self.nvars if nvars is None else nvars,
            self.trunc if trunc is None else trunc,
        )
        out: dict = {}
        for e, c in self.coeffs.items():
            e2 = _as_ints(fn(e), "monomial exponents")
            if len(e2) != nvars or min(e2) < 0:
                raise ValueError(f"bad monomial {e2}")
            if sum(e2) <= trunc:
                out[e2] = out.get(e2, 0) + c
        return self._make(nvars, trunc, out)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruncatedSeries)
            and self.nvars == other.nvars
            and self.trunc == other.trunc
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.nvars, self.trunc, frozenset(self.coeffs.items())))

    def sorted_items(self) -> list:
        return sorted(self.coeffs.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def to_json_dict(self) -> dict:
        """Monomials as JSON-friendly keys: ``{"[1,2]": 3, ...}``."""
        return {json.dumps(list(e)): c for e, c in self.sorted_items()}

    def to_text(self, names: str = "xyzw") -> str:
        """Human-readable polynomial, lowest total degree first."""
        if not self.coeffs:
            return "0"
        bits = []
        for e, c in self.sorted_items():
            factors = []
            for v, k in enumerate(e):
                if k == 1:
                    factors.append(names[v])
                elif k > 1:
                    factors.append(f"{names[v]}^{k}")
            body = "*".join(factors)
            if not body:
                bits.append(f"{c}")
            elif c == 1:
                bits.append(body)
            elif c == -1:
                bits.append(f"-{body}")
            else:
                bits.append(f"{c}*{body}")
        text = " + ".join(bits)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        head = self.to_text()
        if len(head) > 60:
            head = head[:57] + "..."
        return f"TruncatedSeries({self.nvars} vars, <= {self.trunc}: {head})"
