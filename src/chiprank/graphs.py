"""Loopless connected multigraphs and chip configurations.

A multigraph on vertices 1..n is stored once, as the per-vertex tuples of
0-based ``(neighbour, multiplicity)`` pairs that the kernels read, and every
reader walks them.  Configurations are plain sequences of Python ints (exact
arithmetic throughout), one entry per vertex; vertex n is the sink wherever a
sink matters.  Public vertex arguments are 1-based, like the JSON interchange
format.
"""

from __future__ import annotations

import json
import operator
from itertools import compress
from math import prod
from typing import Iterable, Sequence


class MultiGraph:
    """A connected multigraph without self-loops.

    Parameters
    ----------
    mult : square matrix of non-negative ints
        ``mult[i][j]`` is the number of edges between vertices i+1 and j+1.
        Must be symmetric with a zero diagonal, and the graph it describes
        must be connected (checked eagerly).  ``from_edges``, ``from_json``,
        ``complete`` and ``wheel`` build a graph without any matrix.

    Attributes
    ----------
    n : number of vertices
    m : number of edges (with multiplicity)
    degrees : tuple of vertex degrees
    """

    __slots__ = ("n", "m", "degrees", "_adj", "_hnf", "_eff_cache")

    def __init__(self, mult: Sequence[Sequence[int]]):
        rows = [_as_ints(row, "edge multiplicities") for row in mult]
        n = len(rows)
        # every length before any cell: the symmetry check reads later rows
        if any(len(row) != n for row in rows):
            raise ValueError("multiplicity matrix must be square")
        for i, row in enumerate(rows):
            if row[i] != 0:
                raise ValueError(f"self-loop at vertex {i + 1}")
            for j, e in enumerate(row):
                if e < 0:
                    raise ValueError("edge multiplicities must be >= 0")
                if rows[j][i] != e:
                    raise ValueError("multiplicity matrix must be symmetric")
        self._fill(n, [list(zip(compress(range(n), row), compress(row, row))) for row in rows])

    def _fill(self, n: int, rows: list) -> "MultiGraph":
        """Store the graph whose vertex i has the sorted pairs ``rows[i]``
        (multiplicities positive) and return self.  Equal pairs share one
        tuple, so a row costs a pointer per neighbour (8.1 MB on K_1000)."""
        self.n = _check_order(n)
        pairs = {}
        self._adj = tuple(tuple(map(pairs.setdefault, row, row)) for row in rows)
        self.degrees = tuple(sum(map(operator.itemgetter(1), row)) for row in self._adj)
        self.m = sum(self.degrees) // 2
        if not self._connected():
            raise ValueError("graph must be connected")
        self._hnf = None        # Hermite form of the reduced Laplacian, on demand
        self._eff_cache = None  # rank's id table per residue, on demand
        return self

    def _connected(self) -> bool:
        seen = [False] * self.n
        seen[0] = True
        reached = [0]
        for i in reached:  # grows as the search reaches vertices
            for j, _ in self._adj[i]:
                if not seen[j]:
                    seen[j] = True
                    reached.append(j)
        return len(reached) == self.n

    # ---------- constructors ----------

    @classmethod
    def complete(cls, n: int) -> "MultiGraph":
        """The complete graph K_n (K_1 is the single-vertex graph)."""
        (n,) = _as_ints((n,), "the vertex count")
        ones = [(j, 1) for j in range(n)]
        return cls.__new__(cls)._fill(n, [ones[:i] + ones[i + 1:] for i in range(n)])

    @classmethod
    def wheel(cls, k: int) -> "MultiGraph":
        """Wheel W_k: a k-cycle plus a hub joined to every rim vertex.

        The hub is the last vertex (k+1), so it is the sink by convention.
        """
        (k,) = _as_ints((k,), "the rim length")
        n = _wheel_order(k)
        rim = [sorted([((i - 1) % k, 1), ((i + 1) % k, 1)]) + [(k, 1)] for i in range(k)]
        return cls.__new__(cls)._fill(n, rim + [[(i, 1) for i in range(k)]])

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "MultiGraph":
        """Build from an edge list with 1-based endpoints.

        Each item is ``(i, j)`` or ``(i, j, mult)``; repeated and reversed
        pairs accumulate, and pairs that total zero carry no edge.
        """
        (n,) = _as_ints((n,), "the vertex count")
        totals = {}
        for edge in edges:
            edge = _as_ints(edge, "edge endpoints and multiplicities")
            if len(edge) == 2:
                i, j = edge
                e = 1
            elif len(edge) == 3:
                i, j, e = edge
            else:
                raise ValueError(f"bad edge entry: {edge!r}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise ValueError(f"edge endpoint out of range: {edge!r}")
            if i == j:
                raise ValueError(f"self-loop at vertex {i}")
            if e < 0:
                raise ValueError("edge multiplicity must be >= 0")
            pair = (i - 1, j - 1) if i < j else (j - 1, i - 1)
            totals[pair] = totals.get(pair, 0) + e
        # a connected graph has an edge on n - 1 pairs at least: refuse before n rows are built
        if sum(map(bool, totals.values())) < n - 1:
            raise ValueError("graph must be connected")
        # in pair order, row j takes its (i, j) before its (j, k): rows come out sorted
        rows = [[] for _ in range(n)]
        for (i, j), e in sorted(totals.items()):
            if e:
                rows[i].append((j, e))
                rows[j].append((i, e))
        return cls.__new__(cls)._fill(n, rows)

    @classmethod
    def from_json(cls, text: str | dict) -> "MultiGraph":
        """Parse ``{"n": int, "edges": [[i, j], [i, j, mult], ...]}``."""
        data = json.loads(text) if isinstance(text, str) else text
        if not isinstance(data, dict) or "n" not in data or "edges" not in data:
            raise ValueError('graph JSON needs keys "n" and "edges"')
        if not isinstance(data["edges"], list):
            raise ValueError('graph JSON "edges" must be a list')
        return cls.from_edges(data["n"], data["edges"])

    def to_json(self) -> str:
        edges = [[i + 1, j + 1, e]
                 for i, row in enumerate(self._adj) for j, e in row if j > i]
        return json.dumps({"n": self.n, "edges": edges})

    # ---------- queries ----------

    def degree(self, i: int) -> int:
        """Degree of vertex i (1-based)."""
        self._check_vertex(i)
        return self.degrees[i - 1]

    def multiplicity(self, i: int, j: int) -> int:
        """Number of edges between vertices i and j (1-based)."""
        self._check_vertex(i)
        self._check_vertex(j)
        return dict(self._adj[i - 1]).get(j - 1, 0)

    def laplacian_row(self, i: int) -> tuple:
        """Row of the Laplacian for vertex i: degree on the diagonal slot,
        minus the multiplicity towards every other vertex."""
        self._check_vertex(i)
        row = [0] * self.n
        for j, e in self._adj[i - 1]:
            row[j] = -e
        row[i - 1] = self.degrees[i - 1]
        return tuple(row)

    def is_complete(self) -> bool:
        # a row's pairs name distinct other vertices, each by one edge or
        # more, so n - 1 pairs and degree n - 1 mean a single edge to each
        return all(len(row) == d == self.n - 1 for row, d in zip(self._adj, self.degrees))

    def spanning_tree_count(self) -> int:
        """Number of spanning trees: n^(n-2) on K_n (Cayley's formula), else
        the reduced Laplacian's determinant (sink row and column removed),
        the product of the diagonal of its Hermite form."""
        if self.is_complete():
            return self.n ** max(self.n - 2, 0)
        cols = _lattice_form(self)
        return prod(cols[i][i] for i in range(self.n - 1))

    def _check_vertex(self, i: int) -> None:
        if not isinstance(i, int) or not (1 <= i <= self.n):
            raise ValueError(f"vertex {i} out of range 1..{self.n}")

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiGraph) and self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


# ---------- configurations ----------


class _Ints(tuple):
    """A tuple whose entries are all ints already, so ``_as_ints`` returns it
    as it is.  Only ``cli._parse_config``, whose two routes can only yield
    ints, makes one.  Library code gets plain tuples from ``_as_ints``:
    CPython specializes indexing for exact tuples only, so a loop over a
    subclass runs slower."""

    __slots__ = ()


def _as_ints(values: Iterable, what: str = "configuration entries") -> tuple:
    """``values`` as a tuple of ints: an ``_Ints`` as it is, anything else as
    a plain tuple.  Anything that is not an integer (a float, a string, ...)
    raises ValueError rather than being truncated."""
    if type(values) is _Ints:
        return values
    try:
        return tuple(map(operator.index, values))
    except TypeError:
        raise ValueError(f"{what} must be integers") from None


def check_config(G: MultiGraph, f: Sequence[int]) -> tuple:
    """Validate one-entry-per-vertex and return the configuration as a tuple."""
    return _require_length(G.n, _as_ints(f))


def _require_length(n: int, f: tuple) -> tuple:
    """f, a tuple of ints already, once it has one entry per vertex of an
    n-vertex graph; the CLI calls it with n from --complete N or --wheel K
    before (or without) building the graph."""
    if len(f) != n:
        raise ValueError(f"configuration must have {n} entries, got {len(f)}")
    return f


def _count_text(x: int) -> str:
    """A count as a refusal message prints it: exact below 2^63, else
    ``about 2^k``, clear of Python's limit on int-to-str digits."""
    return str(x) if x < 1 << 63 else f"about 2^{x.bit_length() - 1}"


def _check_order(n: int) -> int:
    """n, once it is checked to be a vertex count a graph can have."""
    if n < 1:
        raise ValueError("graph needs at least one vertex")
    return n


def _wheel_order(k: int) -> int:
    """The vertex count of the wheel W_k, once k is checked."""
    if k < 3:
        raise ValueError("wheel needs a rim cycle of length >= 3")
    return k + 1


def degree(f: Sequence[int]) -> int:
    """Total number of chips: the sum of all entries."""
    return sum(f)


def topple(G: MultiGraph, f: Sequence[int], i: int) -> tuple:
    """Topple vertex i: it sends one chip along each incident edge.

    The result is f minus the Laplacian row of i.  No stability or sign
    condition is imposed here; this is the raw lattice move.
    """
    f = check_config(G, f)
    row = G.laplacian_row(i)
    return tuple(x - d for x, d in zip(f, row))


# ---------- the toppling lattice ----------


def _column_hnf(cols: list) -> list:
    """Lower-triangular column Hermite form of a nonsingular integer matrix
    given as ``cols``, the list of its columns (as lists), which it reduces
    in place and returns, with positive diagonal entries.

    Only integer column operations are used, so the columns of the result
    span the same lattice as the columns given, and the product of the
    diagonal is the absolute value of the determinant.  Every entry below
    the diagonal is reduced into 0 .. d - 1, where d is the diagonal entry
    of its row.
    """
    k = len(cols)
    for i in range(k):
        while True:
            live = [c for c in range(i, k) if cols[c][i] != 0]
            if not live:
                raise ValueError("matrix is singular")
            if len(live) == 1:
                break
            live.sort(key=lambda c: abs(cols[c][i]))
            a, b = live[0], live[1]
            q = cols[b][i] // cols[a][i]
            # columns i.. are zero above row i
            for r in range(i, k):
                cols[b][r] -= q * cols[a][r]
        c = live[0]
        cols[i], cols[c] = cols[c], cols[i]
        if cols[i][i] < 0:
            for r in range(i, k):
                cols[i][r] = -cols[i][r]
    # column i is zero above row i, so reducing row i of an earlier column by
    # it changes only rows i..k-1, which are reduced after.  Columns go right
    # to left, so the columns subtracted are already reduced themselves.
    for c in range(k - 2, -1, -1):
        col = cols[c]
        for i in range(c + 1, k):
            q = col[i] // cols[i][i]
            if q:
                for r in range(i, k):
                    col[r] -= q * cols[i][r]
    return cols


def _lattice_form(G: MultiGraph) -> list:
    """The Hermite form of G's reduced Laplacian, built once per graph.  Its
    columns span the lattice of non-sink toppling moves.  The Laplacian is
    symmetric, so column i is read off vertex i's pairs like its row."""
    if G._hnf is None:
        cols = []
        for i, row in enumerate(G._adj[:-1]):
            col = [0] * G.n
            for j, e in row:
                col[j] = -e
            col[i] = G.degrees[i]
            col.pop()  # the sink's entry
            cols.append(col)
        G._hnf = _column_hnf(cols)
    return G._hnf


def _residue(cols: list, f: Sequence[int], k: int) -> tuple:
    """The canonical representative of f's first k entries modulo the
    lattice spanned by the Hermite columns ``cols``: entry i lies in
    0 .. cols[i][i] - 1."""
    v = list(f[:k])
    _carry(cols, v, 0, k)
    return tuple(v)


def _borrow(cols: list, v: list, i: int, k: int) -> None:
    """Step v, a residue as ``_residue`` gives it but held in a list, to the
    residue of v - e_i, in place.  Entry i drops by one; only if it goes
    negative do entries i..k-1 carry back into range along the Hermite
    columns, like a borrow in a mixed-radix counter."""
    v[i] -= 1
    if v[i] < 0:
        _carry(cols, v, i, k)


def _carry(cols: list, v: list, i: int, k: int) -> None:
    """Bring entries i..k-1 of v into range, in place, assuming entries
    before i already are: entry j is reduced modulo cols[j][j] by a multiple
    of column j, which also moves the entries below it."""
    for j in range(i, k):
        col = cols[j]
        q = v[j] // col[j]
        if q:
            for r in range(j, k):
                v[r] -= q * col[r]
