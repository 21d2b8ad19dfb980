"""Loopless connected multigraphs and chip configurations.

A multigraph on vertices 1..n is stored as a symmetric n x n matrix of edge
multiplicities with a zero diagonal.  Configurations are plain sequences of
Python ints (exact arithmetic throughout), one entry per vertex; vertex n is
the sink wherever a sink matters.  Public vertex arguments are 1-based, like
the JSON interchange format.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from math import prod
from typing import Iterable, Sequence


class MultiGraph:
    """A connected multigraph without self-loops.

    Parameters
    ----------
    mult : square matrix of non-negative ints
        ``mult[i][j]`` is the number of edges between vertices i+1 and j+1.
        Must be symmetric with a zero diagonal, and the graph it describes
        must be connected (checked eagerly).

    Attributes
    ----------
    n : number of vertices
    m : number of edges (with multiplicity)
    mult : the multiplicity matrix, as a tuple of tuples
    degrees : tuple of vertex degrees
    """

    __slots__ = ("n", "m", "mult", "degrees", "_flat", "_hnf", "_eff_cache")

    def __init__(self, mult: Sequence[Sequence[int]]):
        rows = [_as_ints(row, "edge multiplicities") for row in mult]
        n = _check_order(len(rows))
        for i, row in enumerate(rows):
            if len(row) != n:
                raise ValueError("multiplicity matrix must be square")
            if row[i] != 0:
                raise ValueError(f"self-loop at vertex {i + 1}")
            for j, e in enumerate(row):
                if e < 0:
                    raise ValueError("edge multiplicities must be >= 0")
                if rows[j][i] != e:
                    raise ValueError("multiplicity matrix must be symmetric")
        self.n = n
        self.mult = tuple(rows)
        self.degrees = tuple(sum(row) for row in rows)
        self.m = sum(self.degrees) // 2
        if not self._connected():
            raise ValueError("graph must be connected")
        self._flat = None       # the kernels' buffers, on demand (see flat)
        self._hnf = None        # Hermite form of the reduced Laplacian, on demand
        self._eff_cache = {}    # parking part per non-sink residue (see rank)

    def _connected(self) -> bool:
        seen = [False] * self.n
        seen[0] = True
        queue = deque([0])
        while queue:
            i = queue.popleft()
            for j, e in enumerate(self.mult[i]):
                if e and not seen[j]:
                    seen[j] = True
                    queue.append(j)
        return all(seen)

    # ---------- constructors ----------

    @classmethod
    def complete(cls, n: int) -> "MultiGraph":
        """The complete graph K_n (K_1 is the single-vertex graph)."""
        (n,) = _as_ints((n,), "the vertex count")
        return cls([[0 if i == j else 1 for j in range(n)] for i in range(n)])

    @classmethod
    def wheel(cls, k: int) -> "MultiGraph":
        """Wheel W_k: a k-cycle plus a hub joined to every rim vertex.

        The hub is the last vertex (k+1), so it is the sink by convention.
        """
        (k,) = _as_ints((k,), "the rim length")
        n = _wheel_order(k)
        mult = [[0] * n for _ in range(n)]
        for i in range(k):
            j = (i + 1) % k
            mult[i][j] += 1
            mult[j][i] += 1
            mult[i][k] += 1
            mult[k][i] += 1
        return cls(mult)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "MultiGraph":
        """Build from an edge list with 1-based endpoints.

        Each item is ``(i, j)`` or ``(i, j, mult)``; repeated pairs accumulate.
        """
        (n,) = _as_ints((n,), "the vertex count")
        mult = [[0] * n for _ in range(n)]
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
            mult[i - 1][j - 1] += e
            mult[j - 1][i - 1] += e
        return cls(mult)

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
        edges = []
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.mult[i][j]:
                    edges.append([i + 1, j + 1, self.mult[i][j]])
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
        return self.mult[i - 1][j - 1]

    def laplacian_row(self, i: int) -> tuple:
        """Row of the Laplacian for vertex i: degree on the diagonal slot,
        minus the multiplicity towards every other vertex."""
        self._check_vertex(i)
        k = i - 1
        return tuple(
            self.degrees[k] if j == k else -self.mult[k][j] for j in range(self.n)
        )

    def is_complete(self) -> bool:
        # the diagonal is zero, so a row holds n - 1 ones exactly when every
        # edge from its vertex is simple
        return all(row.count(1) == self.n - 1 for row in self.mult)

    def spanning_tree_count(self) -> int:
        """Number of spanning trees: the determinant of the reduced Laplacian
        (sink row and column removed), read off as the product of the
        diagonal of its Hermite form."""
        cols = _lattice_form(self)
        return prod(cols[i][i] for i in range(self.n - 1))

    def _check_vertex(self, i: int) -> None:
        if not isinstance(i, int) or not (1 <= i <= self.n):
            raise ValueError(f"vertex {i} out of range 1..{self.n}")

    def flat(self) -> tuple:
        """(n, degrees, row-major multiplicities): the kernels' graph
        arguments, built once per graph.  The kernels keep their adjacency
        lists for the last ``flat`` they saw, so that one tuple lets them
        build the lists once per graph."""
        if self._flat is None:
            flat = tuple(e for row in self.mult for e in row)
            self._flat = (self.n, self.degrees, flat)
        return self._flat

    def __eq__(self, other) -> bool:
        return isinstance(other, MultiGraph) and self.mult == other.mult

    def __hash__(self) -> int:
        return hash(self.mult)

    def __repr__(self) -> str:
        return f"MultiGraph(n={self.n}, m={self.m})"


# ---------- configurations ----------


def _as_ints(values: Iterable, what: str = "configuration entries") -> tuple:
    """``values`` as a tuple of ints.  Anything that is not an integer
    (a float, a string, ...) raises ValueError rather than being truncated."""
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


def laplacian_row(G: MultiGraph, i: int) -> tuple:
    return G.laplacian_row(i)


def topple(G: MultiGraph, f: Sequence[int], i: int) -> tuple:
    """Topple vertex i: it sends one chip along each incident edge.

    The result is f minus the Laplacian row of i.  No stability or sign
    condition is imposed here; this is the raw lattice move.
    """
    f = check_config(G, f)
    row = G.laplacian_row(i)
    return tuple(x - d for x, d in zip(f, row))


# ---------- the toppling lattice ----------


def _column_hnf(mat: list) -> list:
    """Lower-triangular column Hermite form of a nonsingular integer matrix,
    as a list of columns with positive diagonal entries.

    Only integer column operations are used, so the columns of the result
    span the same lattice as the columns of ``mat``, and the product of the
    diagonal is the absolute value of its determinant.  Every entry below
    the diagonal is reduced into 0 .. d - 1, where d is the diagonal entry
    of its row.
    """
    k = len(mat)
    cols = [[mat[r][c] for r in range(k)] for c in range(k)]
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
    columns span the lattice of non-sink toppling moves."""
    if G._hnf is None:
        k = G.n - 1
        G._hnf = _column_hnf([list(G.laplacian_row(i + 1)[:k]) for i in range(k)])
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
