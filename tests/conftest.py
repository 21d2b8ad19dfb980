import random
import types

import pytest

from chiprank import _backend, _pykernels, cli, complete, graphs
from chiprank.graphs import MultiGraph


@pytest.fixture(scope="session")
def K3():
    return MultiGraph.complete(3)


@pytest.fixture(scope="session")
def K4():
    return MultiGraph.complete(4)


@pytest.fixture(scope="session")
def K5():
    return MultiGraph.complete(5)


@pytest.fixture(scope="session")
def W5():
    return MultiGraph.wheel(5)


@pytest.fixture(scope="session")
def multi4():
    """A 4-vertex multigraph with parallel edges."""
    return MultiGraph.from_edges(4, [(1, 2, 2), (2, 3, 1), (3, 4, 3), (1, 4, 1), (1, 3, 2)])


@pytest.fixture()
def rng():
    return random.Random(99)


@pytest.fixture()
def conversions(monkeypatch):
    """Record in ``checks`` the arguments of every ``_as_ints`` call in
    ``graphs`` and ``complete`` (where configurations are checked) that
    converts, that is, whose values are not an ``_Ints``, which it returns
    as it is; count the ``cli._parse_config`` calls in ``parses``."""
    calls = types.SimpleNamespace(checks=[], parses=0)
    as_ints, parse = graphs._as_ints, cli._parse_config

    def counting(*args):
        if type(args[0]) is not graphs._Ints:
            calls.checks.append(args)
        return as_ints(*args)

    def counting_parse(text):
        calls.parses += 1
        return parse(text)

    monkeypatch.setattr(graphs, "_as_ints", counting)
    monkeypatch.setattr(complete, "_as_ints", counting)
    monkeypatch.setattr(cli, "_parse_config", counting_parse)
    return calls


@pytest.fixture()
def burnings(monkeypatch):
    """The burning rounds of each parking-kernel call, one entry per call;
    the last burning, which burns everything, counts too."""
    counts = []
    kernel, burn = _backend.parking_reduce, _pykernels.burning_test

    def burning_test(*args):
        counts[-1] += 1
        return burn(*args)

    def parking_reduce(*args):
        counts.append(0)
        return kernel(*args)

    # parking_reduce reads burning_test from its own module; dynamics' parking
    # test reads _backend's, which stays the kernel itself
    monkeypatch.setattr(_pykernels, "burning_test", burning_test)
    monkeypatch.setattr(_backend, "parking_reduce", parking_reduce)
    return counts


SMALL_GRAPHS = [
    MultiGraph.complete(2),
    MultiGraph.complete(3),
    MultiGraph.complete(4),
    MultiGraph.wheel(4),
    MultiGraph.wheel(5),
    MultiGraph.from_edges(3, [(1, 2, 3), (2, 3, 1), (1, 3, 2)]),
    MultiGraph.from_edges(4, [(1, 2, 2), (2, 3, 1), (3, 4, 3), (1, 4, 1), (1, 3, 2)]),
    MultiGraph.from_edges(4, [(1, 2, 1), (2, 3, 1), (3, 4, 1), (1, 4, 1)]),  # 4-cycle
]
