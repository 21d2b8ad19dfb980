"""Parity between the pure-Python kernels and the compiled extension.

Skipped when ``chiprank._kernels`` has not been built.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiprank import _pykernels

from conftest import SMALL_GRAPHS

compiled = pytest.importorskip("chiprank._kernels")

KERNELS = ("stabilize", "burning_test", "parking_reduce")


@st.composite
def graph_and_config(draw, lo=-10, hi=30):
    G = draw(st.sampled_from(SMALL_GRAPHS))
    return G, draw(st.lists(st.integers(lo, hi), min_size=G.n, max_size=G.n))


@settings(max_examples=300, deadline=None)
@given(graph_and_config(), st.sampled_from(KERNELS))
def test_compiled_matches_pure(gc, name):
    G, f = gc
    n, degs, flat = G.flat()
    pure_cfg, compiled_cfg = list(f), list(f)
    want = getattr(_pykernels, name)(n, degs, flat, pure_cfg)
    got = getattr(compiled, name)(n, degs, flat, compiled_cfg)
    assert got == want
    assert compiled_cfg == pure_cfg


@settings(max_examples=50, deadline=None)
@given(graph_and_config(), st.sampled_from(KERNELS),
       st.integers(2**60, 2**70), st.data())
def test_compiled_refuses_huge_entries_untouched(gc, name, big, data):
    G, f = gc
    n, degs, flat = G.flat()
    cfg = list(f)
    cfg[data.draw(st.integers(0, n - 1))] = big * data.draw(st.sampled_from((1, -1)))
    before = list(cfg)
    with pytest.raises(OverflowError):
        getattr(compiled, name)(n, degs, flat, cfg)
    assert cfg == before
