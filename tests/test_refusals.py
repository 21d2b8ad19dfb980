"""Refusals at the public boundary that no other test reaches: each raises
its own exception type with its own message, before any work."""

import pytest

from chiprank import complete, dyck, dynamics, strip
from chiprank.graphs import MultiGraph
from chiprank.series import TruncatedSeries

SERIES = TruncatedSeries(2, 3, {(0, 0): 1})

REFUSALS = {
    "empty configuration": (lambda: complete.is_equiv_kn((), ()),
                            ValueError, "configuration must not be empty"),
    "is_equiv_kn lengths": (lambda: complete.is_equiv_kn((0, 1), (0, 1, 2)),
                            ValueError, "configurations live on different complete graphs"),
    "decode_word non-word": (lambda: complete.decode_word("ba"),
                             ValueError, "expected a word with one trailing extra b"),
    "rank_step_zero_coordinate b": (
        lambda: complete.theta_iterate(*complete.SortedParking("b", 0), 1),
        ValueError, "expected a sorted parking word with a zero coordinate"),
    "theta_iterate non-word": (lambda: complete.theta_iterate("ba", 0, 0),
                               ValueError, "expected a sorted parking word"),
    "theta_iterate k on b": (lambda: complete.theta_iterate("b", 0, 1),
                             ValueError, "expected a sorted parking word with a zero coordinate"),
    "t_operator n < 2": (lambda: complete.t_operator((5,)),
                         ValueError, "the T operator needs at least one non-sink vertex"),
    "cyclic_factorization counts": (lambda: dyck.cyclic_factorization("ab"),
                                    ValueError, "expected one more b than a"),
    "dyck_words(-1)": (lambda: list(dyck.dyck_words(-1)), ValueError, "need p >= 0"),
    "dn_words(0)": (lambda: list(dyck.dn_words(0)), ValueError, "need n >= 1"),
    "is_parking method": (
        lambda: dynamics.is_parking(MultiGraph.complete(3), (0, 0, 0), method="x"),
        ValueError, "unknown method 'x'"),
    "from_edges 4-entry edge": (lambda: MultiGraph.from_edges(3, [(1, 2, 1, 1)]),
                                ValueError, "bad edge entry: (1, 2, 1, 1)"),
    "from_edges endpoint": (lambda: MultiGraph.from_edges(3, [(1, 4)]),
                            ValueError, "edge endpoint out of range: (1, 4)"),
    "from_edges multiplicity": (lambda: MultiGraph.from_edges(3, [(1, 2, -1)]),
                                ValueError, "edge multiplicity must be >= 0"),
    "from_json without n": (lambda: MultiGraph.from_json('{"edges": []}'),
                            ValueError, 'graph JSON needs keys "n" and "edges"'),
    "from_json without edges": (lambda: MultiGraph.from_json('{"n": 3}'),
                                ValueError, 'graph JSON needs keys "n" and "edges"'),
    "vertex_label n < 1": (lambda: strip.vertex_label(0, 0, 0), ValueError, "need n >= 1"),
    "cell_label n < 2": (lambda: strip.cell_label(1, 0, 0),
                         ValueError, "the strip needs n >= 2"),
    "Ln_direct n < 1": (lambda: strip.Ln_direct(0, 3), ValueError, "need n >= 1"),
    "Ln_via_toxy n < 2": (lambda: strip.Ln_via_toxy(1, 3),
                          ValueError, "the boundary-word expansion needs n >= 2"),
    "carlitz_catalan order": (lambda: strip.carlitz_catalan(-1, 3),
                              ValueError, "truncation orders must be >= 0"),
    "LnC_identity_check max_n < 1": (lambda: strip.LnC_identity_check(0, 3),
                                     ValueError, "need max_n >= 1"),
    "Kn_bistatistic_check n < 1": (lambda: strip.Kn_bistatistic_check(0),
                                   ValueError, "need n >= 1"),
    "kn_degree_rank_table n < 2": (lambda: strip.kn_degree_rank_table(1, 0, 3),
                                   ValueError, "need n >= 2"),
    "series times a non-series": (lambda: SERIES * 1.5,
                                  TypeError, "expected a TruncatedSeries"),
    "series times another truncation": (
        lambda: SERIES * TruncatedSeries(2, 4),
        ValueError, "series have different variable counts or truncations"),
}


@pytest.mark.parametrize("call, kind, message", REFUSALS.values(), ids=REFUSALS.keys())
def test_refusal_names_its_fault(call, kind, message):
    with pytest.raises(kind) as caught:
        call()
    assert type(caught.value) is kind
    assert str(caught.value) == message
