"""chiprank: exact chip-firing computations on multigraphs.

Stabilization, recurrent and parking configurations, divisor rank with
witnesses, a linear-time rank pipeline on complete graphs, Dyck word
statistics and involutions, and truncated-series verification of the
generating-function identities tying them together.  All arithmetic is
exact (Python ints); a compiled kernel is used when available and falls
back to pure Python otherwise (see ``COMPILED_KERNELS``).
"""

from ._backend import COMPILED as COMPILED_KERNELS
from .complete import (
    SortedParking,
    compact_normalize,
    decode_word,
    is_compact_sorted,
    is_equiv_kn,
    is_equiv_zero_kn,
    parking_via_cyclic_lemma,
    phi1,
    rank_formula,
    rank_formula_details,
    rank_greedy,
    rank_step_zero_coordinate,
    t_operator,
    theta_iterate,
)
from .dyck import (
    area,
    cdinv,
    coheights,
    cyclic_factorization,
    dinv,
    dn_words,
    dyck_words,
    heights,
    is_dn_word,
    is_dyck_word,
    phi_involution,
    prerank,
    r_map,
    theta,
    to_dn_word,
    to_dyck_word,
    zeta_haglund,
)
from .dynamics import (
    Orientation,
    acyclic_orientation_from_parking,
    beta,
    effective_class_counts,
    is_effective_class,
    is_parking,
    is_recurrent_burning,
    is_recurrent_subsets,
    is_stable,
    orientation_configuration,
    parking_representative,
    recurrent_level_counts,
    recurrent_representative,
    stabilize,
)
from .graphs import MultiGraph, degree, laplacian_row, topple
from .rank import (
    RankResult,
    RiemannRochData,
    canonical_class_key,
    is_effective_cached,
    kappa,
    kappa_dual,
    rank_bounds_check,
    rank_bruteforce,
    riemann_roch_check,
    riemann_roch_data,
)
from .series import TruncatedSeries
from .strip import (
    Kn_bistatistic_check,
    Ln_direct,
    Ln_via_toxy,
    LnC_identity_check,
    carlitz_catalan,
    cell_label,
    h_series,
    kn_degree_rank_table,
    lastright,
    left_right,
    psi_involution,
    vertex_label,
)

__version__ = "0.1.0"
