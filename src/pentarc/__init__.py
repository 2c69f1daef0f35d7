"""pentarc: exact pentagonal-number partition recurrences.

The package builds the Rankin-Cohen brackets of 1/eta against eta as exact
q-series, decomposes them into Eisenstein and Hecke-eigenform components to
extract trace sequences and exact projection ratios, evaluates the twisted
quadratic Dirichlet series that estimate Petersson norms, and evaluates p(n)
through a convergent Kloosterman-Bessel series.
"""

from .dirichlet import petersson_norm_estimate
from .forms import decompose, space_basis
from .hecke import cusp_part, eigenform_projections, eigenforms, trace_series
from .partitions import partition_table, recurrence_rhs, recurrence_weight
from .rademacher import rademacher_pn
from .rankincohen import eta_bracket

__all__ = [
    "eta_bracket",
    "eigenform_projections",
    "trace_series",
    "partition_table",
    "recurrence_rhs",
    "recurrence_weight",
    "space_basis",
    "decompose",
    "cusp_part",
    "eigenforms",
    "petersson_norm_estimate",
    "rademacher_pn",
]

__version__ = "0.1.0"
