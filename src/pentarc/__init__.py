"""pentarc: exact pentagonal-number partition recurrences.

The package builds the Rankin-Cohen brackets of 1/eta against eta as exact
q-series, decomposes them into Eisenstein and Hecke-eigenform components to
extract trace sequences and exact projection ratios, evaluates the twisted
quadratic Dirichlet series that estimate Petersson norms, and evaluates p(n)
through a convergent Kloosterman-Bessel series.
"""

from .arith import kronecker_symbol
from .exactnum import PiScalar, QuadNum, Rat, bernoulli, falling_factorial, gamma_exact, rising_factorial
from .qseries import (
    DEFAULT_PREC,
    IntQSeries,
    QSeries24,
    eta_expansion,
    euler_expansion,
    eta_inverse_expansion,
    eta_product_expansion,
    to_int_series,
)
from .partitions import (
    PartitionTable,
    partition_table,
    pentagonal,
    recurrence_rhs,
    recurrence_weight,
    sigma,
)
from .forms import MFSpace, cusp_generator, decompose, delta, dim_cusp, dim_modular, eisenstein, space_basis
from .rankincohen import eta_bracket, eta_bracket_from_partitions, rankin_cohen
from .hecke import (
    Eigenform,
    TraceSeries,
    eigen_coordinates,
    eigenform_projections,
    eigenforms,
    hecke_operator,
    trace_series,
)
from .dirichlet import (
    dirichlet_double_sum,
    dirichlet_partial,
    dirichlet_weight,
    dirichlet_weight_float,
    embedded_eigenforms,
    kronecker12,
    petersson_norm_estimate,
)
from .rademacher import Root24, bessel_i32, eta_multiplier, kloosterman, rademacher_pn

__version__ = "0.1.0"
