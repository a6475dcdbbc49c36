"""Entropic inequalities for group representation matrix elements.

Squared matrix elements of unitary irreducible representations form
probability distributions; invertible index mappings relabel them as
joint tables whose Shannon/Tsallis entropies obey subadditivity.  This
package computes the matrix elements (three-term recurrences in m' for
the rotation and discrete-series elements, contiguous Gauss-
hypergeometric families for the mixed and continuous ones; exact
diagonalisation and a Jacobi polynomial are the independent rotation and
discrete-series oracles), applies the mappings, and verifies the
inequalities numerically.
"""

from .entropy import (
    SubadditivityReport,
    check_q,
    renyi,
    shannon,
    subadditivity_report,
    tsallis,
    tsallis_subadditivity_report,
)
from .errors import (
    ConvergenceError,
    DimensionError,
    DomainError,
    EntroineqError,
    NormalizationError,
    PoleError,
    UnsupportedBranchError,
)
from .halfint import HalfInt
from .probability import (
    BistochasticMatrix,
    Distribution,
    SeriesKind,
    bipartite_split,
    enumerate_weights,
    interleave_split,
    marginals,
    relabel,
)
from .specfun import (
    Su11Args,
    bargmann_b,
    bargmann_b_continued,
    c_function,
    dmatrix,
    hyp2f1,
    jacobi,
    l_function,
    log_gamma,
    wigner_d,
    wigner_oracle,
)
from .su2 import (
    closed_form_check,
    column_distribution,
    su2_subadditivity,
    su2_tsallis_subadditivity,
)
from .su11 import (
    TruncatedDistribution,
    continuous_series_report,
    discrete_series_distribution,
    mixed_series_report,
    su11_subadditivity,
)

__version__ = "0.1.0"

__all__ = [
    "BistochasticMatrix",
    "ConvergenceError",
    "DimensionError",
    "Distribution",
    "DomainError",
    "EntroineqError",
    "HalfInt",
    "NormalizationError",
    "PoleError",
    "SeriesKind",
    "Su11Args",
    "SubadditivityReport",
    "TruncatedDistribution",
    "UnsupportedBranchError",
    "bargmann_b",
    "bargmann_b_continued",
    "bipartite_split",
    "c_function",
    "check_q",
    "closed_form_check",
    "column_distribution",
    "continuous_series_report",
    "discrete_series_distribution",
    "dmatrix",
    "enumerate_weights",
    "hyp2f1",
    "interleave_split",
    "jacobi",
    "l_function",
    "log_gamma",
    "marginals",
    "mixed_series_report",
    "relabel",
    "renyi",
    "shannon",
    "su11_subadditivity",
    "su2_subadditivity",
    "su2_tsallis_subadditivity",
    "subadditivity_report",
    "tsallis",
    "tsallis_subadditivity_report",
    "wigner_d",
    "wigner_oracle",
]
