"""Exact analysis toolkit for Boolean function complexity measures."""

from .algebra import (
    FourierSpectrum,
    MultilinearPoly,
    SpectralSums,
    degree,
    fourier_transform,
    influence_from_spectrum,
    multilinear_coefficients,
    sparsity,
    spectral_sums,
)
from .chains import (
    Chain,
    alternation_along,
    alternation_profile,
    gap_family_chain,
    glued_composition_chain,
    monotone_decomposition,
)
from .core import (
    ArityMismatchError,
    CapExceededError,
    FormatError,
    LazyFunction,
    TruthTable,
    compose,
    dense_cap,
    depends_on_all,
    is_monotone,
    materialize,
    parse,
    serialize,
)
from .families import DecisionTreeShape, address, compose_power, gap_family, named_basics
from .measures import (
    AltDecrease,
    MeasureContext,
    alternation_decrease,
    block_sensitivity,
    certificate_complexity,
    decision_tree_depth,
    influence,
    measure_report,
    negation_complexity,
    sensitivity,
)
from .verify import (
    CHECKS,
    Check,
    Population,
    SweepReport,
    run_check_suite,
)

__version__ = "0.1.0"
