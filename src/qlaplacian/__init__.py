"""Spectra of q-deformed Laplacians on compact quantum groups.

Exact root-system arithmetic, weight multiplicities, eigenvalue formulas
for the q-deformed and classical invariant Laplacians, the classification
index of finite-dimensional bicovariant (*-)differential calculi, and the
diagonal heat semigroup, with a reporting CLI (`qlap`).
"""

from .cartan import (
    CenterElement,
    CenterGroup,
    RootSystem,
    SimpleType,
    Weight,
    build_root_system,
    center_group,
    center_negate,
    center_reduce,
    coweight_pairing,
    enumerate_dominant,
    inner_product,
    is_half_coroot,
    minus_w0,
    norm_squared,
    parse_type_label,
)
from .errors import InvariantError, LabelError, ResourceCapError, UsageError
from .fodc import (
    FunctionalReport,
    admits_star_structure,
    enumerate_fodc_indices,
    fodc_dimension,
    induced_class,
    validate_functional,
)
from .heat import (
    MarkovVerdict,
    heat_coefficient,
    heat_trace_report,
    markov_verdict,
)
from .spectra import (
    GeneralFunctionalSpec,
    LaplacianSpec,
    SpectrumRow,
    casimir_eigenvalue,
    classical_laplacian_eigenvalue,
    general_functional_eigenvalue,
    lower_bound,
    q_laplacian_eigenvalue,
    qms_witness,
    spectrum_scan,
)
from .weights import WeightSystem, dim_irrep, weight_system

__version__ = "0.1.0"
