"""Fractal zeta functions, complex dimensions, and tube formulas.

Computes distance and tube zeta functions of compact subsets of R^N,
extracts their complex dimensions (poles) and residues, evaluates fractal
tube formulas as truncated residue sums, and renders Minkowski
measurability verdicts, all cross-validated against independent geometric
tube-volume oracles.
"""

from .errors import (
    BoundaryPole,
    ContourContaminated,
    DeltaTooSmall,
    DimensionCollision,
    FractalZetaError,
    InsufficientSamples,
    NearPole,
    NoClosedForm,
    NonIsolable,
    NonpositiveContent,
    NotAPole,
    PoleOnLine,
    QuadratureNonconvergent,
    ResolutionTooCoarse,
    VarianceOverflow,
)
from .geometry import (
    CantorLike,
    CompactSet,
    FractalStringBoundary,
    PointCloud,
    PointSet,
    SierpinskiCarpet3D,
    SierpinskiGasket,
    TubeMethod,
    TubeSample,
    distances_to_set,
    sample_tube_curve,
    set_from_json,
    set_to_json,
    tube_volume,
    tube_volumes,
)
from .zeta import (
    ClosedFormZeta,
    ElementaryTerm,
    LatticeTerm,
    NumericZetaConfig,
    ZetaEstimate,
    catalog_zeta,
    closed_form_eval,
    default_delta,
    distance_zeta_numeric,
    functional_equation_residual,
    tube_zeta_numeric,
)
from .dimensions import (
    LanguidityEstimate,
    Pole,
    Window,
    conjugate_closed,
    find_poles_argument_principle,
    languidity_probe,
    lattice_poles,
    residue_contour,
)
from .tube import (
    MeasurabilityVerdict,
    TubeComparison,
    TubeFormulaSeries,
    Verdict,
    box_dimension_fit,
    compare_tube_formula,
    content_bounds_estimate,
    measurability_criterion,
    minkowski_content_from_residue,
    series_from_zeta,
    truncation_tail_bound,
    tube_formula_truncated,
    tube_term,
)

__version__ = "0.1.0"
