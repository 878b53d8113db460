"""Exact lattice-polygon toolkit for section multiplication on toric surfaces."""

from .errors import (
    BudgetExceededError,
    CoordinateOverflowError,
    DecompositionRangeError,
    DuplicateRayError,
    EmptyInputError,
    FanSizeError,
    FanValidationError,
    NoIntegerInIntervalError,
    NonCompleteFanError,
    NonPrimitiveRayError,
    NonSmoothFanError,
    ParseError,
    PreconditionError,
    SamplingBudgetError,
    TheoremViolationError,
    ToricError,
    UnboundedRegionError,
)
from .lattice import (
    ConvexLatticePolygon,
    HalfPlane,
    LatticeVector,
    PolygonDim,
    RationalPoint,
    decompose_interval,
    face_in_direction,
    hull,
    intersect_halfplanes,
    lattice_point_count,
    lattice_points,
    minkowski_sum,
    pick_count,
)
from .surface import (
    Fan,
    PositivityClass,
    TorusDivisor,
    blowup,
    classify,
    generate_family,
    h0,
    hirzebruch,
    polygon_of,
    product_p1_p1,
    projective_plane,
    random_divisor,
    validate_fan,
)
from .reduction import (
    ReductionResult,
    SweepResult,
    edge_lattice_report,
    reduce_to_globally_generated,
    sweep_cokernel,
)
from .multiplication import (
    CokernelReport,
    DecompositionPath,
    DecompositionWitness,
    SurjectivityReport,
    TriangleReduction,
    check_surjectivity,
    cokernel_dim,
    decompose_bruteforce,
    decompose_homothetic_triangles,
    decompose_structured,
    triangle_reduce,
)
from .serialization import (
    CSV_HEADER,
    ResultRow,
    load_divisor,
    load_fan,
    sweep_rows,
    write_csv,
    write_divisor,
    write_fan,
)
from .svg import emit_svg
from .cli import run_cli

__all__ = [name for name in dir() if not name.startswith("_")]
