"""Compressive-sensing recovery toolkit for hyperspectral image cubes.

Pipeline: sparsify each pixel's spectrum in the inverse-DFT domain, keep a
seeded random subset of the spectral samples, then recover every pixel with
one of five sparse solvers (fista, admm, gomp, biht, cosamp) and score the
result against the sparsified cube.
"""

import inspect as _inspect

from .cube import (
    CubeFormatError,
    HsiCube,
    extract_pixel,
    generate_synthetic_cube,
    load_cube,
    save_cube,
)
from .kernels import argmax_k, gram_least_squares, least_squares, residual_delta, soft_threshold
from .metrics import (
    SummaryRow,
    UndefinedMetricError,
    export_false_color,
    psnr,
    read_report,
    write_report,
)
from .solvers import (
    CONVEX_SOLVERS,
    GREEDY_SOLVERS,
    SOLVERS,
    NumericalFailure,
    RecoveryStats,
    SolverConfig,
    SolverResult,
    admm,
    biht,
    cosamp,
    fista,
    gomp,
    lasso_objective,
    recover_cube,
    stop_check,
)
from .transform import (
    Dictionary,
    SelectionMask,
    SparsifyStats,
    build_dft_basis,
    build_dictionary,
    build_selection_mask,
    from_sparse_domain,
    lipschitz_constant,
    load_mask,
    measure,
    save_mask,
    sparsify,
    to_sparse_domain,
)

__version__ = "0.1.0"

# the public API is every name imported above
__all__ = sorted(
    name for name, value in vars().items() if not (name.startswith("_") or _inspect.ismodule(value))
)
