"""Crack-tip pencil spectra for the Laplace and p-Laplace equations.

The library builds the polynomial eigenfunctions of the quadratic tip
pencil, the quartic characteristic polynomial of the quasilinear
eigenvalue problem, eigenvalue branches in the medium exponent with their
saddle-node folds, first-order branching data, direct ODE shooting, and
the admissibility classification of straight-line crack configurations.
"""

__version__ = "0.1.0"

from .characteristic import (
    CharacteristicQuartic,
    LimitQuartic,
    build_quartic,
    limit_polynomial,
    real_roots,
    residual_consistency,
)
from .continuation import (
    Branch,
    BranchFamily,
    FoldPoint,
    continue_branch,
    double_root_l1,
    find_fold,
)
from .crack import (
    AdmissibilityReport,
    CrackMatch,
    CrackSpec,
    check_linear,
    check_nonlinear,
    roundtrip_generate,
)
from .errors import (
    NoFoldInBracketError,
    NoRealEigenvalueError,
    NumericsError,
    QuasilinearDegeneracyError,
    RootFindingError,
)
from .pencil import (
    Family,
    NodalSet,
    PencilEigenpair,
    Polynomial,
    SturmLiouvilleImage,
    blowup_coordinates,
    build_eigenfunction,
    combine,
    evaluate_expansion,
    nodal_set,
    pencil_eigenvalues,
    pencil_residual,
    sturm_liouville_map,
)
from .perturbation import (
    CorrectionSolution,
    QuadratureDiagnostics,
    mu_via_ift,
    mu_via_quadrature,
    solve_correction,
    source_h,
)
from .shooting import (
    Profile,
    ShootingSolution,
    closed_form_lambda0_derivative,
    isolate_second_derivative,
    shoot,
    two_sided_profile,
)
