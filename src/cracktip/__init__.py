"""Crack-tip pencil spectra for the Laplace and p-Laplace equations.

The library builds the polynomial eigenfunctions of the quadratic tip
pencil, the quartic characteristic polynomial of the quasilinear
eigenvalue problem, eigenvalue branches in the medium exponent with their
saddle-node folds, first-order branching data, direct ODE shooting, and
the admissibility classification of straight-line crack configurations.

``import cracktip`` loads none of its modules: each public name below is
loaded with the module that defines it on first access (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it defines
_MODULES = {
    "_record": "NodalSet",
    "characteristic": "CharacteristicQuartic LimitQuartic build_quartic limit_polynomial real_roots",
    "continuation": "Branch BranchFamily FoldPoint continue_branch double_root_l1 find_fold",
    "crack": "AdmissibilityReport CrackMatch CrackSpec check_linear check_nonlinear "
             "roundtrip_generate",
    "errors": "NoFoldInBracketError NoRealEigenvalueError NumericsError "
              "QuasilinearDegeneracyError RootFindingError",
    "pencil": "Family PencilEigenpair Polynomial build_eigenfunction combine "
              "evaluate_expansion nodal_set",
    "perturbation": "CorrectionSolution QuadratureDiagnostics mu_via_ift mu_via_quadrature "
                    "solve_correction",
    "shooting": "Profile ShootingSolution isolate_second_derivative shoot two_sided_profile",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    """Import the module that defines ``name`` and keep the name here."""
    if name in _MODULES:  # a module not yet imported, as ``cracktip.pencil``
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})
