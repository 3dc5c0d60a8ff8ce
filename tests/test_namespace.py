"""The package's public names.

``import cracktip`` loads none of its modules; each name below is loaded
with the module that defines it on first access.  ``from cracktip import
X``, ``cracktip.X``, ``dir(cracktip)`` and ``from cracktip import *``
see the same names as when they were imported eagerly.
"""

import sys

import pytest

import cracktip

PUBLIC = [
    "AdmissibilityReport", "Branch", "BranchFamily", "CharacteristicQuartic",
    "CorrectionSolution", "CrackMatch", "CrackSpec", "Family", "FoldPoint",
    "LimitQuartic", "NoFoldInBracketError", "NoRealEigenvalueError", "NodalSet",
    "NumericsError", "PencilEigenpair", "Polynomial", "Profile", "QuadratureDiagnostics",
    "QuasilinearDegeneracyError", "RootFindingError", "ShootingSolution",
    "build_eigenfunction", "build_quartic", "check_linear", "check_nonlinear", "combine",
    "continue_branch", "double_root_l1", "evaluate_expansion", "find_fold",
    "isolate_second_derivative", "limit_polynomial", "mu_via_ift", "mu_via_quadrature",
    "nodal_set", "real_roots", "roundtrip_generate", "shoot", "solve_correction",
    "two_sided_profile",
]


def test_all_lists_the_public_names():
    assert len(PUBLIC) == 40
    assert sorted(cracktip.__all__) == PUBLIC
    assert set(PUBLIC) <= set(dir(cracktip))


def test_each_name_is_its_defining_modules_object():
    for name in PUBLIC:
        obj = getattr(cracktip, name)
        assert obj.__module__.startswith("cracktip."), name
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert getattr(cracktip, name) is obj, name


def test_star_import_binds_the_public_names():
    namespace = {}
    exec("from cracktip import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC


def test_modules_stay_attributes_of_the_package():
    assert cracktip.pencil is sys.modules["cracktip.pencil"]
    assert {"pencil", "crack", "shooting"} <= set(dir(cracktip))


def test_unknown_name_raises_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'cracktip' has no attribute 'no_such_name'"):
        cracktip.no_such_name
    with pytest.raises(ImportError, match="cracktip"):
        from cracktip import no_such_name  # noqa: F401
