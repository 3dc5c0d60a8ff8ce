import copy
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cracktip import (
    CrackSpec, Family, build_eigenfunction, check_linear, combine, evaluate_expansion, nodal_set,
)
from cracktip.pencil import Polynomial, _lattice, _over_pi
from oracles import (
    _polyder, combination_exact, combine_coeffs, lattice_exact, pencil_ode_residual_exact,
    pencil_pair_exact, sign_at, slope_at, value_at,
)

F = Fraction

# classical low-degree eigenfunctions after monic rescaling, exact
LOW_DEGREE_TABLE = [
    # (degree, family, lambda, monic coefficients ascending)
    (0, Family.FIRST, 0, [F(1)]),
    (1, Family.FIRST, -1, [F(0), F(1)]),
    (0, Family.SECOND, -1, [F(1)]),
    (2, Family.FIRST, -2, [F(-1), F(0), F(1)]),
    (1, Family.SECOND, -2, [F(0), F(1)]),
    (3, Family.FIRST, -3, [F(0), F(-3), F(0), F(1)]),
    (2, Family.SECOND, -3, [F(-1, 3), F(0), F(1)]),  # 3 z^2 - 1 rescaled
    (4, Family.FIRST, -4, [F(1), F(0), F(-6), F(0), F(1)]),
    (3, Family.SECOND, -4, [F(0), F(-1), F(0), F(1)]),
]


@pytest.mark.parametrize("degree,family,lam,coeffs", LOW_DEGREE_TABLE)
def test_low_degree_table_exact(degree, family, lam, coeffs):
    pair = build_eigenfunction(degree, family)
    assert pair.lam == lam
    assert pair.poly.exact is not None
    assert list(pair.poly.exact) == coeffs


@pytest.mark.parametrize("degree", [1, 7, 64, 65, 100, 199])
def test_exact_table_at_every_degree(degree):
    # Re (z+i)^d and Im (z+i)^(d+1) / (d+1), expanded independently
    re, _ = pencil_pair_exact(degree)
    _, im = pencil_pair_exact(degree + 1)
    first = build_eigenfunction(degree, Family.FIRST).poly
    second = build_eigenfunction(degree, Family.SECOND).poly
    assert list(first.exact) == re
    assert list(second.exact) + [0] == im
    assert first.coeffs == tuple(float(c) for c in re)
    assert second.coeffs == tuple(float(c) for c in im[:-1])


# the first degree whose largest binomial coefficient passes the largest double
OVERFLOW_DEGREE = {Family.FIRST: 1030, Family.SECOND: 1039}


@pytest.mark.parametrize("family", [Family.FIRST, Family.SECOND])
def test_coefficients_are_the_exact_ones_rounded_once(family):
    # every degree below the overflow, bit for bit
    for degree in range(OVERFLOW_DEGREE[family]):
        poly = build_eigenfunction(degree, family).poly
        got, want = [c.hex() for c in poly.coeffs], [float(q).hex() for q in poly.exact]
        assert got == want, degree


@pytest.mark.parametrize("family", [Family.FIRST, Family.SECOND])
def test_coefficients_past_the_double_range_raise_only_when_read(family):
    degree = OVERFLOW_DEGREE[family]
    poly = build_eigenfunction(degree, family).poly
    assert poly.degree == degree and poly.lattice[0] == degree + (family is Family.SECOND)
    with pytest.raises(OverflowError):
        poly.coeffs
    assert len(poly.exact) == degree + 1  # the rationals are exact at any degree
    with pytest.raises(OverflowError):
        combine(1.0, 0.5, 1030).coeffs
    assert build_eigenfunction(1100, Family.FIRST).degree == 1100
    assert build_eigenfunction(1100, Family.FIRST).poly.degree == 1100
    assert combine(1.0, 0.5, 1030).degree == 1030 and combine(0.0, 1.0, 1100).degree == 1099
    # a combination that is one seed forms that seed's coefficients
    assert combine(0.0, 1.0, 1038).coeffs == build_eigenfunction(1037, Family.SECOND).poly.coeffs


PAST_THE_DOUBLE_RANGE = pytest.mark.parametrize(
    "make", [lambda: build_eigenfunction(1100, Family.FIRST).poly,
             lambda: build_eigenfunction(1100, Family.SECOND).poly,
             lambda: combine(1.0, 0.5, 1100),
             lambda: build_eigenfunction(3000, Family.SECOND).poly,
             lambda: combine(1.0, 0.5, 3000)],
    ids=["first", "second", "combine", "second_3000", "combine_3000"])


@PAST_THE_DOUBLE_RANGE
def test_copy_and_pickle_past_the_double_range(make):
    # a polynomial whose coefficients are not formed is rebuilt from its
    # lattice, so it copies and pickles at any l
    poly = make()
    for again in (copy.copy(poly), copy.deepcopy(poly), pickle.loads(pickle.dumps(poly))):
        assert type(again) is Polynomial and again.lattice == poly.lattice
        assert again.degree == poly.degree
        assert nodal_set(again).zeros == nodal_set(poly).zeros
        assert again(0.25) == poly(0.25)
        with pytest.raises(OverflowError):
            again.coeffs
        assert (again.exact is None) is (poly.exact is None)


@PAST_THE_DOUBLE_RANGE
def test_repr_past_the_double_range_shows_the_lattice(make):
    # repr, str, equality, the hash and _asdict() see the lattice alone, so
    # none of them forms a coefficient or raises at any l
    poly = make()
    again = Polynomial(poly.lattice)
    assert repr(poly) == str(poly) == f"Polynomial(lattice={poly.lattice!r})"
    assert poly == again and hash(poly) == hash(again)
    assert poly != combine(1.0, 0.25, poly.lattice[0])
    assert poly._asdict() == {"lattice": poly.lattice}
    with pytest.raises(OverflowError):
        poly.coeffs


def test_repr_within_the_double_range_shows_every_field():
    # the lattice is the one field; formed coefficients do not show
    poly = combine(1.0, 0.5, 3)
    assert poly.coeffs == (-0.16666666666666666, -3.0, 0.5, 1.0)
    assert repr(poly) == "Polynomial(lattice=(3, 1.0, 0.5))"
    assert repr(build_eigenfunction(2, Family.FIRST).poly) == "Polynomial(lattice=(2, 1.0, 0.0))"


@pytest.mark.parametrize("l", [1, 2, 7, 64])
def test_a_seed_lattice_carries_the_seed_rationals(l):
    # the rationals belong to the lattice, however it was made
    first, second = (build_eigenfunction(l, Family.FIRST).poly,
                     build_eigenfunction(l - 1, Family.SECOND).poly)
    assert combine(1.0, 0.0, l).exact == first.exact and first.exact is not None
    assert combine(0.0, 1.0, l).exact == second.exact and second.exact is not None
    assert combine(1.0, 0.5, l).exact is None and combine(2.0, 0.0, l).exact is None


def test_low_degree_lattices_that_are_one_polynomial():
    # two lattices are one polynomial only at degree 1 or less: c z, and
    # the constant c (at l = 0 whatever d is)
    for a, b in (((2, 0.0, 3.0), (1, 3.0, 0.0)), ((1, 0.0, 3.0), (0, 3.0, 0.0)),
                 ((0, 3.0, 0.0), (0, 3.0, 5.0))):
        p, q = Polynomial(a), Polynomial(b)
        assert p.coeffs == q.coeffs and p.degree == q.degree and p(0.5) == q(0.5)
        assert p != q


def _any_weight():
    return st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                     st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=100, deadline=None)
@given(l=st.integers(1, 300), c=_any_weight(), d=_any_weight())
@example(l=1029, c=1.0, d=0.5)  # the last index whose first seed is in range
@example(l=3, c=1e308, d=-1e308)  # products past the double range, inf and nan
def test_combine_coefficients_are_the_weighted_rounded_seeds(l, c, d):
    assume(c != 0.0 or d != 0.0)
    got = [v.hex() for v in combine(c, d, l).coeffs]
    assert got == [v.hex() for v in combine_coeffs(c, d, l)]


@pytest.mark.parametrize("family", [Family.FIRST, Family.SECOND])
@pytest.mark.parametrize("degree", list(range(0, 31, 3)))
def test_parity_structure(degree, family):
    pair = build_eigenfunction(degree, family)
    for k, c in enumerate(pair.poly.coeffs):
        if (k - degree) % 2 != 0:
            assert c == 0.0
    assert pair.poly.coeffs[-1] == 1.0  # monic


@pytest.mark.parametrize("family", [Family.FIRST, Family.SECOND])
@pytest.mark.parametrize("degree", list(range(0, 61)))
def test_ode_residual_bound(degree, family):
    # the residual of the exact coefficients is the zero polynomial
    pair = build_eigenfunction(degree, family)
    assert not any(pencil_ode_residual_exact(pair.poly.exact[::-1], F(pair.lam)))


@pytest.mark.parametrize("family", [Family.FIRST, Family.SECOND])
@pytest.mark.parametrize("degree", list(range(1, 25)))
def test_zero_count_and_transversality(degree, family):
    pair = build_eigenfunction(degree, family)
    ns = nodal_set(pair.poly)
    assert len(ns) == degree
    assert all(m > 1e-8 for m in ns.derivative_magnitudes)
    assert ns.all_transversal


def test_residual_examples():
    for degree, z in ((2, 5.0), (4, -3.0)):
        pair = build_eigenfunction(degree, Family.FIRST)
        assert value_at(pencil_ode_residual_exact(pair.poly.exact[::-1], F(pair.lam)), z) == 0
    # z^2 - 1 paired with the wrong eigenvalue: residual is exactly
    # (1+z^2) * 2 at z = 1 since both first-order terms vanish
    wrong = pencil_ode_residual_exact([F(1), F(0), F(-1)], F(-1))
    assert wrong == [2, 0, 2]
    assert value_at(wrong, 1.0) == 4


def test_nodal_set_examples():
    ns = nodal_set(build_eigenfunction(2, Family.FIRST).poly)
    assert ns.zeros == pytest.approx((-1.0, 1.0), abs=1e-12)
    assert ns.all_transversal
    ns = nodal_set(build_eigenfunction(3, Family.FIRST).poly)
    r3 = math.sqrt(3.0)
    assert ns.zeros == pytest.approx((-r3, 0.0, r3), abs=1e-12)
    ns = nodal_set(build_eigenfunction(0, Family.FIRST).poly)
    assert len(ns) == 0


def test_combine_examples():
    assert combine(1.0, 0.0, 2).coeffs == (-1.0, 0.0, 1.0)
    assert combine(0.0, 1.0, 2).coeffs == (0.0, 1.0)
    assert combine(1.0, 1.0, 2).coeffs == (-1.0, 1.0, 1.0)  # z^2 + z - 1
    with pytest.raises(ValueError):
        combine(0.0, 0.0, 2)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            combine(bad, 1.0, 3)
        with pytest.raises(ValueError):
            combine(1.0, bad, 3)
    for l in (0, True, False):  # a bool is no index
        with pytest.raises(ValueError, match="l must be an int >= 1"):
            combine(1.0, 0.5, l)
    with pytest.raises(ValueError, match="lattice's l must be an int >= 0, got True"):
        Polynomial((True, 1.0, 0.0))
    with pytest.raises(ValueError, match="degree must be an int >= 0"):
        build_eigenfunction(-1, Family.SECOND)


@pytest.mark.parametrize(
    "degree", [2.0, np.int64(3), True, False], ids=["2.0", "int64", "True", "False"]
)
def test_degree_must_be_an_int_whatever_was_built_before(degree):
    # a float, numpy or bool degree is rejected even once the int degree's
    # record exists, so the answer does not depend on what the process asked before
    assert build_eigenfunction(int(degree), Family.FIRST).degree == int(degree)
    for family in Family:
        with pytest.raises(ValueError, match="degree must be an int >= 0"):
            build_eigenfunction(degree, family)


def test_derivative_past_the_double_range_overflows():
    # l c or (l - 1) d past the largest double raises OverflowError, as
    # coeffs and a call do, not the lattice check's ValueError
    for poly in (combine(1e308, 1.0, 3), combine(1.0, 1e308, 3), combine(-1e308, 1e308, 2)):
        with pytest.raises(OverflowError, match="past the double range"):
            poly.derivative()
    assert combine(1e308, 1e308, 1).derivative().lattice == (0, 1e308, 0.0)


@pytest.mark.parametrize("scale", [3.0, -0.25, 1e6])
def test_combine_zero_set_scale_invariant(scale):
    base = nodal_set(combine(0.7, -1.3, 4))
    scaled = nodal_set(combine(scale * 0.7, scale * -1.3, 4))
    assert scaled.zeros == pytest.approx(base.zeros, abs=1e-9)


def _weights(smallest):
    """A combination weight: zero, or of either sign with magnitude in
    [smallest, 1e3]."""
    mag = st.floats(min_value=smallest, max_value=1e3)
    return st.one_of(st.just(0.0), mag, mag.map(lambda v: -v))


@settings(max_examples=200, deadline=None)
@given(l=st.integers(2, 300), c=_weights(1e-3), d=_weights(1e-3),
       dl=st.sampled_from([-1, 0, 1]), c2=st.sampled_from(["c", "d", "zero", "other"]),
       d2=st.sampled_from(["c", "d", "zero", "other"]), other=_weights(1e-3))
def test_polynomials_are_equal_exactly_when_their_coefficients_are(l, c, d, dl, c2, d2, other):
    # from l = 2 on, within the double range, a lattice is determined by
    # its coefficients; the second lattice reuses the first one's index and
    # weights, so that near-coincidences such as (l, c, 0) against
    # (l + 1, 0, c) are drawn
    pick = {"c": c, "d": d, "zero": 0.0, "other": other}
    assume((c or d) and (pick[c2] or pick[d2]))
    p = Polynomial((l, c, d))
    q = Polynomial((max(l + dl, 2), pick[c2], pick[d2]))
    assert (p == q) is (p.coeffs == q.coeffs)
    if p == q:
        assert hash(p) == hash(q)


@settings(max_examples=100, deadline=None)
@given(l=st.integers(1, 1000), c=_weights(1e-3), d=_weights(1e-3),
       scale=st.floats(1e-3, 1e3), sign=st.sampled_from([1.0, -1.0]))
def test_nodal_set_is_the_whole_lattice(l, c, d, scale, sign):
    assume(c != 0.0 or d != 0.0)
    ns = nodal_set(combine(c, d, l))
    assert len(ns) == (l if c != 0.0 else l - 1)
    assert all(a < b for a, b in zip(ns.zeros, ns.zeros[1:]))
    assert all(m > 0.0 for m in ns.derivative_magnitudes)
    assert ns.all_transversal
    # (c, d) and (s c, s d) are one combination up to scale; each side
    # rounds s c and s d, so the zeros agree to a few ulp
    scaled = nodal_set(combine(sign * scale * c, sign * scale * d, l)).zeros
    assert len(scaled) == len(ns)
    for a, b in zip(ns.zeros, scaled):
        assert abs(a - b) <= 16 * math.ulp(a)


@settings(max_examples=100, deadline=None)
@given(l=st.integers(1, 40), c=_weights(1e-9), d=_weights(1e-9))
def test_nodal_set_brackets_exact_sign_changes(l, c, d):
    # each zero is within 4 ulp of a sign change of the exact combination,
    # |d / c| and |c / d| down to 1e-12 included; the brackets are disjoint
    # and there are as many as the degree allows, so no zero is missed
    assume(c != 0.0 or d != 0.0)
    exact = combination_exact(l, c, d)
    ns = nodal_set(combine(c, d, l))
    brackets = [(z - 4 * math.ulp(z), z + 4 * math.ulp(z)) for z in ns.zeros]
    assert len(brackets) == (l if c != 0.0 else l - 1)
    assert all(hi < lo for (_, hi), (lo, _) in zip(brackets, brackets[1:]))
    for (lo, hi), z, m in zip(brackets, ns.zeros, ns.derivative_magnitudes):
        assert sign_at(exact, lo) * sign_at(exact, hi) <= 0
        assert m == pytest.approx(slope_at(exact, z), rel=1e-12)


def _phases():
    """Lattice phases p in [-1/2, 1/2]: floats, with 0, the quarters, the
    ends and subnormals among them, and the rationals x / pi that
    ``nodal_set`` forms with ``_over_pi``."""
    return st.one_of(
        st.sampled_from([0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 5e-324, -5e-324, 2.0 ** -1022]),
        st.floats(-0.5, 0.5),
        st.floats(-math.pi / 2, math.pi / 2).map(_over_pi),
    )


def _hex_pairs(pairs):
    """float.hex of each (cot, |sin|) pair."""
    return [(a.hex(), b.hex()) for a, b in pairs]


@settings(max_examples=400, deadline=None)
@given(l=st.integers(1, 300), p=_phases())
# an end angle rounds to 0, and its cotangent is -inf or inf: these once
# raised ZeroDivisionError, the last two in nodal_set(combine(+-5e-324, 3.0, 3))
@example(l=7, p=5e-324)
@example(l=7, p=-5e-324)
@example(l=3, p=_over_pi(-5e-324))
@example(l=3, p=_over_pi(5e-324))
def test_lattice_rounds_each_exact_angle_once(l, p):
    # the offset from the nearer half-integer, exact for a rational phase
    # and, for a float, as check_linear forms it: exact wherever it is used
    q = p - type(p)(math.copysign(0.5, p))
    assert _hex_pairs(_lattice(l, p, q)) == _hex_pairs(lattice_exact(l, p))


@pytest.mark.parametrize("c, end", [(5e-324, 0), (-5e-324, -1)])
def test_nodal_set_where_an_end_angle_rounds_to_zero(c, end):
    # the zero near the end angle pi (c > 0) or 0 (c < 0) is past the double
    # range, as combine(5e-324, 1.0, 50)'s is, with |poly'| = inf there; the
    # others are the second family's.  It once raised ZeroDivisionError
    ns = nodal_set(combine(c, 3.0, 3))
    zeros, dmags = list(ns.zeros), list(ns.derivative_magnitudes)
    assert zeros.pop(end) == -math.copysign(math.inf, c) and dmags.pop(end) == math.inf
    inner = nodal_set(combine(0.0, 3.0, 3))
    assert (tuple(zeros), tuple(dmags)) == (inner.zeros, inner.derivative_magnitudes)


@pytest.mark.parametrize("l", [90, 120, 150])
def test_nodal_set_at_high_degree_returns_every_zero(l):
    # degrees at which generic polynomial root finding loses real zeros
    for c, d in ((1.0, 0.3), (0.0, 1.0)):
        exact = combination_exact(l, c, d)
        zeros = nodal_set(combine(c, d, l)).zeros
        assert len(zeros) == (l if c else l - 1)
        for z in zeros:
            assert sign_at(exact, z - 4 * math.ulp(z)) * sign_at(exact, z + 4 * math.ulp(z)) <= 0


@pytest.mark.parametrize("l", [1100, 3000])
def test_nodal_set_past_the_coefficient_range(l):
    # from l = 1030 the coefficients pass the largest double; the nodal set
    # reads the lattice alone, and the linear check accepts it at that l
    zeros = nodal_set(combine(1.0, 0.5, l)).zeros
    assert len(zeros) == l
    report = check_linear(CrackSpec(zeros), l_max=l)
    assert report.admissible and report.decay_exponent == l


def test_nodal_set_needs_a_lattice():
    # every Polynomial is a lattice: coefficients alone make none, and a
    # derivative is a pencil function with a nodal set of its own
    with pytest.raises(ValueError, match="lattice"):
        nodal_set(Polynomial((1.0, 2.0, 3.0)))
    ns = nodal_set(build_eigenfunction(4, Family.FIRST).poly.derivative())  # 4 z^3 - 12 z
    r3 = math.sqrt(3.0)
    assert ns.zeros == pytest.approx((-r3, 0.0, r3), abs=1e-12)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_nodal_set_rejects_a_tol_that_is_not_positive(tol):
    # a nan tol would mark every zero non-transversal, a negative one every
    # zero transversal
    with pytest.raises(ValueError, match="tol must be positive"):
        nodal_set(combine(1.0, 0.5, 3), tol)


# A complex power w**l in floats is within about 5 l eps |w|**l of the
# exact one: l eps from the modulus (a power of hypot, or exp of l log|w|)
# and l pi eps from the angle.  The weights add at most sqrt 2 of
# hypot(c, d / l), and K doubles the product for margin.  A relative bound
# cannot be met near a zero.
EVAL_K = 16


def _evaluation_bound(l, c, d, modulus):
    """K l eps modulus**l hypot(c, d / l), with l read as 1 at l = 0.  Below
    the normal range a float is a multiple of eps * float_info.min, so there
    modulus**l is read as float_info.min, and one more such unit is added
    for rounding the weighted sum."""
    l, tiny = max(l, 1), sys.float_info.min
    size = max(modulus ** l, tiny) * math.hypot(c, d / l) + tiny
    return EVAL_K * l * sys.float_info.epsilon * size


@settings(max_examples=100, deadline=None)
@given(l=st.integers(0, 300), kind=st.sampled_from(["first", "second", "combine"]),
       c=_weights(1e-3), d=_weights(1e-3), z=st.floats(-10.0, 10.0))
@example(l=60, kind="first", c=0.0, d=0.0, z=1.0)  # Horner's rule is off by 1e-7 relative
def test_lattice_evaluation_matches_the_exact_coefficients(l, kind, c, d, z):
    assume(l >= 1 or kind == "first")
    if kind == "combine":
        assume(c != 0.0 or d != 0.0)
        poly, exact = combine(c, d, l), combination_exact(l, c, d)
    else:
        poly = build_eigenfunction(l if kind == "first" else l - 1, Family(kind)).poly
        exact = poly.exact[::-1]
    zs = np.array([z, -z, z / 3.0])
    for x, value in [(z, poly(z)), *zip(zs, poly(zs))]:
        bound = _evaluation_bound(*poly.lattice, abs(complex(x, 1.0)))
        assert abs(F(float(value)) - value_at(exact, x)) <= bound, (x, value)


@pytest.mark.filterwarnings("ignore:.* encountered in:RuntimeWarning")  # numpy's, for an array
@pytest.mark.parametrize("l,z", [(20, 1e30), (20, -1e30), (700, 3.0), (20, np.array([1e30, 1.0])),
                                 (700, np.array([1.0, 3.0]))])
def test_lattice_evaluation_past_the_double_range_raises(l, z):
    # (1e30 + 1j)**20 is nan + nan j without an error; (3 + 1j)**700 raises
    # for a scalar, and is inf - inf j in an array
    for poly in (build_eigenfunction(l, Family.FIRST).poly,
                 build_eigenfunction(l - 1, Family.SECOND).poly, combine(1.0, 0.5, l)):
        with pytest.raises(OverflowError):
            poly(z)


def _exact(poly):
    """Descending exact coefficients of a polynomial's lattice."""
    l, c, d = poly.lattice
    return combination_exact(l, c, d) if l else [F(c)]


@settings(max_examples=50, deadline=None)
@given(l=st.integers(0, 40), kind=st.sampled_from(["first", "second", "combine"]),
       c=_weights(1e-3), d=_weights(1e-3), z=st.floats(-3.0, 3.0))
@example(l=1, kind="second", c=0.0, d=0.0, z=1.0)  # the constant 1
def test_derivative_is_the_coefficient_derivative(l, kind, c, d, z):
    # each derivative down to the zero polynomial is the pencil function
    # whose degree and coefficients are those of k c_k, to rounding, and
    # whose value is the exact derivative's; the first one's zeros are
    # sign changes of its exact polynomial
    assume(l >= 1 or kind == "first")
    if kind == "combine":
        assume(c != 0.0 or d != 0.0)
        poly = combine(c, d, l)
    else:
        poly = build_eigenfunction(l if kind == "first" else l - 1, Family(kind)).poly
    for step in range(poly.degree + 2):
        der = poly.derivative()
        want = [k * v for k, v in enumerate(poly.coeffs)][1:] or [0.0]
        assert der.degree == len(der.coeffs) - 1 == len(want) - 1
        assert der.coeffs == pytest.approx(want, rel=1e-14, abs=0.0)
        bound = _evaluation_bound(*der.lattice, abs(complex(z, 1.0)))
        assert abs(F(der(z)) - value_at(_polyder(_exact(poly)) or [F(0)], z)) <= bound
        zeros = nodal_set(der).zeros
        assert len(zeros) == der.degree
        for x in zeros if step == 0 else ():
            exact = _exact(der)
            assert sign_at(exact, x - 4 * math.ulp(x)) * sign_at(exact, x + 4 * math.ulp(x)) <= 0
        poly = der
    assert poly.lattice == (0, 0.0, 0.0) and poly.coeffs == (0.0,) and poly.degree == 0


def test_expansion_single_terms():
    assert evaluate_expansion([(1, 1.0, 0.0)], 2.0, 0.0) == pytest.approx(2.0, abs=1e-15)
    assert evaluate_expansion([(2, 1.0, 0.0)], 1.0, 3.7) == pytest.approx(0.0, abs=1e-15)


def test_expansion_additivity():
    rng = np.random.default_rng(421)
    for _ in range(20):
        z = float(rng.uniform(-3, 3))
        tau = float(rng.uniform(0, 2))
        t1 = (int(rng.integers(1, 6)), float(rng.normal()), float(rng.normal()))
        t2 = (int(rng.integers(1, 6)), float(rng.normal()), float(rng.normal()))
        joint = evaluate_expansion([t1, t2], z, tau)
        split = evaluate_expansion([t1], z, tau) + evaluate_expansion([t2], z, tau)
        assert joint == pytest.approx(split, rel=1e-12, abs=1e-12)


def test_expansion_rejects_bad_index():
    with pytest.raises(ValueError):
        evaluate_expansion([(0, 1.0, 0.0)], 0.0, 0.0)


@pytest.mark.parametrize("k", [2.5, 2.0, True, False])
def test_expansion_index_must_be_an_int(k):
    # a float or bool index is no lattice, 2.0 included: it raises, where 2.5
    # once summed a non-polynomial term
    with pytest.raises(ValueError, match="k must be an int >= 1"):
        evaluate_expansion([(1, 1.0, 0.0), (k, 1.0, 0.0)], 0.3, 0.0)


@settings(max_examples=50, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(1, 300), _weights(1e-3), _weights(1e-3)),
                      min_size=1, max_size=3),
       z=st.floats(-10.0, 10.0), tau=st.floats(0.0, 5.0))
@example(terms=[(80, 1.0, 0.5)], z=0.7, tau=0.1)  # 479.2222 by Horner's rule, 479.2355 exactly
def test_expansion_matches_the_exact_coefficients(terms, z, tau):
    # exact at the rounded exp(-tau), whose own error is within the bound
    e = math.exp(-tau)
    exact = sum(value_at(combination_exact(k, c, d), z) * F(e) ** k for k, c, d in terms)
    bound = sum(_evaluation_bound(k, c, d, abs(complex(z, 1.0)) * e) for k, c, d in terms)
    assert abs(F(evaluate_expansion(terms, z, tau)) - exact) <= bound
