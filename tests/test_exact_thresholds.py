"""Exact thresholds against the Fraction scans in tests/oracles.py.

find_good_shifts, shift_range and the two rational good-set scans
compare integer counts, values and residues with one integer limit per
call; the oracles build one Fraction per shift, per n or per entry.  A
dyadic eps (0.5, 0.25, 0.125) makes ties exact, and a count, value or
distance on the limit must fall on the strict side.
"""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrec import lattice_dioph
from polyrec.intset import IntegerSet
from polyrec.lattice_dioph import (BlockVector, approx_good_set_family,
                                   approx_good_set_power)
from polyrec.polyfam import IntPolynomial, PolynomialFamily, shift_range
from polyrec.recurrence import CYCLIC, INTEGER, find_good_shifts

from oracles import (naive_good_set_family, naive_good_set_long_double,
                     naive_good_set_power, naive_good_shifts, naive_intersection_cyclic,
                     naive_intersection_integer)

PROPERTY = settings(max_examples=60, deadline=None)
EPS = st.sampled_from([0.5, 0.25, 0.125]) | st.floats(0.01, 2.0)
LINEAR = IntPolynomial((1,))
#: A set in Z_32 whose counts at shifts 1..4 are 6, 9, 4, 12: with eps = 1/8
#: the uniformity window density^2 N ± eps N is 4 < c < 12, so both ends occur.
WINDOW_SET = IntegerSet(32, (1, 2, 3, 5, 9, 13, 15, 17, 19, 21, 23, 24, 25, 28, 29, 30))


@st.composite
def integer_sets(draw, max_n=48):
    n = draw(st.sampled_from([8, 16, 32]) | st.integers(1, max_n))
    return IntegerSet(n, tuple(draw(st.sets(st.integers(1, n), max_size=n))))


polynomials = st.builds(
    lambda coeffs, lead: IntPolynomial(tuple(coeffs) + (lead,)),
    st.lists(st.integers(-3, 3), max_size=1), st.integers(-3, 3).filter(bool))
families = st.lists(polynomials, min_size=1, max_size=3).map(
    lambda polys: PolynomialFamily(tuple(polys)))
rationals = st.fractions(min_value=-3, max_value=3, max_denominator=16)


def _range_or_none(family, n, eps):
    try:
        return shift_range(family, n, eps)
    except ValueError:
        return None


@PROPERTY
@given(a=integer_sets(), family=families, eps=EPS, mode=st.sampled_from([INTEGER, CYCLIC]))
@example(a=IntegerSet(8, tuple(range(1, 9))), family=PolynomialFamily((LINEAR,)),
         eps=0.5, mode=INTEGER)
@example(a=WINDOW_SET, family=PolynomialFamily((LINEAR, IntPolynomial((-1,)))),
         eps=0.125, mode=CYCLIC)
def test_good_shifts_match_fraction_scan(a, family, eps, mode):
    sr = _range_or_none(family, a.n, eps)
    if sr is None:
        return
    report = find_good_shifts(a, family, eps, mode=mode, permissive=True)
    assert list(report.good_shifts) == naive_good_shifts(
        a.elements, a.n, family, sr.m, eps, cyclic=mode == CYCLIC)
    count = naive_intersection_cyclic if mode == CYCLIC else naive_intersection_integer
    assert report.counts.tolist() == [
        [count(a.elements, a.n, p.evaluate(j)) for j in range(1, sr.m + 1)] for p in family]


def test_count_on_the_threshold_is_not_good():
    # full set of 8, eps = 1/2: threshold * N = 8 - 4 = 4 and |A ∩ (A + n)| = 8 - n
    report = find_good_shifts(IntegerSet(8, tuple(range(1, 9))),
                              PolynomialFamily((LINEAR,)), 0.5)
    assert report.threshold * 8 == 4
    assert report.counts.tolist() == [[7, 6, 5, 4]]
    assert report.good_shifts.array.tolist() == [1, 2, 3]
    # a threshold below 0 keeps every shift, count 0 included
    report = find_good_shifts(IntegerSet(16, (1,)), PolynomialFamily((LINEAR,)), 0.5,
                              mode=CYCLIC)
    assert report.threshold < 0
    assert report.counts.tolist() == [[0] * 8]
    assert report.good_shifts.array.tolist() == list(range(1, 9))


def test_uniform_window_excludes_both_ends():
    # the window (density^2 ± eps) N = 8 ± 4 has both ends in the cyclic profile;
    # the good-shift threshold is its lower end, strict, with no upper end
    family = PolynomialFamily((LINEAR,))
    report = find_good_shifts(WINDOW_SET, family, 0.125, mode=CYCLIC, permissive=True)
    assert report.threshold * 32 == 4
    assert report.counts.tolist() == [[6, 9, 4, 12]]
    assert report.good_shifts.array.tolist() == [1, 2, 4]


@PROPERTY
@given(family=families, n=st.integers(1, 400) | st.integers(1000, 5000), eps=EPS,
       c=st.sampled_from([1.0, 1e6]))
@example(family=PolynomialFamily((IntPolynomial((2,)),)), n=16, eps=0.25, c=1.0)
@example(family=PolynomialFamily((LINEAR,)), n=10, eps=0.3, c=1.0)
@example(family=PolynomialFamily((IntPolynomial((-2, 1)),)), n=6, eps=0.25, c=1e6)
@example(family=PolynomialFamily((LINEAR,)), n=5000, eps=2.0, c=1e6)
@example(family=PolynomialFamily((IntPolynomial((-1, 1)),)), n=1, eps=0.5, c=1e6)
def test_shift_range_matches_fraction_bound(family, n, eps, c):
    # |P(j)| >= j except at the k - 1 roots of P(j)/j, so a shift past
    # bound + k is inadmissible whatever c is
    bound, k = Fraction(eps) * n, family.common_degree_bound
    worst = [max(abs(p.evaluate(j)) for p in family) for j in range(1, int(bound) + k + 2)]
    if Fraction(c) ** k * bound < 1 or worst[0] > bound:
        with pytest.raises(ValueError):
            shift_range(family, n, eps, c)
        return
    # the nominal m is the largest with m^k <= c^k eps N (families here have k <= 2)
    top = math.floor(Fraction(c) ** k * bound)
    nominal = top if k == 1 else math.isqrt(top)
    want = next((j for j in range(1, min(nominal, len(worst)) + 1) if worst[j - 1] > bound),
                nominal + 1) - 1
    sr = shift_range(family, n, eps, c)
    assert (sr.m, sr.adjusted) == (want, want != nominal)


def test_value_on_the_shift_bound_is_admissible():
    # |2j| <= eps N = 4 holds at j = 2 with equality and fails at j = 3
    sr = shift_range(PolynomialFamily((IntPolynomial((2,)),)), 16, 0.25)
    assert (sr.m, sr.adjusted) == (2, True)
    # Fraction(0.3) is just below 3/10, so |3| exceeds 0.3 * 10
    assert shift_range(PolynomialFamily((LINEAR,)), 10, 0.3).m == 2


@PROPERTY
@given(family=families, thetas=st.lists(rationals, min_size=1, max_size=3),
       eps=EPS, n_range=st.integers(1, 120))
@example(family=PolynomialFamily((IntPolynomial((0, -1)),)),
         thetas=[Fraction(-3, 8)], eps=0.125, n_range=40)
def test_rational_family_good_set_matches_fraction_scan(family, thetas, eps, n_range):
    good = approx_good_set_family(family, thetas, eps, n_range)
    assert good.exact
    assert list(good.members) == naive_good_set_family(family, thetas, eps, n_range)


@st.composite
def big_rationals(draw):
    """p/q with q > 2^32, so that residue products pass int64."""
    q = draw(st.integers(2 ** 32 + 1, 2 ** 70))
    return Fraction(draw(st.integers(-3 * q, 3 * q)), q)


big_coefficients = st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=1,
                            max_size=3).filter(lambda c: c[-1]).map(tuple)
big_families = st.lists(st.builds(IntPolynomial, big_coefficients), min_size=1,
                        max_size=2).map(lambda polys: PolynomialFamily(tuple(polys)))
CHUNKS = st.sampled_from([1, 7, 1 << 16])


@PROPERTY
@given(blocks=st.lists(st.lists(rationals | big_rationals() | st.integers(-3, 3),
                                max_size=3),
                       min_size=1, max_size=3),
       eps=EPS, n_range=st.integers(1, 120), chunk=CHUNKS)
@example(blocks=[[], [Fraction(-1, 4), Fraction(1, 8)], []], eps=0.125, n_range=40,
         chunk=1 << 16)
@example(blocks=[[Fraction(1, 2 ** 31), Fraction(3, 2 ** 31 - 1)], [Fraction(2, 7)]],
         eps=0.125, n_range=120, chunk=7)
def test_rational_power_good_set_matches_fraction_scan(blocks, eps, n_range, chunk):
    # q > 2^32, or a block with d Q^2 >= 2^63, sums Python integers; a chunk
    # below N splits the scan
    with mock.patch.object(lattice_dioph, "_DILATE_CHUNK", chunk):
        good = approx_good_set_power(BlockVector(tuple(map(tuple, blocks))), eps, n_range)
    assert good.exact
    assert list(good.members) == naive_good_set_power(blocks, eps, n_range)


@PROPERTY
@given(alpha=st.lists(rationals, min_size=1, max_size=3)
       | st.lists(st.floats(-3, 3), min_size=1, max_size=3),
       eps=EPS, n_range=st.integers(1, 120), chunk=CHUNKS)
def test_power_good_set_is_the_intersection_of_family_good_sets(alpha, eps, n_range,
                                                                chunk):
    # a one-entry block alpha_j is the family condition ({n^j}, [alpha_j])
    members = set(range(1, n_range + 1))
    with mock.patch.object(lattice_dioph, "_DILATE_CHUNK", chunk):
        power = approx_good_set_power(BlockVector(tuple((x,) for x in alpha)), eps,
                                      n_range)
        for j, x in enumerate(alpha, start=1):
            monomial = PolynomialFamily((IntPolynomial((0,) * (j - 1) + (1,)),))
            part = approx_good_set_family(monomial, [x], eps, n_range)
            assert part.exact == power.exact == isinstance(x, Fraction)
            members &= set(part.members)
    assert list(power.members) == sorted(members)


@PROPERTY
@given(family=families | big_families,
       thetas=st.lists(rationals | big_rationals(), min_size=1, max_size=3),
       eps=EPS, n_range=st.integers(1, 60), chunk=CHUNKS)
@example(family=PolynomialFamily((LINEAR,)), thetas=[Fraction(1, 2 ** 33 + 1)],
         eps=0.125, n_range=60, chunk=7)
def test_family_good_set_in_chunks_matches_fraction_scan(family, thetas, eps, n_range,
                                                         chunk):
    # q > 2^32 takes the Python-integer residues; a chunk below N splits the scan
    with mock.patch.object(lattice_dioph, "_DILATE_CHUNK", chunk):
        good = approx_good_set_family(family, thetas, eps, n_range)
    assert good.exact
    assert list(good.members) == naive_good_set_family(family, thetas, eps, n_range)


def test_family_good_set_past_one_chunk():
    n_range = lattice_dioph._DILATE_CHUNK + 300
    family = PolynomialFamily((IntPolynomial((0, 1)), IntPolynomial((3, 0, -2))))
    thetas = [Fraction(2, 7), Fraction(1, 2 ** 40 + 15)]
    good = approx_good_set_family(family, thetas, 0.25, n_range)
    assert list(good.members) == naive_good_set_family(family, thetas, 0.25, n_range)
    assert good.members.array[-1] > lattice_dioph._DILATE_CHUNK


dyadics = st.builds(lambda p, e: Fraction(p, 2 ** e),
                    st.integers(-2 ** 12, 2 ** 12) | st.integers(1 - 2 ** 52, 2 ** 52 - 1),
                    st.integers(0, 10))


@PROPERTY
@given(alpha=st.lists(dyadics, min_size=1, max_size=3),
       eps=st.builds(lambda a, e: a / 2 ** e, st.integers(1, 2 ** 10), st.integers(0, 10)),
       n_range=st.integers(1, 200), chunk=CHUNKS)
@example(alpha=[Fraction(1, 1024), Fraction(3, 1024), Fraction(5, 1024)], eps=0.125,
         n_range=200, chunk=7)
@example(alpha=[Fraction(2 ** 52 - 1, 4)], eps=0.25, n_range=200, chunk=7)
def test_float_power_good_set_is_exact_or_refused(alpha, eps, n_range, chunk):
    # float(alpha_j) is exact, and a phase n^j alpha_j within the limit keeps
    # all of its bits in a long double: the scan is exact, or it is refused
    # exactly when the largest phase N^j |alpha_j| is past the limit
    blocks = BlockVector(tuple((float(x),) for x in alpha))
    past = max(n_range ** j * abs(x) for j, x in enumerate(alpha, start=1))
    with mock.patch.object(lattice_dioph, "_DILATE_CHUNK", chunk):
        if past > lattice_dioph._PHASE_LIMIT:
            with pytest.raises(ValueError, match="phase reduction"):
                approx_good_set_power(blocks, eps, n_range)
            return
        good = approx_good_set_power(blocks, eps, n_range)
    assert not good.exact
    assert list(good.members) == naive_good_set_power([[x] for x in alpha], eps, n_range)


def _phase_size(family, thetas, n_range):
    """max |P_i(n)| * max |theta_r| over n <= N, exactly."""
    top = max(abs(p.evaluate(n)) for p in family for n in range(1, n_range + 1))
    return top * max(abs(Fraction(th)) for th in thetas)


FLOAT_FAMILY_DRAWS = dict(coeffs=big_coefficients,
                          thetas=st.lists(st.floats(-2, 2), min_size=1, max_size=3),
                          eps=st.floats(0.01, 0.5), n_range=st.integers(1, 60),
                          chunk=CHUNKS)


@PROPERTY
@given(**FLOAT_FAMILY_DRAWS)
def test_float_family_good_set_matches_scalar_long_double_scan(coeffs, thetas, eps,
                                                              n_range, chunk):
    # values past 2^63 go to long double as np.longdouble(int) takes them;
    # thetas past the phase limit are scaled to half of it
    family = PolynomialFamily((IntPolynomial(coeffs), LINEAR))
    size = _phase_size(family, thetas, n_range)
    if size > lattice_dioph._PHASE_LIMIT:
        thetas = [th * float(Fraction(lattice_dioph._PHASE_LIMIT) / size) / 2
                  for th in thetas]
    with mock.patch.object(lattice_dioph, "_DILATE_CHUNK", chunk):
        good = approx_good_set_family(family, thetas, eps, n_range)
    assert not good.exact
    assert list(good.members) == naive_good_set_long_double(family, thetas, eps, n_range)


@PROPERTY
@given(theta=st.floats(0.5, 2) | st.floats(-2, -0.5), **FLOAT_FAMILY_DRAWS)
def test_float_family_good_set_past_the_phase_limit_is_refused(theta, coeffs, thetas,
                                                              eps, n_range, chunk):
    # one theta is nonzero; all are scaled so the largest phase is twice the limit
    family = PolynomialFamily((IntPolynomial(coeffs), LINEAR))
    thetas = [theta, *thetas]
    scale = float(2 * Fraction(lattice_dioph._PHASE_LIMIT) / _phase_size(family, thetas,
                                                                         n_range))
    thetas = [th * scale for th in thetas]
    with (mock.patch.object(lattice_dioph, "_DILATE_CHUNK", chunk),
          pytest.raises(ValueError, match="phase reduction")):
        approx_good_set_family(family, thetas, eps, n_range)


def test_float_family_good_set_refuses_values_a_long_double_cannot_reduce():
    # (2^70 + 1) n / 2 keeps no fractional digit in a 64-bit mantissa
    family = PolynomialFamily((IntPolynomial((2 ** 70 + 1,)),))
    good = approx_good_set_family(family, [Fraction(1, 2)], 0.25, 6)
    assert good.members.array.tolist() == [2, 4, 6]
    with pytest.raises(ValueError, match="phase reduction"):
        approx_good_set_family(family, [0.5], 0.25, 6)


def test_distance_on_eps_is_not_good():
    # |n/4| = 1/4 = eps at odd n: strict, so only multiples of 4 are good
    quarter = Fraction(1, 4)
    good = approx_good_set_power(BlockVector(((quarter,),)), 0.25, 8)
    assert good.members.array.tolist() == [4, 8]
    assert approx_good_set_family(PolynomialFamily((LINEAR,)), [quarter], 0.25,
                                  8).members.array.tolist() == [4, 8]
    # two entries at n = 1: (3/20)^2 + (4/20)^2 = eps^2
    alpha = BlockVector(((Fraction(3, 20), Fraction(1, 5)),))
    members = approx_good_set_power(alpha, 0.25, 20).members
    assert 1 not in members and 20 in members
    # an empty block has distance 0 and passes
    good = approx_good_set_power(BlockVector(((),)), 0.125, 3)
    assert good.members.array.tolist() == [1, 2, 3]
