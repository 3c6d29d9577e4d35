import dataclasses
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrec import polyfam
from polyrec.cli import main
from polyrec.intset import IntegerSet, generate_set
from polyrec.polyfam import (IntPolynomial, PolynomialFamily, _best_offset,
                             _integer_root, check_difference_identity,
                             check_lift_implication, coefficient_analysis,
                             lift_construction, shift_range)
from polyrec.zn_fourier import ExactnessError

from oracles import naive_best_offset, naive_lift_implication


def test_polynomial_parse_and_evaluate():
    p = IntPolynomial.parse("2,0,-1")
    assert p.degree == 3
    assert p.evaluate(3) == 2 * 3 - 27
    assert p.evaluate(0) == 0  # zero constant term always
    assert str(p) == "2,0,-1"


def test_polynomial_rejects_zero_leading_coefficient():
    with pytest.raises(ValueError):
        IntPolynomial((1, 0))
    with pytest.raises(ValueError):
        IntPolynomial(())


def test_evaluate_is_exact_on_big_inputs():
    p = IntPolynomial((0, 0, 7))
    n = 10 ** 8
    assert p.evaluate(n) == 7 * n ** 3  # would overflow float64


INT64_MAX = 2 ** 63 - 1


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(st.integers(-10 ** 6, 10 ** 6) | st.integers(-2 ** 70, 2 ** 70),
                       min_size=1, max_size=4).filter(lambda c: c[-1]),
       ns=st.lists(st.integers(-2 ** 21, 2 ** 21) | st.integers(-2 ** 63, INT64_MAX),
                   max_size=20))
@example(coeffs=[INT64_MAX], ns=[1, -1, 0])
@example(coeffs=[-3, 5, -7], ns=[-2 ** 63, INT64_MAX])
def test_values_match_evaluate(coeffs, ns):
    p = IntPolynomial(tuple(coeffs))
    got = p.values(np.array(ns, dtype=np.int64))
    assert got.shape == (len(ns),)
    assert [int(v) for v in got] == [p.evaluate(n) for n in ns]


@pytest.mark.parametrize("coeffs, ns, dtype", [
    ((INT64_MAX,), [1, -1], np.int64),                # bound 2^63 - 1 fits
    ((2 ** 62, 2 ** 62), [1, 0], object),              # bound 2^63 does not
    ((-1, -1), [2 ** 31 - 1, -(2 ** 31 - 1)], np.int64),
    ((2 ** 62, 2 ** 62 - 1), [1, -1], np.int64),       # bound 2^63 - 1 again
    ((0, 0, -1), [2 ** 21 - 1, 1 - 2 ** 21], np.int64),
    ((0, 0, -1), [2 ** 21], object),                   # (2^21)^3 = 2^63
    ((1,), [-2 ** 63], object),                        # |n| itself passes int64
    ((1,), [], np.int64),
])
def test_values_dtype_follows_the_int64_bound(coeffs, ns, dtype):
    p = IntPolynomial(coeffs)
    got = p.values(np.array(ns, dtype=np.int64))
    assert got.dtype == dtype
    assert got.tolist() == [p.evaluate(n) for n in ns]


@given(x=st.integers(0, 10 ** 6) | st.integers(0, 2 ** 400),
       den=st.integers(1, 50), k=st.integers(1, 6))
@example(x=10 ** 400, den=1, k=3)
def test_integer_root_is_exact(x, den, k):
    bound = Fraction(x, den)
    m = _integer_root(bound, k)
    assert m ** k <= bound < (m + 1) ** k


def test_family_shape_helpers():
    fam = PolynomialFamily.parse(["1", "0,1", "1,1"])
    assert fam.size == 3
    assert fam.common_degree_bound == 2
    assert not fam.equal_degrees
    assert fam.coefficient_rows() == ((1, 0), (0, 1), (1, 1))


def test_shift_range_square_family():
    fam = PolynomialFamily.parse(["0,1"])
    sr = shift_range(fam, 10000, 0.04)
    assert sr.m == 20
    assert not sr.adjusted
    # the last admitted value sits on eps * N = 400
    assert max(abs(p.evaluate(j)) for p in fam for j in range(1, sr.m + 1)) == 400


def test_shift_range_shrinks_for_larger_coefficients():
    fam = PolynomialFamily.parse(["0,10"])
    sr = shift_range(fam, 10000, 0.04)
    assert sr.m == 6
    assert sr.adjusted  # below the nominal floor((eps N)^(1/2)) = 20
    # 10 * 6^2 = 360 stays within eps * N = 400, and 10 * 7^2 = 490 does not
    assert [fam.members[0].evaluate(j) for j in (sr.m, sr.m + 1)] == [360, 490]


def test_shift_range_scan_guarantee_holds_randomized():
    rng = random.Random(3)
    for _ in range(50):
        k = rng.randint(1, 3)
        coeffs = [rng.randint(-9, 9) for _ in range(k - 1)] + [rng.choice([-5, -1, 1, 5])]
        fam = PolynomialFamily((IntPolynomial(tuple(coeffs)),))
        n = rng.randint(500, 50000)
        eps = rng.choice([0.01, 0.05, 0.2])
        try:
            sr = shift_range(fam, n, eps)
        except ValueError:
            continue
        bound = Fraction(eps) * n
        assert all(abs(p.evaluate(x)) <= bound
                   for p in fam.members for x in range(1, sr.m + 1))
        # maximality: the next shift would break the bound (or the nominal cap)
        if sr.adjusted:
            assert any(abs(p.evaluate(sr.m + 1)) > bound for p in fam.members)


def test_shift_range_refuses_a_count_table_past_its_budget():
    # eps * n = 1000 admits every shift n <= 1000 of n, and of n and 2n up to 500
    single, double = PolynomialFamily.parse(["1"]), PolynomialFamily.parse(["1", "2"])
    with mock.patch.object(polyfam, "SHIFT_BUDGET", 1000):
        assert shift_range(single, 10, 100).m == 1000
        assert shift_range(double, 10, 100).m == 500
    with mock.patch.object(polyfam, "SHIFT_BUDGET", 999):
        for family in (single, double):
            with pytest.raises(ValueError, match="shift budget exceeded: need l \\* m <= 999"):
                shift_range(family, 10, 100)


def test_shift_range_error_names_minimal_ambient():
    fam = PolynomialFamily.parse(["0,10"])
    with pytest.raises(ValueError) as err:
        shift_range(fam, 20, 0.01)
    assert "smallest admissible n is 1000" in str(err.value)


def test_difference_identity_small_cases():
    # j=2, d=3: both sides are 2! * 3^2 = 18; j=5, d=2: 5! * 2^5 = 3840.
    assert check_difference_identity(2, 11, 3) is True
    assert check_difference_identity(5, -4, 2) is True


def test_difference_identity_randomized():
    rng = random.Random(17)
    for _ in range(60):
        j = rng.randint(0, 10)
        x = rng.randint(-10 ** 6, 10 ** 6)
        d = rng.randint(-10 ** 6, 10 ** 6)
        assert check_difference_identity(j, x, d) is True, (j, x, d)


def test_coefficient_analysis_dependent_family():
    fam = PolynomialFamily.parse(["1,1", "1,-1", "2"])
    cm = coefficient_analysis(fam)
    assert cm.rank == 2
    assert cm.independent_rows == (0, 1)
    assert cm.dependent_rows == (2,)


def test_coefficient_analysis_full_rank():
    fam = PolynomialFamily.parse(["1", "0,1", "0,0,1"])
    cm = coefficient_analysis(fam)
    assert cm.rank == 3
    assert cm.dependent_rows == ()


def test_coefficient_analysis_rank_matches_float_rank():
    rng = random.Random(4)
    for _ in range(40):
        ell = rng.randint(1, 4)
        k = rng.randint(1, 4)
        rows = []
        for _ in range(ell):
            row = [rng.randint(-3, 3) for _ in range(k)]
            if not any(row):
                row[rng.randrange(k)] = 1
            # make it a legal polynomial: nonzero leading coefficient
            deg = max(i for i, c in enumerate(row) if c != 0)
            rows.append(IntPolynomial(tuple(row[:deg + 1])))
        fam = PolynomialFamily(tuple(rows))
        cm = coefficient_analysis(fam)
        mat = np.array(fam.coefficient_rows(), dtype=float)
        want = np.linalg.matrix_rank(mat)
        assert cm.rank == want
        # the independent rows span each dependent row
        kept = list(cm.independent_rows)
        assert np.linalg.matrix_rank(mat[kept]) == want
        for drow in cm.dependent_rows:
            assert np.linalg.matrix_rank(mat[kept + [drow]]) == want


def test_lift_full_set_is_maximal():
    a = IntegerSet(10, tuple(range(1, 11)))
    fam = PolynomialFamily.parse(["1"])
    lift = lift_construction(a, fam, 10)
    assert lift.required_multiple == 1
    # one independent row: stage one keeps every point, as many as the
    # best offset of the box's values does
    _, _, stage_one = naive_best_offset([(b,) for b in range(-10, 11)], a.elements, a.n)
    assert len(lift.points) == stage_one == 10
    assert lift.density == Fraction(10, 21)
    # every lifted point lands in A after the offset, by construction
    for (b,) in lift.points:
        assert b + lift.offset[0] in a


def test_lift_with_dependent_row():
    a = generate_set("random", 40, density=0.6, seed=5)
    fam = PolynomialFamily.parse(["1,1", "1,-1", "2"])
    lift = lift_construction(a, fam, 80)
    assert lift.required_multiple == 2
    assert len(lift.points) > 0
    rows = coefficient_analysis(fam).rows
    for b in lift.points:
        for row, off in zip(rows, lift.offset):
            val = sum(c * x for c, x in zip(row, b)) + off
            assert val in a
    report = check_lift_implication(lift, a, fam)
    assert report.ok
    assert report.violations.tolist() == []


def test_lift_implication_randomized():
    rng = random.Random(11)
    for trial in range(8):
        n = rng.randint(20, 60)
        a = generate_set("random", n, density=rng.uniform(0.4, 0.8), seed=trial)
        if a.size == 0:
            continue
        fam = PolynomialFamily.parse(["1", "0,1"])
        lift = lift_construction(a, fam, n)
        report = check_lift_implication(lift, a, fam)
        assert report.ok, f"implication failed at trial {trial}"


@st.composite
def implication_cases(draw):
    """A real lift of degree k = 1-3, or one tampered with: 1-8 points of
    its box added to its points or put in their place.  A lies in [1, n]
    and the coefficients in [-c, c], with (n, c) = (12, 3), (6, 2) or
    (3, 1) by degree, and the half width is n times the largest row sum
    |c_1| + ... + |c_k|, plus 0-3: small enough for the oracle to try every
    point against every candidate."""
    k = draw(st.integers(1, 3))
    n, c = ((12, 3), (6, 2), (3, 1))[k - 1]
    n = draw(st.integers(1, n))
    a = IntegerSet(n, tuple(draw(st.sets(st.integers(1, n), min_size=1))))
    coeffs = st.integers(-c, c)
    degrees = [k] + draw(st.lists(st.integers(1, k), max_size=2))
    polys = [IntPolynomial(tuple(draw(st.lists(coeffs, min_size=d - 1, max_size=d - 1)))
                           + (draw(coeffs.filter(bool)),)) for d in degrees]
    family = PolynomialFamily(tuple(polys))
    hw = n * max(sum(map(abs, p.coefficients)) for p in polys) + draw(st.integers(0, 3))
    lift = lift_construction(a, family, hw)
    if draw(st.booleans()):
        box = st.sets(st.tuples(*[st.integers(-hw, hw)] * k), min_size=1, max_size=8)
        points = draw(box) | (set(map(tuple, lift.points.tolist()))
                              if draw(st.booleans()) else set())
        lift = dataclasses.replace(lift, points=np.array(sorted(points)))
    return lift, a, family


def _tampered_lift():
    """The lift of A = {1} along P(n) = n, its points swapped for -3 and 2:
    5 is in B - B and not in A - A = {0}."""
    a, family = IntegerSet(3, (1,)), PolynomialFamily.parse(["1"])
    lift = lift_construction(a, family, 3)
    return dataclasses.replace(lift, points=np.array([[-3], [2]])), a, family


@settings(max_examples=60, deadline=None)
@given(case=implication_cases())
@example(case=_tampered_lift())
def test_lift_implication_matches_the_oracle(case):
    lift, a, family = case
    report = check_lift_implication(lift, a, family)
    got = (report.candidates, report.hits, report.violations)
    assert tuple(tuple(x.tolist()) for x in got) == naive_lift_implication(
        set(map(tuple, lift.points.tolist())), lift.half_width, a.elements, family.members)


def test_a_tampered_lift_reports_its_violations():
    report = check_lift_implication(*_tampered_lift())
    assert report.candidates.tolist() == [-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6]
    assert report.hits.tolist() == report.violations.tolist() == [-5, 5]
    assert not report.ok


def test_lift_implication_refuses_points_outside_the_box():
    lift, a, family = _tampered_lift()
    with pytest.raises(ValueError, match="box"):
        check_lift_implication(dataclasses.replace(lift, points=np.array([[4]])), a, family)


def test_lift_guards():
    a = IntegerSet(10, (1, 2))
    fam = PolynomialFamily.parse(["1"])
    with pytest.raises(ValueError):
        lift_construction(a, fam, 5)  # below ambient * multiple
    big = IntegerSet(1000, (1,))
    with pytest.raises(ValueError):
        lift_construction(big, fam, 1000)  # ambient beyond desk scale


@st.composite
def stage_inputs(draw):
    """Rows of r = 1-3 values in [-4, 4], drawn with repeats from a small
    pool, and a set A inside [1, n], n <= 12: full, a singleton or random."""
    r = draw(st.integers(1, 3))
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["full", "singleton", "random"]))
    if kind == "full":
        elements = range(1, n + 1)
    elif kind == "singleton":
        elements = [draw(st.integers(1, n))]
    else:
        elements = draw(st.sets(st.integers(1, n), min_size=1))
    pool = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * r), min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return rows, IntegerSet(n, tuple(sorted(elements)))


@settings(max_examples=60, deadline=None)
@given(case=stage_inputs())
@example(case=([(0,), (0,), (3,)], IntegerSet(3, (1, 2, 3))))   # a tie: first offset wins
@example(case=([(-4, 4, -4), (4, -4, 4)], IntegerSet(12, (12,))))
def test_best_offset_matches_the_oracle(case):
    rows, a = case
    offset, kept = _best_offset(np.array(rows, dtype=np.int64), a)
    want_offset, want_kept, want_count = naive_best_offset(rows, a.elements, a.n)
    assert offset == want_offset
    assert kept.tolist() == want_kept
    assert int(kept.sum()) == want_count


@pytest.mark.parametrize("stage", [1, 2])
def test_a_best_offset_count_off_by_one_is_refused(stage, monkeypatch, capsys):
    """Raising the top count of one stage's correlation by 1 must raise,
    in stage two (the dependent row 2n) as in stage one."""
    correlation = polyfam.exact_correlation
    calls = []

    def inflated(a, b):
        out = correlation(a, b)
        calls.append(1)
        if len(calls) == stage:
            out.flat[np.argmax(out)] += 1
        return out

    monkeypatch.setattr(polyfam, "exact_correlation", inflated)
    with pytest.raises(ExactnessError, match="count mismatch"):
        lift_construction(generate_set("evens", 10), PolynomialFamily.parse(["1", "2"]), 20)
    calls.clear()
    assert main(["lift", "--N", "10", "--set", "evens", "--poly", "1;2",
                 "--half-width", "20"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("internal check failed: best-offset count mismatch")
