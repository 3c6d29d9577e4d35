"""Property tests of the exact counting kernels against tests/oracles.py.

The kernels are the FFT correlation and the lag counter in zn_fourier
(behind every intersection count) and the shift-and-add and grouping kernels in
weyl_tarry (behind every solution count).  Each draw is small enough for
the oracles' direct enumeration.
"""

import json
import math
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrec import weyl_tarry, zn_fourier
from polyrec.cli import main
from polyrec.intset import IntegerSet
from polyrec.polyfam import IntPolynomial, PolynomialFamily
from polyrec.recurrence import CYCLIC, INTEGER, find_good_shifts, intersection_profile
from polyrec.weyl_tarry import SIGNATURE_BUDGET, _equal_sums, count_solutions_mod, tarry_count
from polyrec.zn_fourier import ExactnessError, _intersection_counts, exact_correlation

from cli_contract import assert_cli_contract, capped_child
from oracles import (grouped_tarry, naive_count_solutions, naive_count_solutions_mod,
                     naive_cross_correlation, naive_intersection_cyclic,
                     naive_intersection_integer, naive_tarry, naive_value_span)

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def integer_sets(draw, max_n=70):
    n = draw(st.integers(1, max_n))
    elements = draw(st.sets(st.integers(1, n), max_size=n))
    return IntegerSet(n, tuple(elements))


@st.composite
def polynomials(draw, max_degree=3, max_coeff=4):
    coeffs = draw(st.lists(st.integers(-max_coeff, max_coeff),
                           min_size=0, max_size=max_degree - 1))
    lead = draw(st.integers(-max_coeff, max_coeff).filter(bool))
    return IntPolynomial(tuple(coeffs) + (lead,))


shift_values = st.integers(-150, 150) | st.integers(-10 ** 30, 10 ** 30)


@PROPERTY
@given(a=integer_sets(), shifts=st.lists(shift_values, min_size=1, max_size=8),
       mode=st.sampled_from([INTEGER, CYCLIC]))
@example(a=IntegerSet(31, (1, 5, 6, 30, 31)), shifts=[0, -5, 31, 62, -1], mode=INTEGER)
@example(a=IntegerSet(31, (1, 5, 6, 30, 31)), shifts=[0, -5, 31, 62, -1], mode=CYCLIC)
@example(a=IntegerSet(60, tuple(range(2, 61, 2))), shifts=[0, 2, -3, 60, 10 ** 20],
         mode=CYCLIC)
@example(a=IntegerSet(1, (1,)), shifts=[0, 1, -1], mode=INTEGER)
def test_intersection_counts_match_oracles(a, shifts, mode):
    naive = naive_intersection_integer if mode == INTEGER else naive_intersection_cyclic
    want = [naive(a.elements, a.n, s) for s in shifts]
    assert _intersection_counts(a, shifts, mode).tolist() == want


@st.composite
def packed_cases(draw):
    """A set whose N sits on or next to a 64-bit word edge, and lags chosen
    around the word edges and N itself."""
    n = draw(st.sampled_from([1, 2, 63, 64, 65, 127, 128, 129, 191, 192, 193])
             | st.integers(1, 300))
    elements = draw(st.sets(st.integers(1, n), max_size=n))
    edges = [0, 63, 64, 65, 128, n - 1, n, n + 1, 2 * n, 10 ** 30]
    lag = st.sampled_from(edges) | st.integers(0, 2 * n + 130)
    shifts = draw(st.lists(st.tuples(lag, st.booleans()), min_size=1, max_size=12))
    return IntegerSet(n, tuple(elements)), [-s if neg else s for s, neg in shifts]


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "fft"])
@pytest.mark.parametrize("mode", [INTEGER, CYCLIC])
@PROPERTY
@given(case=packed_cases())
@example(case=(IntegerSet(1, (1,)), [0, 1, -1, 10 ** 30]))
@example(case=(IntegerSet(200, tuple(range(1, 201, 3))), [64, 1, 2, 65, 0, 128, 3, 127]))
@example(case=(IntegerSet(128, tuple(range(1, 129))), [128, 64, 0, 63, 127, -64]))
def test_both_routes_match_oracles(case, mode, direct):
    # [64, 1, ...]: a lag on a word edge makes the window a view of the
    # shifted operand; writing into it would corrupt every later lag
    a, shifts = case
    naive = naive_intersection_integer if mode == INTEGER else naive_intersection_cyclic
    want = [naive(a.elements, a.n, s) for s in shifts]
    with mock.patch.object(zn_fourier, "_count_directly", lambda *args: direct):
        assert _intersection_counts(a, shifts, mode).tolist() == want


def _route(n, shifts, mode):
    """The route _intersection_counts takes for these shifts at modulus n."""
    rule = zn_fourier._count_directly
    taken = []
    with mock.patch.object(zn_fourier, "_count_directly",
                           lambda *args: taken.append(rule(*args)) or taken[-1]):
        _intersection_counts(IntegerSet(n, np.arange(1, n + 1, 3)), shifts, mode)
    return "direct" if taken == [True] else "fft"


@pytest.mark.parametrize("n, shifts, mode, route", [
    (10 ** 6, [x ** 3 for x in range(1, 81)], INTEGER, "direct"),
    (10 ** 6, [x ** 2 for x in range(1, 61)], INTEGER, "direct"),
    (10 ** 6, [x ** 3 for x in range(1, 51)] + [x + x ** 3 for x in range(1, 51)],
     INTEGER, "direct"),
    (400_000, list(range(1, 1001)), CYCLIC, "fft"),
    (600_000, list(range(1, 2778)), INTEGER, "fft"),
    (200_000, list(range(1, 10_001)), INTEGER, "fft"),
    (200_000, list(range(1, 1001)), INTEGER, "fft"),
])
def test_cost_rule_routes(n, shifts, mode, route):
    assert _route(n, shifts, mode) == route


@PROPERTY
@given(a=integer_sets(max_n=90), polys=st.lists(polynomials(), min_size=1, max_size=3),
       m=st.integers(1, 6))
def test_intersection_profile_matches_oracles(a, polys, m):
    family = PolynomialFamily(tuple(polys))
    table = intersection_profile(a, family, m)
    for row, poly in zip(table, family):
        assert list(row) == [Fraction(naive_intersection_integer(a.elements, a.n,
                                                                 poly.evaluate(x)), a.n)
                             for x in range(1, m + 1)]
    try:
        report = find_good_shifts(a, family, 0.5, mode=CYCLIC, permissive=True)
    except ValueError:  # an empty shift range
        return
    for row, poly in zip(report.counts.tolist(), family):
        assert row == [naive_intersection_cyclic(a.elements, a.n, poly.evaluate(x))
                       for x in range(1, report.shift_range.m + 1)]


@st.composite
def array_pairs(draw):
    ndim = draw(st.integers(1, 2))
    shape_a = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    shape_b = tuple(draw(st.integers(1, 6)) for _ in range(ndim))
    values = st.integers(-50, 50)
    a = np.array(draw(st.lists(values, min_size=math.prod(shape_a),
                               max_size=math.prod(shape_a)))).reshape(shape_a)
    b = np.array(draw(st.lists(values, min_size=math.prod(shape_b),
                               max_size=math.prod(shape_b)))).reshape(shape_b)
    return a, b


@PROPERTY
@given(pair=array_pairs(), max_lag=st.integers(0, 8))
def test_exact_correlation_linear_layouts(pair, max_lag):
    a, b = pair
    full = exact_correlation(a, b)
    assert full.shape == tuple(na + nb - 1 for na, nb in zip(a.shape, b.shape))
    for p in np.ndindex(full.shape):
        lag = tuple(pi - (na - 1) for pi, na in zip(p, a.shape))
        assert full[p] == naive_cross_correlation(a, b, lag)
    if a.ndim > 1:
        with pytest.raises(ValueError, match="one-dimensional"):
            exact_correlation(a, b, max_lag=max_lag)
        return
    head = exact_correlation(a, b, max_lag=max_lag)
    assert head.shape == (max_lag + 1,)
    for lag in np.ndindex(head.shape):
        assert head[lag] == naive_cross_correlation(a, b, lag)


@st.composite
def blocked_cases(draw):
    """1-D operands of any two lengths and a largest lag from 0 to past both."""
    values = st.integers(-50, 50)
    a = draw(st.lists(values, min_size=1, max_size=40))
    b = draw(st.lists(values, min_size=1, max_size=60))
    max_lag = draw(st.sampled_from([0, len(a) - 1, len(a), len(b) + 3])
                   | st.integers(0, 70))
    return np.array(a), np.array(b), max_lag


@pytest.mark.parametrize("block", [1, 2, 7])
@PROPERTY
@given(case=blocked_cases())
@example(case=(np.arange(10), np.arange(10), 0))           # 10 = 7 + 3
@example(case=(np.arange(1, 11), np.arange(1, 11), 9))     # top = N - 1
@example(case=(np.arange(1, 11), np.arange(1, 11), 14))    # top > N - 1
@example(case=(np.array([3, -1, 2]), np.arange(-20, 20), 25))  # b longer than a
def test_blocked_correlation_matches_oracle(case, block):
    a, b, max_lag = case
    want = [naive_cross_correlation(a, b, (s,)) for s in range(max_lag + 1)]
    with mock.patch.object(zn_fourier, "_block_length", lambda n, lag: block):
        assert exact_correlation(a, b, max_lag=max_lag).tolist() == want
        assert exact_correlation(a, a, max_lag=max_lag).tolist() == \
            [naive_cross_correlation(a, a, (s,)) for s in range(max_lag + 1)]


@st.composite
def fold_cases(draw):
    """A set mod N with the shifts of '1;-3' at n = 1..m and lags above N/2."""
    n = draw(st.integers(1, 80))
    elements = draw(st.sets(st.integers(1, n), max_size=n))
    m = draw(st.integers(1, 12))
    high = st.integers(n // 2, n) | st.integers(-n, -(n // 2))
    shifts = [x for x in range(1, m + 1)] + [-3 * x for x in range(1, m + 1)]
    shifts += draw(st.lists(high, max_size=6))
    return IntegerSet(n, tuple(elements)), shifts


@pytest.mark.parametrize("block", [1, 2, 7])
@PROPERTY
@given(case=fold_cases())
@example(case=(IntegerSet(10, (1, 2, 4, 8)), [1, 2, 3, -3, -6, -9, 6, 7, 9, 5]))
def test_cyclic_fold_matches_oracle(case, block):
    a, shifts = case
    want = [naive_intersection_cyclic(a.elements, a.n, s) for s in shifts]
    with mock.patch.object(zn_fourier, "_block_length", lambda n, lag: block), \
            mock.patch.object(zn_fourier, "_count_directly", lambda *args: False):
        assert _intersection_counts(a, shifts, CYCLIC).tolist() == want


def test_blocked_bound_counts_the_block_sum():
    # 256 values of 2^16: one transform of 256 points passes the bound,
    # 256 one-point blocks add 256 roundings and must be refused
    a = np.full(256, 2 ** 16)
    assert exact_correlation(a, a, max_lag=0).tolist() == [256 * 2 ** 32]
    with mock.patch.object(zn_fourier, "_block_length", lambda n, lag: 1):
        with pytest.raises(ExactnessError, match="bound"):
            exact_correlation(a, a, max_lag=0)
    with pytest.raises(ExactnessError, match="bound"):
        exact_correlation(np.array([2 ** 40, 1]), np.array([2 ** 40, 3]), max_lag=1)


def test_blocked_residual_check_raises(monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.3)
    with pytest.raises(ExactnessError, match="residual"):
        exact_correlation(np.array([1, 0, 1]), np.array([1, 1, 0]), max_lag=1)


@PROPERTY
@given(poly=polynomials(max_coeff=6), m=st.integers(1, 6),
       n_modulus=st.sampled_from([1, 2, 7, 12, 13, 30, 31, 97, 100]),
       k_order=st.integers(1, 2))
@example(poly=IntPolynomial((-3, 0, -2)), m=5, n_modulus=11, k_order=2)
@example(poly=IntPolynomial((1,)), m=1, n_modulus=7, k_order=3)
def test_count_solutions_mod_matches_oracle(poly, m, n_modulus, k_order):
    want = naive_count_solutions_mod(poly, m, n_modulus, k_order)
    assert count_solutions_mod(poly, m, n_modulus, k_order) == want


@PROPERTY
@given(k_order=st.integers(1, 3), degree=st.integers(1, 3), m=st.integers(1, 5))
def test_tarry_routes_match_enumeration(k_order, degree, m):
    want = naive_tarry(k_order, degree, m) if m ** (2 * k_order) <= 20_000 \
        else grouped_tarry(k_order, degree, m)
    assert tarry_count(k_order, degree, m, method="convolution").count == want
    assert tarry_count(k_order, degree, m, method="mitm").count == want


@PROPERTY
@given(poly=polynomials(max_coeff=5), k_order=st.integers(1, 3), m=st.integers(1, 5),
       scale=st.sampled_from([1, 10 ** 6]))
def test_tarry_count_poly_matches_oracle(poly, k_order, m, scale):
    # one polynomial's integer count, routed by the box of the oracle's span;
    # scale 10^6 stretches the value range past the signature budget
    poly = IntPolynomial(tuple(c * scale for c in poly.coefficients))
    span = naive_value_span(poly, m)
    count, method = _equal_sums((poly,), k_order, m, spans=[span])
    assert count == naive_count_solutions(poly, m, k_order)
    box = k_order * (span + 1) + 1
    assert method == ("convolution" if box <= SIGNATURE_BUDGET else "mitm")


@PROPERTY
@given(k_order=st.integers(1, 4), degree=st.integers(1, 3), m=st.integers(1, 12))
@example(k_order=50, degree=1, m=1)    # fifty layers of one sum
@example(k_order=4, degree=2, m=12)    # sparse signature layers
def test_both_tarry_routes_forced_match_the_oracles(k_order, degree, m):
    want = naive_tarry(k_order, degree, m) if m ** (2 * k_order) <= 20_000 \
        else grouped_tarry(k_order, degree, m)
    assert tarry_count(k_order, degree, m, method="mitm").count == want
    box = math.prod(k_order * m ** i + 1 for i in range(1, degree + 1))
    if box > SIGNATURE_BUDGET:
        with pytest.raises(ValueError, match="signature budget exceeded"):
            tarry_count(k_order, degree, m, method="convolution")
    else:
        assert tarry_count(k_order, degree, m, method="convolution").count == want


@PROPERTY
@given(poly=polynomials(max_coeff=5), k_order=st.integers(1, 3), m=st.integers(1, 5),
       scale=st.sampled_from([1, 10 ** 6]))
@example(poly=IntPolynomial((-3, 1)), k_order=1, m=3, scale=10 ** 6)  # -2e6, -2e6, 0: 5
@example(poly=IntPolynomial((-3, 1)), k_order=3, m=3, scale=1)        # a row counted twice
@example(poly=IntPolynomial((1,)), k_order=50, m=1, scale=1)
def test_polynomial_counts_on_either_route_match_the_oracle(poly, k_order, m, scale):
    # each route forced: shift-and-add is refused past the signature budget
    poly = IntPolynomial(tuple(c * scale for c in poly.coefficients))
    want = naive_count_solutions(poly, m, k_order)
    span = naive_value_span(poly, m)
    assert _equal_sums((poly,), k_order, m, method="mitm", spans=[span]) == (want, "mitm")
    if k_order * (span + 1) + 1 > SIGNATURE_BUDGET:
        with pytest.raises(ValueError, match="signature budget exceeded"):
            _equal_sums((poly,), k_order, m, method="convolution", spans=[span])
    else:
        got = _equal_sums((poly,), k_order, m, method="convolution", spans=[span])
        assert got == (want, "convolution")


@PROPERTY
@given(poly=polynomials(max_coeff=6), m=st.integers(1, 6), k_order=st.integers(1, 3))
@example(poly=IntPolynomial((-1,)), m=6, k_order=3)  # residues N - n: the sums wrap
@example(poly=IntPolynomial((-3, 1)), m=4, k_order=3)  # -2, -2, 0, 4: a residue twice
def test_sparse_cyclic_counts_match_the_oracle(poly, m, k_order):
    # the layers hit at most C(M + K - 1, K) of the 10^6 + 3 residues
    n_modulus = 10 ** 6 + 3
    want = naive_count_solutions_mod(poly, m, n_modulus, k_order)
    assert count_solutions_mod(poly, m, n_modulus, k_order) == want


def _count_or_refusal(count, *args, **kwargs):
    """(count, route) of a call, or the message it refuses with."""
    try:
        out = count(*args, **kwargs)
    except ValueError as exc:
        return str(exc)
    return out if isinstance(out, tuple) else (out.count, out.method)


@PROPERTY
@given(k_order=st.integers(1, 4), m=st.integers(1, 40),
       budgets=st.tuples(st.sampled_from([10, 100, SIGNATURE_BUDGET]),
                         st.sampled_from([50, 2_000, weyl_tarry.MITM_BUDGET]),
                         st.sampled_from([500, 50_000, weyl_tarry.DENSE_BUDGET])))
@example(k_order=2, m=40, budgets=(10, 2_000, weyl_tarry.DENSE_BUDGET))   # grouping
@example(k_order=2, m=40, budgets=(10, 50, weyl_tarry.DENSE_BUDGET))      # refused
@example(k_order=3, m=40, budgets=(SIGNATURE_BUDGET, 50, 500))            # refused
def test_tarry_entry_points_agree_on_route_count_and_refusal(k_order, m, budgets):
    # small budgets put both routes and both refusals in reach of small M
    signature, mitm, dense = budgets
    with mock.patch.multiple(weyl_tarry, SIGNATURE_BUDGET=signature, MITM_BUDGET=mitm,
                             DENSE_BUDGET=dense):
        got = _count_or_refusal(_equal_sums, (IntPolynomial((1,)),), k_order, m,
                                spans=[naive_value_span(IntPolynomial((1,)), m)])
        assert got == _count_or_refusal(tarry_count, k_order, 1, m)
    if not isinstance(got, str):
        assert got[0] == grouped_tarry(k_order, 1, m)


def _python_square_sum(values, k_order, modulus=None):
    """sum_c r(c)^2 for K-fold sums of values, with dict layers of Python ints."""
    layer = {0: 1}
    for _ in range(k_order):
        nxt = {}
        for s, c in layer.items():
            for v in values:
                key = s + v if modulus is None else (s + v) % modulus
                nxt[key] = nxt.get(key, 0) + c
        layer = nxt
    return sum(c * c for c in layer.values())


def test_object_dtype_paths_match_python_integers():
    # M^(2K) > 2^62, so the shift-and-add arrays hold Python integers
    poly = IntPolynomial((1, 1))
    values = [poly.evaluate(x) for x in (1, 2, 3)]
    got = count_solutions_mod(poly, 3, 7, 32)
    assert got == _python_square_sum(values, 32, modulus=7)
    assert got > 2 ** 63
    assert _equal_sums((poly,), 32, 3, spans=[naive_value_span(poly, 3)])[0] == \
        _python_square_sum(values, 32)
    assert tarry_count(32, 1, 2).count == math.comb(64, 32)
    # 2 * 3^40 passes int64: the grouping ranks that coordinate in Python integers
    assert tarry_count(2, 40, 3, method="mitm").count == naive_tarry(2, 40, 3)


@pytest.mark.filterwarnings("error")  # an int64 overflow in the fit test warns
@pytest.mark.parametrize("lead", [2 ** 61, -(2 ** 61)])
def test_grouping_ranks_int64_values_whose_doubles_pass_int64(lead):
    # the table is int64 (3 * 2^61 < 2^63) but 2 * 3 * 2^61 is not: the
    # fit test must be taken in Python integers, not in int64
    poly = IntPolynomial((lead,))
    assert poly.values(np.arange(1, 4)).dtype == np.int64
    count, method = _equal_sums((poly,), 2, 3, spans=[naive_value_span(poly, 3)])
    assert method == "mitm"
    assert count == naive_count_solutions(poly, 3, 2)


def test_exactness_guard_raises_on_huge_values():
    with pytest.raises(ExactnessError):
        exact_correlation(np.array([2 ** 40, 1]), np.array([2 ** 40, 3]))


def test_exactness_guard_checks_the_observed_residual(monkeypatch):
    irfftn = np.fft.irfftn
    monkeypatch.setattr(np.fft, "irfftn", lambda *args: irfftn(*args) + 0.3)
    with pytest.raises(ExactnessError, match="residual"):
        exact_correlation(np.array([1, 0, 1]), np.array([1, 1, 0]))


def test_exactness_guard_survives_python_dash_o():
    code = ("import numpy as np\n"
            "from polyrec.zn_fourier import ExactnessError, _intersection_counts, exact_correlation\n"
            "try:\n"
            "    assert False\n"
            "except AssertionError:\n"
            "    raise SystemExit('asserts are active')\n"
            "try:\n"
            "    exact_correlation(np.array([2 ** 40]), np.array([2 ** 40]))\n"
            "except ExactnessError:\n"
            "    print('raised')\n")
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                         text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def test_cli_maps_exactness_errors_to_exit_1(monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ExactnessError("FFT correlation lost exactness")
    monkeypatch.setattr("polyrec.cli.find_good_shifts", fail)
    assert main(["search", "--N", "100", "--set", "even", "--poly", "1",
                 "--eps", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "lost exactness" in err


@pytest.mark.parametrize("argv", [
    ["dioph", "--action", "mass"],
    ["tarry", "--K", "2", "--k", "1"],
    ["dioph", "--action", "goodset", "--alpha", "1/0"],
    ["dioph", "--action", "denominator"],
    # N^3 = 2.7e13 is past the long-double phase limit
    ["dioph", "--action", "average", "--lattice", "int:1,1,1", "--alpha", "0.1;0.2;0.3",
     "--N", "30000"],
    ["dioph", "--action", "goodset", "--alpha", "0.3", "--eps", "nan", "--N", "5"],
    ["dioph", "--action", "goodset", "--alpha", "1/3", "--eps", "inf"],
    ["dioph", "--action", "goodset", "--poly", "1", "--theta", "1/3", "--eps", "inf"],
    ["ergodic", "--action", "measure", "--system", "rotation:10", "--subset", "random:1.5"],
    ["ergodic", "--action", "measure", "--system", "rotation:10", "--subset", "random:nan"],
    ["decompose", "--N", "10", "--eps", "inf"],
    ["decompose", "--N", "10", "--eps", "nan"],
    ["ergodic", "--action", "khintchine", "--system", "rotation:10", "--subset", "all",
     "--eps", "inf"],
    ["ergodic", "--action", "khintchine", "--system", "rotation:10", "--subset", "all",
     "--eps", "nan"],
    ["ergodic", "--action", "griesmer", "--system", "rotation:10", "--subset", "all",
     "--eps", "inf"],
    ["ergodic", "--action", "griesmer", "--system", "rotation:10", "--subset", "all",
     "--eps", "nan"],
    # 10 * 10^18 passes int64: the second offset wrapped to 8446744073709551621
    ["lift", "--N", "10", "--set", "ap:5:100", "--poly", "1;1000000000000000000",
     "--half-width", "10"],
    ["lift", "--N", "10", "--set", "evens", "--poly", "1;100000000000000000000",
     "--half-width", "10"],
    # a stage-two box of 2e12 cells, refused before it is allocated
    ["lift", "--N", "10", "--set", "evens", "--poly", "1;99999999999",
     "--half-width", "10"],
    ["lift", "--N", "10", "--set", "evens", "--poly", "1;4611686018427387904",
     "--half-width", "10"],
    # the moment overflowed: a RuntimeWarning line, then a report that is not strict JSON
    ["weyl", "--poly", "1", "--M", "5", "--N", "7", "--K", "1000000"],
])
def test_refusals_exit_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


#: Coefficients of the lift fuzz: zero, units, and values whose products with
#: a half width pass int64 (2^62, 2^63) or that do not fit it at all (10^20).
LIFT_COEFFICIENTS = [0, 1, -1, 2, -3, 2 ** 62, 2 ** 63, 10 ** 20]
LIFT_SETS = ["full", "evens", "ap:3:4", "ap:5:100", "random:0.6:7", "random:0.02:3"]


@st.composite
def lift_argv(draw):
    """A lift invocation.  N and the half width are capped for run time only
    (N <= 24 besides the refused 0, negatives, 201 and 10^12; half width
    from -2 to 60 besides 10^7 and 10^30), which keeps each answered lift's
    box at most 121^3 points."""
    n = draw(st.integers(1, 24) | st.sampled_from([0, -1, -7, 201, 10 ** 12]))
    literal = draw(st.sampled_from(LIFT_SETS))
    literal = literal[:draw(st.integers(1, len(literal)))]  # truncated literals too
    members = st.lists(st.sampled_from(LIFT_COEFFICIENTS), max_size=4)  # degree 4 too
    family = ";".join(",".join(map(str, m)) for m in draw(st.lists(members, min_size=1,
                                                                   max_size=3)))
    half_width = draw(st.integers(-2, 60) | st.sampled_from([10 ** 7, 10 ** 30]))
    return ["lift", "--N", str(n), "--set", literal, "--poly", family,
            "--half-width", str(half_width)]


@settings(max_examples=150, deadline=None)
@given(argv=lift_argv())
@example(argv=["lift", "--N", "10", "--set", "evens", "--poly", "1;-3",
               "--half-width", "30"])
@example(argv=["lift", "--N", "1", "--set", "full", "--poly", f"1;{2 ** 62}",
               "--half-width", "1"])
@example(argv=["lift", "--N", "12", "--set", "evens", "--poly", "1;0,1;1,1",
               "--half-width", "24"])
def test_lift_cli_fuzz_exits_0_1_or_2_with_strict_json(argv):
    assert_cli_contract(argv)


#: Integers of the ergodic fuzz: small ones, and ones past int64 or any budget.
HUGE = [2 ** 63, -2 ** 63, 10 ** 20, -10 ** 20, 10 ** 30]
#: Permutation files of the ergodic fuzz, valid or not.
PERM_FILES = ["[1, 2, 0]", "[0, 0]", "[]", "[[1]]", "[null]", "[1.5, 0]", "5", '"ab"',
              '{"a": 1}', "[1e400]", f"[{2 ** 64}]", "not json"]


@st.composite
def ergodic_argv(draw):
    """An ergodic invocation, and the text of the permutation file that a
    perm system reads.  Sizes are capped for run time only: m <= 40 (and
    skew m <= 12) besides 0, negatives and sizes past the budget, ranges
    of at most 30 times besides ranges past the budget."""
    small = st.integers(-3, 40)
    kind = draw(st.sampled_from(["rotation", "skew", "perm"]))
    m = draw((st.integers(-2, 12) if kind == "skew" else small)
             | st.sampled_from([4097, 2 ** 24 + 1, 10 ** 10, *HUGE]))
    system = {"perm": "perm:{path}"}.get(kind, f"{kind}:{m}")
    system += draw(st.sampled_from(["", ":3", ":-1", f":{10 ** 20}", ":x", ":1:2"]))
    system = system[:draw(st.integers(1, len(system)))]  # truncated literals too
    density = draw(st.sampled_from(["0.5", "0", "1", "nan", "inf", "-0.1", "2", "x"]))
    subset = draw(st.sampled_from([
        "all", "nope", "list:", f"random:{density}", f"random:{density}:7",
        f"range:{draw(small | st.sampled_from(HUGE))}:{draw(small | st.sampled_from(HUGE))}",
        "list:" + ",".join(map(str, draw(st.lists(small | st.sampled_from(HUGE),
                                                  max_size=5)))),
    ]))
    start = draw(small | st.sampled_from(HUGE))
    times = draw(st.sampled_from([
        f"{start}..{start + draw(st.integers(-3, 30) | st.sampled_from([4096, *HUGE]))}",
        ",".join(map(str, draw(st.lists(small | st.sampled_from(HUGE), max_size=8)))),
        "1..2..3", "",
    ]))
    constants = ",".join(map(str, draw(st.lists(st.integers(-4, 4) | st.sampled_from(HUGE),
                                                max_size=5))))
    eps = draw(st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e-300]))
    argv = ["ergodic", "--action", draw(st.sampled_from(["measure", "khintchine", "griesmer"])),
            "--system", system, "--subset", subset,
            "--shift", str(draw(small | st.sampled_from(HUGE))), "--eps", repr(eps),
            "--times", times, "--constants", constants]
    if draw(st.booleans()):
        argv.append("--permissive")
    return argv, draw(st.sampled_from(PERM_FILES))


@settings(max_examples=200, deadline=None)
@given(case=ergodic_argv())
@example(case=(["ergodic", "--action", "griesmer", "--system", "rotation:30", "--subset",
                "random:0.5:7", "--eps", "0.1", "--times", "-3..9", "--constants",
                f"1,{-10 ** 20},2"], "[]"))
# 1/eps overflows a float: ceil(1/eps) was an OverflowError traceback
@example(case=(["ergodic", "--action", "khintchine", "--system", "rotation:10", "--subset",
                "list:0", "--eps", "5e-324", "--times", "1,2"], "[]"))
@example(case=(["ergodic", "--action", "griesmer", "--system", "rotation:10", "--subset",
                "list:0", "--eps", "5e-324", "--times", "1,2"], "[]"))
# a permutation file of nested lists was a TypeError traceback
@example(case=(["ergodic", "--action", "measure", "--system", "perm:{path}", "--subset",
                "all"], "[[1]]"))
# a permutation file of non-integers was truncated to [1, 0] and answered
@example(case=(["ergodic", "--action", "measure", "--system", "perm:{path}", "--subset",
                "list:0", "--shift", "1"], "[1.9, 0.2]"))
def test_ergodic_cli_fuzz_exits_0_1_or_2_with_strict_json(case, tmp_path_factory):
    argv, perm_file = case
    path = tmp_path_factory.mktemp("perm") / "perm.json"
    path.write_text(perm_file)
    assert_cli_contract([arg.replace("{path}", str(path)) for arg in argv])


@pytest.mark.filterwarnings("error")  # capsys does not see a numpy warning
@pytest.mark.parametrize("lattice,alpha", [("scaled:nan:1", "0.3"),
                                           ("scaled:inf:2", "0.3,0.1"),
                                           ("file", "0.3")])
def test_non_finite_lattice_basis_is_refused_in_one_line(lattice, alpha, tmp_path,
                                                         capsys):
    if lattice == "file":
        path = tmp_path / "lattice.json"
        path.write_text('[{"dim": 1, "basis": [[NaN]]}]')
        lattice = f"file:{path}"
    assert main(["dioph", "--action", "average", "--lattice", lattice,
                 "--alpha", alpha]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: block basis must have finite entries\n"


@pytest.mark.parametrize("argv,message", [
    (["dioph", "--action", "denominator", "--theta", "0.3", "--N", "100", "--q-max", "10",
      "--c-exp", "nan"], "error: need finite c_exponent\n"),
    (["dioph", "--action", "denominator", "--theta", "0.3", "--N", "100", "--q-max", "10",
      "--c-exp", "inf"], "error: need finite c_exponent\n"),
    (["dioph", "--action", "denominator", "--theta", "0.3", "--N", "100", "--q-max", "10",
      "--c-exp", "1e6"], "error: thresholds overflow: c_exponent too large\n"),
    (["dioph", "--action", "schmidt", "--lattice", "int:1,1", "--alpha", "0.3;0.4",
      "--N", "200", "--q-max", "100", "--radius", "nan"],
     "error: need q_max >= 1, finite radius_max > 0, quality > 0\n"),
    (["dioph", "--action", "schmidt", "--lattice", "int:1,1", "--alpha", "0.3;0.4",
      "--N", "200", "--q-max", "100", "--radius", "inf"],
     "error: need q_max >= 1, finite radius_max > 0, quality > 0\n"),
])
def test_non_finite_dioph_parameters_exit_2_with_one_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


@pytest.mark.filterwarnings("error")  # capsys does not see a numpy warning
@pytest.mark.parametrize("lattice,message", [
    ("scaled:1e200:1", "lattice enumeration box is not finite"),
    ("scaled:1e-200:1", "lattice enumeration box is not finite"),
    ("scaled:1e-100:1", "lattice enumeration budget exceeded"),
    # (2e30 (s + 1))^10 overflows, where the tail radius search never ended
    ("scaled:1e-30:10", "Gaussian tail radius is not finite"),
])
def test_extreme_lattice_scales_are_refused_in_one_line(lattice, message, capsys):
    assert main(["dioph", "--action", "mass", "--lattice", lattice]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith(f"error: {message}")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_report_that_is_not_strict_json_exits_1_in_one_line(bad, monkeypatch, capsys):
    monkeypatch.setattr("polyrec.cli.gaussian_mass", lambda lattice, tol: bad)
    assert main(["dioph", "--action", "mass", "--lattice", "int:1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("internal check failed: report is not strict JSON")


def test_an_output_path_that_cannot_be_written_exits_2_in_one_line(tmp_path, capsys):
    assert main(["--output", str(tmp_path / "missing" / "out.json"), "selftest"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


BIG = "1125899906842624.25"  # 2^50 + 1/4: n * BIG passes the phase limit at n = 1


@pytest.mark.parametrize("argv", [
    ["dioph", "--action", "goodset", "--alpha", BIG, "--eps", "0.2"],
    ["dioph", "--action", "denominator", "--theta", BIG],
    ["dioph", "--action", "average", "--lattice", "int:1", "--alpha", BIG],
    ["dioph", "--action", "goodset", "--alpha", "nan"],
    ["dioph", "--action", "average", "--lattice", "int:1", "--alpha", "nan"],
])
def test_phases_past_the_limit_exit_2_with_one_line(argv, capsys):
    assert main([*argv, "--N", "20000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "phase reduction" in captured.err


#: Orbit lengths of the dioph fuzz past every check: the scan budget + 1, 10^12.
ORBIT_PAST = [10_000_001, 10 ** 12]
#: Reals of the dioph fuzz: non-finite, zero, negative, subnormal and huge.
ODD_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, -0.5, 5e-324, 1e300]
#: Odd entries of alpha and theta: a zero denominator, fractions past int64
#: and past float range, huge, infinite and NaN values, and text that is no
#: number; the other entries are floats in [-4, 4] and small fractions.
ODD_ENTRIES = ["1/0", f"{2 ** 70 + 1}/2", "1" + "0" * 400 + "/3", "1e20", "1e300", "1e400",
               "nan", "-inf", "x", ""]
#: Lattice files of the dioph fuzz, valid or not.
LATTICE_FILES = ['[{"dim": 1}]', '[{"dim": 2, "basis": [[1, 0.5], [0, 2]]}, {"dim": 0}]',
                 "[]", "[{}]", '[{"dim": -1}]', '[{"dim": 1.5}]',
                 '[{"dim": 1, "basis": [[0]]}]',
                 '[{"dim": 1, "basis": "ab"}]', "[1]", '{"dim": 1}', "null",
                 '[{"dim": 1, "basis": [[NaN]]}]', '[{"dim": 1, "basis": [[1e400]]}]',
                 '[{"dim": 1000000}]', "not json"]


def mostly(usual, odd):
    """Draws from `usual` seven times in eight, else from `odd`."""
    return st.integers(0, 7).flatmap(lambda k: usual if k else odd)


@st.composite
def dioph_argv(draw):
    """A dioph invocation, and the text of the lattice file that a file:
    lattice reads.  Sizes are capped for run time only: N <= 60, q_max <=
    60, up to 3 blocks of dimension <= 2 and reals in [-4, 4], besides the
    odd values above, 0, negatives, huge dimensions and lengths past the
    budget.  Each value is a usual one seven times in eight, and alpha then
    has one block per lattice block."""
    dims = draw(st.lists(mostly(st.integers(0, 2), st.sampled_from([-1, 14, 1000, 10 ** 6])),
                         min_size=1, max_size=3))
    dim_text = ",".join(map(str, dims))
    scale = draw(mostly(st.sampled_from(["0.5", "1", "6"]),
                        st.sampled_from(["nan", "inf", "0", "-1", "1e-30", "1e200"])))
    lattice = draw(st.sampled_from([f"int:{dim_text}", f"scaled:{scale}:{dim_text}",
                                    "file:{path}"]))
    if not draw(st.integers(0, 7)):
        lattice = lattice[:draw(st.integers(1, len(lattice)))]  # truncated literals
    usual = st.floats(-4, 4).map(repr) | st.fractions(-4, 4, max_denominator=12).map(str)
    entry = mostly(usual, st.sampled_from(ODD_ENTRIES))
    sizes = draw(mostly(st.just([max(0, min(d, 2)) for d in dims]),
                        st.lists(st.integers(0, 3), min_size=1, max_size=3)))
    alpha = ";".join(",".join(draw(st.lists(entry, min_size=d, max_size=d))) for d in sizes)
    reals = mostly(st.floats(-4, 4), st.sampled_from(ODD_FLOATS))
    length = mostly(st.integers(-2, 60), st.sampled_from(ORBIT_PAST))
    argv = ["dioph", "--action", draw(st.sampled_from(["mass", "average", "bounds",
                                                       "schmidt", "goodset", "denominator"]))]
    options = {"--lattice": lattice, "--alpha": alpha,
               "--theta": ",".join(draw(st.lists(entry, min_size=1, max_size=3))),
               "--poly": draw(st.sampled_from(["0,1", "1;0,1", "0,0,1;1", "", "x"])),
               "--N": draw(length), "--q-max": draw(length), "--q": draw(st.integers(-1, 30)),
               "--eps": draw(reals), "--c": draw(reals), "--radius": draw(reals),
               "--delta": draw(reals), "--c-exp": draw(reals)}
    for flag, value in options.items():
        if draw(mostly(st.just(True), st.booleans())):
            argv.append(f"{flag}={value}")  # '=' keeps a leading '-' a value
    if draw(st.booleans()):
        argv.append("--check-dual")
    return argv, draw(st.sampled_from(LATTICE_FILES))


@settings(max_examples=200, deadline=None)
@given(case=dioph_argv())
@example(case=(["dioph", "--action", "schmidt", "--lattice=scaled:6:1,1",
                "--alpha=2.5;1.7", "--N=4", "--radius=0.9", "--q-max=10000001"], "[]"))
@example(case=(["dioph", "--action", "denominator", "--theta=0.3", "--N=10000001"], "[]"))
# each was a traceback or a RuntimeWarning line on stderr: a fraction past
# float range, lattice files that are no list of blocks, an identity basis
# of 10^6 dimensions, a determinant past float range, an infinite entry
@example(case=(["dioph", "--action", "average", "--lattice=int:1",
                "--alpha=1" + "0" * 400 + "/3"], "[]"))
@example(case=(["dioph", "--action", "mass", "--lattice=file:{path}"], "[{}]"))
@example(case=(["dioph", "--action", "mass", "--lattice=file:{path}"], '{"dim": 1}'))
@example(case=(["dioph", "--action", "mass", "--lattice=int:1000000"], "[]"))
@example(case=(["dioph", "--action", "mass", "--lattice=scaled:1e200:2"], "[]"))
@example(case=(["dioph", "--action", "schmidt", "--lattice=int:2", "--alpha=1e400,1.9"], "[]"))
def test_dioph_cli_fuzz_exits_0_1_or_2_with_strict_json(case, tmp_path_factory):
    argv, lattice_file = case
    path = tmp_path_factory.mktemp("lattice") / "lattice.json"
    path.write_text(lattice_file)
    assert_cli_contract([arg.replace("{path}", str(path)) for arg in argv])


#: Sizes of the kernel fuzz past a budget: the ambient budget + 1 (search and
#: decompose), the Weyl budgets + 1 (M and N) and 10^12.
PAST_BUDGET = [2_000_001, 10_000_001, 10 ** 12]
#: Set literals of the kernel fuzz, valid or not.
SEARCH_SETS = ["full", "evens", "even", "ap:3:4", "ap:5:100", "ap:0:1", "random:0.5",
               "random:0.3:7", "random:2", "random:nan", "primes"]


@st.composite
def kernel_argv(draw):
    """A search, decompose, weyl, tarry or selftest invocation, with or
    without --seed.  Sizes are capped for run time only: N <= 400 (a Weyl
    modulus <= 3000), M <= 40, K <= 4 (and a Weyl K of 300) and k <= 3,
    besides 0, negatives and sizes past a budget; reals are floats in [0, 2]
    besides ODD_FLOATS, and coefficients are those of the lift fuzz.  Each
    size is a usual one seven times in eight."""
    past = st.sampled_from(PAST_BUDGET + HUGE)
    n = str(draw(mostly(st.integers(-2, 400), past)))
    reals = mostly(st.floats(0, 2), st.sampled_from(ODD_FLOATS))
    members = st.lists(st.sampled_from(LIFT_COEFFICIENTS), max_size=3)
    family = ";".join(",".join(map(str, m)) for m in draw(st.lists(members, min_size=1,
                                                                   max_size=3)))
    literal = draw(st.sampled_from(SEARCH_SETS))
    literal = literal[:draw(st.integers(1, len(literal)))]  # truncated literals too
    command = draw(st.sampled_from(["search", "decompose", "weyl", "tarry", "selftest"]))
    if command == "search":
        argv = ["search", "--N", n, "--set", literal, f"--poly={family}",
                "--eps", repr(draw(reals)), "--c", repr(draw(reals)),
                "--mode", draw(st.sampled_from(["integer", "cyclic", "x"]))]
        if draw(st.booleans()):
            argv.append("--permissive")
    elif command == "decompose":
        argv = ["decompose", "--N", n, "--eps", repr(draw(reals))]
        if draw(st.booleans()):
            argv += ["--set", literal]
    elif command == "weyl":
        argv = ["weyl", f"--poly={family.split(';')[0]}",
                "--M", str(draw(mostly(st.integers(-2, 40), past))),
                "--N", str(draw(mostly(st.integers(-2, 3000), past))),
                "--K", str(draw(mostly(st.integers(-1, 4), st.just(300)))),
                "--weights", draw(st.sampled_from(["unit", "random"]))]
    elif command == "tarry":
        argv = ["tarry", "--K", str(draw(st.integers(-1, 4))),
                "--k", str(draw(st.integers(-1, 3))),
                "--method", draw(st.sampled_from(["auto", "convolution", "mitm"]))]
        ms = st.lists(mostly(st.integers(-2, 40), past), max_size=4)
        if draw(st.booleans()):
            argv += ["--growth", ",".join(map(str, draw(ms)))]
        elif draw(mostly(st.just(True), st.just(False))):  # tarry needs --M
            argv += ["--M", str(draw(mostly(st.integers(-2, 40), past)))]
    else:
        argv = ["selftest"]
    seed = draw(st.none() | st.integers(-1, 2 ** 32) | st.sampled_from(HUGE))
    return (["--seed", str(seed)] if seed is not None else []) + argv


#: Runs assert_cli_contract on each argv of a JSON list in a child whose
#: address space is capped 1 GiB above its size after import: room for
#: every answer the fuzz admits, and far below what a size past a budget
#: would allocate (10^12 int64 points take 8 TB).  Each argv is printed
#: before it runs, so the last line of stdout names a failing one.
_CAPPED_BATCH = capped_child(1024, "import json, sys\n"
                                   "sys.path.insert(0, sys.argv[1])\n"
                                   "from cli_contract import assert_cli_contract\n",
                             "for argv in json.loads(sys.argv[2]):\n"
                             "    print(json.dumps(argv), flush=True)\n"
                             "    assert_cli_contract(argv)\n")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
@settings(max_examples=12, deadline=None)
@given(batch=st.lists(kernel_argv(), min_size=1, max_size=10))
@example(batch=[["search", "--N", "1000000000000", "--set", "evens", "--poly=1", "--eps", "0.1"],
                ["decompose", "--N", "1000000000000", "--eps", "0.1"],
                ["decompose", "--N", "2000001", "--eps", "0.1", "--set", "evens"],
                # eps ** -2 overflowed: an OverflowError traceback
                ["decompose", "--N", "10", "--eps", "1e-300"],
                ["search", "--N", "10", "--set", "full", "--poly=1", "--eps", "1e300"],
                ["weyl", "--poly=1", "--M", "10000000000000", "--N", "7", "--weights", "random"],
                ["tarry", "--K", "2", "--k", "1", "--growth", "1,1000000000000"],
                ["--seed", "-1", "selftest"]])
def test_kernel_cli_fuzz_exits_0_1_or_2_with_strict_json(batch):
    tests = str(Path(__file__).resolve().parent)
    out = subprocess.run([sys.executable, "-c", _CAPPED_BATCH, tests, json.dumps(batch)],
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, (out.stdout.splitlines()[-1:], out.stderr[-2000:])
