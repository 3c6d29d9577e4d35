"""Property tests of the exact counting kernels against tests/oracles.py.

The kernels are the FFT correlation in zn_fourier (behind every
intersection count) and the shift-and-add and grouping kernels in
weyl_tarry (behind every solution count).  Each draw is small enough for
the oracles' direct enumeration.
"""

import math
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrec import recurrence, zn_fourier
from polyrec.cli import main
from polyrec.intset import IntegerSet
from polyrec.polyfam import IntPolynomial, PolynomialFamily, shift_range
from polyrec.recurrence import CYCLIC, INTEGER, _intersection_counts, intersection_profile
from polyrec.weyl_tarry import (SIGNATURE_BUDGET, count_solutions_mod, tarry_count,
                                tarry_count_poly)
from polyrec.zn_fourier import ExactnessError, exact_correlation

from oracles import (grouped_tarry, naive_count_solutions, naive_count_solutions_mod,
                     naive_cross_correlation, naive_intersection_cyclic,
                     naive_intersection_integer, naive_tarry)

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
    with mock.patch.object(recurrence, "_count_directly", lambda *args: direct):
        assert _intersection_counts(a, shifts, mode).tolist() == want


def _route(n, shifts, mode):
    """The route _intersection_counts takes for these shifts at modulus n."""
    rule = recurrence._count_directly
    taken = []
    with mock.patch.object(recurrence, "_count_directly",
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
        sr = shift_range(family, a.n, 0.5)
    except ValueError:
        return
    mc = min(m, sr.m)
    if mc < 1:
        return
    table = intersection_profile(a, family, mc, mode=CYCLIC, validated=sr)
    for row, poly in zip(table, family):
        assert list(row) == [Fraction(naive_intersection_cyclic(a.elements, a.n,
                                                                poly.evaluate(x)), a.n)
                             for x in range(1, mc + 1)]


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
            mock.patch.object(recurrence, "_count_directly", lambda *args: False):
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
    # scale 10^6 stretches the value range past the signature budget
    poly = IntPolynomial(tuple(c * scale for c in poly.coefficients))
    out = tarry_count_poly(poly, k_order, m)
    assert out.count == naive_count_solutions(poly, m, k_order)
    lo = min(poly.evaluate(x) for x in range(1, m + 1))
    hi = max(poly.evaluate(x) for x in range(1, m + 1))
    line = k_order * (hi - lo) + 1
    assert out.method == ("convolution" if line <= SIGNATURE_BUDGET else "mitm")


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
    assert tarry_count_poly(poly, 32, 3).count == _python_square_sum(values, 32)
    assert tarry_count(32, 1, 2).count == math.comb(64, 32)
    # 2 * 3^40 passes int64: the grouping ranks that coordinate in Python integers
    assert tarry_count(2, 40, 3, method="mitm").count == naive_tarry(2, 40, 3)


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
            "from polyrec.zn_fourier import ExactnessError, exact_correlation\n"
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
])
def test_refusals_exit_2_with_one_line(argv, capsys):
    assert main(argv) == 2
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
