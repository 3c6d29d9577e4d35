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

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    assert _intersection_counts(a, shifts, mode) == want


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
    head = exact_correlation(a, b, max_lag=max_lag)
    assert head.shape == (max_lag + 1,) * a.ndim
    for lag in np.ndindex(head.shape):
        assert head[lag] == naive_cross_correlation(a, b, lag)


@PROPERTY
@given(pair=array_pairs())
def test_exact_correlation_cyclic(pair):
    a, _ = pair
    b = np.roll(a[::-1], 1) * 3 - 1
    out = exact_correlation(a, b, cyclic=True)
    for lag in np.ndindex(a.shape):
        assert out[lag] == naive_cross_correlation(a, b, lag, cyclic=True)


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
])
def test_refusals_exit_2_with_one_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
