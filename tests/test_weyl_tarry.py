import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrec import weyl_tarry
from polyrec.polyfam import IntPolynomial
from polyrec.weyl_tarry import (_equal_sums, count_mod_admitted, count_solutions_mod,
                                growth_probe, moment_2k, tarry_count, value_range, weyl_sum,
                                wrap_free)

from oracles import (grouped_tarry, naive_count_solutions_mod, naive_moment, naive_tarry,
                     naive_value_span, naive_weyl_sum)


def test_weyl_sum_matches_direct_summation():
    rng = random.Random(2)
    for _ in range(20):
        coeffs = [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
        coeffs.append(rng.choice([-3, -1, 1, 2]))
        poly = IntPolynomial(tuple(coeffs))
        m = rng.randint(1, 30)
        n = rng.randint(2, 60)
        s = weyl_sum(poly, m, n)
        for xi in (0, 1, n // 2, n - 1):
            want = naive_weyl_sum(poly, m, n, xi)
            assert abs(s.values[xi] - want) < 1e-9


def test_weyl_sum_with_signed_weights():
    poly = IntPolynomial((0, 1))
    weights = [1, -1, 1, -1, 1]
    s = weyl_sum(poly, 5, 17, weights)
    for xi in range(17):
        want = naive_weyl_sum(poly, 5, 17, xi, weights)
        assert abs(s.values[xi] - want) < 1e-9


def test_weights_validated():
    poly = IntPolynomial((1,))
    with pytest.raises(ValueError):
        weyl_sum(poly, 3, 10, [1, 2, 1])
    with pytest.raises(ValueError):
        weyl_sum(poly, 3, 10, [1, 1])


def test_moment_matches_naive():
    poly = IntPolynomial((0, 1))
    s = weyl_sum(poly, 4, 12)
    want = naive_moment(poly, 4, 12, 2)
    assert abs(moment_2k(s, 2) - want) < 1e-8 * want


def test_moment_identity_unweighted():
    # sum_xi |S|^2K = N * #solutions of the mod-N power-sum equation
    for poly_text, m, n, k in [("0,1", 5, 30, 2), ("1", 7, 20, 2),
                               ("1,1", 4, 25, 1), ("0,0,2", 3, 40, 2)]:
        poly = IntPolynomial.parse(poly_text)
        s = weyl_sum(poly, m, n)
        count = count_solutions_mod(poly, m, n, k)
        assert abs(moment_2k(s, k) - n * count) < 1e-8 * n * count


def test_moment_inequality_signed_weights():
    rng = random.Random(9)
    poly = IntPolynomial((0, 1))
    count = count_solutions_mod(poly, 6, 24, 2)
    for _ in range(25):
        weights = [rng.choice([1, -1]) for _ in range(6)]
        s = weyl_sum(poly, 6, 24, weights)
        assert moment_2k(s, 2) <= 24 * count * (1 + 1e-12)


def test_count_solutions_matches_naive():
    for poly_text, m, n, k in [("0,1", 3, 11, 2), ("1", 4, 9, 2),
                               ("2,1", 3, 15, 1)]:
        poly = IntPolynomial.parse(poly_text)
        got = count_solutions_mod(poly, m, n, k)
        want = naive_count_solutions_mod(poly, m, n, k)
        assert got == want


def test_value_range_and_wrap_free():
    poly = IntPolynomial((-2, 1))  # n^2 - 2n, negative at n=1
    assert value_range(poly, 3) == (-1, 3)
    # K * (max - min) = 4 is not < 4, so a wrap can occur on Z_4
    assert not wrap_free(poly, 3, 4, 1)
    assert wrap_free(poly, 3, 5, 1)
    # mixed-sign families need the full spread, not max |P|: on Z_4 the
    # values -1 and 3 collide mod 4 even though K * max|P| = 3 < 4
    assert count_solutions_mod(poly, 3, 4, 1) == 5
    assert count_solutions_mod(poly, 3, 5, 1) == 3


def test_wrap_free_means_modular_count_equals_integer_count():
    rng = random.Random(21)
    for _ in range(25):
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(0, 1))]
        coeffs.append(rng.choice([-2, -1, 1, 2]))
        poly = IntPolynomial(tuple(coeffs))
        m = rng.randint(2, 6)
        k = rng.randint(1, 2)
        lo, hi = value_range(poly, m)
        n = k * (hi - lo) + 1 + rng.randint(0, 10)
        assert wrap_free(poly, m, n, k)
        # big enough modulus: solutions mod N are exactly integer solutions
        free_count = count_solutions_mod(poly, m, n, k)
        assert free_count == count_solutions_mod(poly, m, n + 17, k)


def test_tarry_small_cases_frozen():
    # K=2, k=1: J = (2M^3 + M) / 3
    assert tarry_count(2, 1, 2).count == 6
    assert tarry_count(2, 1, 3).count == 19
    assert tarry_count(2, 1, 10).count == 670
    # K=1: only the diagonal
    for m in (1, 4, 9):
        assert tarry_count(1, 3, m).count == m


def test_tarry_methods_agree_with_enumeration():
    cases = [(2, 1, 4), (2, 2, 4), (3, 1, 3), (2, 3, 3), (3, 2, 3)]
    for k_order, degree, m in cases:
        want = naive_tarry(k_order, degree, m)
        conv = tarry_count(k_order, degree, m, method="convolution")
        mitm = tarry_count(k_order, degree, m, method="mitm")
        assert conv.count == want, (k_order, degree, m)
        assert mitm.count == want, (k_order, degree, m)


def test_tarry_grouped_oracle_larger_grid():
    for k_order, degree, m in [(2, 1, 25), (2, 2, 12), (3, 1, 8), (3, 2, 6)]:
        want = grouped_tarry(k_order, degree, m)
        assert tarry_count(k_order, degree, m).count == want


def test_tarry_diagonal_lower_bound():
    rng = random.Random(6)
    for _ in range(20):
        k_order = rng.randint(1, 3)
        degree = rng.randint(1, 3)
        m = rng.randint(1, 8)
        assert tarry_count(k_order, degree, m).count >= m ** k_order


def _poly_count(poly, k_order, m):
    """The integer count of one polynomial, with the oracle's span of P."""
    return _equal_sums((poly,), k_order, m, spans=[naive_value_span(poly, m)])


def test_tarry_poly_reduces_to_plain_tarry():
    # P(n) = n with degree-1 matching is Tarry with k = 1
    poly = IntPolynomial((1,))
    for m in (2, 5, 9):
        assert _poly_count(poly, 2, m)[0] == tarry_count(2, 1, m).count


def test_tarry_entry_points_agree_past_the_old_poly_work_bound():
    # a count of one polynomial once refused this with a work formula of its own
    out = _poly_count(IntPolynomial((1,)), 2, 5000)
    want = tarry_count(2, 1, 5000)
    assert out == (want.count, want.method)
    assert out[0] == (2 * 5000 ** 3 + 5000) // 3


def test_tarry_poly_matches_brute_force():
    from itertools import product
    rng = random.Random(13)
    for _ in range(10):
        coeffs = [rng.randint(-3, 3) for _ in range(rng.randint(0, 1))]
        coeffs.append(rng.choice([-2, 1, 3]))
        poly = IntPolynomial(tuple(coeffs))
        k_order = rng.randint(1, 2)
        m = rng.randint(2, 7)
        want = 0
        for xs in product(range(1, m + 1), repeat=k_order):
            sx = sum(poly.evaluate(x) for x in xs)
            for ys in product(range(1, m + 1), repeat=k_order):
                if sx == sum(poly.evaluate(y) for y in ys):
                    want += 1
        assert _poly_count(poly, k_order, m)[0] == want


def test_growth_probe_slope_near_cubic():
    rows = growth_probe(2, 1, [20, 40, 60, 80, 100])
    assert len(rows) == 5
    assert abs(rows[-1].fitted_slope - 3.0) < 0.4
    assert rows[-1].theory_exponent == 3.0


def test_growth_probe_needs_two_points():
    with pytest.raises(ValueError):
        growth_probe(2, 1, [50])


@settings(max_examples=80, deadline=None)
@given(m=st.integers(1, 40), n_modulus=st.integers(1, 300), k_order=st.integers(1, 12),
       budget=st.integers(1, 20_000))
def test_count_mod_admitted_is_the_rule_count_solutions_mod_applies(m, n_modulus, k_order,
                                                                    budget):
    # a small budget puts both sides of the rule in reach, on the int64 and on
    # the Python-integer weighting (M^(2K) > 2^62 from M = 6 at K = 12)
    with mock.patch.object(weyl_tarry, "DENSE_BUDGET", budget):
        admitted = count_mod_admitted(m, n_modulus, k_order)
        try:
            count = count_solutions_mod(IntPolynomial((1, 1)), m, n_modulus, k_order)
        except ValueError as exc:
            assert str(exc).startswith("shift-and-add budget exceeded")
            count = None
    assert admitted == (count is not None)
    if admitted and m ** (2 * k_order) <= 20_000:
        assert count == naive_count_solutions_mod(IntPolynomial((1, 1)), m, n_modulus, k_order)


def test_count_solutions_mod_refuses_n_past_the_weyl_budget_before_it_allocates():
    # its cyclic layers of N = 3*10^9 entries would take 22.4 GiB
    assert not count_mod_admitted(1, 3 * 10 ** 9, 1)
    with mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
        with pytest.raises(ValueError, match="Weyl sum budget exceeded: need N <= 10000000"):
            count_solutions_mod(IntPolynomial((1,)), 1, 3 * 10 ** 9, 1)


def test_grouping_admits_weighted_key_entries():
    # M^K sums per key column, a column summed in Python integers counting
    # 50: 2^62 n spans past 2^63 / K from M = 2 on
    with mock.patch.object(weyl_tarry, "MITM_BUDGET", 200):
        assert tarry_count(2, 1, 14, method="mitm").count == grouped_tarry(2, 1, 14)
        assert tarry_count(2, 2, 10, method="mitm").count == grouped_tarry(2, 2, 10)
        assert _poly_count(IntPolynomial((2 ** 62,)), 2, 2)[0] == 6
        for refused in (lambda: tarry_count(2, 1, 15, method="mitm"),
                        lambda: tarry_count(2, 2, 11, method="mitm"),
                        lambda: _poly_count(IntPolynomial((2 ** 62,)), 2, 3)):
            with pytest.raises(ValueError, match="meet-in-the-middle budget exceeded"):
                refused()


def test_tarry_count_refuses_a_degree_past_its_budget_before_any_monomial():
    with mock.patch.object(weyl_tarry, "IntPolynomial", side_effect=AssertionError("built")):
        with pytest.raises(ValueError, match="degree budget exceeded: need k <= 64"):
            tarry_count(2, 10 ** 6, 2)


def test_pricing_weighs_python_integers_by_word_length_and_charges_each_layer():
    # a flat weight per Python-integer add admitted this (20.3 s); with no cost
    # per layer both routes admitted a million layers of one entry (12.9 s, 1.8 s)
    assert not count_mod_admitted(5, 7, 100_000)
    with pytest.raises(ValueError, match="shift-and-add budget exceeded"):
        count_solutions_mod(IntPolynomial((0, 1)), 5, 7, 100_000)
    for method, refusal in [("auto", "shift-and-add"), ("mitm", "meet-in-the-middle")]:
        with pytest.raises(ValueError, match=f"{refusal} budget exceeded"):
            tarry_count(1_000_000, 1, 1, method)
    # the rules' own edges are admitted: 16,000 adds or 40 entries per layer
    assert count_mod_admitted(5, 7, 26_364) and not count_mod_admitted(5, 7, 26_365)
    with mock.patch.object(weyl_tarry, "_shift_add_square_sum", return_value=1), \
            mock.patch.object(weyl_tarry, "_grouped_square_sum", return_value=1):
        assert tarry_count(249_984, 1, 1).count == 1
        assert tarry_count(500_000, 1, 1, "mitm").count == 1
        with pytest.raises(ValueError, match="meet-in-the-middle budget exceeded"):
            tarry_count(500_001, 1, 1, "mitm")
