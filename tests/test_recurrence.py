import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrec import recurrence
from polyrec.intset import IntegerSet, generate_set
from polyrec.polyfam import IntPolynomial, PolynomialFamily, shift_range
from polyrec.recurrence import (decompose, default_schedule, find_good_shifts,
                                intersection_profile, uniform_certificate)
from polyrec.zn_fourier import (ZnFunction, balanced_function, dft, ellp_norm,
                                indicator, lp_norm)

from oracles import naive_decompose, naive_intersection_cyclic, naive_intersection_integer


def _random_family(rng):
    ell = rng.randint(1, 3)
    polys = []
    for _ in range(ell):
        k = rng.randint(1, 3)
        coeffs = [rng.randint(-3, 3) for _ in range(k - 1)]
        coeffs.append(rng.choice([-2, -1, 1, 2]))
        polys.append(IntPolynomial(tuple(coeffs)))
    return PolynomialFamily(tuple(polys))


def test_profile_evens_under_square_shifts():
    a = generate_set("evens", 100)
    fam = PolynomialFamily.parse(["0,1"])
    table = intersection_profile(a, fam, 5)
    # even squares translate evens onto evens, odd squares onto odds
    assert table[0][1 - 1] == 0          # shift 1
    assert table[0][2 - 1] == Fraction(48, 100)   # shift 4
    assert table[0][3 - 1] == 0          # shift 9
    assert table[0][4 - 1] == Fraction(42, 100)   # shift 16
    assert table[0][5 - 1] == 0          # shift 25


def test_profile_matches_naive_both_modes():
    rng = random.Random(23)
    for trial in range(12):
        n = rng.randint(30, 300)
        a = generate_set("random", n, density=rng.uniform(0.2, 0.8), seed=trial)
        if a.size == 0:
            continue
        fam = _random_family(rng)
        m = rng.randint(1, 6)
        table = intersection_profile(a, fam, m, mode="integer")
        for i, poly in enumerate(fam):
            for idx in range(1, m + 1):
                want = naive_intersection_integer(a.elements, n, poly.evaluate(idx))
                assert table[i][idx - 1] == Fraction(want, n)
        try:
            sr = shift_range(fam, n, 0.4)
        except ValueError:
            continue
        mc = min(m, sr.m)
        if mc < 1:
            continue
        table_c = intersection_profile(a, fam, mc, mode="cyclic", validated=sr)
        for i, poly in enumerate(fam):
            for idx in range(1, mc + 1):
                want = naive_intersection_cyclic(a.elements, n, poly.evaluate(idx))
                assert table_c[i][idx - 1] == Fraction(want, n)


def test_cyclic_mode_requires_matching_validation():
    a = generate_set("evens", 100)
    fam = PolynomialFamily.parse(["0,1"])
    sr = shift_range(fam, 100, 0.3)
    with pytest.raises(ValueError):
        intersection_profile(a, fam, 3, mode="cyclic")
    with pytest.raises(ValueError):
        intersection_profile(a, fam, sr.m + 1, mode="cyclic", validated=sr)
    other = shift_range(fam, 200, 0.3)
    with pytest.raises(ValueError):
        intersection_profile(a, fam, 2, mode="cyclic", validated=other)
    # matching validation passes
    intersection_profile(a, fam, sr.m, mode="cyclic", validated=sr)


def test_find_good_shifts_evens_square():
    a = generate_set("evens", 10000)
    fam = PolynomialFamily.parse(["0,1"])
    report = find_good_shifts(a, fam, 0.1)
    assert report.m == 31
    assert report.good_shifts == tuple(range(2, 32, 2))
    assert report.density_of_good == Fraction(15, 31)
    assert report.threshold == Fraction(1, 4) - Fraction(0.1)
    assert report.within_hypotheses
    assert not report.empty


def test_find_good_shifts_threshold_is_strict():
    # with eps = density^2 the threshold is exactly 0; odd squares give a
    # profile of exactly 0, and 0 > 0 is false, so they are excluded
    a = generate_set("evens", 100)
    fam = PolynomialFamily.parse(["0,1"])
    report = find_good_shifts(a, fam, 0.25)
    assert report.threshold == 0
    assert report.m == 5
    assert report.good_shifts == (2, 4)
    # nudging eps past the tie flips every shift to good
    report = find_good_shifts(a, fam, 0.26)
    assert report.good_shifts == (1, 2, 3, 4, 5)


def test_find_good_shifts_rejects_mixed_degrees():
    a = generate_set("evens", 1000)
    fam = PolynomialFamily.parse(["1", "0,1"])
    with pytest.raises(ValueError):
        find_good_shifts(a, fam, 0.1)
    report = find_good_shifts(a, fam, 0.1, permissive=True)
    assert not report.within_hypotheses


def test_decompose_contracts_on_seeded_inputs():
    rng = np.random.default_rng(31)
    for trial in range(30):
        n = int(rng.integers(16, 400))
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = ZnFunction(n, vals)
        norm = lp_norm(f, 2)
        f = ZnFunction(n, vals / max(norm, 1.0))
        eps = float(rng.choice([0.12, 0.25, 0.5]))
        out = decompose(f, eps)
        # the three parts recombine exactly
        total = out.f1.values + out.f2.values + out.f3.values
        assert np.max(np.abs(total - f.values)) < 1e-9
        # spectral supports are disjoint
        s1 = set(np.flatnonzero(np.abs(dft(out.f1).coefficients) > 1e-13))
        s2 = set(np.flatnonzero(np.abs(dft(out.f2).coefficients) > 1e-13))
        s3 = set(np.flatnonzero(np.abs(dft(out.f3).coefficients) > 1e-13))
        assert not (s1 & s2) and not (s1 & s3) and not (s2 & s3)
        # norm contracts
        assert len(out.support) == out.m
        assert ellp_norm(dft(out.f1), 1) <= out.m * 1.0 + 1e-9  # m terms, each <= 1
        assert lp_norm(out.f3, 2) <= eps + 1e-9
        assert ellp_norm(dft(out.f2), math.inf) <= out.eta_of_m + 1e-12
        assert out.rounds <= math.ceil(eps ** -2)


def test_decompose_support_is_the_largest_coefficients():
    a = generate_set("random", 64, density=0.5, seed=2)
    g = balanced_function(a)
    out = decompose(g, 0.3)
    spec = np.abs(dft(g).coefficients)
    support_mags = sorted(spec[list(out.support)], reverse=True)
    rest = np.delete(spec, list(out.support))
    if len(rest) and support_mags:
        assert min(support_mags) >= np.max(rest) - 1e-12


def test_decompose_rejects_functions_outside_unit_ball():
    f = ZnFunction(8, 3.0 * np.ones(8))
    with pytest.raises(ValueError):
        decompose(f, 0.2)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_decompose_refuses_non_finite_values(bad):
    vals = np.full(64, 0.01, dtype=complex)
    vals[3] = bad
    with pytest.raises(ValueError, match="finite values"):
        decompose(ZnFunction(64, vals), 0.3)


#: eps values that block masses of few-level functions can meet exactly
DECOMPOSE_EPS = [0.1, 0.15, 0.25, 0.3, 0.5]


@st.composite
def tied_functions(draw):
    """Real f on Z_n, n <= 64, from a few levels, often periodic: many
    coefficients tie, at zero and (often exactly) as |c(xi)| = |c(-xi)|."""
    n = draw(st.integers(1, 64))
    period = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    pattern = draw(st.lists(st.sampled_from([-0.5, -0.25, 0.0, 0.25, 0.5]),
                            min_size=period, max_size=period))
    return np.tile(np.asarray(pattern, dtype=complex), n // period)


@st.composite
def schedules(draw):
    """Custom schedules: one jump to N, a constant (marks then grow by one),
    or eta(t) = (t + step)^-1/2 (marks grow by step)."""
    kind = draw(st.sampled_from(["jump", "constant", "step"]))
    if kind == "jump":
        return lambda t: 1e-9
    if kind == "constant":
        level = draw(st.sampled_from([0.9, 0.5, 0.3, 0.2]))
        return lambda t: level
    step = draw(st.integers(1, 9))
    return lambda t: (t + step) ** -0.5


def _same_bits(got, want):
    """Bitwise equality, with -0.0 and 0.0 taken as the same zero."""
    return np.array_equal((got + 0.0).view(np.uint64), (want + 0.0).view(np.uint64))


@settings(max_examples=150, deadline=None)
@given(vals=tied_functions(), eps=st.sampled_from(DECOMPOSE_EPS),
       schedule=st.none() | schedules())
@example(vals=np.tile(np.array([0.5, 0.0, -0.25, 0.0], dtype=complex), 16), eps=0.1,
         schedule=lambda t: 0.2)
@example(vals=np.array([0.5, -0.5, 0.25] * 21, dtype=complex), eps=0.15,
         schedule=lambda t: (t + 1) ** -0.5)
@example(vals=np.array([0.25], dtype=complex), eps=0.3, schedule=None)
def test_decompose_matches_the_full_argsort_oracle(vals, eps, schedule):
    n = vals.size
    out = decompose(ZnFunction(n, vals), eps, schedule)
    eta = schedule if schedule is not None else default_schedule(eps)
    m, rounds, support, f1, f2, f3 = naive_decompose(vals, eps, eta)
    assert (out.m, out.rounds) == (m, rounds)
    assert np.array_equal(out.support, support)
    assert _same_bits(out.f1.values, f1)
    assert _same_bits(out.f2.values, f2)
    assert _same_bits(out.f3.values, f3)


def _counting(monkeypatch, module, name):
    """Wrap module.name so that each call records its first argument."""
    calls = []
    original = getattr(module, name)

    def wrapper(arg, *args, **kwargs):
        calls.append(arg)
        return original(arg, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_decompose_ranks_only_the_head_and_skips_empty_parts(monkeypatch):
    a = generate_set("random", 4096, density=0.3, seed=5)
    f = balanced_function(a)
    sorts = _counting(monkeypatch, np, "argsort")
    inverses = _counting(monkeypatch, recurrence, "inverse_dft")
    out = decompose(f, 0.25, schedule=lambda t: 0.2)
    # marks 1 -> 25: the first block closes below N, and f2 is the rest
    assert (out.m, out.rounds) == (1, 1)
    assert all(np.size(keys) < f.modulus for keys in sorts)
    assert len(inverses) == 3
    sorts.clear()
    inverses.clear()
    evens = balanced_function(generate_set("evens", 4096))  # one coefficient, at N/2
    out = decompose(evens, 0.25, schedule=lambda t: 1e-9)
    # marks 1 -> N: f1 is the top coefficient, f3 the rest and f2 is empty
    assert (out.m, out.rounds) == (1, 1) and out.support.tolist() == [2048]
    assert all(np.size(keys) < evens.modulus for keys in sorts)
    assert len(inverses) == 2
    assert not out.f2.values.any()


def test_decompose_rejects_bad_schedules():
    a = generate_set("random", 32, density=0.5, seed=3)
    f = balanced_function(a)
    with pytest.raises(ValueError):
        decompose(f, 0.3, schedule=lambda t: -1.0)
    with pytest.raises(ValueError):
        decompose(f, 0.3, schedule=lambda t: 1e-4 * t + 1e-4)  # increasing


def test_default_schedule_shape():
    eta = default_schedule(0.2)
    assert eta(1) == 0.2 / (8 * math.pi)
    assert eta(2) < eta(1)
    with pytest.raises(ValueError):
        default_schedule(0.0)


def test_uniform_certificate_on_random_set():
    a = generate_set("random", 4096, density=0.5, seed=12)
    fam = PolynomialFamily.parse(["0,1"])
    cert = uniform_certificate(a, fam, 0.05, k_order=8)
    assert cert.eta < 0.05            # random sets are Fourier-uniform
    assert cert.m >= 1
    assert cert.fraction == Fraction(cert.count, cert.m)
    assert cert.bound_holds


def test_uniform_certificate_structured_set_fails_prediction_gracefully():
    a = generate_set("evens", 1024)
    fam = PolynomialFamily.parse(["0,1"])
    cert = uniform_certificate(a, fam, 0.05, k_order=8)
    assert abs(cert.eta - 0.5) < 1e-12   # evens have a huge coefficient
    assert cert.predicted_fraction < 1.0
