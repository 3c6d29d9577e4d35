"""Acceptance suite: one test per headline guarantee, one PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Tolerances are pinned here, not imported, so a change in package defaults
cannot silently weaken the acceptance bar.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from polyrec.ergodic_lab import FiniteMPSystem, griesmer_search, khintchine_search
from polyrec.intset import generate_set
from polyrec.lattice_dioph import (BlockVector, ProductLattice,
                                   approx_good_set_power,
                                   check_average_bounds, gaussian_mass, theta)
from polyrec.polyfam import (PolynomialFamily, check_difference_identity,
                             check_lift_implication, lift_construction,
                             shift_range)
from polyrec.recurrence import decompose, find_good_shifts, intersection_profile
from polyrec.weyl_tarry import (count_solutions_mod, growth_probe, moment_2k,
                                tarry_count, weyl_sum)
from polyrec.zn_fourier import (ZnFunction, dft, ellp_norm, inverse_dft,
                                lp_norm)

from oracles import (grouped_tarry, naive_intersection_cyclic,
                     naive_intersection_integer, naive_recurrence_measure,
                     naive_tarry)


@contextmanager
def verdict(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {num:2d} {label}: PASS")


def test_01_fourier_core_roundtrip_and_plancherel():
    start = time.perf_counter()
    with verdict(1, "fourier core"):
        for n in (256, 1000, 4096, 65536):
            rng = np.random.default_rng(n)
            for _ in range(100):
                vals = rng.normal(size=n) + 1j * rng.normal(size=n)
                f = ZnFunction(n, vals)
                spec = dft(f)
                assert abs(lp_norm(f, 2) - ellp_norm(spec, 2)) <= 1e-10
                back = inverse_dft(spec)
                assert np.max(np.abs(back.values - vals)) <= 1e-10
        assert time.perf_counter() - start < 10.0


def _random_family(rng) -> PolynomialFamily:
    texts = []
    for _ in range(int(rng.integers(1, 4))):
        deg = int(rng.integers(1, 4))
        coeffs = [int(c) for c in rng.integers(-2, 3, size=deg)]
        lead = int(rng.integers(1, 3)) * int(rng.choice([-1, 1]))
        texts.append(",".join(str(c) for c in coeffs + [lead]))
    return PolynomialFamily.parse(texts)


def test_02_intersection_profile_matches_naive_exhaustively():
    with verdict(2, "exact intersection oracle"):
        rng = np.random.default_rng(2)
        checked = 0
        for trial in range(20):
            n = int(rng.integers(500, 2001))
            a = generate_set("random", n,
                             density=float(rng.uniform(0.2, 0.8)), seed=trial)
            fam = _random_family(rng)
            m_int = 30
            table = intersection_profile(a, fam, m_int)
            for i, poly in enumerate(fam):
                for shift_n in range(1, m_int + 1):
                    want = naive_intersection_integer(
                        a.elements, n, poly.evaluate(shift_n))
                    assert table[i][shift_n - 1] == Fraction(want, n)
                    checked += 1
            report = find_good_shifts(a, fam, 0.4, mode="cyclic", permissive=True)
            assert report.shift_range.m == shift_range(fam, n, 0.4).m
            for i, poly in enumerate(fam):
                for shift_n in range(1, report.shift_range.m + 1):
                    want = naive_intersection_cyclic(
                        a.elements, n, poly.evaluate(shift_n))
                    assert report.counts[i, shift_n - 1] == want
                    checked += 1
        assert checked > 1000


_MOMENT_POLYS = ("1", "0,1", "1,2", "0,0,1", "3", "-2,1")
_MOMENT_SIZES = ((1, 40), (1, 300), (2, 8), (2, 20), (3, 4), (3, 9))


def test_03_moment_identity_and_weighted_inequality():
    start = time.perf_counter()
    with verdict(3, "moment identity"):
        instances = 0
        for text in _MOMENT_POLYS:
            poly = PolynomialFamily.parse([text]).members[0]
            for k_order, m in _MOMENT_SIZES:
                assert m ** (2 * k_order) <= 10 ** 6
                for n_mod in (32, 101, 250):
                    s = weyl_sum(poly, m, n_mod)
                    mom = moment_2k(s, k_order)
                    cnt = count_solutions_mod(poly, m, n_mod, k_order)
                    assert abs(mom - n_mod * cnt) <= 1e-8 * max(1.0, n_mod * cnt)
                    instances += 1
        assert instances >= 50

        rng = np.random.default_rng(3)
        for _ in range(50):
            text = _MOMENT_POLYS[int(rng.integers(0, len(_MOMENT_POLYS)))]
            poly = PolynomialFamily.parse([text]).members[0]
            k_order, m = _MOMENT_SIZES[int(rng.integers(0, len(_MOMENT_SIZES)))]
            n_mod = int(rng.integers(16, 200))
            weights = [int(w) for w in rng.choice([-1, 1], size=m)]
            weighted = moment_2k(weyl_sum(poly, m, n_mod, weights=weights),
                                 k_order)
            plain = n_mod * count_solutions_mod(poly, m, n_mod, k_order)
            assert weighted <= plain + 1e-8 * max(1.0, plain)
        assert time.perf_counter() - start < 60.0


_TARRY_GRID = ((1, 1, 100), (1, 2, 25), (1, 2, 56), (2, 1, 100), (2, 2, 17),
               (2, 2, 31), (3, 2, 10), (2, 3, 14), (3, 3, 7), (4, 2, 8))


def test_04_tarry_counters_and_growth():
    with verdict(4, "tarry counters"):
        for degree, k_order, m in _TARRY_GRID:
            assert m ** (2 * k_order) <= 10 ** 7
            want = grouped_tarry(k_order, degree, m)
            # Dense signature boxes blow past the convolution budget for
            # high degrees; those instances run meet-in-the-middle only.
            estimate = math.prod(k_order * m ** i + 1
                                 for i in range(1, degree + 1))
            if estimate <= 5 * 10 ** 6:
                assert tarry_count(k_order, degree, m,
                                   method="convolution").count == want
            assert tarry_count(k_order, degree, m, method="mitm").count == want
            if m ** (2 * k_order) <= 10 ** 4:
                assert naive_tarry(k_order, degree, m) == want
        assert tarry_count(2, 1, 2).count == 6
        for m in (1, 5, 17, 100):
            assert tarry_count(1, 1, m).count == m
            assert tarry_count(1, 3, m).count == m
        rows = growth_probe(2, 1, (50, 100, 200, 400))
        assert abs(rows[-1].fitted_slope - 3.0) <= 0.15


def test_05_decomposition_contracts_on_seeded_inputs():
    with verdict(5, "spectral decomposition"):
        rng = np.random.default_rng(5)
        violations = 0
        for trial in range(200):
            n = int(rng.integers(32, 513))
            vals = rng.normal(size=n) + 1j * rng.normal(size=n)
            f = ZnFunction(n, vals)
            target = float(rng.uniform(0.3, 1.0))
            f = ZnFunction(n, vals * (target / lp_norm(f, 2)))
            eps = float(rng.uniform(0.05, 0.6))
            res = decompose(f, eps)
            recon = res.f1.values + res.f2.values + res.f3.values
            if np.max(np.abs(recon - f.values)) > 1e-9:
                violations += 1
            if ellp_norm(dft(res.f2), math.inf) > res.eta_of_m + 1e-12:
                violations += 1
            if lp_norm(res.f3, 2) > eps + 1e-12:
                violations += 1
            if res.rounds > math.ceil(eps ** -2):
                violations += 1
            supports = [
                set(np.nonzero(np.abs(dft(part).coefficients) > 1e-12)[0])
                for part in (res.f1, res.f2, res.f3)
            ]
            if (supports[0] & supports[1]) or (supports[0] & supports[2]) \
                    or (supports[1] & supports[2]):
                violations += 1
        assert violations == 0


def _random_lattice(rng) -> ProductLattice:
    blocks = []
    remaining = 3
    while remaining and (not blocks or rng.random() < 0.4):
        d = int(rng.integers(1, remaining + 1))
        basis = np.diag(rng.uniform(0.6, 2.0, size=d))
        basis += rng.uniform(-0.2, 0.2, size=(d, d))
        blocks.append(basis)
        remaining -= d
    return ProductLattice(tuple(blocks))


def test_06_poisson_summation_and_mass_bounds():
    with verdict(6, "poisson summation"):
        rng = np.random.default_rng(6)
        for trial in range(100):
            lat = _random_lattice(rng)
            t = float(rng.uniform(0.5, 2.0))
            x = rng.uniform(-1.0, 1.0, size=lat.dimension)
            direct = theta(lat, t, x)
            dual = theta(lat, t, x, side="dual")
            assert abs(direct - dual) <= 1e-8 * max(direct, dual), trial
            assert gaussian_mass(lat) > 0.0  # raises if two sides disagree
        for r in (1, 2, 5, 10):
            for d in (1, 2, 3):
                mass = gaussian_mass(ProductLattice.scaled_integers(r, [d]))
                assert 1.0 <= mass <= (10.0 * r) ** d


def test_07_average_scaling_and_subsampling_bounds():
    start = time.perf_counter()
    with verdict(7, "gaussian average bounds"):
        rng = np.random.default_rng(7)
        for trial in range(200):
            if rng.random() < 0.5:
                dims = [int(rng.integers(1, 3))]
            else:
                dims = [1, 1]
            lat = ProductLattice.scaled_integers(
                float(rng.uniform(0.7, 2.0)), dims)
            alpha = BlockVector(tuple(
                tuple(float(x) for x in rng.uniform(0, 1, size=d))
                for d in dims))
            n = int(rng.integers(21, 501))
            c = float(rng.uniform(0.12, 0.95))
            q = int(rng.integers(1, min(10, n // 2) + 1))
            rep = check_average_bounds(lat, alpha, n, c, q)
            assert rep.holds_scaling, (trial, rep)
            assert rep.holds_subsampling, (trial, rep)
        assert time.perf_counter() - start < 120.0


def test_08_diophantine_good_sets():
    with verdict(8, "diophantine good sets"):
        for q in (3, 5, 7):
            n = 30 * q
            gs = approx_good_set_power(
                BlockVector(((Fraction(1, q),),)), 1.0 / (2 * q), n)
            assert gs.exact
            assert gs.members.array.tolist() == list(range(q, n + 1, q))
            assert gs.members.density == Fraction(1, q)

        rng = np.random.default_rng(8)
        for trial in range(50):
            d = int(rng.integers(1, 3))
            alpha = BlockVector((tuple(float(x) for x in rng.uniform(0, 1, d)),))
            n = int(rng.integers(50, 301))
            lo = float(rng.uniform(0.02, 0.3))
            hi = lo + float(rng.uniform(0.01, 0.3))
            small = set(approx_good_set_power(alpha, lo, n).members)
            large = set(approx_good_set_power(alpha, hi, n).members)
            assert small <= large, trial

        gs = approx_good_set_power(
            BlockVector(((), (math.sqrt(2.0),))), 0.1, 10 ** 4)
        assert gs.members.size > 0
        for member in gs.members:
            frac = (member ** 2 * math.sqrt(2.0)) % 1.0
            assert min(frac, 1.0 - frac) <= 0.1 + 1e-6


def test_09_khintchine_guarantee_and_griesmer_reverification():
    with verdict(9, "khintchine guarantee"):
        rng = np.random.default_rng(9)
        for trial in range(500):
            m = int(rng.integers(6, 61))
            if rng.random() < 0.5:
                system = FiniteMPSystem.rotation(m, int(rng.integers(1, m)))
            else:
                system = FiniteMPSystem(tuple(int(v) for v in rng.permutation(m)))
            mask = rng.random(m) < float(rng.uniform(0.2, 0.8))
            subset = frozenset(np.nonzero(mask)[0].tolist()) or frozenset({0})
            eps = float(rng.uniform(0.05, 0.5))
            needed = max(2, math.ceil(1.0 / eps))
            pool = rng.choice(np.arange(1, 200), size=needed + 3, replace=False)
            times = sorted(int(v) for v in pool)
            res = khintchine_search(system, subset, eps, times)
            assert res.found, trial
            check = naive_recurrence_measure(system.mapping, subset, res.n)
            assert check == res.measure
            assert check >= Fraction(len(subset), m) ** 2 - Fraction(eps)

        found = 0
        for trial in range(25):
            m = int(rng.integers(8, 41))
            system = FiniteMPSystem.rotation(m, 1)
            mask = rng.random(m) < 0.5
            subset = frozenset(np.nonzero(mask)[0].tolist()) or frozenset({0})
            eps = float(rng.uniform(0.25, 0.6))
            constants = ((1, 2), (1, 3), (2, 4), (1, 2, 3))[trial % 4]
            res = griesmer_search(system, subset, eps, constants,
                                  times=range(1, 40))
            if not res.found:
                continue
            found += 1
            for c in constants:
                measure = naive_recurrence_measure(
                    system.mapping, subset, c * res.n)
                assert measure >= res.threshold, (trial, c, res.n)
        assert found >= 10


def test_10_desk_scale_recurrence_end_to_end():
    with verdict(10, "end-to-end recurrence"):
        n = 10 ** 4
        a = generate_set("evens", n)
        fam = PolynomialFamily.parse(["0,1"])
        report = find_good_shifts(a, fam, 0.1)
        assert report.shift_range.m == 31
        assert report.good_shifts.array.tolist() == list(range(2, 32, 2))
        threshold = Fraction(1, 2) ** 2 - Fraction(0.1)
        for shift_n in range(1, 32):
            count = naive_intersection_integer(a.elements, n, shift_n ** 2)
            assert (Fraction(count, n) > threshold) == (shift_n % 2 == 0)

        n = 2 ** 14
        for seed in range(20):
            a = generate_set("random", n, density=0.5, seed=seed)
            m = shift_range(fam, n, 0.1).m
            row = intersection_profile(a, fam, m)[0]
            close = sum(1 for v in row if abs(v - Fraction(1, 4)) < Fraction(1, 20))
            assert close >= 0.9 * m, seed


def test_11_factorial_difference_identity_exact():
    with verdict(11, "factorial difference identity"):
        rng = np.random.default_rng(11)
        for _ in range(100):
            x = int(rng.integers(-10 ** 9, 10 ** 9))
            d = int(rng.integers(-10 ** 9, 10 ** 9))
            for j in range(11):
                assert check_difference_identity(j, x, d) is True, (j, x, d)


_LIFT_FAMILIES = (["1"], ["2"], ["0,1"], ["1", "0,1"], ["1,1"], ["2,1", "0,1"])


def test_12_lift_implication_exhaustive_on_small_instances():
    with verdict(12, "lift implication"):
        rng = np.random.default_rng(12)
        done = 0
        while done < 20:
            n = int(rng.integers(20, 101))
            a = generate_set("random", n,
                             density=float(rng.uniform(0.3, 0.9)), seed=done)
            if a.size == 0:
                continue
            fam = PolynomialFamily.parse(
                _LIFT_FAMILIES[done % len(_LIFT_FAMILIES)])
            multiple = max(sum(abs(c) for c in row)
                           for row in fam.coefficient_rows())
            lift = lift_construction(a, fam, n * multiple)
            rep = check_lift_implication(lift, a, fam)
            assert rep.ok, done
            assert rep.candidates.size
            done += 1
