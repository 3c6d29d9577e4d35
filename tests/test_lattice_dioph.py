import math
from fractions import Fraction

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from polyrec.lattice_dioph import (_PHASE_LIMIT, BlockVector, ProductLattice,
                                   _dilate_matrix,
                                   approx_good_set_family,
                                   approx_good_set_power,
                                   check_average_bounds, gaussian_average,
                                   gaussian_mass, nearest_integer_norm,
                                   schmidt_scan, theta, weyl_denominator)
from polyrec.polyfam import PolynomialFamily

from oracles import naive_good_residues, naive_theta_1d

SQRT2 = math.sqrt(2.0)


def test_lattice_shape_helpers():
    lat = ProductLattice.integers([1, 2])
    assert lat.dims == (1, 2)
    assert lat.dimension == 3
    assert abs(lat.determinant - 1.0) < 1e-15
    dual = lat.dual()
    assert dual.dims == (1, 2)
    scaled = lat.scale(2.0)
    assert abs(scaled.determinant - 8.0) < 1e-12


def test_degenerate_blocks_are_legal():
    lat = ProductLattice.integers([0, 1, 0])
    assert lat.dims == (0, 1, 0)
    assert lat.dimension == 1
    assert abs(lat.determinant - 1.0) < 1e-15
    # degenerate blocks contribute a factor 1 to theta
    full = theta(ProductLattice.integers([1]), 1.0, [0.3])
    padded = theta(lat, 1.0, [0.3])
    assert abs(full - padded) < 1e-12


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        ProductLattice((np.array([[1.0, 1.0], [1.0, 1.0]]),))


def test_dual_side_reduces_its_phases_like_the_direct_side():
    lat = ProductLattice.integers([1])
    far = 1e9 + 0.25
    direct = theta(lat, 1.0, [far])
    assert abs(theta(lat, 1.0, [far], side="dual") - direct) < 1e-12
    assert abs(direct - theta(lat, 1.0, [0.25])) < 1e-12
    for side in ("direct", "dual"):
        with pytest.raises(ValueError, match="phase reduction"):
            theta(lat, 1.0, [1e15 + 0.25], side=side)


def test_phase_limit_message_shows_the_excess():
    # the phase prints with the digits that put it past the limit
    with pytest.raises(ValueError, match=r"phase 1000000000000\.3\d* too large"):
        theta(ProductLattice.integers([1]), 1.0, [1e12 + 0.3])


def test_nearest_integer_norm():
    assert abs(nearest_integer_norm(2.75) - 0.25) < 1e-15
    assert nearest_integer_norm(-3.0) == 0.0
    assert abs(nearest_integer_norm([0.5, 0.0]) - 0.5) < 1e-15
    assert abs(nearest_integer_norm([0.5, 0.5]) - math.sqrt(0.5)) < 1e-15


def test_theta_z_matches_direct_sum():
    lat = ProductLattice.integers([1])
    for t, x in [(1.0, 0.0), (1.0, 0.5), (0.7, 0.25), (2.5, -1.3)]:
        want = naive_theta_1d(1.0, t, x)
        assert abs(theta(lat, t, [x]) - want) < 1e-11


def test_theta_z_frozen_values():
    lat = ProductLattice.integers([1])
    # 1 + 2e^-pi + 2e^-4pi + ... at the lattice point
    assert abs(theta(lat, 1.0, [0.0]) - 1.0864348112133080) < 1e-12
    # deep hole x = 1/2: 2(e^-pi/4 + e^-9pi/4 + ...)
    assert abs(theta(lat, 1.0, [0.5]) - 0.9135791381561168) < 1e-12


def test_theta_scaled_lattice_matches_direct_sum():
    lat = ProductLattice.scaled_integers(2.0, [1])
    for x in (0.0, 0.3, 1.0):
        want = naive_theta_1d(2.0, 1.0, x)
        assert abs(theta(lat, 1.0, [x]) - want) < 1e-11


def test_theta_of_products_factorizes():
    lat = ProductLattice.integers([1, 2])
    x = [0.3, 0.1, 0.7]
    want = (naive_theta_1d(1.0, 1.0, 0.3) * naive_theta_1d(1.0, 1.0, 0.1)
            * naive_theta_1d(1.0, 1.0, 0.7))
    assert abs(theta(lat, 1.0, x) - want) < 1e-10


def test_theta_periodicity_under_lattice_translation():
    basis = np.array([[1.5, 0.2], [-0.3, 1.1]])
    lat = ProductLattice((basis,))
    x = np.array([0.37, -0.81])
    shifted = x + 3 * basis[0] - 2 * basis[1]
    assert abs(theta(lat, 0.9, x) - theta(lat, 0.9, shifted)) < 1e-10


def test_poisson_summation_randomized():
    rng = np.random.default_rng(5)
    for trial in range(40):
        d = int(rng.integers(1, 4))
        basis = np.diag(rng.uniform(0.6, 2.0, size=d))
        basis += rng.uniform(-0.2, 0.2, size=(d, d))
        lat = ProductLattice((basis,))
        t = float(rng.uniform(0.5, 2.0))
        x = rng.uniform(-1.0, 1.0, size=d)
        direct = theta(lat, t, x)
        dual = theta(lat, t, x, side="dual")
        assert abs(direct - dual) < 1e-8 * max(direct, dual), trial


def test_gaussian_mass_is_scale_covariant_and_two_sided():
    # det * Theta(1, 0) for Z: 1.08643...; both sides must agree internally
    lat = ProductLattice.integers([1])
    assert abs(gaussian_mass(lat) - 1.0864348112133080) < 1e-10
    # 2Z: 2 * (1 + 2e^-4pi + ...) = 2.0000139...
    lat2 = ProductLattice.scaled_integers(2.0, [1])
    want = 2.0 * naive_theta_1d(2.0, 1.0, 0.0)
    assert abs(gaussian_mass(lat2) - want) < 1e-10


def test_gaussian_mass_coarse_lattice_bound():
    # the invariant grows like det for coarse lattices: A <= (10 R)^d
    for r in (1, 2, 5, 10):
        for d in (1, 2, 3):
            lat = ProductLattice.scaled_integers(float(r), [d])
            mass = gaussian_mass(lat)
            assert mass <= (10.0 * r) ** d
            assert mass >= 1.0  # Gaussian mass never drops below 1


def test_gaussian_average_agrees_with_pointwise_theta():
    lat = ProductLattice.integers([1, 1])
    alpha = BlockVector(((0.3,), (0.45,)))
    n_range = 7
    vals = []
    for n in range(1, n_range + 1):
        vals.append(theta(lat, 1.0, [n * 0.3, n * n * 0.45]))
    want = lat.determinant * np.mean(vals)
    got = gaussian_average(lat, alpha, n_range)
    assert abs(got - want) < 1e-10


def test_gaussian_average_dual_side_agreement():
    rng = np.random.default_rng(11)
    for trial in range(10):
        k = int(rng.integers(1, 4))
        dims = [int(rng.integers(0, 3)) for _ in range(k)]
        if sum(dims) == 0:
            dims[0] = 1
        lat = ProductLattice.integers(dims)
        alpha = BlockVector(tuple(
            tuple(float(x) for x in rng.uniform(0.0, 1.0, size=d))
            for d in dims
        ))
        n_range = int(rng.integers(5, 60))
        value = gaussian_average(lat, alpha, n_range, check_dual=True)
        assert value > 0.0


def test_rational_good_set_reproduces_exact_periodicity():
    # alpha = 1/3 in the linear block: good n are multiples of 3, density 1/3
    alpha = BlockVector(((Fraction(1, 3),),))
    good = approx_good_set_power(alpha, 0.2, 300)
    assert good.exact
    assert good.members == tuple(range(3, 301, 3))
    assert good.density == Fraction(1, 3)
    # denominator 7 with eps wide enough for residues {0, 1, 6}/7
    alpha = BlockVector(((Fraction(1, 7),),))
    eps = 0.2
    residues = naive_good_residues(7, eps)
    good = approx_good_set_power(alpha, eps, 700)
    want = tuple(n for n in range(1, 701) if n % 7 in residues)
    assert good.members == want
    assert good.density == Fraction(len(residues), 7)


def test_family_good_set_square_times_quarter():
    # |n^2 / 4| < 0.2 forces n even (odd squares are 1 mod 4): density 1/2
    fam = PolynomialFamily.parse(["0,1"])
    good = approx_good_set_family(fam, [Fraction(1, 4)], 0.2, 400)
    assert good.exact
    assert good.members == tuple(range(2, 401, 2))
    assert good.density == Fraction(1, 2)


def test_good_set_monotone_in_eps():
    rng = np.random.default_rng(19)
    for trial in range(25):
        alpha = BlockVector((
            (float(rng.uniform(0, 1)),),
            (float(rng.uniform(0, 1)),),
        ))
        eps_small = float(rng.uniform(0.02, 0.2))
        eps_big = eps_small + float(rng.uniform(0.05, 0.3))
        small = approx_good_set_power(alpha, eps_small, 150)
        big = approx_good_set_power(alpha, eps_big, 150)
        assert set(small.members) <= set(big.members)


def test_sqrt2_square_block_good_set_nonempty():
    alpha = BlockVector(((), (SQRT2,)))
    good = approx_good_set_power(alpha, 0.1, 10000)
    assert not good.empty
    # spot check the first member against the definition
    n = good.members[0]
    assert nearest_integer_norm(n * n * SQRT2) < 0.1


block_vectors = st.lists(
    st.lists(st.floats(-3, 3, allow_nan=False), min_size=0, max_size=3),
    min_size=1, max_size=3).map(lambda blocks: BlockVector(tuple(map(tuple, blocks))))


@settings(max_examples=40, deadline=None)
@given(alpha=block_vectors, eps=st.floats(0.01, 0.9), n_range=st.integers(1, 400))
def test_vectorized_dilates_match_per_n_loop(alpha, eps, n_range):
    # the per-n reference: n^j * alpha_j in long double, one n at a time
    arrays = alpha.block_arrays()
    rows = [[np.longdouble(n) ** j * arr for j, arr in enumerate(arrays, start=1)]
            for n in range(1, n_range + 1)]
    flat = np.stack([np.concatenate(row) for row in rows])
    assert np.array_equal(_dilate_matrix(alpha, n_range), flat)
    members = [n for n, row in enumerate(rows, start=1)
               if all(nearest_integer_norm(val) < eps for val in row)]
    assert list(approx_good_set_power(alpha, eps, n_range).members) == members


def test_long_double_phase_paths_refuse_large_n_to_the_k():
    lat = ProductLattice.integers([1, 1, 1])
    alpha = BlockVector(((0.1,), (0.2,), (0.3,)))
    n = 30_000  # N^3 = 2.7e13 > 1e12
    calls = [
        lambda: gaussian_average(lat, alpha, n),
        lambda: check_average_bounds(lat, alpha, n, 0.5, 3),
        lambda: schmidt_scan(lat, alpha, n, 10, 2.0, 1.0),
        lambda: approx_good_set_power(alpha, 0.1, n),
        lambda: approx_good_set_family(PolynomialFamily.parse(["0,0,1"]), [0.1],
                                       0.1, n),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="phase reduction"):
            call()
    # exact rational scans have no phase limit
    exact = approx_good_set_power(BlockVector(((Fraction(1, 3),),) * 3), 0.1, n)
    assert exact.members[:3] == (3, 6, 9)
    # N^3 exactly at the limit (10^12 with an 80-bit long double) still runs
    n_at_limit = round(_PHASE_LIMIT ** (1 / 3))
    assert float(n_at_limit) ** 3 == _PHASE_LIMIT
    at_limit = approx_good_set_power(BlockVector(((0.5,), (0.25,), (0.125,))), 0.1,
                                     n_at_limit)
    assert at_limit.members[:3] == (2, 4, 6)
    # the limit comes from the platform's long double: below it, a phase
    # keeps a spacing finer than 1e-6
    assert np.spacing(np.longdouble(_PHASE_LIMIT)) < 1e-6


def test_check_average_bounds_randomized():
    rng = np.random.default_rng(23)
    for trial in range(15):
        d = int(rng.integers(1, 3))
        lat = ProductLattice.scaled_integers(float(rng.uniform(0.7, 2.0)), [d])
        alpha = BlockVector((tuple(float(x) for x in rng.uniform(0, 1, size=d)),))
        n = int(rng.integers(21, 120))
        c = float(rng.uniform(0.15, 0.9))
        q = int(rng.integers(1, max(2, n // 2)))
        rep = check_average_bounds(lat, alpha, n, c, q)
        assert rep.holds_scaling, (trial, rep)
        assert rep.holds_subsampling, (trial, rep)
        assert rep.perturbation_ratio > 0.0


def test_check_average_bounds_takes_each_average_from_one_theta_table():
    # F(N), F(floor(cN)) and F(floor(N/q)) are means of leading entries of one
    # table of Theta(1, n*alpha); each equals its own gaussian_average
    lat = ProductLattice.scaled_integers(1.3, [1, 2])
    alpha = BlockVector(((0.31,), (0.72, 0.15)))
    rep = check_average_bounds(lat, alpha, 97, 0.55, 4)
    assert (rep.f_n, rep.f_scaled, rep.f_subsampled) == tuple(
        gaussian_average(lat, alpha, m) for m in (97, 53, 24))


def test_check_average_bounds_validates_inputs():
    lat = ProductLattice.integers([1])
    alpha = BlockVector(((0.5,),))
    with pytest.raises(ValueError):
        check_average_bounds(lat, alpha, 10, 0.5, 1)   # N too small
    with pytest.raises(ValueError):
        check_average_bounds(lat, alpha, 100, 1.5, 1)  # c out of range
    with pytest.raises(ValueError):
        check_average_bounds(lat, alpha, 100, 0.5, 80)  # q > N/2


def test_schmidt_scan_fine_lattice_reports_large_average():
    # Theta over Z never drops below ~0.91, so F >= 1/2 always holds here
    lat = ProductLattice.integers([1])
    alpha = BlockVector(((SQRT2 - 1.0,),))
    rep = schmidt_scan(lat, alpha, 50, q_max=20, radius_max=1.5, quality=1.0)
    assert rep.alternative == 1
    assert rep.f_value >= 0.5


def test_schmidt_scan_coarse_lattice_finds_denominator():
    # 6Z with alpha = 2.5: the four points 2.5, 5, 7.5, 10 all sit far from
    # 6Z, so F is tiny; the dual is (1/6)Z and q = 12 makes q * xi * alpha
    # land exactly on an integer.
    lat = ProductLattice.scaled_integers(6.0, [1])
    alpha = BlockVector(((2.5,),))
    rep = schmidt_scan(lat, alpha, 4, q_max=15, radius_max=0.5, quality=1.0)
    assert rep.alternative == 2
    assert rep.f_value < 0.5
    assert rep.q == 12
    assert rep.distances[0] < 1e-12
    assert rep.objective < 1e-10
    assert rep.beats_quality


def test_schmidt_scan_directions_are_primitive_dual_vectors():
    lat = ProductLattice.scaled_integers(5.0, [1])
    alpha = BlockVector(((2.0,),))
    rep = schmidt_scan(lat, alpha, 4, q_max=10, radius_max=0.9, quality=1.0)
    if rep.alternative == 2:
        (xi,) = rep.directions[0]
        assert abs(abs(xi) - 0.2) < 1e-12  # +-1/5, the primitive dual vector


def test_weyl_denominator_quarter_square_phase():
    # S = (1/N) sum e(n^2/4) = (1 + i)/2 for N divisible by 4
    rep = weyl_denominator([Fraction(0), Fraction(1, 4)], 100, 0.25, 20)
    assert abs(rep.s_abs - math.sqrt(0.5)) < 1e-12
    assert rep.q == 4
    assert rep.distances == (0.0, 0.0)
    assert rep.found


def test_weyl_denominator_thresholds_and_misses():
    rep = weyl_denominator([SQRT2], 200, 0.25, q_max=2)
    # neither q=1 nor q=2 brings sqrt(2) near an integer at threshold 0.08
    assert rep.thresholds == (0.25 ** -2.0 / 200,)
    assert not rep.found
    # widening the search succeeds (q = 5: |5 sqrt 2| ~ 0.071)
    rep = weyl_denominator([SQRT2], 200, 0.25, q_max=10)
    assert rep.found and rep.q == 5


def test_weyl_denominator_guards():
    with pytest.raises(ValueError):
        weyl_denominator([0.5], 10, 0.8, 5)       # delta too large
    with pytest.raises(ValueError):
        weyl_denominator([0.1] * 4, 10 ** 4, 0.25, 5)  # N^k too large
