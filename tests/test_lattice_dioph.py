import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from polyrec import lattice_dioph
from polyrec.config import DEFAULT_TOLERANCES
from polyrec.lattice_dioph import (_PHASE_LIMIT, BlockVector, ProductLattice,
                                   _orbit_theta,
                                   approx_good_set_family,
                                   approx_good_set_power,
                                   check_average_bounds, gaussian_average,
                                   gaussian_mass, schmidt_scan, theta,
                                   weyl_denominator)
from polyrec.polyfam import PolynomialFamily

from oracles import (naive_dilate_theta, naive_distance_to_integers, naive_gaussian_average,
                     naive_good_residues, naive_schmidt_objectives, naive_theta_1d,
                     naive_weyl_mean)

SQRT2 = math.sqrt(2.0)


def test_lattice_shape_helpers():
    lat = ProductLattice.integers([1, 2])
    assert lat.dims == (1, 2)
    assert lat.dimension == 3
    assert abs(lat.determinant - 1.0) < 1e-15
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


phase_values = st.one_of(
    st.floats(-_PHASE_LIMIT, _PHASE_LIMIT),
    st.integers(-int(_PHASE_LIMIT), int(_PHASE_LIMIT) - 1).map(lambda k: k + 0.5),
    st.sampled_from([-0.0, 0.0, -_PHASE_LIMIT, _PHASE_LIMIT]))


@settings(max_examples=200, deadline=None)
@given(values=st.lists(phase_values, min_size=1, max_size=40),
       low=st.lists(st.floats(-1, 1), min_size=1, max_size=40))
def test_phases_are_x_minus_floor_bit_for_bit(values, low):
    # long-double bits below those of a double, kept within the limit
    x = np.asarray(values, dtype=np.longdouble)
    x += np.resize(np.asarray(low, dtype=np.longdouble), x.shape) * np.longdouble(2.0) ** -60
    x = np.clip(x, -_PHASE_LIMIT, _PHASE_LIMIT)
    x = np.concatenate([x, -x])
    got, want = lattice_dioph._phases(x), x - np.floor(x)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_phase_limit_message_shows_the_excess():
    # the phase prints with the digits that put it past the limit
    with pytest.raises(ValueError, match=r"phase 1000000000000\.3\d* too large"):
        theta(ProductLattice.integers([1]), 1.0, [1e12 + 0.3])


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


def test_a_dual_check_costs_the_sum_of_its_blocks_not_their_product():
    # one n costs sum_j P_j dual terms; the P_1 P_2 P_3 combinations of the
    # three blocks' dual points were once expanded, and refused past 200,000
    lattice = ProductLattice.integers([3, 3, 3])
    blocks = [(0.3, 0.2, 0.1), (0.7, 0.5, 0.4), (0.11, 0.13, 0.17)]
    alpha = BlockVector(tuple(blocks))
    value = gaussian_average(lattice, alpha, 50, check_dual=True)
    assert value == gaussian_average(lattice, alpha, 50)
    assert value == pytest.approx(naive_gaussian_average(blocks, 50), abs=1e-9)


def test_rational_good_set_reproduces_exact_periodicity():
    # alpha = 1/3 in the linear block: good n are multiples of 3, density 1/3
    alpha = BlockVector(((Fraction(1, 3),),))
    good = approx_good_set_power(alpha, 0.2, 300)
    assert good.exact
    assert good.members.array.tolist() == list(range(3, 301, 3))
    assert good.members.density == Fraction(1, 3)
    # denominator 7 with eps wide enough for residues {0, 1, 6}/7
    alpha = BlockVector(((Fraction(1, 7),),))
    eps = 0.2
    residues = naive_good_residues(7, eps)
    good = approx_good_set_power(alpha, eps, 700)
    want = [n for n in range(1, 701) if n % 7 in residues]
    assert good.members.array.tolist() == want
    assert good.members.density == Fraction(len(residues), 7)


def test_family_good_set_square_times_quarter():
    # |n^2 / 4| < 0.2 forces n even (odd squares are 1 mod 4): density 1/2
    fam = PolynomialFamily.parse(["0,1"])
    good = approx_good_set_family(fam, [Fraction(1, 4)], 0.2, 400)
    assert good.exact
    assert good.members.array.tolist() == list(range(2, 401, 2))
    assert good.members.density == Fraction(1, 2)


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
    assert good.members.size > 0
    # spot check the first member against the definition
    n = good.members.array[0]
    assert naive_distance_to_integers([n * n * SQRT2]) < 0.1


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
    # the orbit scan's theta values are those of the per-n dilates
    lattice = ProductLattice.integers(alpha.dims)
    per_n = [theta(lattice, 1.0, np.concatenate(row)) for row in rows]
    tail = DEFAULT_TOLERANCES.theta_tail
    assert np.array_equal(_orbit_theta(lattice, alpha, n_range, tail), per_n)
    members = [n for n, row in enumerate(rows, start=1)
               if all(naive_distance_to_integers(val) < eps for val in row)]
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
    assert exact.members.array[:3].tolist() == [3, 6, 9]
    # N^3 exactly at the limit (10^12 with an 80-bit long double) still runs
    n_at_limit = round(_PHASE_LIMIT ** (1 / 3))
    assert float(n_at_limit) ** 3 == _PHASE_LIMIT
    at_limit = approx_good_set_power(BlockVector(((0.5,), (0.25,), (0.125,))), 0.1,
                                     n_at_limit)
    assert at_limit.members.array[:3].tolist() == [2, 4, 6]
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


@pytest.mark.parametrize("call", [
    lambda lat, alpha: gaussian_average(lat, alpha, 50),
    lambda lat, alpha: gaussian_average(lat, alpha, 50, check_dual=True),
    lambda lat, alpha: check_average_bounds(lat, alpha, 100, 0.5, 2),
    lambda lat, alpha: schmidt_scan(lat, alpha, 100, 100, 2.5, 1.0),
], ids=["average", "average-dual", "bounds", "schmidt"])
@pytest.mark.parametrize("alpha", [((0.3,), (0.5,)), ((0.3, 0.5),), ((),)],
                         ids=["two-blocks", "two-entries", "empty-block"])
def test_an_alpha_of_other_blocks_is_refused(call, alpha):
    with pytest.raises(ValueError, match="^alpha blocks do not match lattice blocks$"):
        call(ProductLattice.integers([1]), BlockVector(alpha))


def test_schmidt_scan_refuses_n_before_the_shape_of_alpha():
    # the shape is checked where the average's scan starts, after N
    with pytest.raises(ValueError, match="need N >= 1"):
        schmidt_scan(ProductLattice.integers([1]), BlockVector(((0.3,), (0.5,))), 0,
                     100, 2.5, 1.0)


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


def test_schmidt_scan_refuses_q_max_times_candidates_past_its_budget():
    # two candidates, +-1/6, in each block, so the scan costs 4 phases per q
    lat = ProductLattice.scaled_integers(6.0, [1, 1])
    alpha = BlockVector(((2.5,), (1.7,)))
    with mock.patch.object(lattice_dioph, "_SCHMIDT_BUDGET", 100):
        assert schmidt_scan(lat, alpha, 4, q_max=25, radius_max=0.9, quality=1.0).q
        with pytest.raises(ValueError, match="Schmidt scan budget exceeded"):
            schmidt_scan(lat, alpha, 4, q_max=26, radius_max=0.9, quality=1.0)
        # the orbit scan's own budget on q_max is checked first
        with pytest.raises(ValueError, match="orbit scan budget exceeded"):
            schmidt_scan(lat, alpha, 4, q_max=10 ** 12, radius_max=0.9, quality=1.0)


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


def _outcome(fn, *args, **kwargs):
    """fn's result as its repr (every float bit shows), or the ValueError
    it raised."""
    try:
        return repr(fn(*args, **kwargs))
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def orbit_cases(draw):
    """Blocks of a spacing * Z^D lattice (D <= 3, spacing 1 or 2: each
    theta value stays far above the truncation tail) and an alpha for them,
    N > 20 for the bounds, a coarser spacing and a small N for the Schmidt
    scan (so that F(N) < 1/2 often), thetas and delta for the denominator,
    and q_max."""
    dims = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3).filter(
        lambda d: sum(d) <= 3))
    reals = st.floats(-3, 3, allow_nan=False)
    blocks = [tuple(draw(st.lists(reals, min_size=d, max_size=d))) for d in dims]
    return dict(blocks=blocks, spacing=draw(st.sampled_from([1.0, 2.0])),
                coarse=draw(st.sampled_from([2.0, 4.0])),
                n=draw(st.integers(21, 40)), n_small=draw(st.integers(1, 9)),
                c=draw(st.floats(0.15, 0.9)), q=draw(st.integers(1, 10)),
                thetas=draw(st.lists(reals, min_size=1, max_size=3)),
                delta=draw(st.floats(0.05, 0.5)), q_max=draw(st.integers(1, 30)),
                radius=draw(st.sampled_from([0.9, 1.5, 2.5])))


@settings(max_examples=40, deadline=None)
@given(case=orbit_cases())
def test_orbit_scans_are_bit_identical_across_block_sizes_and_match_the_oracles(case):
    blocks, spacing, n = case["blocks"], case["spacing"], case["n"]
    lattice = ProductLattice.scaled_integers(spacing, [len(b) for b in blocks])
    coarse = ProductLattice.scaled_integers(case["coarse"], [len(b) for b in blocks])
    alpha = BlockVector(tuple(blocks))
    runs = []
    for chunk in (1, 7, 1 << 16):
        with mock.patch.object(lattice_dioph, "_DILATE_CHUNK", chunk):
            runs.append([
                _outcome(gaussian_average, lattice, alpha, n),
                _outcome(gaussian_average, lattice, alpha, n, check_dual=True),
                _outcome(check_average_bounds, lattice, alpha, n, case["c"], case["q"]),
                _outcome(weyl_denominator, case["thetas"], n, case["delta"], case["q_max"]),
                _outcome(schmidt_scan, coarse, alpha, case["n_small"], case["q_max"],
                         case["radius"], 1.0),
            ])
    assert runs[0] == runs[1] == runs[2]

    want = naive_gaussian_average(blocks, n, spacing)
    assert gaussian_average(lattice, alpha, n) == pytest.approx(want, abs=1e-9)
    dual = _orbit_theta(lattice, alpha, n, DEFAULT_TOLERANCES.theta_tail, "dual")
    assert lattice.determinant * float(np.mean(dual)) == pytest.approx(want, abs=1e-9)
    rep = check_average_bounds(lattice, alpha, n, case["c"], case["q"])
    assert (rep.f_n, rep.f_scaled, rep.f_subsampled) == pytest.approx(
        [naive_gaussian_average(blocks, m, spacing)
         for m in (n, int(case["c"] * n), n // case["q"])], abs=1e-9)
    # beta moves the first entry of block j by eps N^-j; the ratio's lattice
    # and beta are both dilated by 1 + eps
    eps = rep.perturbation_eps
    stretched = [tuple((1.0 + eps) * (x + (eps * float(n) ** -j if i == 0 else 0.0))
                       for i, x in enumerate(block))
                 for j, block in enumerate(blocks, start=1)]
    ratio = min(naive_dilate_theta(blocks, m, spacing)
                / naive_dilate_theta(stretched, m, (1.0 + eps) * spacing)
                for m in range(1, n + 1))
    assert rep.perturbation_ratio == pytest.approx(ratio, rel=1e-9)

    den = weyl_denominator(case["thetas"], n, case["delta"], case["q_max"])
    assert den.s_abs == pytest.approx(abs(naive_weyl_mean(case["thetas"], n)), abs=1e-9)

    objectives = naive_schmidt_objectives(blocks, case["n_small"], case["q_max"],
                                          case["radius"], case["coarse"])
    try:
        sch = schmidt_scan(coarse, alpha, case["n_small"], case["q_max"], case["radius"], 1.0)
    except ValueError as exc:  # F(N) < 1/2 and no block has a primitive dual vector
        assert str(exc) == "no primitive dual vectors within radius_max"
        assert objectives == []
        return
    assert sch.f_value == pytest.approx(
        naive_gaussian_average(blocks, case["n_small"], case["coarse"]), abs=1e-9)
    if sch.alternative == 2:
        least = min(objectives)
        assert sch.objective == pytest.approx(least, abs=1e-9)
        assert objectives[sch.q - 1] == pytest.approx(least, abs=1e-9)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 16])
def test_schmidt_scan_keeps_the_first_least_q_across_blocks(chunk):
    # the objective is exactly 0 at q = 8, 16 and 24 (q = 8 opens the second
    # block of 7): the first one is kept
    lattice = ProductLattice.scaled_integers(2.0, [1, 1])
    alpha = BlockVector(((1.0,), (0.25,)))
    with mock.patch.object(lattice_dioph, "_DILATE_CHUNK", chunk):
        rep = schmidt_scan(lattice, alpha, 2, 30, 1.5, 1.0)
    assert (rep.alternative, rep.q, rep.objective) == (2, 8, 0.0)
