"""Array-backed sets and systems against tests/oracles.py.

IntegerSet and FiniteMPSystem hold int64 arrays; random sets and subsets
come from one vectorized Mersenne Twister stream, powers of a system from
repeated squaring of its permutation, and recurrence counts from gathers of
a subset's mask through those squares.  Every answer must equal the plain
Python loop it replaced, or for large powers the closed form of a rotation
or skew product.
"""

import functools
import itertools
import json
import tracemalloc
from fractions import Fraction
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrec import ergodic_lab
from polyrec.cli import main
from polyrec.ergodic_lab import (FiniteMPSystem, griesmer_search, khintchine_search,
                                 recurrence_measure)
from polyrec.intset import IntegerSet, _Fresh, bernoulli_mask, generate_set
from polyrec.polyfam import IntPolynomial
from polyrec.weyl_tarry import moment_2k, weyl_sum
from polyrec.zn_fourier import (CYCLIC, INTEGER, ExactnessError, ZnFunction, _intersection_counts,
                                _residue_mask, balanced_function, dft, ellp_norm, lp_norm)

from oracles import (closed_form_power_map, naive_bernoulli, naive_cycles,
                     naive_intersection_cyclic, naive_order, naive_power_map,
                     naive_recurrence_measure)

PROPERTY = settings(max_examples=60, deadline=None)

seeds = (st.integers(-2 ** 70, 2 ** 70)
         | st.sampled_from([0, -3, 2 ** 32 + 5, 2 ** 64 + 9]))


@pytest.mark.parametrize("seed", [0, -3, 2 ** 32 + 5, 2 ** 64 + 9])
@pytest.mark.parametrize("density", [0.0, 0.37, 1.0])
@pytest.mark.parametrize("n", [1, 1000])
def test_bernoulli_mask_matches_stdlib_loop(seed, density, n):
    mask = bernoulli_mask(n, density, seed)
    assert mask.dtype == bool
    assert mask.tolist() == naive_bernoulli(n, density, seed)


@PROPERTY
@given(n=st.integers(1, 3000), density=st.floats(0, 1), seed=seeds)
def test_random_sets_match_stdlib_loop(n, density, seed):
    want = [x for x, hit in zip(range(1, n + 1), naive_bernoulli(n, density, seed))
            if hit]
    assert generate_set("random", n, density=density, seed=seed).elements == tuple(want)


@st.composite
def permutations(draw, max_size=20):
    """Random permutations (fixed points included) or one long cycle."""
    if draw(st.booleans()):
        return draw(st.permutations(range(draw(st.integers(1, max_size)))))
    order = draw(st.permutations(range(draw(st.integers(1, 200)))))
    perm = [0] * len(order)
    for x, y in zip(order, order[1:] + order[:1]):
        perm[x] = y
    return perm


shifts = st.integers(-50, 50) | st.sampled_from([-9, 0, 123, 10 ** 30, -10 ** 30])


@PROPERTY
@given(perm=permutations(), shift_list=st.lists(shifts, min_size=1, max_size=4))
@example(perm=[0], shift_list=[-9, 0, 123, 10 ** 30])
@example(perm=[1, 0, 2, 4, 5, 3], shift_list=[-9, 0, 123, 10 ** 30])
def test_power_map_order_and_cycles_match_naive_walk(perm, shift_list):
    system = FiniteMPSystem.from_permutation(perm)
    assert system.mapping == tuple(perm)
    assert system.cycles() == naive_cycles(perm)
    assert system.order() == naive_order(perm)
    for shift in shift_list:
        assert system.power_map(shift) == naive_power_map(perm, shift)
    assert system.power_system(3) == FiniteMPSystem(naive_power_map(perm, 3))


huge_shifts = st.integers(-10 ** 30, 10 ** 30) | shifts


@PROPERTY
@given(kind=st.sampled_from(["rotation", "skew"]), m=st.integers(1, 60),
       a=st.integers() | st.integers(-10 ** 30, 10 ** 30), shift=huge_shifts)
def test_power_map_matches_closed_form(kind, m, a, shift):
    build = {"rotation": FiniteMPSystem.rotation, "skew": FiniteMPSystem.skew_product}
    assert build[kind](m, a).power_map(shift) == closed_form_power_map(kind, m, a, shift)


def test_large_skew_power_matches_closed_form():
    # 40,000 points of order 400: naive_power_map would step about 10^7 times
    shift = 10 ** 30 + 7
    system = FiniteMPSystem.skew_product(200, 3)
    assert system.power_map(shift) == closed_form_power_map("skew", 200, 3, shift)


def test_power_working_memory_does_not_depend_on_the_shift():
    # a process's peak memory must not move with the bits of the shift
    system = FiniteMPSystem.skew_product(100)
    size = system.permutation.nbytes
    for shift in (0, 1, -1, 2, 10, 12345, 10 ** 30, -10 ** 30 - 3):
        peak = _traced_peak(system._power, shift)
        # three arrays of the system's size, give or take a few small objects
        assert 3 * size <= peak < 3 * size + size // 8, shift


def _traced_peak(call, *args):
    """The most memory tracemalloc saw allocated at once during call(*args)."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("spec, eps, arrays", [
    ("random:0.05:5", "0.25", 5.5),  # marks 1 -> 10107: f3 sparse, f2 dense
    ("evens", "0.01", 5.5),  # marks 1 -> N: f3 dense, f2 empty
    ("random:0.5:12", "0.1", 6),  # three rounds to m = N: f1 dense, support N ranks
])
def test_cli_decompose_holds_five_complex_arrays(spec, eps, arrays, capsys):
    # f, the three parts and the residual, with |residual| in float64 (half
    # an array) and, when m = N, the int64 support (half another); on top,
    # the set's mask (one byte a point) and a few small objects
    main(["decompose", "--N", "64", "--set", spec, "--eps", eps])  # a first call imports numpy.fft
    capsys.readouterr()
    n = 2 ** 17
    argv = ["decompose", "--N", str(n), "--set", spec, "--eps", eps]
    assert _traced_peak(main, argv) < arrays * 16 * n + 2 * n
    results = json.loads(capsys.readouterr().out)["results"]
    assert (results["m"] == n) == (arrays == 6)


def test_a_norm_holds_one_float64_array_of_magnitudes():
    # |values| in float64, raised to the power p in place; on top, a few
    # small objects
    n = 2 ** 17
    f = ZnFunction(n, np.random.default_rng(0).standard_normal(n))
    spectrum = dft(f)
    assert _traced_peak(ellp_norm, spectrum, 1) < 8 * n + 4096
    assert _traced_peak(lp_norm, f, 2) < 8 * n + 4096


def test_a_moment_holds_one_float64_array_of_magnitudes():
    # |S| in float64, squared and raised to the power K in place; on top, a
    # few small objects
    n = 2 ** 17
    s = weyl_sum(IntPolynomial((0, 1)), 1000, n)
    for k_order in (1, 3):
        assert _traced_peak(moment_2k, s, k_order) < 8 * n + 4096, k_order


def test_a_measure_gathers_its_mask_in_at_most_two_int64_arrays():
    # no power of T is built: the mask is gathered through squares of T,
    # which stream through two working arrays and are read from the
    # permutation itself, uncopied, at |shift| <= 1
    system = FiniteMPSystem.skew_product(100)
    size, points = system.permutation.nbytes, system.size
    mask = system.validate_subset(range(0, points, 3))
    for shift in (0, 1, -1, 2, 3, 10, 12345, 10 ** 30, -10 ** 30):
        arrays = 0 if abs(shift) <= 1 else 1 if abs(shift) <= 3 else 2
        # the gathered mask, the one before it, and a few small objects
        assert _traced_peak(recurrence_measure, system, mask, shift) \
            < arrays * size + 3 * points, shift


def test_a_search_keeps_its_squares_within_the_system_budget(monkeypatch):
    # 20 times spread to 2^60: the first pair's difference alone needs ~60
    # squares of T; a search keeps them only while they and T hold at most
    # SYSTEM_BUDGET points, and works on in two arrays past that
    system = FiniteMPSystem.skew_product(100)
    size, points = system.permutation.nbytes, system.size
    mask = system.validate_subset(range(0, points, 3))
    rng = np.random.default_rng(1)
    times = [int(t) for t in rng.integers(0, 2 ** 60, 20)]
    search = functools.partial(khintchine_search, system, mask, 0.5, times, permissive=True)
    # under the default budget every square is kept
    assert _traced_peak(search) > 50 * size
    for kept in (0, 1, 3):
        monkeypatch.setattr(ergodic_lab, "SYSTEM_BUDGET", (1 + kept) * points)
        assert _traced_peak(search) < (kept + 2) * size + 3 * points, kept


def test_building_a_system_holds_one_array_of_its_size():
    # the builders hand their array over: no copy sits beside it, only
    # small temporaries (a ufunc's 64 KiB buffer among them)
    for build, m, points in [(FiniteMPSystem.skew_product, 300, 300 ** 2),
                             (FiniteMPSystem.rotation, 10 ** 5, 10 ** 5)]:
        size = 8 * points
        for a in (1, -7, 10 ** 30):
            peak = _traced_peak(build, m, a)
            assert size <= peak < size + size // 8, (build, a)


@PROPERTY
@given(kind=st.sampled_from(["rotation", "skew"]), m=st.integers(1, 60),
       a=st.sampled_from([-7, 10 ** 30]) | st.integers(-10 ** 6, 10 ** 6),
       c=st.integers(-10 ** 30, 10 ** 30) | st.integers(-5, 5))
def test_built_systems_equal_their_permutation_through_the_checking_constructor(kind, m, a, c):
    build = {"rotation": FiniteMPSystem.rotation, "skew": FiniteMPSystem.skew_product}
    system = build[kind](m, a)
    assert system == FiniteMPSystem(list(closed_form_power_map(kind, m, a, 1)))
    power = system.power_system(c)
    assert power == FiniteMPSystem(list(closed_form_power_map(kind, m, a, c)))
    for built in (system, power):
        assert built.permutation.dtype == np.int64 and not built.permutation.flags.writeable


@PROPERTY
@given(perm=permutations(), s=huge_shifts, t=huge_shifts)
def test_powers_compose_as_a_group(perm, s, t):
    system = FiniteMPSystem(perm)
    first, second = system.power_map(s), system.power_map(t)
    assert system.power_map(s + t) == tuple(first[x] for x in second)


@PROPERTY
@given(perm=permutations(max_size=30), data=st.data(),
       shift=st.integers(-30, 30))
def test_recurrence_measure_matches_naive_with_mask_and_set(perm, data, shift):
    m = len(perm)
    points = data.draw(st.sets(st.integers(0, m - 1)))
    mask = np.zeros(m, dtype=bool)
    mask[list(points)] = True
    system = FiniteMPSystem(perm)
    want = naive_recurrence_measure(perm, points, shift)
    assert recurrence_measure(system, points, shift) == want
    assert recurrence_measure(system, mask, shift) == want
    assert recurrence_measure(system, sorted(points), shift) == want


#: Shifts of the counting kernel: small, and past int64 and 2^64.
gather_shifts = (st.integers(-40, 40)
                 | st.sampled_from([0, 1, -1, 10 ** 20, -10 ** 20, 2 ** 63, -2 ** 63,
                                    2 ** 64 + 1]))


@st.composite
def systems_with_subsets(draw):
    """A rotation, a skew product, a random permutation (m = 1 among them) or
    the identity, with any subset of its points."""
    kind = draw(st.sampled_from(["rotation", "skew", "perm", "identity"]))
    if kind == "rotation":
        system = FiniteMPSystem.rotation(draw(st.integers(1, 60)), draw(st.integers(-99, 99)))
    elif kind == "skew":
        system = FiniteMPSystem.skew_product(draw(st.integers(1, 7)), draw(st.integers(-9, 9)))
    elif kind == "perm":
        system = FiniteMPSystem(draw(permutations()))
    else:
        system = FiniteMPSystem(range(draw(st.integers(1, 30))))
    return system, draw(st.sets(st.integers(0, system.size - 1)))


@PROPERTY
@given(case=systems_with_subsets(), shift_list=st.lists(gather_shifts, min_size=1, max_size=6),
       room=st.integers(0, 4))
@example(case=(FiniteMPSystem([0]), {0}), shift_list=[0, 2 ** 64 + 1, -2 ** 63], room=0)
@example(case=(FiniteMPSystem(range(5)), {1, 3}), shift_list=[-10 ** 20, 2 ** 63], room=1)
def test_gathered_counts_match_naive_iteration(case, shift_list, room):
    # a measure keeps no square, a search some of them: both must count as
    # iterating the map does, at huge shifts too (T^order is the identity)
    system, points = case
    order = naive_order(system.mapping)
    mask = system.validate_subset(points)
    squares = ergodic_lab._Squares(system.permutation, room * system.size)
    for shift in shift_list:
        want = naive_recurrence_measure(system.mapping, points, shift % order)
        assert recurrence_measure(system, mask, shift) == want, shift
        hits = np.count_nonzero(mask & ergodic_lab._gathered(mask, squares, shift))
        assert Fraction(int(hits), system.size) == want, shift


@PROPERTY
@given(case=systems_with_subsets(),
       shift_list=st.lists(gather_shifts, min_size=2, max_size=8, unique=True),
       kept=st.integers(1, 5), data=st.data())
def test_a_search_counts_the_same_whatever_order_it_asks_shifts_in(case, shift_list, kept, data):
    # which squares a search has kept depends on the shifts it asked first
    system, points = case
    mask = system.validate_subset(points)
    shuffled = data.draw(st.permutations(shift_list))
    counts = []
    for order in (shift_list, shuffled):
        with patch.object(ergodic_lab, "SYSTEM_BUDGET", kept * system.size):
            hits = ergodic_lab._level(system, mask, 0.5)[2]
            counts.append({shift: hits(shift) for shift in order})
    want = {shift: recurrence_measure(system, mask, shift) * system.size
            for shift in shift_list}
    assert counts[0] == counts[1] == want


@PROPERTY
@given(m=st.integers(1, 80), a=st.integers(-200, 200), s=st.integers(-40, 40),
       data=st.data())
def test_rotation_measure_is_a_cyclic_intersection_count(m, a, s, data):
    points = data.draw(st.sets(st.integers(0, m - 1)))
    # the point 0 of Z_m is the element m of [1, m]
    a_set = IntegerSet(m, [x or m for x in points])
    count = _intersection_counts(a_set, [a * s], CYCLIC).tolist()[0]
    assert count == naive_intersection_cyclic(a_set.elements, m, a * s)
    measure = recurrence_measure(FiniteMPSystem.rotation(m, a), points, s)
    assert measure == Fraction(count, m)


@pytest.mark.parametrize("a", [10 ** 30, -7, -10 ** 30 - 1, 0])
@pytest.mark.parametrize("m", [1, 7, 12])
def test_rotation_and_skew_use_exact_integer_arithmetic(m, a):
    assert FiniteMPSystem.rotation(m, a).mapping == tuple((x + a) % m for x in range(m))
    skew = tuple(((x + a) % m) * m + (y + x) % m for x in range(m) for y in range(m))
    assert FiniteMPSystem.skew_product(m, a).mapping == skew


def test_validate_subset_refuses_bad_points_and_masks():
    system = FiniteMPSystem.rotation(6)
    for bad in ([-1], [6], [0, 10 ** 30], [-10 ** 30]):
        with pytest.raises(ValueError, match="outside the space"):
            system.validate_subset(bad)
    with pytest.raises(ValueError, match="6 entries"):
        system.validate_subset(np.ones(5, dtype=bool))
    with pytest.raises(ValueError, match="6 entries"):
        system.validate_subset(np.ones((6, 1), dtype=bool))
    mask = system.validate_subset([5, 1, 1])
    assert mask.tolist() == [False, True, False, False, False, True]
    assert system.validate_subset(mask) is mask
    assert system.validate_subset(np.array([1, 5])).tolist() == mask.tolist()


def test_sets_and_systems_compare_and_hash_by_value():
    a = IntegerSet(10, (3, 1, 7))
    b = IntegerSet(10, [7.0, 1, 3, 3])
    assert a == b and hash(a) == hash(b)
    assert a != IntegerSet(11, (1, 3, 7)) and a != IntegerSet(10, (1, 3))
    assert a != (1, 3, 7)
    assert len({a, b, generate_set("ap", 10, start=1, step=3)}) == 2
    rot = FiniteMPSystem.rotation(5, 2)
    same = FiniteMPSystem((2, 3, 4, 0, 1))
    assert rot == same and hash(rot) == hash(same)
    assert rot != FiniteMPSystem.rotation(5, 1)
    assert rot != FiniteMPSystem.rotation(6, 2)


def test_integer_set_array_is_read_only_and_tuples_hold_python_ints():
    source = np.array([9, 2, 2, 5])
    a = IntegerSet(10, source)
    assert source.tolist() == [9, 2, 2, 5] and source.flags.writeable
    assert a.array.dtype == np.int64 and not a.array.flags.writeable
    assert a.elements == (2, 5, 9)
    assert all(type(e) is int for e in a.elements)
    system = FiniteMPSystem.from_permutation(np.array([1, 0]))
    assert not system.permutation.flags.writeable
    assert all(type(x) is int for x in system.mapping + system.power_map(3))


def test_integer_set_membership_and_range_errors():
    a = IntegerSet(10, (1, 5, 10))
    assert [x in a for x in (0, 1, 2, 5, 9, 10, 11, 10 ** 30, -10 ** 30)] == \
        [False, True, False, True, False, True, False, False, False]
    assert 5.0 in a and 5.5 not in a and np.int64(10) in a
    assert 1 not in IntegerSet(10, ())
    assert IntegerSet(10, [1, 1, 4, 4, 4]).elements == (1, 4)
    assert IntegerSet(10, np.array([2, 2, 3])).size == 2
    for bad in ([10 ** 30], [-10 ** 30], [0], [11]):
        with pytest.raises(ValueError, match=r"\[1, 10\]"):
            IntegerSet(10, bad)


def _set_views(a: IntegerSet, shifts: list[int]) -> tuple:
    """Every public view of a set, with membership read before anything
    builds the set's other form."""
    member = [x in a for x in range(-1, a.n + 3)] + [1.5 in a, float(a.n) in a]
    return (member, a.array.tolist(), a.array.dtype, a.array.flags.writeable, a.elements,
            a.size, len(a), a.density, list(a), hash(a),
            a.mask.tolist(), a.mask.flags.writeable,
            balanced_function(a).values.tobytes(),
            _intersection_counts(a, shifts, INTEGER).tolist(),
            _intersection_counts(a, shifts, CYCLIC).tolist())


@PROPERTY
@given(bits=st.lists(st.booleans(), min_size=1, max_size=200))
@example(bits=[False])
@example(bits=[True])
@example(bits=[True] * 7)
@example(bits=[False] * 6 + [True])  # only the element n, residue 0
def test_a_set_built_from_its_mask_or_its_elements_looks_the_same(bits):
    n = len(bits)
    shifts = list(range(-n - 2, n + 3)) + [10 ** 30, -10 ** 30]
    from_mask = IntegerSet(n, _Fresh(np.array(bits)))
    from_elements = IntegerSet(n, [x + 1 for x, hit in enumerate(bits) if hit])
    assert "array" not in vars(from_mask) and "mask" not in vars(from_elements)
    views = _set_views(from_mask, shifts)
    assert views == _set_views(from_elements, shifts)
    assert views[10] == bits
    assert repr(from_mask) == repr(from_elements) == \
        f"IntegerSet(n={n}, array={np.flatnonzero(bits) + 1!r})"
    for a, b in itertools.product([from_mask, from_elements, IntegerSet(n, _Fresh(np.array(bits)))],
                                  repeat=2):
        assert a == b and hash(a) == hash(b)
    flipped = IntegerSet(n, _Fresh(~np.array(bits)))
    assert flipped != from_mask and flipped != from_elements and from_elements != flipped


def test_a_sparse_set_in_a_huge_range_builds_no_mask():
    a = IntegerSet(10 ** 12, [10 ** 12, 1, 1])
    assert a.array.tolist() == [1, 10 ** 12] and a.size == 2 and len(a) == 2
    assert [x in a for x in (1, 2, 10 ** 12 - 1, 10 ** 12, 10 ** 12 + 1)] == \
        [True, False, False, True, False]
    assert a.elements == (1, 10 ** 12)
    assert a == IntegerSet(10 ** 12, (1, 10 ** 12)) and a != IntegerSet(10 ** 12, [1])
    assert hash(a) == hash(IntegerSet(10 ** 12, np.array([1, 10 ** 12])))
    assert "mask" not in vars(a)


def test_generated_sets_keep_the_mask_they_were_built_as():
    for kind, want in [("full", [1, 2, 3, 4, 5, 6, 7]), ("evens", [2, 4, 6]),
                       ("ap", [3, 7]),
                       ("random", [x + 1 for x, hit in enumerate(naive_bernoulli(7, 0.5, 9))
                                   if hit])]:
        a = generate_set(kind, 7, start=3, step=4, density=0.5, seed=9)
        assert "array" not in vars(a) and not a.mask.flags.writeable
        assert a.array.tolist() == want
    for start, step in [(8, 1), (10 ** 30, 1), (7, 10 ** 30), (1, 2 ** 63)]:
        assert generate_set("ap", 7, start=start, step=step).elements == \
            tuple(range(start, 8, step))
    assert generate_set("ap", 7, start=3.0, step=Fraction(2)).elements == (3, 5, 7)


def test_indicator_and_balanced_function_match_residue_loops():
    a = generate_set("random", 97, density=0.4, seed=5)
    want = np.zeros(97, dtype=bool)
    for e in a.elements:
        want[e % 97] = True
    assert np.array_equal(_residue_mask(a), want)
    want = np.full(97, -float(a.density))
    for e in a.elements:
        want[e % 97] += 1.0
    assert np.array_equal(balanced_function(a).values, want)


def _patch_least_hits(monkeypatch, least):
    """Make the searches' counter pass a shift when its hit count is >= least."""
    level = ergodic_lab._level

    def patched(*args):
        threshold, _, hits = level(*args)
        return threshold, least, hits

    monkeypatch.setattr(ergodic_lab, "_level", patched)


def test_griesmer_reverification_failure_raises(monkeypatch):
    # every shift passes, so the search returns the shift 1, which the
    # re-verification refutes
    _patch_least_hits(monkeypatch, 0)
    with pytest.raises(ExactnessError, match="re-verification failed for n=1"):
        griesmer_search(FiniteMPSystem.rotation(8), {0}, 0.001, [1], [1, 2, 3])


def test_cli_maps_griesmer_reverification_failure_to_exit_1(monkeypatch, capsys):
    _patch_least_hits(monkeypatch, 0)
    argv = ["ergodic", "--action", "griesmer", "--system", "rotation:8",
            "--subset", "list:0", "--eps", "0.001", "--times", "1..3"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("internal check failed: re-verification failed")


@pytest.mark.parametrize("action", ["khintchine", "griesmer"])
def test_a_guaranteed_search_that_finds_no_pair_exits_1(action, monkeypatch, capsys):
    # no shift of rotation:8 has 9 hits, but a list of ceil(1/eps) times must
    # hold a good pair, so both searches report the contradiction
    _patch_least_hits(monkeypatch, 9)
    argv = ["ergodic", "--action", action, "--system", "rotation:8", "--subset", "all",
            "--eps", "0.5", "--times", "1..3"]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "internal check failed: guaranteed pair not found; search is buggy\n")


@pytest.mark.parametrize("spec", ["all", "range:2:5", "list:0,3,3,7",
                                  "random:0.4:11", "random:0.6"])
def test_cli_subset_literals_give_the_same_measure_as_point_sets(spec, capsys):
    m = 8
    rng_points = {
        "all": set(range(m)), "range:2:5": {2, 3, 4, 5}, "list:0,3,3,7": {0, 3, 7},
        "random:0.4:11": {x for x, hit in enumerate(naive_bernoulli(m, 0.4, 11)) if hit},
        "random:0.6": {x for x, hit in enumerate(naive_bernoulli(m, 0.6, 0)) if hit},
    }[spec]
    assert main(["ergodic", "--action", "measure", "--system", "rotation:8:3",
                 "--subset", spec, "--shift", "5"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["mu_A"] == str(Fraction(len(rng_points), m))
    perm = [(x + 3) % m for x in range(m)]
    assert results["measure"] == str(naive_recurrence_measure(perm, rng_points, 5))
