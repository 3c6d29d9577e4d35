import dataclasses
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrec import ergodic_lab
from polyrec.ergodic_lab import (TIMES_BUDGET, FiniteMPSystem, griesmer_search,
                                 khintchine_search, recurrence_measure)

from oracles import naive_griesmer, naive_khintchine, naive_recurrence_measure


def test_rotation_and_permutation_validation():
    rot = FiniteMPSystem.rotation(5, 2)
    assert rot.mapping == (2, 3, 4, 0, 1)
    assert rot.order() == 5
    with pytest.raises(ValueError):
        FiniteMPSystem((0, 0, 1))
    with pytest.raises(ValueError):
        FiniteMPSystem(())
    # entries are integers in value: 1.9 and 0.2 were read as the swap [1, 0]
    for bad in ([1.9, 0.2], ["1", "0"]):
        with pytest.raises(ValueError, match="mapping is not a permutation"):
            FiniteMPSystem.from_permutation(bad)
    assert FiniteMPSystem.from_permutation([1.0, 0]).mapping == (1, 0)


def test_skew_product_is_a_bijection():
    sysm = FiniteMPSystem.skew_product(4)
    assert sorted(sysm.mapping) == list(range(16))
    # (x, y) -> (x+1, y+x): point (2, 3) goes to (3, 1)
    assert sysm.mapping[2 * 4 + 3] == 3 * 4 + 1


def test_building_a_system_hands_the_heaps_free_pages_back_first(monkeypatch):
    # a system's arrays must not land in resident holes earlier work left:
    # its peak memory would depend on that work
    calls = []
    monkeypatch.setattr(ergodic_lab, "_malloc_trim", calls.append)
    FiniteMPSystem.skew_product(128)  # 2^14 points
    FiniteMPSystem.rotation(2 ** 14).power_system(3)
    assert calls == [0, 0, 0]
    FiniteMPSystem.skew_product(127)
    FiniteMPSystem.rotation(2 ** 14 - 1)
    assert calls == [0, 0, 0]


def test_power_map_matches_iteration():
    rng = random.Random(3)
    perm = list(range(30))
    rng.shuffle(perm)
    sysm = FiniteMPSystem.from_permutation(perm)
    fwd = sysm.mapping
    walked = list(range(30))
    for shift in range(1, 8):
        walked = [fwd[x] for x in walked]
        assert sysm.power_map(shift) == tuple(walked)
    # negative shifts invert
    back = sysm.power_map(-3)
    three = sysm.power_map(3)
    assert all(back[three[x]] == x for x in range(30))


def test_measure_preservation_on_random_subsets():
    rng = random.Random(5)
    perm = list(range(64))
    rng.shuffle(perm)
    sysm = FiniteMPSystem.from_permutation(perm)
    inverse = sysm.power_map(-1)
    for _ in range(100):
        e = set(x for x in range(64) if rng.random() < 0.4)
        preimage = set(x for x in range(64) if sysm.mapping[x] in e)
        assert len(preimage) == len(e)
        assert preimage == set(inverse[y] for y in e)


def test_recurrence_measure_frozen_rotation_cases():
    sysm = FiniteMPSystem.rotation(10)
    a = set(range(5))
    assert recurrence_measure(sysm, a, 0) == Fraction(1, 2)
    assert recurrence_measure(sysm, a, 5) == 0
    assert recurrence_measure(sysm, a, 10) == Fraction(1, 2)
    assert recurrence_measure(sysm, a, 3) == Fraction(2, 10)


def test_recurrence_measure_matches_naive_iteration():
    rng = random.Random(7)
    perm = list(range(40))
    rng.shuffle(perm)
    sysm = FiniteMPSystem.from_permutation(perm)
    a = set(x for x in range(40) if rng.random() < 0.5)
    for shift in (-9, -1, 0, 1, 2, 17, 40, 123):
        got = recurrence_measure(sysm, a, shift)
        want = naive_recurrence_measure(perm, a, shift)
        assert got == want, shift


def test_recurrence_measure_periodicity_and_symmetry():
    rng = random.Random(11)
    perm = list(range(24))
    rng.shuffle(perm)
    sysm = FiniteMPSystem.from_permutation(perm)
    a = set(range(0, 24, 3))
    period = sysm.order()
    for shift in range(1, 15):
        assert recurrence_measure(sysm, a, shift) == \
            recurrence_measure(sysm, a, shift % period)
        assert recurrence_measure(sysm, a, shift) == \
            recurrence_measure(sysm, a, -shift)


def test_khintchine_whole_space_returns_first_pair():
    sysm = FiniteMPSystem.rotation(12)
    out = khintchine_search(sysm, range(12), 0.5, [3, 8, 20])
    assert out.found
    assert out.pair == (1, 2)
    assert out.n == 5
    assert out.measure == 1


def test_khintchine_rotation_half_interval():
    sysm = FiniteMPSystem.rotation(100)
    out = khintchine_search(sysm, range(50), 0.1, list(range(1, 11)))
    assert out.found
    assert out.pair == (1, 2)
    assert out.n == 1
    assert out.measure == Fraction(49, 100)
    assert out.measure >= Fraction(15, 100)
    assert out.strict


def test_khintchine_precondition_and_permissive_mode():
    sysm = FiniteMPSystem.rotation(30)
    with pytest.raises(ValueError):
        khintchine_search(sysm, range(10), 0.05, [1, 2, 3])
    out = khintchine_search(sysm, range(10), 0.05, [1, 2, 3], permissive=True)
    assert out.found is False or out.measure >= out.threshold


def test_khintchine_guarantee_randomized():
    rng = random.Random(13)
    for trial in range(60):
        m = rng.randint(10, 200)
        perm = list(range(m))
        rng.shuffle(perm)
        sysm = FiniteMPSystem.from_permutation(perm)
        a = set(x for x in range(m) if rng.random() < rng.uniform(0.1, 0.9))
        eps = rng.choice([0.5, 0.2, 0.1, 0.05])
        window = math.ceil(1.0 / eps)
        start = rng.randint(0, 50)
        times = list(range(start, start + max(window, 2)))
        out = khintchine_search(sysm, a, eps, times)
        assert out.found, trial
        mu = Fraction(len(a), m)
        assert out.measure >= mu * mu - Fraction(eps)
        # independent recomputation of the winning measure
        assert recurrence_measure(sysm, a, out.n) == out.measure


def test_khintchine_rejects_duplicate_times():
    sysm = FiniteMPSystem.rotation(10)
    with pytest.raises(ValueError):
        khintchine_search(sysm, range(5), 0.5, [1, 1, 2])


def test_griesmer_single_constant_reduces_to_khintchine():
    sysm = FiniteMPSystem.rotation(60)
    a = set(range(20))
    times = list(range(1, 15))
    gri = griesmer_search(sysm, a, 0.1, [1], times)
    khi = khintchine_search(sysm, a, 0.1, times)
    assert gri.found and khi.found
    assert gri.n == khi.n
    assert gri.measures == (khi.measure,)


def test_griesmer_rotation_with_two_constants():
    # the periodicity example: c = (1, 5) on Z_12 with A = {0,1,2,3}.
    # mu(A)^2 - 0.2 is negative, so the very first difference qualifies;
    # the search returns n = 1 and re-verification passes trivially.
    sysm = FiniteMPSystem.rotation(12)
    a = {0, 1, 2, 3}
    out = griesmer_search(sysm, a, 0.2, [1, 5], list(range(1, 61)))
    assert out.found
    assert out.threshold < 0
    assert out.n == 1
    assert all(mu >= out.threshold for mu in out.measures)
    # multiples of 12 are perfect returns for both constants; verify the
    # claim behind the example even though the search stops earlier
    assert recurrence_measure(sysm, a, 12) == Fraction(4, 12)
    assert recurrence_measure(sysm, a, 5 * 12) == Fraction(4, 12)


def test_griesmer_needs_positive_threshold_to_be_selective():
    # same system with eps small enough that the threshold is positive:
    # whatever comes back must clear it for both constants
    sysm = FiniteMPSystem.rotation(12)
    a = {0, 1, 2, 3}
    out = griesmer_search(sysm, a, 0.05, [1, 5], list(range(1, 61)))
    assert out.found
    threshold = Fraction(4, 12) ** 2 - Fraction(0.05)
    assert all(mu >= threshold for mu in out.measures)
    assert len(out.levels) == 1
    assert out.levels[0].clique_size >= 2


def test_griesmer_padding_to_power_of_two():
    sysm = FiniteMPSystem.rotation(24)
    a = set(range(8))
    out = griesmer_search(sysm, a, 0.3, [1, 2, 3], list(range(1, 25)))
    assert out.padded_constants == (1, 2, 3, 3)
    if out.found:
        assert len(out.measures) == 3


def test_griesmer_reported_failure_when_times_cannot_work():
    # A = {0} on Z_8: only multiples of 8 return; differences of {1..4}
    # never do, so with a positive threshold the recursion must exhaust.
    sysm = FiniteMPSystem.rotation(8)
    out = griesmer_search(sysm, {0}, 0.001, [1, 1], [1, 2, 3, 4])
    assert not out.found
    assert out.failure_reason is not None
    assert out.n is None


def test_griesmer_randomized_reverification():
    rng = random.Random(17)
    found = 0
    for trial in range(25):
        m = rng.randint(40, 300)
        perm = list(range(m))
        rng.shuffle(perm)
        sysm = FiniteMPSystem.from_permutation(perm)
        a = set(x for x in range(m) if rng.random() < 0.4)
        constants = [rng.choice([1, 2, 3, 5, -2]) for _ in range(rng.randint(1, 3))]
        out = griesmer_search(sysm, a, 0.1, constants, list(range(1, 41)))
        if out.found:
            found += 1
            mu = Fraction(len(a), m)
            for c, measure in zip(constants, out.measures):
                assert recurrence_measure(sysm, a, c * out.n) == measure
                assert measure >= mu * mu - Fraction(Fraction(1, 10))
    assert found >= 20  # random systems at this scale nearly always succeed


def test_griesmer_rejects_zero_constants():
    sysm = FiniteMPSystem.rotation(10)
    with pytest.raises(ValueError):
        griesmer_search(sysm, {0, 1}, 0.1, [1, 0], [1, 2, 3])


def test_griesmer_refuses_a_time_list_past_its_budget():
    with pytest.raises(ValueError, match="time list budget exceeded"):
        griesmer_search(FiniteMPSystem.rotation(10), {0}, 0.1, [1], range(TIMES_BUDGET + 1))


@pytest.mark.parametrize("search", [
    lambda times: khintchine_search(FiniteMPSystem.rotation(10), {0}, 0.1, times),
    lambda times: griesmer_search(FiniteMPSystem.rotation(10), {0}, 0.1, [1], times),
], ids=["khintchine", "griesmer"])
def test_both_searches_read_at_most_one_time_past_the_budget(search):
    # times 0, 1, 2, ... without end are refused after TIMES_BUDGET + 1 reads
    # (a search that read on would fail here, not run out of memory); a range
    # too long for len() is refused too, and the budget itself is admitted
    def endless():
        for i in itertools.count():
            assert i <= TIMES_BUDGET, "read a time past the first one over the budget"
            yield i

    for times in (endless(), range(TIMES_BUDGET + 1), range(1, 10 ** 20)):
        with pytest.raises(ValueError, match="time list budget exceeded"):
            search(times)
    search(range(TIMES_BUDGET))


def test_khintchine_medium_random_permutation_succeeds():
    rng = random.Random(500)
    perm = list(range(500))
    rng.shuffle(perm)
    sysm = FiniteMPSystem.from_permutation(perm)
    a = set(x for x in range(500) if rng.random() < 0.3)
    out = khintchine_search(sysm, a, 0.05, list(range(1, 21)))
    assert out.found
    mu = Fraction(len(a), 500)
    assert out.measure >= mu * mu - Fraction(0.05)
    assert naive_recurrence_measure(sysm.mapping, a, out.n) == out.measure


def test_griesmer_medium_random_system_reverifies():
    rng = random.Random(300)
    perm = list(range(300))
    rng.shuffle(perm)
    sysm = FiniteMPSystem.from_permutation(perm)
    a = set(x for x in range(300) if rng.random() < 0.4)
    out = griesmer_search(sysm, a, 0.1, (2, 3), list(range(1, 81)))
    assert out.found
    for c in (2, 3):
        measure = naive_recurrence_measure(sysm.mapping, a, c * out.n)
        assert measure > 0.06


#: Times and constants: small, and past int64 (their differences too).
HUGE = st.sampled_from([10 ** 20, -10 ** 20, 10 ** 20 + 1, 2 ** 63, -2 ** 63])
TIMES = st.lists(st.integers(-12, 12) | st.integers(-10 ** 20, 10 ** 20) | HUGE,
                 unique=True, max_size=9)
CONSTANTS = st.lists(st.integers(-5, 5).filter(bool) | HUGE, min_size=1, max_size=5)


@st.composite
def finite_searches(draw):
    """A permutation of at most 30 points, any subset and eps in (0, 1]."""
    perm = draw(st.permutations(range(draw(st.integers(1, 30)))))
    subset = draw(st.sets(st.integers(0, len(perm) - 1)))
    return perm, subset, draw(st.floats(0, 1, exclude_min=True))


def _outcome(search, *args):
    """The search's result, or the type of the ValueError it raised."""
    try:
        return search(*args)
    except ValueError:
        return ValueError


@settings(max_examples=150, deadline=None)
@given(case=finite_searches(), times=TIMES, permissive=st.booleans())
@example(case=([1, 2, 0], {0}, 5e-324), times=[1, 2], permissive=True)
def test_khintchine_matches_the_oracle(case, times, permissive):
    perm, subset, eps = case
    got = _outcome(khintchine_search, FiniteMPSystem.from_permutation(perm), subset, eps,
                   times, permissive)
    want = _outcome(naive_khintchine, perm, subset, eps, times, permissive)
    assert (got if got is ValueError else dataclasses.astuple(got)) == want


@settings(max_examples=150, deadline=None)
@given(case=finite_searches(), constants=CONSTANTS, times=TIMES)
@example(case=([(x + 1) % 12 for x in range(12)], {0, 1, 2, 3}, 0.05), constants=[1, 5],
         times=[3, -7, 10, 1, 22, 9])
def test_griesmer_matches_the_oracle(case, constants, times):
    perm, subset, eps = case
    got = griesmer_search(FiniteMPSystem.from_permutation(perm), subset, eps, constants,
                          times)
    want = naive_griesmer(perm, subset, eps, constants, times)
    assert (got.found, got.n, got.measures, got.threshold, got.constants,
            got.padded_constants, tuple(dataclasses.astuple(lv) for lv in got.levels),
            got.failure_reason) == want
