from fractions import Fraction

import pytest

from polyrec.intset import AMBIENT_BUDGET, IntegerSet, generate_set
from polyrec.polyfam import PolynomialFamily
from polyrec.recurrence import CYCLIC, find_good_shifts


def test_basic_invariants():
    a = IntegerSet(10, (3, 1, 7, 3))
    assert a.elements == (1, 3, 7)
    assert a.size == 3
    assert a.density == Fraction(3, 10)
    assert 7 in a and 2 not in a
    assert list(a) == [1, 3, 7]


def test_bounds_are_enforced():
    with pytest.raises(ValueError):
        IntegerSet(10, (0,))
    with pytest.raises(ValueError):
        IntegerSet(10, (11,))
    with pytest.raises(ValueError):
        IntegerSet(0, ())


def test_residues_wrap_the_top_element():
    # read modulo n, the element n is 0: shift 1 carries 10 onto 1, and
    # shift 5 carries 5 onto 10 and 10 onto 5
    a = IntegerSet(10, (1, 5, 10))
    report = find_good_shifts(a, PolynomialFamily.parse(["1"]), 0.5, mode=CYCLIC)
    assert report.counts.tolist() == [[1, 0, 0, 1, 2]]


def test_generate_full_evens_ap():
    assert generate_set("full", 5).elements == (1, 2, 3, 4, 5)
    assert generate_set("evens", 10).elements == (2, 4, 6, 8, 10)
    assert generate_set("ap", 20, start=5, step=5).elements == (5, 10, 15, 20)


def test_generate_random_is_reproducible():
    a = generate_set("random", 100, density=0.3, seed=42)
    b = generate_set("random", 100, density=0.3, seed=42)
    assert a.elements == b.elements
    assert generate_set("random", 100, density=0.3, seed=43).elements != a.elements


def test_generate_random_golden_prefix():
    # Frozen output of random.Random(42) Bernoulli thinning at density 0.3.
    a = generate_set("random", 100, density=0.3, seed=42)
    assert a.elements[:8] == (2, 3, 4, 8, 10, 11, 13, 14)
    assert a.size == 36


def test_random_density_tracks_parameter():
    for seed in range(5):
        a = generate_set("random", 4000, density=0.5, seed=seed)
        assert abs(a.size - 2000) < 200


def test_unknown_kind():
    with pytest.raises(ValueError):
        generate_set("primes", 10)


@pytest.mark.parametrize("kind", ["full", "evens", "ap", "random"])
def test_an_ambient_n_past_the_budget_is_refused_before_the_set_is_built(kind):
    assert generate_set(kind, AMBIENT_BUDGET).n == AMBIENT_BUDGET
    for n in (AMBIENT_BUDGET + 1, 10 ** 12):
        with pytest.raises(ValueError, match="ambient budget exceeded: need N <= 2000000"):
            generate_set(kind, n)
