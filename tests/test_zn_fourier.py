import math

import numpy as np
import pytest

from polyrec.intset import IntegerSet
from polyrec.zn_fourier import (Spectrum, ZnFunction, balanced_function, dft, ellp_norm,
                                indicator, inverse_dft, lp_norm)

from oracles import naive_dft, naive_inverse_dft


def test_dft_of_constant_one():
    f = ZnFunction(4, np.ones(4))
    coeffs = dft(f).coefficients
    assert abs(coeffs[0] - 1.0) < 1e-12
    assert np.max(np.abs(coeffs[1:])) < 1e-12


def test_dft_of_point_mass():
    vals = np.zeros(4)
    vals[0] = 1.0
    coeffs = dft(ZnFunction(4, vals)).coefficients
    assert np.max(np.abs(coeffs - 0.25)) < 1e-12


def test_dft_of_two_point_set():
    # Indicator of {0, 2} on Z_4: transform is (1/2, 0, 1/2, 0).
    vals = np.array([1.0, 0.0, 1.0, 0.0])
    coeffs = dft(ZnFunction(4, vals)).coefficients
    assert np.allclose(coeffs, [0.5, 0.0, 0.5, 0.0], atol=1e-12)


def test_dft_matches_naive_on_random_inputs():
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 16, 33):
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        got = dft(ZnFunction(n, vals)).coefficients
        want = naive_dft(vals)
        assert np.max(np.abs(got - want)) < 1e-10


def test_inverse_matches_naive_and_roundtrips():
    rng = np.random.default_rng(8)
    for n in (2, 7, 24):
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = ZnFunction(n, vals)
        spec = dft(f)
        back = inverse_dft(spec)
        assert np.max(np.abs(back.values - vals)) < 1e-10
        assert np.max(np.abs(back.values - naive_inverse_dft(spec.coefficients))) < 1e-10


def test_plancherel_on_seeded_inputs():
    rng = np.random.default_rng(9)
    for n in (3, 10, 101, 256):
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = ZnFunction(n, vals)
        assert abs(lp_norm(f, 2) - ellp_norm(dft(f), 2)) < 1e-10 * lp_norm(f, 2)


def test_norm_edge_cases():
    f = ZnFunction(4, np.array([3.0, -4.0, 0.0, 0.0]))
    assert abs(lp_norm(f, math.inf) - 4.0) < 1e-15
    assert abs(lp_norm(f, 1) - 7.0 / 4.0) < 1e-15
    with pytest.raises(ValueError):
        lp_norm(f, 0.5)


def test_indicator_and_balanced():
    a = IntegerSet(8, (2, 4, 8))
    ind = indicator(a)
    assert ind.values[2] == 1 and ind.values[4] == 1 and ind.values[0] == 1
    assert np.sum(ind.values) == 3
    bal = balanced_function(a)
    assert abs(np.sum(bal.values)) < 1e-12
    assert abs(dft(bal).coefficients[0]) < 1e-12


def test_balanced_of_evens_has_single_nonzero_frequency():
    # On Z_100 the balanced evens put all their mass at frequency 50.
    a = IntegerSet(100, tuple(range(2, 101, 2)))
    coeffs = dft(balanced_function(a)).coefficients
    assert abs(coeffs[50] - 0.5) < 1e-12
    others = np.delete(np.abs(coeffs), 50)
    assert np.max(others) < 1e-12


def test_modulus_mismatch_rejected():
    with pytest.raises(ValueError):
        ZnFunction(4, np.ones(3))


def test_zn_function_copies_a_writable_array():
    vals = np.arange(5, dtype=complex)
    f = ZnFunction(5, vals)
    vals[2] = 99.0
    assert f.values[2] == 2.0
    assert not f.values.flags.writeable


def test_zn_function_copies_a_read_only_view_of_a_writable_array():
    base = np.arange(6, dtype=complex)
    view = base[:5]
    view.setflags(write=False)
    f = ZnFunction(5, view)
    base[2] = 99.0
    assert f.values[2] == 2.0


def test_zn_function_copies_a_frozen_array_with_a_writable_view():
    # numpy does not pass write=False on to views taken before it was set
    base = np.arange(5, dtype=complex)
    view = base[:]
    base.setflags(write=False)
    f = ZnFunction(5, base)
    spec = Spectrum(5, base)
    view[2] = 99.0
    assert f.values[2] == 2.0 and spec.coefficients[2] == 2.0


def test_transforms_hand_over_one_read_only_array():
    f = ZnFunction(8, np.arange(8, dtype=complex))
    spec = dft(f)
    back = inverse_dft(spec)
    for arr in (spec.coefficients, back.values):
        assert not arr.flags.writeable and arr.flags.owndata
        with pytest.raises(ValueError):
            arr[0] = 1.0
    assert np.allclose(back.values, f.values)
