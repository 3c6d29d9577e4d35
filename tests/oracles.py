"""Slow, independent reference implementations used to pin test values.

Everything here is written the dumb way on purpose: direct double sums,
explicit tuple enumeration, no FFT, no convolution tricks.  The package
under test must agree with these.
"""

import cmath
import math
from fractions import Fraction
from itertools import product

import numpy as np


def naive_dft(values):
    """Probability-normalized DFT by direct O(N^2) summation."""
    n = len(values)
    out = np.zeros(n, dtype=complex)
    for xi in range(n):
        acc = 0j
        for x in range(n):
            acc += values[x] * cmath.exp(-2j * math.pi * x * xi / n)
        out[xi] = acc / n
    return out


def naive_inverse_dft(coeffs):
    n = len(coeffs)
    out = np.zeros(n, dtype=complex)
    for x in range(n):
        acc = 0j
        for xi in range(n):
            acc += coeffs[xi] * cmath.exp(2j * math.pi * x * xi / n)
        out[x] = acc
    return out


def naive_correlation(h_vals, g_vals):
    """out[t] = (1/N) sum_x h(x) g(x - t), indices mod N."""
    n = len(h_vals)
    out = np.zeros(n, dtype=complex)
    for t in range(n):
        acc = 0j
        for x in range(n):
            acc += h_vals[x] * g_vals[(x - t) % n]
        out[t] = acc / n
    return out


def naive_intersection_integer(elements, ambient, shift):
    """|A intersect (A - shift)| inside [1, ambient], no wraparound."""
    elems = set(elements)
    return sum(1 for x in elems if x + shift in elems)


def naive_intersection_cyclic(elements, ambient, shift):
    """|A intersect (A - shift)| with positions taken mod ambient."""
    residues = set(e % ambient for e in elements)
    return sum(1 for r in residues if (r + shift) % ambient in residues)


def naive_weyl_sum(poly, m, n_modulus, point, weights=None):
    """sum_{n<=m} w_n e(P(n) * point / N) by direct summation."""
    acc = 0j
    for i, n in enumerate(range(1, m + 1)):
        w = 1 if weights is None else weights[i]
        acc += w * cmath.exp(2j * math.pi * poly.evaluate(n) * point / n_modulus)
    return acc


def naive_moment(poly, m, n_modulus, k_order, weights=None):
    """sum over xi in Z_N of |S(xi/N)|^(2K)."""
    total = 0.0
    for xi in range(n_modulus):
        s = naive_weyl_sum(poly, m, n_modulus, xi, weights)
        total += abs(s) ** (2 * k_order)
    return total


def naive_count_solutions_mod(poly, m, n_modulus, k_order):
    """Tuples (x, y) in [1,m]^K x [1,m]^K with equal P-sums mod N."""
    count = 0
    for xs in product(range(1, m + 1), repeat=k_order):
        sx = sum(poly.evaluate(x) for x in xs) % n_modulus
        for ys in product(range(1, m + 1), repeat=k_order):
            sy = sum(poly.evaluate(y) for y in ys) % n_modulus
            if sx == sy:
                count += 1
    return count


def naive_tarry(k_order, degree, m):
    """Pure enumeration over all M^(2K) tuple pairs; keep it tiny."""
    count = 0
    for xs in product(range(1, m + 1), repeat=k_order):
        px = tuple(sum(x ** i for x in xs) for i in range(1, degree + 1))
        for ys in product(range(1, m + 1), repeat=k_order):
            py = tuple(sum(y ** i for y in ys) for i in range(1, degree + 1))
            if px == py:
                count += 1
    return count


def grouped_tarry(k_order, degree, m):
    """Vectorized signature grouping; still enumeration, no convolution.

    Enumerates all M^K tuples, groups them by their vector of power sums,
    and returns the sum of squared multiplicities.  Independent of the
    convolution and meet-in-the-middle code paths under test.
    """
    axes = [np.arange(1, m + 1, dtype=np.int64)] * k_order
    grid = np.meshgrid(*axes, indexing="ij")
    tuples = np.stack([g.ravel() for g in grid], axis=1)
    sigs = np.stack([np.sum(tuples ** i, axis=1) for i in range(1, degree + 1)],
                    axis=1)
    _, counts = np.unique(sigs, axis=0, return_counts=True)
    return int(np.sum(counts.astype(object) ** 2))


def naive_theta_1d(spacing, t, x, terms=60):
    """Theta of the 1-dimensional lattice spacing*Z by direct summation."""
    return sum(math.exp(-math.pi * t * (x - spacing * m) ** 2)
               for m in range(-terms, terms + 1))


def naive_good_residues(step_q, eps):
    """Residues r mod q with |r/q| within eps of an integer."""
    out = []
    for r in range(step_q):
        frac = Fraction(r, step_q)
        dist = min(frac, 1 - frac)
        if dist < Fraction(eps):
            out.append(r)
    return out


def naive_recurrence_measure(mapping, subset, shift):
    """mu(A intersect T^-shift A) by literally iterating the permutation."""
    m = len(mapping)
    pts = set(subset)
    if shift >= 0:
        def step(x):
            for _ in range(shift):
                x = mapping[x]
            return x
    else:
        inverse = [0] * m
        for i, y in enumerate(mapping):
            inverse[y] = i

        def step(x):
            for _ in range(-shift):
                x = inverse[x]
            return x
    hits = sum(1 for x in pts if step(x) in pts)
    return Fraction(hits, m)


def naive_cross_correlation(a, b, lag, cyclic=False):
    """sum_y a[y] * b[y + lag] over every index tuple y of a, by direct loop.

    a and b are nested lists or arrays of equal dimension; lag is a tuple.
    Cyclic reads b's indices modulo its shape; otherwise out-of-range
    indices contribute nothing.
    """
    a, b = np.asarray(a), np.asarray(b)
    total = 0
    for y in product(*(range(n) for n in a.shape)):
        z = tuple(yi + li for yi, li in zip(y, lag))
        if cyclic:
            z = tuple(zi % n for zi, n in zip(z, b.shape))
        elif any(zi < 0 or zi >= n for zi, n in zip(z, b.shape)):
            continue
        total += int(a[y]) * int(b[z])
    return total


def naive_count_solutions(poly, m, k_order):
    """Tuples (x, y) in [1,m]^K x [1,m]^K with equal P-sums over the integers."""
    count = 0
    for xs in product(range(1, m + 1), repeat=k_order):
        sx = sum(poly.evaluate(x) for x in xs)
        for ys in product(range(1, m + 1), repeat=k_order):
            if sx == sum(poly.evaluate(y) for y in ys):
                count += 1
    return count
