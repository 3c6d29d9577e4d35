"""Slow, independent reference implementations used to pin test values.

Everything here is written the dumb way on purpose: direct double sums,
explicit tuple enumeration, no FFT, no convolution tricks.  The package
under test must agree with these.
"""

import cmath
import math
import random
from fractions import Fraction
from itertools import product

import numpy as np


def _value(poly, n):
    """P(n) = sum_i c_i n^i, read from the coefficients (c_1 first)."""
    return sum(c * n ** i for i, c in enumerate(poly.coefficients, start=1))


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
        acc += w * cmath.exp(2j * math.pi * _value(poly, n) * point / n_modulus)
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
        sx = sum(_value(poly, x) for x in xs) % n_modulus
        for ys in product(range(1, m + 1), repeat=k_order):
            sy = sum(_value(poly, y) for y in ys) % n_modulus
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


def _distance_to_z(value):
    """Distance from a Fraction to the nearest integer, as a Fraction."""
    frac = value - math.floor(value)
    return min(frac, 1 - frac)


def naive_good_shifts(elements, ambient, polys, m, eps, cyclic=False):
    """n <= m with |A ∩ (A + P_i(n))|/N > density^2 - eps for every P_i,
    one Fraction comparison per shift."""
    count = naive_intersection_cyclic if cyclic else naive_intersection_integer
    threshold = Fraction(len(set(elements)), ambient) ** 2 - Fraction(eps)
    return [n for n in range(1, m + 1)
            if all(Fraction(count(elements, ambient, _value(p, n)), ambient) > threshold
                   for p in polys)]


def naive_uniform_count(elements, ambient, polys, m, eps):
    """Number of n <= m with |A ∩ (A + P_i(n))|/N within eps of density^2
    in Z_N for every P_i, one Fraction comparison per shift."""
    target = Fraction(len(set(elements)), ambient) ** 2
    return sum(
        1 for n in range(1, m + 1)
        if all(abs(Fraction(naive_intersection_cyclic(elements, ambient, _value(p, n)),
                            ambient) - target) < Fraction(eps)
               for p in polys))


def naive_good_set_power(blocks, eps, n_range):
    """n <= N with sum_x dist(n^j x, Z)^2 < eps^2 for every block j (from 1)
    of rational entries x, in Fractions."""
    eps2 = Fraction(eps) ** 2
    return [n for n in range(1, n_range + 1)
            if all(sum(_distance_to_z(Fraction(n) ** j * Fraction(x)) ** 2
                       for x in block) < eps2
                   for j, block in enumerate(blocks, start=1))]


def naive_good_set_family(polys, thetas, eps, n_range):
    """n <= N with dist(P_i(n) theta, Z) < eps for every P_i and rational
    theta, in Fractions."""
    return [n for n in range(1, n_range + 1)
            if all(_distance_to_z(_value(p, n) * Fraction(th)) < Fraction(eps)
                   for p in polys for th in thetas)]


def naive_good_set_long_double(polys, thetas, eps, n_range):
    """n <= N with |P_i(n) theta| < eps for every P_i and real theta, one n
    at a time: P(n) goes to long double as np.longdouble(int) takes it."""
    ths = np.asarray([float(th) for th in thetas], dtype=np.longdouble)
    out = []
    for n in range(1, n_range + 1):
        prods = [np.longdouble(_value(p, n)) * ths for p in polys]
        if all(np.all(np.abs(x - np.rint(x)) < eps) for x in prods):
            out.append(n)
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
        sx = sum(_value(poly, x) for x in xs)
        for ys in product(range(1, m + 1), repeat=k_order):
            if sx == sum(_value(poly, y) for y in ys):
                count += 1
    return count


def naive_bernoulli(n, density, seed):
    """The first n draws random() < density of random.Random(seed), one by one."""
    rng = random.Random(seed)
    return [rng.random() < density for _ in range(n)]


def naive_cycles(mapping):
    """Cycles of a permutation by walking from each unvisited point in turn."""
    seen = set()
    out = []
    for start in range(len(mapping)):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        x = mapping[start]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = mapping[x]
        out.append(cyc)
    return out


def naive_order(mapping):
    """Least t >= 1 with T^t = identity, from each point's return time."""
    out = 1
    for start in range(len(mapping)):
        steps, x = 1, mapping[start]
        while x != start:
            steps, x = steps + 1, mapping[x]
        out = math.lcm(out, steps)
    return out


def naive_power_map(mapping, shift):
    """T^shift by stepping every point shift mod order(T) times."""
    steps = shift % naive_order(mapping)
    out = []
    for x in range(len(mapping)):
        for _ in range(steps):
            x = mapping[x]
        out.append(x)
    return tuple(out)


def closed_form_power_map(kind, m, a, shift):
    """T^shift of rotation:m:a or skew:m:a from the closed form, in Python ints.

    The rotation x -> x + a has T^s x = x + s a mod m.  The skew product
    (x, y) -> (x + a, y + x) on Z_m x Z_m, flattened as x*m + y, has
    T^s (x, y) = (x + s a, y + s x + a s(s-1)/2) mod m, for every integer s.
    """
    s = shift
    if kind == "rotation":
        return tuple((x + s * a) % m for x in range(m))
    drift = a * (s * (s - 1) // 2)
    return tuple((x + s * a) % m * m + (y + s * x + drift) % m
                 for x in range(m) for y in range(m))


def naive_decompose(values, eps, eta):
    """The spectral split f = f1 + f2 + f3 ranked by one full stable argsort.

    Coefficients are fft(values) / N, ranked by magnitude with ties to the
    smaller frequency; marks grow by max(m + 1, ceil(eta(m)^-2)), capped
    at N (also when eta(m) < N^-1/2), until a block of ranks (m, m'] has
    L2 mass at most eps, the squares summed in ascending frequency order.  Returns (m, rounds, support, f1, f2, f3): f1 the
    ranks below m, f3 the block, f2 the rest, each inverted as
    ifft(masked) * N.
    """
    values = np.asarray(values, dtype=complex)
    n = values.size
    coeffs = np.fft.fft(values) / n
    mags = np.abs(coeffs)
    order = np.argsort(-mags, kind="stable")
    m = 1
    for rounds in range(1, math.ceil(eps ** -2) + 1):
        eta_m = eta(m)
        nxt = n if eta_m < 1.0 / math.sqrt(n) else min(n, max(m + 1, math.ceil(eta_m ** -2)))
        block = np.sort(order[m:nxt])  # summed in ascending frequency order
        if math.sqrt(float(np.sum(mags[block] ** 2))) <= eps:
            parts = []
            for sel in (order[:m], order[nxt:], order[m:nxt]):
                masked = np.zeros(n, dtype=complex)
                masked[sel] = coeffs[sel]
                parts.append(np.fft.ifft(masked) * n)
            return (m, rounds, order[:m], *parts)
        m = nxt
    raise AssertionError("no block closed within ceil(eps^-2) rounds")
