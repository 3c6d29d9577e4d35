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


def naive_weyl_mean(thetas, n_range):
    """(1/N) sum_{n<=N} e(n th_1 + n^2 th_2 + ... + n^k th_k): per n, the
    phase reduced modulo 1 in Fractions taken from the floats."""
    ths = [Fraction(float(th)) for th in thetas]
    total = 0j
    for n in range(1, n_range + 1):
        phase = sum(n ** j * th for j, th in enumerate(ths, start=1)) % 1
        total += cmath.exp(2j * math.pi * float(phase))
    return total / n_range


def naive_dilate_theta(blocks, n, spacing=1.0):
    """Theta(1, n*alpha) over spacing * Z^D: the product, over each entry a
    of each block j (from 1), of naive_theta_1d at n^j a reduced modulo the
    spacing in Fractions taken from the floats."""
    s = Fraction(float(spacing))
    out = 1.0
    for j, block in enumerate(blocks, start=1):
        for a in block:
            out *= naive_theta_1d(float(s), 1.0, float(n ** j * Fraction(float(a)) % s))
    return out


def naive_gaussian_average(blocks, n_range, spacing=1.0):
    """F(N) = det * (1/N) sum_{n<=N} Theta(1, n*alpha) over spacing * Z^D,
    whose determinant is spacing^D."""
    dim = sum(len(block) for block in blocks)
    return float(spacing) ** dim * sum(naive_dilate_theta(blocks, n, spacing)
                                       for n in range(1, n_range + 1)) / n_range


def naive_schmidt_objectives(blocks, n, q_max, radius, spacing=1.0):
    """For q = 1..q_max, max over the nonzero blocks j of n^j times the least
    distance from q xi . alpha_j to Z, over the primitive dual vectors
    xi = m / spacing of spacing * Z^d (m in Z^d, gcd 1, |xi| <= radius);
    Fractions taken from the floats.  Blocks without such a vector are
    skipped; an empty list means no block has one."""
    s, r = Fraction(float(spacing)), Fraction(float(radius))
    dots = []  # (j, [xi . alpha_j for each primitive xi])
    for j, block in enumerate(blocks, start=1):
        box = math.floor(r * s)
        vals = [sum(Fraction(mi) / s * Fraction(float(a)) for mi, a in zip(m, block))
                for m in product(range(-box, box + 1), repeat=len(block))
                if any(m) and math.gcd(*m) == 1 and sum(mi * mi for mi in m) <= (r * s) ** 2]
        if vals:
            dots.append((j, vals))
    if not dots:
        return []
    return [max(n ** j * min(float(_distance_to_z(q * x)) for x in vals) for j, vals in dots)
            for q in range(1, q_max + 1)]


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


def naive_distance_to_integers(values):
    """Euclidean distance from a real vector to the nearest point of Z^d, in
    long double: |x - rint(x)| for each entry x, squared and summed in turn."""
    total = np.longdouble(0)
    for x in np.asarray(values, dtype=np.longdouble):
        d = abs(x - np.rint(x))
        total += d * d
    return np.sqrt(total)


def naive_good_shifts(elements, ambient, polys, m, eps, cyclic=False):
    """n <= m with |A ∩ (A + P_i(n))|/N > density^2 - eps for every P_i,
    one Fraction comparison per shift."""
    count = naive_intersection_cyclic if cyclic else naive_intersection_integer
    threshold = Fraction(len(set(elements)), ambient) ** 2 - Fraction(eps)
    return [n for n in range(1, m + 1)
            if all(Fraction(count(elements, ambient, _value(p, n)), ambient) > threshold
                   for p in polys)]


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


def naive_value_span(poly, m):
    """max - min of P over [1, m], one value at a time."""
    values = [_value(poly, n) for n in range(1, m + 1)]
    return max(values) - min(values)


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


def naive_best_offset(rows, elements, n):
    """First offset s, in lexicographic order, maximizing the number of rows
    y (integer r-tuples) with y + s in A^r, A = elements inside [1, n].

    Scans the whole lag box, s_i from 1 - max_y y_i through n - min_y y_i,
    outside which no row lands in A^r.  Returns (s, kept flags, count).
    """
    elems = set(elements)
    ranges = [range(1 - max(col), n - min(col) + 1) for col in zip(*rows)]
    best, best_kept = None, None
    for s in product(*ranges):
        kept = [all(y + o in elems for y, o in zip(row, s)) for row in rows]
        if best is None or sum(kept) > sum(best_kept):
            best, best_kept = s, kept
    return best, best_kept, sum(best_kept)


def naive_lift_implication(points, half_width, elements, polys):
    """(candidates, hits, violations) of the lift implication, by enumeration.

    The candidates are every nonzero n with |n^j| <= 2 half_width for each
    j <= k, k the largest degree; the hits are those with (n, ..., n^k) in
    B - B, B the set of points; the violations are the hits with some P(n)
    outside A - A.  No points give no candidates.
    """
    if not points:
        return (), (), ()
    k = max(len(p.coefficients) for p in polys)
    width = 2 * half_width
    pts = set(points)
    diffs = {x - y for x in elements for y in elements}
    candidates = [n for n in range(-width, width + 1)
                  if n and all(abs(n ** j) <= width for j in range(1, k + 1))]
    hits = [n for n in candidates
            if any(tuple(b_j + n ** j for j, b_j in enumerate(b, start=1)) in pts
                   for b in pts)]
    violations = [n for n in hits if any(_value(p, n) not in diffs for p in polys)]
    return tuple(candidates), tuple(hits), tuple(violations)


def naive_khintchine(mapping, subset, eps, times, permissive=False):
    """First pair (j, k), j < k, of times, in lexicographic order, whose
    difference n has mu(A intersect T^-n A) >= mu(A)^2 - eps, comparing
    Fractions pair by pair.

    Shifts are reduced mod order(T) before the permutation is iterated.
    Returns (found, pair, n, measure, threshold, strict, pairs_scanned);
    a list shorter than 2 or 1/eps is a ValueError unless permissive.
    """
    order = naive_order(mapping)
    mu = Fraction(len(set(subset)), len(mapping))
    threshold = mu * mu - Fraction(eps)
    if (len(times) < 2 or len(times) < 1 / Fraction(eps)) and not permissive:
        raise ValueError("too few times for the guarantee")
    scanned = 0
    for j in range(len(times)):
        for k in range(j + 1, len(times)):
            scanned += 1
            n = times[k] - times[j]
            measure = naive_recurrence_measure(mapping, subset, n % order)
            if measure >= threshold:
                return True, (j + 1, k + 1), n, measure, threshold, measure > threshold, scanned
    return False, None, None, None, threshold, None, scanned


def naive_griesmer(mapping, subset, eps, constants, times):
    """The Griesmer recursion, colouring pair by pair: pad the constants to a power
    of two, colour each pair of the current times red (by Fractions) when
    the first half of the constants all pass at their difference, peel a
    red clique greedily, recurse on it with the other half, and end with
    naive_khintchine on T^c for the last constant c.

    Returns (found, n, measures, threshold, levels, failure_reason), each
    level as (half, vertices, red edges, edges,
    clique size).
    """
    order = naive_order(mapping)
    mu = Fraction(len(set(subset)), len(mapping))
    threshold = mu * mu - Fraction(eps)
    padded = list(constants)
    while len(padded) & (len(padded) - 1):
        padded.append(padded[-1])
    levels = []

    def red(half, d):
        return all(naive_recurrence_measure(mapping, subset, c * d % order) >= threshold
                   for c in half)

    def recurse(active, verts):
        if len(verts) < 2:
            return None
        if len(active) == 1:
            power = naive_power_map(mapping, active[0])
            return naive_khintchine(power, subset, eps, verts, permissive=True)[2]
        half, rest = active[:len(active) // 2], active[len(active) // 2:]
        num = len(verts)
        red_edges = sum(red(half, abs(verts[j] - verts[i]))
                        for i in range(num) for j in range(i + 1, num))
        alive, clique = list(range(num)), []
        while alive:
            v, others = alive[0], alive[1:]
            reds = [u for u in others if red(half, abs(verts[u] - verts[v]))]
            blues = [u for u in others if not red(half, abs(verts[u] - verts[v]))]
            if len(reds) >= len(blues):
                clique.append(v)
                alive = reds
            else:
                alive = blues
        levels.append((tuple(half), num, red_edges, num * (num - 1) // 2, len(clique)))
        return recurse(rest, [verts[i] for i in clique])

    n = recurse(tuple(padded), list(times))
    if n is None:
        return (False, None, (), threshold, tuple(levels),
                "clique exhausted; time list too short")
    measures = tuple(naive_recurrence_measure(mapping, subset, c * n % order)
                     for c in constants)
    return True, n, measures, threshold, tuple(levels), None
