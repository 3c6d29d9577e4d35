"""Weighted polynomial exponential sums and exact equal-power-sum counts.

The object of interest is S_w(xi) = sum_{n<=M} w(n) e(P(n) xi / N) with
weights w(n) = +-1.  Its 2K-th moment over the dual group ties, exactly,
to the number of 2K-tuples solving sum P(n_j) = sum P(m_j) mod N, which
in turn (once N dwarfs the value spread) equals the integer-side count.
The classical diagonal count J(K, k, M) of tuples matching all power sums
n^i, i <= k, is counted exactly too.  Every count here is a sum of squared
K-fold sum multiplicities, built by one shift-and-add kernel on a dense
array (cyclic, a line, or a box of power-sum signatures), or by grouping
the M^K signature sums when the box would be too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .polyfam import IntPolynomial

__all__ = [
    "WeylSum",
    "TarryCount",
    "GrowthRow",
    "GrowthProbe",
    "weyl_sum",
    "moment_2k",
    "count_solutions_mod",
    "tarry_count",
    "tarry_count_poly",
    "growth_probe",
    "value_range",
    "wrap_free",
]

#: Box estimate prod_i (K (hi_i - lo_i + 1) + 1) past which an integer count
#: groups its K-fold sums (meet-in-the-middle) instead of adding on a box.
SIGNATURE_BUDGET = 5_000_000
#: Admission of grouping: at most this many K-tuples (M^K).
MITM_BUDGET = 20_000_000
#: Admission of shift-and-add, in element adds (a Python-integer add counts 50):
#: about as long as a grouping at MITM_BUDGET (2-5 s) at 0.9-2.1e9 int64 adds/s.
DENSE_BUDGET = 4_000_000_000


@dataclass(frozen=True)
class WeylSum:
    """S_w over the dual of Z_N for P on [1, M] with +-1 weights."""

    poly: IntPolynomial
    length: int          # M
    modulus: int         # N
    weights: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.complex128).copy()
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)


def _check_weights(weights: Optional[Sequence[int]], m: int) -> tuple[int, ...]:
    if weights is None:
        return (1,) * m
    w = tuple(int(x) for x in weights)
    if len(w) != m:
        raise ValueError(f"need {m} weights, got {len(w)}")
    if any(x not in (-1, 1) for x in w):
        raise ValueError("weights must be +-1")
    return w


def weyl_sum(poly: IntPolynomial, m: int, n_modulus: int,
             weights: Optional[Sequence[int]] = None) -> WeylSum:
    """S_w(xi) = sum_{n=1}^{M} w(n) e(P(n) xi / N) for every frequency xi.

    Computed as the length-N transform of the signed point-mass array that
    drops w(n) on the residue P(n) mod N; direct evaluation agrees to
    floating accuracy.
    """
    if m < 1 or n_modulus < 1:
        raise ValueError("need M >= 1 and N >= 1")
    w = _check_weights(weights, m)
    mass = np.zeros(n_modulus, dtype=np.int64)
    residues = (poly.values(np.arange(1, m + 1)) % n_modulus).astype(np.int64)
    np.add.at(mass, residues, w)
    values = np.fft.ifft(mass) * n_modulus  # sum_y mass[y] e(+y xi / N)
    return WeylSum(poly=poly, length=m, modulus=n_modulus, weights=w, values=values)


def moment_2k(s: WeylSum, k_order: int) -> float:
    """The even moment sum_xi |S(xi)|^(2K)."""
    if k_order < 1:
        raise ValueError("moment order K must be >= 1")
    power = np.abs(s.values) ** 2
    return float(np.sum(power ** k_order))


def value_range(poly: IntPolynomial, m: int) -> tuple[int, int]:
    """Exact (min, max) of P over [1, M]."""
    vals = poly.values(np.arange(1, m + 1))
    return int(vals.min()), int(vals.max())


def wrap_free(poly: IntPolynomial, m: int, n_modulus: int, k_order: int) -> bool:
    """True when K-fold value sums cannot wrap mod N, so the mod-N
    solution count coincides with the integer-side count."""
    lo, hi = value_range(poly, m)
    return k_order * (hi - lo) < n_modulus


def _shift_add_square_sum(points: np.ndarray, mult: np.ndarray, k_order: int,
                          modulus: Optional[int] = None) -> int:
    """sum_c r(c)^2, where r(c) counts K-tuples of points summing to c.

    points holds D distinct nonnegative offset vectors (shape D x dims)
    carrying multiplicities mult.  The K-fold sum distribution r is built
    layer by layer on a dense array by exact shift-and-add: each layer
    adds one shifted copy of the previous layer per distinct point, so a
    layer costs O(D * size).  With a modulus the array is cyclic of that
    length (one dimension); otherwise it is a line or box that grows to
    the K-fold sum range and no further, in mult's dtype (int64 or object).
    """
    extent = points.max(axis=0) + 1
    layer = np.zeros((modulus,) if modulus else tuple(extent), dtype=mult.dtype)
    layer[tuple(points.T)] = mult
    for fold in range(2, k_order + 1):
        shape = (modulus,) if modulus else tuple(fold * (extent - 1) + 1)
        nxt = np.zeros(shape, dtype=mult.dtype)
        for point, count in zip(points, mult):
            copy = layer if count == 1 else layer * count
            if modulus:
                r = int(point[0])
                nxt[r:] += copy[:modulus - r]
                nxt[:r] += copy[modulus - r:]
            else:
                nxt[tuple(slice(o, o + e) for o, e in zip(point, layer.shape))] += copy
        layer = nxt
    flat = layer.ravel()
    return int(np.dot(flat, flat))


def _grouped_square_sum(columns: Sequence[np.ndarray], k_order: int) -> int:
    """sum over classes of K-tuples with equal signature sums of class size^2.

    columns[i][n] is coordinate i of the signature of the n-th point; all
    M^K tuples are enumerated and grouped by one lexicographic sort of
    their summed signatures.  A coordinate whose K-fold sums could pass
    int64 is summed in Python integers and replaced by its rank.
    """
    keys = []
    for col in columns:
        fits = k_order * max(-int(col.min()), int(col.max())) < 2 ** 63
        base = col.astype(np.int64 if fits else object)
        sums = base
        for _ in range(k_order - 1):
            sums = (sums[:, None] + base[None, :]).ravel()
        keys.append(sums if fits else np.unique(sums, return_inverse=True)[1])
    order = np.lexsort(keys)
    starts = np.zeros(order.size, dtype=bool)
    starts[0] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    sizes = np.diff(np.append(np.flatnonzero(starts), order.size))
    return int(np.dot(sizes, sizes))


def _equal_sums(polys: Sequence[IntPolynomial], k_order: int, m: int,
                modulus: Optional[int] = None, method: str = "auto",
                spans: Optional[Sequence[int]] = None) -> tuple[int, str]:
    """sum_c r(c)^2 and its route, r(c) the number of K-tuples of n in [1, M]
    whose value rows (P_1(n), ..., P_l(n)) sum to c, mod N with a modulus.

    Counts mod N add on a cyclic array; integer counts go by the box estimate.
    Grouping is admitted while M^K <= MITM_BUDGET, adding while its element
    adds D sum_{f<K} |layer f| + |layer K|, D <= min(M, N) rows, stay within
    DENSE_BUDGET.  Closed-form spans hi_i - lo_i settle both before the table.
    """
    def table():
        cols = [p.values(np.arange(1, m + 1)) for p in polys]
        return [c % modulus for c in cols] if modulus else cols

    columns = table() if spans is None and not modulus else None
    if modulus:
        method, sizes = "convolution", [modulus] * k_order
    else:
        spans = spans or [int(c.max()) - int(c.min()) for c in columns]
        box = math.prod(k_order * (s + 1) + 1 for s in spans)
        if method == "auto":
            method = "convolution" if box <= SIGNATURE_BUDGET else "mitm"
        elif method == "convolution" and box > SIGNATURE_BUDGET:
            raise ValueError("signature budget exceeded; use method='mitm'")
        sizes = [math.prod(f * s + 1 for s in spans) for f in range(1, k_order + 1)]
    if method == "mitm":
        if m ** k_order > MITM_BUDGET:
            raise ValueError(f"meet-in-the-middle budget exceeded: M^K > {MITM_BUDGET}")
        return _grouped_square_sum(columns or table(), k_order), method
    if method != "convolution":
        raise ValueError(f"unknown method {method!r}")
    dtype = np.int64 if m ** (2 * k_order) <= 2 ** 62 else object  # count <= M^(2K)
    work = min(m, modulus or m) * sum(sizes[:-1]) + sizes[-1]
    if (1 if dtype is np.int64 else 50) * work > DENSE_BUDGET:
        raise ValueError(f"shift-and-add budget exceeded: weighted adds > {DENSE_BUDGET}")
    offsets = np.stack([c - c.min() for c in columns or table()], axis=1)
    rows, mult = np.unique(offsets.astype(np.int64), axis=0, return_counts=True)
    return _shift_add_square_sum(rows, mult.astype(dtype), k_order, modulus), method


def count_solutions_mod(poly: IntPolynomial, m: int, n_modulus: int,
                        k_order: int) -> int:
    """Exact number of 2K-tuples with sum_j P(n_j) = sum_j P(m_j) mod N.

    Shift-and-add of the residue distribution on a cyclic array of
    length N, one layer per summand, admitted as _equal_sums says.
    """
    if m < 1 or n_modulus < 1 or k_order < 1:
        raise ValueError("need M >= 1, N >= 1, K >= 1")
    return _equal_sums((poly,), k_order, m, modulus=n_modulus)[0]


@dataclass(frozen=True)
class TarryCount:
    """An exact solution count with the method that produced it."""

    k_order: int
    m: int
    count: int
    method: str
    degree: Optional[int] = None
    poly: Optional[IntPolynomial] = None

    @property
    def theory_exponent(self) -> float:
        if self.degree is None:
            raise ValueError("theory exponent applies to the power-sum count")
        return 2 * self.k_order - self.degree * (self.degree + 1) / 2


def tarry_count(k_order: int, degree: int, m: int, method: str = "auto") -> TarryCount:
    """J(K, k, M): 2K-tuples over [1, M] with equal power sums up to degree k.

    Always at least M^K (diagonal tuples); exact over the integers.  The
    table is n, ..., n^k, whose spans M^i - 1 give the box estimate
    prod_i (K M^i + 1): shift-and-add ("convolution") up to the signature
    budget, grouping ("mitm") past it, both admitted before any table.
    """
    if k_order < 1 or degree < 1 or m < 1:
        raise ValueError("need K >= 1, k >= 1, M >= 1")
    monomials = [IntPolynomial((0,) * (i - 1) + (1,)) for i in range(1, degree + 1)]
    count, method = _equal_sums(monomials, k_order, m, method=method,
                                spans=[m ** i - 1 for i in range(1, degree + 1)])
    return TarryCount(k_order=k_order, m=m, count=count, method=method, degree=degree)


def tarry_count_poly(poly: IntPolynomial, k_order: int, m: int) -> TarryCount:
    """Exact 2K-tuple count for the single equation sum P(n_j) = sum P(m_j) over Z.

    Routed and admitted as tarry_count, by the box estimate K (hi - lo + 1) + 1;
    for P(n) = n it is tarry_count(K, 1, M), route and refusals included.
    """
    if k_order < 1 or m < 1:
        raise ValueError("need K >= 1 and M >= 1")
    count, method = _equal_sums((poly,), k_order, m)
    return TarryCount(k_order=k_order, m=m, count=count, method=method, poly=poly)


@dataclass(frozen=True)
class GrowthRow:
    m: int
    count: int
    log_count: float
    fitted_slope: Optional[float]
    theory_exponent: float


@dataclass(frozen=True)
class GrowthProbe:
    k_order: int
    degree: int
    rows: tuple[GrowthRow, ...]

    @property
    def slope(self) -> float:
        """Least-squares slope of log count against log M over all rows."""
        last = self.rows[-1].fitted_slope
        if last is None:
            raise ValueError("need at least two sample points for a slope")
        return last

    def csv_lines(self) -> list[str]:
        lines = ["M,count,log_count,fitted_slope,theory_exponent"]
        for r in self.rows:
            slope = "" if r.fitted_slope is None else f"{r.fitted_slope:.6f}"
            lines.append(f"{r.m},{r.count},{r.log_count:.6f},{slope},{r.theory_exponent}")
        return lines


def growth_probe(k_order: int, degree: int, m_values: Sequence[int]) -> GrowthProbe:
    """Sample J(K, k, M) on a grid and fit log-log growth cumulatively.

    Row i's fitted_slope regresses rows 0..i; the final row is the overall
    fit, to set against the theory exponent 2K - k(k+1)/2.
    """
    ms = sorted(set(int(v) for v in m_values))
    if len(ms) < 2:
        raise ValueError("growth probe needs at least two M values")
    rows: list[GrowthRow] = []
    logs_m, logs_c = [], []
    for m in ms:
        res = tarry_count(k_order, degree, m)
        logs_m.append(math.log(m))
        logs_c.append(math.log(res.count))
        if len(logs_m) >= 2:
            slope = float(np.polyfit(logs_m, logs_c, 1)[0])
        else:
            slope = None
        rows.append(GrowthRow(m=m, count=res.count, log_count=logs_c[-1],
                              fitted_slope=slope,
                              theory_exponent=res.theory_exponent))
    return GrowthProbe(k_order=k_order, degree=degree, rows=tuple(rows))
