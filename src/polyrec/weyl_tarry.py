"""Weighted polynomial exponential sums and exact equal-power-sum counts.

The object of interest is S_w(xi) = sum_{n<=M} w(n) e(P(n) xi / N) with
weights w(n) = +-1.  Its 2K-th moment over the dual group ties, exactly,
to the number of 2K-tuples solving sum P(n_j) = sum P(m_j) mod N, which
in turn (once N dwarfs the value spread) equals the integer-side count.
The classical diagonal count J(K, k, M) of tuples matching all power sums
n^i, i <= k, is counted exactly too.  Every count here is a sum of squared
K-fold sum multiplicities, built one layer at a time over the support of
the layer before: by one shift-and-add kernel over flat keys of the box of
power-sum signatures (or residues mod N), or by grouping the signature sums
with one sort per layer when the box would be too large.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .polyfam import IntPolynomial
from .zn_fourier import ZnFunction, _inverse_in_place

__all__ = [
    "TarryCount",
    "GrowthRow",
    "weyl_sum",
    "moment_2k",
    "count_solutions_mod",
    "count_mod_admitted",
    "tarry_count",
    "growth_probe",
    "value_range",
    "wrap_free",
]

#: Box estimate prod_i (K (hi_i - lo_i + 1) + 1) past which an integer count
#: groups its K-fold sums (meet-in-the-middle) instead of adding on a box.
SIGNATURE_BUDGET = 5_000_000
#: Admission of grouping: at most this many weighted key entries, M^K K-fold
#: sums per signature column, a column summed in Python integers counting
#: _OBJECT_WEIGHT (its sums and their ranking took 25-30 times as long), or
#: _LAYER_ENTRIES per layer and column.
MITM_BUDGET = 20_000_000
#: Admission of shift-and-add, in element adds (a Python-integer add counts
#: _OBJECT_WEIGHT plus _WORD_WEIGHT per word) plus _LAYER_ADDS per layer:
#: about as long as a grouping at MITM_BUDGET (2-5 s) at 0.9-2.1e9 int64 adds/s.
DENSE_BUDGET = 4_000_000_000
#: Highest degree k of a power-sum count: its table n, ..., n^k takes
#: k(k+1)/2 Horner passes, and past n^63 every column is in Python integers.
DEGREE_BUDGET = 64
#: Cost of one Python-integer add or key entry, in int64 ones.
_OBJECT_WEIGHT = 50
#: Further cost of a Python-integer add per 64-bit word of the largest count,
#: M^(2K), in int64 adds (measured: 22 ns per add, plus 1.75 ns per word).
_WORD_WEIGHT = 2
#: Fixed cost of one layer, whatever its size: in int64 adds for a
#: shift-and-add (measured 3-7 us at M = 1), and in key entries per key
#: column for a grouping (measured 1.3-2.5 us per column, 50-60 ns per entry).
_LAYER_ADDS = 16_000
_LAYER_ENTRIES = 40
#: A layer of a shift-and-add whose keys fill at least 1/_RUN_DENSITY of
#: their run [lo, hi] is added as that run, by slices: an add by index took
#: about 28 times as long per key as an add by slice per entry.
_RUN_DENSITY = 16
#: Largest modulus N of a Weyl sum.  A `weyl` query grows by about 64 bytes
#: per N (the point masses, their transform and its magnitudes), to a peak
#: RSS of 641 MiB at this budget, about what a grouping at MITM_BUDGET takes.
WEYL_N_BUDGET = 10_000_000
#: Largest length M of a Weyl sum.  A `weyl` query takes about 31 bytes per M
#: while P's values fit int64 and 210-340 in Python integers (degrees 5-20):
#: at this budget its peak RSS is 93 MB for P(n) = n, 444-709 MB for those.
WEYL_M_BUDGET = 2_000_000


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
             weights: Optional[Sequence[int]] = None) -> ZnFunction:
    """S_w(xi) = sum_{n=1}^{M} w(n) e(P(n) xi / N) for every frequency xi,
    as the function xi -> S_w(xi) on Z_N.

    Computed as the length-N transform of the signed point-mass array that
    drops w(n) on the residue P(n) mod N; direct evaluation agrees to
    floating accuracy.
    """
    if m < 1 or n_modulus < 1:
        raise ValueError("need M >= 1 and N >= 1")
    if n_modulus > WEYL_N_BUDGET:
        raise ValueError(f"Weyl sum budget exceeded: need N <= {WEYL_N_BUDGET}")
    if m > WEYL_M_BUDGET:
        raise ValueError(f"Weyl sum budget exceeded: need M <= {WEYL_M_BUDGET}")
    w = _check_weights(weights, m)
    mass = np.zeros(n_modulus, dtype=np.int64)
    residues = (poly.values(np.arange(1, m + 1)) % n_modulus).astype(np.int64)
    np.add.at(mass, residues, w)
    # sum_y mass[y] e(+y xi / N), written into the converted masses
    return _inverse_in_place(mass.astype(np.complex128))


def moment_2k(s: ZnFunction, k_order: int) -> float:
    """The even moment sum_xi |S(xi)|^(2K), refused past float range.

    |S|^2 and its K-th power are taken in the one array of magnitudes."""
    if k_order < 1:
        raise ValueError("moment order K must be >= 1")
    power = np.abs(s.values)
    power **= 2
    with np.errstate(over="ignore"):
        power **= k_order
        moment = float(np.sum(power))
    if not math.isfinite(moment):
        raise ValueError(f"moment past float range: K = {k_order} is too large")
    return moment


def value_range(poly: IntPolynomial, m: int) -> tuple[int, int]:
    """Exact (min, max) of P over [1, M]."""
    vals = poly.values(np.arange(1, m + 1))
    return int(vals.min()), int(vals.max())


def wrap_free(poly: IntPolynomial, m: int, n_modulus: int, k_order: int) -> bool:
    """True when K-fold value sums cannot wrap mod N, so the mod-N
    solution count coincides with the integer-side count."""
    lo, hi = value_range(poly, m)
    return k_order * (hi - lo) < n_modulus


def _shift_add_square_sum(keys: np.ndarray, mult: np.ndarray, k_order: int,
                          modulus: Optional[int] = None) -> int:
    """sum_c r(c)^2, where r(c) counts K-tuples of table rows whose keys sum to c.

    keys holds the D distinct sorted keys of the rows, with multiplicities
    mult in the dtype of the counts (int64 or object): flat keys of a box
    whose coordinates cannot carry in a K-fold sum, or residues mod N.  The
    K-fold sum distribution r is built one layer at a time over the support
    of the layer before it: for each row p, r_{f+1}[keys_f + p] +=
    r_f[keys_f] * mult(p), into one dense array spanning layer f + 1 (the
    cyclic array of length N with a modulus), which merges equal keys.  A
    layer whose keys fill at least 1/_RUN_DENSITY of their run is added as
    that run, by slices.  Keys are taken from the first key of the table and
    of each layer: that translates r, which leaves sum_c r(c)^2 as it is.
    The last layer is square-summed as its dense array.
    """
    shifts = keys - keys[0]
    # layer f: the counts layer at the keys index, or on the run of keys from
    # 0 when index is None
    index, layer = shifts, mult
    for fold in range(2, k_order + 1):
        run = layer.size if index is None else int(index[-1]) + 1
        if index is not None and run <= _RUN_DENSITY * index.size:
            dense = np.zeros(run, dtype=mult.dtype)
            dense[index] = layer
            index, layer = None, dense
        acc = np.zeros(modulus or run + int(shifts[-1]), dtype=mult.dtype)
        for at, count in zip(shifts.tolist(), mult):
            add = layer if count == 1 else layer * count
            wraps = modulus and at + run > modulus
            if index is not None:
                acc[(index + at) % modulus if wraps else index + at] += add
            elif wraps:
                acc[at:] += add[:modulus - at]
                acc[:at + run - modulus] += add[modulus - at:]
            else:
                acc[at:at + run] += add
        index, layer = None, acc
        if fold < k_order:
            hit = acc != 0
            if acc.size > _RUN_DENSITY * np.count_nonzero(hit):
                support = np.flatnonzero(hit)
                index, layer = support - support[0], acc[support]
    return int(np.dot(layer, layer))


def _power_at_most(base: int, exponent: int, limit: int) -> bool:
    """base ** exponent <= limit for base >= 1, decided from bit lengths
    before any power far past limit is formed."""
    if exponent * (base.bit_length() - 1) > limit.bit_length():
        return False
    return base ** exponent <= limit


def _sums_fit(k_order: int, span: int) -> bool:
    """Whether the K-fold sums of a column whose values span `span`, offset
    to start at 0, stay in int64."""
    return k_order * span < 2 ** 63


def _classes(columns: list[np.ndarray], counts: Optional[np.ndarray],
             keep: bool) -> tuple[list[np.ndarray], Optional[np.ndarray]]:
    """Rows of the key columns merged by one lexicographic sort: one row per
    class of equal rows (if keep; else the columns as they are) and each
    class's summed counts (counts None: all 1), None while every class is
    one row of count 1.  A Python-integer column is sorted by its rank."""
    keys = [c if c.dtype != object else np.unique(c, return_inverse=True)[1]
            for c in columns]
    order = np.lexsort(keys)
    starts = np.zeros(order.size, dtype=bool)
    starts[0] = True
    for key in keys:
        ranked = key[order]
        starts[1:] |= ranked[1:] != ranked[:-1]
    del ranked  # one key's worth of memory, before the classes are listed
    first = np.flatnonzero(starts)
    if counts is None and first.size == order.size:
        return columns, None
    if counts is None:
        counts = np.diff(np.append(first, order.size))
    else:
        counts = np.add.reduceat(counts[order], first)
    return [c[order[first]] for c in columns] if keep else columns, counts


def _grouped_square_sum(columns: Sequence[np.ndarray], k_order: int) -> int:
    """sum over classes of K-tuples with equal signature sums of class size^2.

    columns[i][n] is coordinate i of the signature of the n-th point, each
    offset to start at 0; a coordinate whose K-fold sums could pass int64 is
    summed in Python integers.  The K-fold sums are built one layer at a
    time: layer f + 1 adds each distinct table row to each distinct sum of
    layer f, and equal sums are merged by one sort (_classes) adding their
    int64 counts, which exist only once one is not 1.  With one distinct
    table row no two sums are equal, and no layer is sorted.
    """
    base = []
    for col in columns:
        low = col.min()
        fits = _sums_fit(k_order, int(col.max()) - int(low))
        base.append((col - low).astype(np.int64 if fits else object))
    layer, mult = _classes(base, None, keep=k_order > 1)
    rows, counts, distinct = [c[None, :] for c in layer], mult, layer[0].size
    for fold in range(2, k_order + 1):
        if counts is not None or mult is not None:
            counts = np.outer(np.ones(layer[0].size, np.int64) if counts is None else counts,
                              np.ones(distinct, np.int64) if mult is None else mult).ravel()
        layer = [(a[:, None] + b).ravel() for a, b in zip(layer, rows)]
        if distinct > 1:
            layer, counts = _classes(layer, counts, keep=fold < k_order)
    # counts <= M^K <= MITM_BUDGET
    return layer[0].size if counts is None else int(np.dot(counts, counts))


def _dense_work(m: int, k_order: int, inner: int, last: int, rows: int) -> int:
    """Weighted adds of a shift-and-add: rows adds onto layers of inner
    entries in all, then the last layer's squares, and a fixed cost per
    layer (see _equal_sums)."""
    weight = 1
    if not _power_at_most(m, 2 * k_order, 2 ** 62):  # counts in Python integers
        words = int(2 * k_order * math.log2(m)) // 64 + 1
        weight = _OBJECT_WEIGHT + _WORD_WEIGHT * words
    return weight * (rows * inner + last) + _LAYER_ADDS * k_order


def _mod_refusal(m: int, n_modulus: int, k_order: int) -> Optional[str]:
    """Why count_solutions_mod refuses (M, N, K), or None if it answers:
    each cyclic layer holds N entries, and K - 1 of them take adds."""
    if n_modulus > WEYL_N_BUDGET:
        return f"Weyl sum budget exceeded: need N <= {WEYL_N_BUDGET}"
    if _dense_work(m, k_order, (k_order - 1) * n_modulus, n_modulus,
                   min(m, n_modulus)) > DENSE_BUDGET:
        return f"shift-and-add budget exceeded: weighted adds > {DENSE_BUDGET}"
    return None


def count_mod_admitted(m: int, n_modulus: int, k_order: int) -> bool:
    """Whether count_solutions_mod answers (M, N, K) rather than refuse it."""
    return _mod_refusal(m, n_modulus, k_order) is None


def _equal_sums(polys: Sequence[IntPolynomial], k_order: int, m: int,
                modulus: Optional[int] = None, method: str = "auto",
                spans: Optional[Sequence[int]] = None) -> tuple[int, str]:
    """sum_c r(c)^2 and its route, r(c) the number of K-tuples of n in [1, M]
    whose value rows (P_1(n), ..., P_l(n)) sum to c, mod N with a modulus.

    Counts mod N add on a cyclic array; integer counts go by the box estimate,
    and add over flat keys of that box.  Grouping is admitted while
    max(M^K sum_i w_i, _LAYER_ENTRIES K l) <= MITM_BUDGET, w_i = 1 for a
    column whose sums fit int64 and _OBJECT_WEIGHT else; adding while its
    element adds D sum_{f<K} |layer f| + |layer K|, D <= min(M, N) rows, each
    weighted by the word length of M^(2K) past int64, plus _LAYER_ADDS per
    layer stay within DENSE_BUDGET (mod N: also N <= WEYL_N_BUDGET).  Both
    price the whole layer, a bound on the support each route works over.
    An integer count takes the spans hi_i - lo_i of its columns, which settle
    both before the table, and no power of M is formed far past a budget.
    """
    def table():
        cols = [p.values(np.arange(1, m + 1)) for p in polys]
        return [c % modulus for c in cols] if modulus else cols

    if modulus:
        refusal = _mod_refusal(m, modulus, k_order)
        if refusal:
            raise ValueError(refusal)
        method = "convolution"
    else:
        box = math.prod(k_order * (s + 1) + 1 for s in spans)
        if method == "auto":
            method = "convolution" if box <= SIGNATURE_BUDGET else "mitm"
        elif method == "convolution" and box > SIGNATURE_BUDGET:
            raise ValueError("signature budget exceeded; use method='mitm'")
    if method == "mitm":
        # at most M^K sums per column, formed in K layers
        weight = sum(1 if _sums_fit(k_order, s) else _OBJECT_WEIGHT for s in spans)
        if (_LAYER_ENTRIES * k_order * len(spans) > MITM_BUDGET
                or not _power_at_most(m, k_order, MITM_BUDGET // weight)):
            raise ValueError(f"meet-in-the-middle budget exceeded: weighted M^K > "
                             f"{MITM_BUDGET}")
        return _grouped_square_sum(table(), k_order), method
    if method != "convolution":
        raise ValueError(f"unknown method {method!r}")
    if not modulus and (  # the cost per layer bounds K before the layers are summed
            _LAYER_ADDS * k_order > DENSE_BUDGET
            or _dense_work(m, k_order,
                           sum(math.prod(f * s + 1 for s in spans) for f in range(1, k_order)),
                           math.prod(k_order * s + 1 for s in spans), m) > DENSE_BUDGET):
        raise ValueError(f"shift-and-add budget exceeded: weighted adds > {DENSE_BUDGET}")
    # count <= M^(2K)
    dtype = np.int64 if _power_at_most(m, 2 * k_order, 2 ** 62) else object
    if modulus:
        keys = table()[0].astype(np.int64)
    else:  # one flat key per row, in radix K span_i + 1 so K-fold sums never carry
        keys = np.zeros(m, dtype=np.int64)
        for c in table():
            offset = (c - c.min()).astype(np.int64)
            keys = keys * (k_order * int(offset.max()) + 1) + offset
    rows, mult = np.unique(keys, return_counts=True)
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
    count: int
    method: str
    degree: int

    @property
    def theory_exponent(self) -> float:
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
    if degree > DEGREE_BUDGET:
        raise ValueError(f"degree budget exceeded: need k <= {DEGREE_BUDGET}")
    monomials = [IntPolynomial((0,) * (i - 1) + (1,)) for i in range(1, degree + 1)]
    count, method = _equal_sums(monomials, k_order, m, method=method,
                                spans=[m ** i - 1 for i in range(1, degree + 1)])
    return TarryCount(k_order=k_order, count=count, method=method, degree=degree)


@dataclass(frozen=True)
class GrowthRow:
    m: int
    count: int
    log_count: float
    fitted_slope: Optional[float]
    theory_exponent: float


def growth_probe(k_order: int, degree: int, m_values: Sequence[int]
                 ) -> tuple[GrowthRow, ...]:
    """Sample J(K, k, M) on a grid and fit log-log growth cumulatively.

    One row per distinct M, ascending.  Row i's fitted_slope is the
    least-squares slope of log count against log M over rows 0..i; the
    final row's is the overall fit, to set against the theory exponent
    2K - k(k+1)/2.
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
    return tuple(rows)
