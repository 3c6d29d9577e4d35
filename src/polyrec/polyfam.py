"""Integer polynomials with zero constant term, in exact arithmetic.

Covers evaluation, admissible shift ranges |P_i(n)| <= eps*N, the finite
difference identity sum_t (x+td)^j C(j,t) (-1)^(j-t) = j! d^j, exact rank
analysis of coefficient matrices over the rationals, and the box-lifting
construction that turns a dense subset of [1, N] into a Cartesian box set
whose difference set controls all polynomials of the family at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .intset import IntegerSet
from .zn_fourier import INTEGER, ExactnessError, _intersection_counts, exact_correlation

__all__ = [
    "IntPolynomial",
    "PolynomialFamily",
    "ShiftRange",
    "CoefficientMatrix",
    "LiftResult",
    "ImplicationReport",
    "shift_range",
    "check_difference_identity",
    "coefficient_analysis",
    "lift_construction",
    "check_lift_implication",
]

# Desk-scale guards for the lifting construction.
_LIFT_MAX_DEGREE = 3
_LIFT_MAX_AMBIENT = 200
_LIFT_BOX_BUDGET = 20_000_000
#: Length of the first block of values a shift range check reads.
_SCAN_START = 1024
#: Most entries l * m of a search's count table (l polynomials, m shifts):
#: with the value table and the reported counts a `search` takes about 80
#: bytes each, peak RSS 346 MB at this budget (l = 1, N = 10).
SHIFT_BUDGET = 4_000_000


@dataclass(frozen=True)
class IntPolynomial:
    """P(n) = c_1 n + c_2 n^2 + ... + c_k n^k with integer c_i and c_k != 0."""

    coefficients: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coefficients)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)

    @classmethod
    def parse(cls, text: str) -> "IntPolynomial":
        """Parse the literal 'c1,c2,...,ck' (coefficient of n^i at slot i)."""
        try:
            coeffs = tuple(int(part.strip()) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad polynomial literal {text!r}: {exc}") from exc
        return cls(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients)

    def evaluate(self, n: int) -> int:
        """Exact value at an integer argument (arbitrary precision)."""
        n = int(n)
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc * n

    def values(self, ns: np.ndarray) -> np.ndarray:
        """Exact values at an int64 array of arguments, by Horner's rule.

        Every Horner partial value is at most sum_j |c_j| max(1, max|n|)^j
        in size, so when that bound is below 2^63 the table is int64;
        otherwise it holds Python integers (object dtype).
        """
        ns = np.asarray(ns, dtype=np.int64)
        top = max(1, -int(ns.min()), int(ns.max())) if ns.size else 1
        bound = sum(abs(c) * top ** j for j, c in enumerate(self.coefficients, start=1))
        if bound >= 2 ** 63:
            ns = ns.astype(object)
        acc = np.full(ns.shape, self.coefficients[-1], dtype=ns.dtype)
        for c in reversed(self.coefficients[:-1]):
            acc = acc * ns + c
        return acc * ns

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.coefficients)


@dataclass(frozen=True)
class PolynomialFamily:
    """An ordered family P_1, ..., P_l of zero-constant-term polynomials."""

    members: tuple[IntPolynomial, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise ValueError("family must be nonempty")
        if not all(isinstance(p, IntPolynomial) for p in members):
            raise TypeError("family members must be IntPolynomial")
        object.__setattr__(self, "members", members)

    @classmethod
    def parse(cls, texts: Sequence[str]) -> "PolynomialFamily":
        return cls(tuple(IntPolynomial.parse(t) for t in texts))

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def common_degree_bound(self) -> int:
        return max(p.degree for p in self.members)

    @property
    def equal_degrees(self) -> bool:
        return len({p.degree for p in self.members}) == 1

    def coefficient_rows(self) -> tuple[tuple[int, ...], ...]:
        """l x k integer matrix, rows padded to the common degree bound."""
        k = self.common_degree_bound
        return tuple(p.coefficients + (0,) * (k - p.degree) for p in self.members)

    def __iter__(self):
        return iter(self.members)


@dataclass(frozen=True)
class ShiftRange:
    """Validated range [1, m]: every |P_i(n)| with n <= m stays within eps*N.

    adjusted records that m is below the nominal floor(c (eps N)^(1/k)).
    """

    m: int
    adjusted: bool


def _integer_root(bound: Fraction, k: int) -> int:
    """Largest m >= 0 with m^k <= bound, by integer Newton steps.

    The start 2^ceil(bits/k) lies above the root, and the steps decrease
    until they stop at it; no float is involved, so any size is safe.
    """
    x = math.floor(bound)
    if x < 1:
        return 0
    m = 1 << -(-x.bit_length() // k)
    while True:
        step = ((k - 1) * m + x // m ** (k - 1)) // k
        if step >= m:
            return m
        m = step


def shift_range(family: PolynomialFamily, n: int, eps: float, c: float = 1.0) -> ShiftRange:
    """Admissible shift count m = floor(c (eps n)^(1/k)), then verified.

    The nominal m is recomputed in exact rational arithmetic, and shrunk
    if some |P_i(j)| with j <= m still exceeds eps*n (possible when c is
    generous or coefficients are large); the result records whether that
    happened.  The values are integers, so |P_i(j)| > eps*n exactly when
    |P_i(j)| > floor(eps*n).  The check reads the value table in blocks
    whose end doubles from _SCAN_START, so it evaluates at most
    max(_SCAN_START, 2j) points when j is the first inadmissible shift,
    and it stops one shift past SHIFT_BUDGET, which refuses l * m past it.
    Raises when even m = 1 is inadmissible, naming the minimal ambient n
    that would work.  A cyclic search counts over this range alone, so
    this check is what keeps its shifts within eps*n of 0 in Z_n.
    """
    if n < 1:
        raise ValueError("ambient bound n must be positive")
    if not 0 < eps:
        raise ValueError("eps must be positive")
    if not 0 < c:
        raise ValueError("c must be positive")
    if not (math.isfinite(eps) and math.isfinite(c)):
        raise ValueError("eps and c must be finite")
    k = family.common_degree_bound
    eps_f, c_f = Fraction(eps), Fraction(c)
    bound = eps_f * n
    limit = math.floor(bound)
    m_nominal = _integer_root(c_f ** k * bound, k)

    first_value = max(abs(p.evaluate(1)) for p in family)
    if m_nominal < 1 or first_value > limit:
        need_nominal = math.ceil(1 / (eps_f * c_f ** k))
        need_value = math.ceil(first_value / eps_f)
        raise ValueError(
            "shift range empty: no admissible shift at n=%d, eps=%g; "
            "smallest admissible n is %d" % (n, eps, max(need_nominal, need_value))
        )

    top = min(m_nominal, SHIFT_BUDGET // family.size + 1)  # one shift past the budget
    m, start, end = m_nominal, 1, _SCAN_START
    while start <= top:
        ns = np.arange(start, min(end, top) + 1, dtype=np.int64)
        worst = np.max([np.abs(p.values(ns)) for p in family], axis=0)
        over = np.flatnonzero(worst > limit)
        if over.size:
            m = start + int(over[0]) - 1
            break
        start, end = end + 1, 2 * end
    if m * family.size > SHIFT_BUDGET:
        raise ValueError(f"shift budget exceeded: need l * m <= {SHIFT_BUDGET}")
    return ShiftRange(m=m, adjusted=(m != m_nominal))


def check_difference_identity(j: int, x: int, d: int) -> bool:
    """Exact check of sum_{t=0}^{j} (x+td)^j C(j,t) (-1)^(j-t) = j! d^j."""
    if j < 0:
        raise ValueError("order j must be nonnegative")
    x, d = int(x), int(d)
    lhs = sum((x + t * d) ** j * math.comb(j, t) * (-1) ** (j - t) for t in range(j + 1))
    return lhs == math.factorial(j) * d ** j


@dataclass(frozen=True)
class CoefficientMatrix:
    """Exact rank data of a family's l x k coefficient matrix.

    independent_rows lists the greedy (lowest index first) maximal
    independent subset.
    """

    rows: tuple[tuple[int, ...], ...]
    rank: int
    independent_rows: tuple[int, ...]
    dependent_rows: tuple[int, ...]


def coefficient_analysis(family: PolynomialFamily) -> CoefficientMatrix:
    """Rational Gaussian elimination, greedy over rows in their given order."""
    rows = family.coefficient_rows()
    k = len(rows[0])
    # echelon holds reduced independent rows; trail[i] expresses echelon[i]
    # over the kept original rows, so dependents get exact certificates.
    echelon: list[list[Fraction]] = []
    trail: list[list[Fraction]] = []
    kept: list[int] = []
    dependent: list[int] = []
    dependency: list[tuple[Fraction, ...]] = []

    for idx, row in enumerate(rows):
        vec = [Fraction(v) for v in row]
        combo = [Fraction(0)] * len(kept)
        for i, base in enumerate(echelon):
            pivot = next(p for p, v in enumerate(base) if v != 0)
            factor = vec[pivot] / base[pivot]
            if factor:
                vec = [a - factor * b for a, b in zip(vec, base)]
                combo = [a - factor * b for a, b in zip(combo, trail[i])]
        if any(vec):
            echelon.append(vec)
            combo = combo + [Fraction(1)]
            for t in trail:
                t.append(Fraction(0))
            trail.append(combo)
            kept.append(idx)
        else:
            dependent.append(idx)
            dependency.append(tuple(-c for c in combo))

    # Sanity: every dependent row must reproduce exactly from its certificate.
    for drow, coeffs in zip(dependent, dependency):
        for col in range(k):
            acc = sum(c * rows[kept[i]][col] for i, c in enumerate(coeffs))
            if acc != rows[drow][col]:
                raise ExactnessError("dependency certificate failed")
    return CoefficientMatrix(
        rows=rows,
        rank=len(kept),
        independent_rows=tuple(kept),
        dependent_rows=tuple(dependent),
    )


@dataclass(frozen=True)
class LiftResult:
    """Outcome of the box lift: points b in [-m, m]^k with P(b) in A^l - offset."""

    half_width: int
    offset: tuple[int, ...]
    points: np.ndarray  # read-only (size, k) int64, in the box's C order
    density: Fraction
    required_multiple: int
    analysis: CoefficientMatrix


_STAGE_CORRELATION_BUDGET = 30_000_000


def _best_offset(vals: np.ndarray, a: IntegerSet) -> tuple[tuple[int, ...], np.ndarray]:
    """The offset s maximizing #{rows y of vals : y + s in A^r}, and those rows.

    vals is an int64 (rows, r) array.  The rows' distribution over their
    bounding box is correlated with the indicator of A^r in one
    exact_correlation call, which counts every offset at once; ties go to
    the first maximum in C order, the lexicographically smallest offset.
    The box is measured in Python integers and refused past the budget
    before either array is built.  The kept rows are recounted from the
    indicator, and a count that differs from the correlation's raises.
    """
    lo = [int(v) for v in vals.min(axis=0)]
    hi = [int(v) for v in vals.max(axis=0)]
    extent = [h - l + 1 for l, h in zip(lo, hi)]
    if math.prod(e + a.n - 1 for e in extent) > _STAGE_CORRELATION_BUDGET:
        raise ValueError("stage correlation budget exceeded; shrink half_width")
    rel = vals - np.array(lo, dtype=np.int64)    # each column from 0 to extent - 1
    dist = np.zeros(extent, dtype=np.int64)
    np.add.at(dist, tuple(rel.T), 1)
    ind = np.zeros((a.n,) * len(extent), dtype=bool)
    ind[np.ix_(*[a.array - 1] * len(extent))] = True
    # counts[p] = #{y : y + s in A^r} for the offset s = p + 1 - hi
    counts = exact_correlation(dist, ind)
    pos = np.unravel_index(int(np.argmax(counts)), counts.shape)
    # row y lands on index y - lo + p - (extent - 1) of the indicator
    idx = np.add(rel, np.array(pos) - np.array(extent) + 1, out=rel)
    inside = ((idx >= 0) & (idx < a.n)).all(axis=1)
    kept = np.zeros(len(vals), dtype=bool)
    kept[inside] = ind[tuple(idx[inside].T)]
    if int(kept.sum()) != int(counts[pos]):
        raise ExactnessError("best-offset count mismatch")
    return tuple(int(p) + 1 - h for p, h in zip(pos, hi)), kept


def lift_construction(a: IntegerSet, family: PolynomialFamily,
                      half_width: int) -> LiftResult:
    """Lift A to a box set B in [-m, m]^k aligned with the whole family.

    Stage one scans the offset s for the independent coefficient rows R,
    maximizing #{b : R(b) in A^r - s} over all offsets (exhaustively, via
    integer-valued correlation).  Stage two scans t likewise for the
    dependent rows restricted to stage-one winners.  Both stages are one
    call of _best_offset.  The returned offset interleaves s and t back
    into original row order, and every b in the returned set satisfies
    P(b) in A^l - offset componentwise.
    """
    k = family.common_degree_bound
    if k > _LIFT_MAX_DEGREE:
        raise ValueError(f"lift supports degree <= {_LIFT_MAX_DEGREE} (desk scale)")
    if a.n > _LIFT_MAX_AMBIENT:
        raise ValueError(f"lift supports ambient n <= {_LIFT_MAX_AMBIENT} (desk scale)")
    if a.size == 0:
        raise ValueError("cannot lift an empty set")
    analysis = coefficient_analysis(family)
    rows = analysis.rows
    required_multiple = max(
        max(sum(abs(c) for c in rows[i]) for i in analysis.independent_rows), 1
    )
    if half_width < a.n * required_multiple:
        raise ValueError(
            "half width too small: need at least ambient*multiple = %d*%d = %d"
            % (a.n, required_multiple, a.n * required_multiple)
        )
    if (2 * half_width + 1) ** k > _LIFT_BOX_BUDGET:
        raise ValueError("box enumeration budget exceeded; shrink half_width or degree")
    # |row . b| <= sum_i |c_i| * half_width on the box, so no value wraps
    if max(sum(abs(c) for c in row) for row in rows) * half_width >= 2 ** 63:
        raise ValueError("lift values pass int64: need sum_i |c_i| * half_width < 2^63 "
                         "for every row")

    ind_idx = list(analysis.independent_rows)
    dep_idx = list(analysis.dependent_rows)
    # the independent rows' values on the box, built from one axis, in C order
    axis = np.arange(-half_width, half_width + 1, dtype=np.int64)
    box = (axis.size,) * k
    values = np.zeros((len(ind_idx),) + box, dtype=np.int64)
    for column, i in zip(values, ind_idx):
        for j, c in enumerate(rows[i]):
            column += c * axis.reshape((-1,) + (1,) * (k - 1 - j))
    s, kept = _best_offset(values.reshape(len(ind_idx), -1).T, a)
    points = np.stack(np.unravel_index(np.flatnonzero(kept), box), axis=1) - half_width
    t = ()
    if dep_idx:
        t, second = _best_offset(points @ np.array([rows[i] for i in dep_idx]).T, a)
        points = points[second]
    points.setflags(write=False)

    offset = [0] * family.size
    for row, off in zip(ind_idx + dep_idx, s + t):
        offset[row] = off
    return LiftResult(
        half_width=half_width,
        offset=tuple(offset),
        points=points,
        density=Fraction(len(points), axis.size ** k),
        required_multiple=required_multiple,
        analysis=analysis,
    )


@dataclass(frozen=True)
class ImplicationReport:
    candidates: np.ndarray
    hits: np.ndarray
    violations: np.ndarray

    @property
    def ok(self) -> bool:
        return not self.violations.size


def check_lift_implication(lift: LiftResult, a: IntegerSet,
                           family: PolynomialFamily) -> ImplicationReport:
    """Verify: (n, n^2, ..., n^k) in B - B implies every P_i(n) in A - A.

    The candidates are every nonzero n with |n| <= (2 * half_width)^(1/k),
    whose power vectors fit inside the difference box.  Both memberships
    are intersection counts at a lag, taken in one integer-mode count
    each.  A point b of B is coded as 1 + sum_j (b_j + hw) S^(j-1) with
    S = 4 hw + 1, and v(n) as the lag sum_j n^j S^(j-1): a difference of
    codes equals that lag exactly when b' - b = v(n), since every digit
    of the difference of the two sides stays below S in size.  So n is a
    hit when the count of the codes at its lag is positive, and P_i(n) is
    in A - A when the count of A at lag P_i(n) is.  This holds by
    construction; the report exists to check it from the returned data
    alone.
    """
    k = family.common_degree_bound
    hw = lift.half_width
    if not len(lift.points):
        return ImplicationReport(*[np.zeros(0, dtype=np.int64)] * 3)
    if np.abs(lift.points).max() > hw:
        raise ValueError("lifted points must lie in the box [-half_width, half_width]^k")
    limit = _integer_root(Fraction(2 * hw), k)
    ns = np.arange(-limit, limit + 1, dtype=np.int64)
    ns = ns[ns != 0]
    weights = (4 * hw + 1) ** np.arange(k, dtype=np.int64)
    codes = IntegerSet(2 * hw * int(weights.sum()) + 1, (lift.points + hw) @ weights + 1)
    lags = (ns[:, None] ** np.arange(1, k + 1)) @ weights
    hits = ns[_intersection_counts(codes, lags, INTEGER) > 0]
    values = np.concatenate([p.values(hits) for p in family])
    missed = _intersection_counts(a, values, INTEGER).reshape(family.size, -1) == 0
    return ImplicationReport(ns, hits, hits[missed.any(axis=0)])
