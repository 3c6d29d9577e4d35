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
from itertools import product
from typing import Sequence

import numpy as np

from .intset import IntegerSet
from .zn_fourier import ExactnessError, exact_correlation

__all__ = [
    "IntPolynomial",
    "PolynomialFamily",
    "ShiftRange",
    "IdentityCheck",
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

    def __call__(self, n: int) -> int:
        return self.evaluate(n)

    def evaluate(self, n: int) -> int:
        """Exact value at an integer argument (arbitrary precision)."""
        n = int(n)
        acc = 0
        for c in reversed(self.coefficients):
            acc = acc * n + c
        return acc * n

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
    """Validated range [1, m]: every |P_i(n)| with n <= m stays within bound."""

    m: int
    m_nominal: int
    adjusted: bool
    n: int
    eps: float
    c: float
    bound: Fraction        # exact value of eps*N used in the comparisons
    max_abs_value: int     # max_i max_{n<=m} |P_i(n)|
    family: PolynomialFamily


def _integer_root(bound: Fraction, k: int) -> int:
    """Largest m >= 0 with m^k <= bound, exactly."""
    if bound < 1:
        return 0
    floor_bound = int(bound)
    m = int(round(floor_bound ** (1.0 / k)))
    m = max(m, 0)
    while (m + 1) ** k <= floor_bound:
        m += 1
    while m > 0 and m ** k > floor_bound:
        m -= 1
    return m


def shift_range(family: PolynomialFamily, n: int, eps: float, c: float = 1.0) -> ShiftRange:
    """Admissible shift count m = floor(c (eps n)^(1/k)), then verified.

    The nominal m is recomputed in exact rational arithmetic, and shrunk
    if some |P_i(j)| with j <= m still exceeds eps*n (possible when c is
    generous or coefficients are large); the result records whether that
    happened.  Raises when even m = 1 is inadmissible, naming the minimal
    ambient n that would work.
    """
    if n < 1:
        raise ValueError("ambient bound n must be positive")
    if not 0 < eps:
        raise ValueError("eps must be positive")
    if not 0 < c:
        raise ValueError("c must be positive")
    k = family.common_degree_bound
    eps_f, c_f = Fraction(eps), Fraction(c)
    bound = eps_f * n
    m_nominal = _integer_root(c_f ** k * bound, k)

    first_values = [abs(p.evaluate(1)) for p in family]
    if m_nominal < 1 or max(first_values) > bound:
        need_nominal = math.ceil(1 / (eps_f * c_f ** k))
        need_value = math.ceil(max(first_values) / eps_f)
        raise ValueError(
            "shift range empty: no admissible shift at n=%d, eps=%g; "
            "smallest admissible n is %d" % (n, eps, max(need_nominal, need_value))
        )

    m = m_nominal
    max_seen = 0
    for j in range(1, m_nominal + 1):
        worst = max(abs(p.evaluate(j)) for p in family)
        if worst > bound:
            m = j - 1
            break
        max_seen = max(max_seen, worst)
    return ShiftRange(
        m=m,
        m_nominal=m_nominal,
        adjusted=(m != m_nominal),
        n=n,
        eps=eps,
        c=c,
        bound=bound,
        max_abs_value=max_seen,
        family=family,
    )


@dataclass(frozen=True)
class IdentityCheck:
    equal: bool
    lhs: int
    rhs: int


def check_difference_identity(j: int, x: int, d: int) -> IdentityCheck:
    """Exact check of sum_{t=0}^{j} (x+td)^j C(j,t) (-1)^(j-t) = j! d^j."""
    if j < 0:
        raise ValueError("order j must be nonnegative")
    x, d = int(x), int(d)
    lhs = sum((x + t * d) ** j * math.comb(j, t) * (-1) ** (j - t) for t in range(j + 1))
    rhs = math.factorial(j) * d ** j
    return IdentityCheck(lhs == rhs, lhs, rhs)


@dataclass(frozen=True)
class CoefficientMatrix:
    """Exact rank data of a family's l x k coefficient matrix.

    independent_rows lists the greedy (lowest index first) maximal
    independent subset; dependency has one row of rational coefficients
    per dependent row, expressing it over the independent ones.
    """

    rows: tuple[tuple[int, ...], ...]
    rank: int
    independent_rows: tuple[int, ...]
    dependent_rows: tuple[int, ...]
    dependency: tuple[tuple[Fraction, ...], ...]


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
        dependency=tuple(dependency),
    )


@dataclass(frozen=True)
class LiftResult:
    """Outcome of the box lift: points b in [-m, m]^k with P(b) in A^l - offset."""

    half_width: int
    ambient: int
    offset: tuple[int, ...]
    independent_offset: tuple[int, ...]
    dependent_offset: tuple[int, ...]
    points: frozenset[tuple[int, ...]]
    density: Fraction
    required_multiple: int
    first_stage_count: int
    second_stage_count: int
    analysis: CoefficientMatrix


_STAGE_CORRELATION_BUDGET = 30_000_000


def _argmax_offset(dist_vals: np.ndarray, dist_origin: np.ndarray,
                   a: IntegerSet) -> tuple[tuple[int, ...], int]:
    """Best shift s maximizing #{y : y + s in A^r}, given the y-distribution.

    dist_vals is an r-dimensional count array whose [0,...]-corner sits at
    dist_origin in value space.  Ties resolve to the first offset in C order.
    """
    r = dist_vals.ndim
    ind = np.zeros((a.n,) * r, dtype=np.int64)
    idx = np.array(a.elements) - 1
    mesh = np.meshgrid(*([idx] * r), indexing="ij")
    ind[tuple(mesh)] = 1
    out_shape = tuple(d + i - 1 for d, i in zip(dist_vals.shape, ind.shape))
    if math.prod(out_shape) > _STAGE_CORRELATION_BUDGET:
        raise ValueError("stage correlation budget exceeded; shrink half_width")
    # counts[p] = #{y : y + s in A^r} for the offset s that p encodes
    counts = exact_correlation(dist_vals, ind)
    flat = int(np.argmax(counts))
    pos = np.unravel_index(flat, counts.shape)
    # axis offset p corresponds to s = (1 - (origin + extent - 1)) + p
    s = tuple(
        1 - (int(dist_origin[ax]) + dist_vals.shape[ax] - 1) + int(pos[ax])
        for ax in range(r)
    )
    return s, int(counts[pos])


def _distribution(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dense count array over the bounding box of integer row vectors."""
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    shape = tuple(int(h - l + 1) for l, h in zip(lo, hi))
    dist = np.zeros(shape, dtype=np.int64)
    np.add.at(dist, tuple((values - lo).T), 1)
    return dist, lo


def lift_construction(a: IntegerSet, family: PolynomialFamily,
                      half_width: int) -> LiftResult:
    """Lift A to a box set B in [-m, m]^k aligned with the whole family.

    Stage one scans the offset s for the independent coefficient rows R,
    maximizing #{b : R(b) in A^r - s} over all offsets (exhaustively, via
    integer-valued correlation).  Stage two scans t likewise for the
    dependent rows restricted to stage-one winners.  The returned offset
    interleaves s and t back into original row order, and every b in the
    returned set satisfies P(b) in A^l - offset componentwise.
    """
    k = family.common_degree_bound
    ell = family.size
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

    axes = [np.arange(-half_width, half_width + 1, dtype=np.int64)] * k
    grid = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([g.ravel() for g in grid], axis=1)  # (box, k)
    row_matrix = np.array(rows, dtype=np.int64)           # (l, k)
    values = coords @ row_matrix.T                        # (box, l)

    ind_idx = list(analysis.independent_rows)
    dep_idx = list(analysis.dependent_rows)

    r_vals = values[:, ind_idx]
    dist, origin = _distribution(r_vals)
    s, first_count = _argmax_offset(dist, origin, a)

    in_a = np.zeros(a.n + 2, dtype=bool)
    in_a[np.array(a.elements)] = True

    def member_mask(vals: np.ndarray, offs: Sequence[int]) -> np.ndarray:
        mask = np.ones(vals.shape[0], dtype=bool)
        for col, off in enumerate(offs):
            shifted = vals[:, col] + off
            hit = np.zeros(vals.shape[0], dtype=bool)
            ok = (shifted >= 1) & (shifted <= a.n)
            hit[ok] = in_a[shifted[ok]]
            mask &= hit
        return mask

    stage1 = member_mask(r_vals, s)
    if int(stage1.sum()) != first_count:
        raise ExactnessError("stage-one count mismatch")

    if dep_idx:
        d_vals = values[:, dep_idx][stage1]
        if d_vals.shape[0] == 0:
            raise ValueError("stage one produced an empty slab; enlarge half_width")
        dist2, origin2 = _distribution(d_vals)
        t, second_count = _argmax_offset(dist2, origin2, a)
        final_mask = stage1.copy()
        final_mask[stage1] &= member_mask(d_vals, t)
    else:
        t = ()
        final_mask = stage1
        second_count = first_count

    offset = [0] * ell
    for pos, row in enumerate(ind_idx):
        offset[row] = int(s[pos])
    for pos, row in enumerate(dep_idx):
        offset[row] = int(t[pos])

    pts = frozenset(map(tuple, coords[final_mask].tolist()))
    # Exactness checkpoint: every surviving b satisfies the box condition.
    if int(final_mask.sum()) != len(pts):
        raise ExactnessError("lifted points are not distinct")
    return LiftResult(
        half_width=half_width,
        ambient=a.n,
        offset=tuple(offset),
        independent_offset=tuple(int(v) for v in s),
        dependent_offset=tuple(int(v) for v in t),
        points=pts,
        density=Fraction(len(pts), (2 * half_width + 1) ** k),
        required_multiple=required_multiple,
        first_stage_count=first_count,
        second_stage_count=second_count,
        analysis=analysis,
    )


@dataclass(frozen=True)
class ImplicationReport:
    candidates: tuple[int, ...]
    hits: tuple[int, ...]
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_lift_implication(lift: LiftResult, a: IntegerSet,
                           family: PolynomialFamily) -> ImplicationReport:
    """Verify: (n, n^2, ..., n^k) in B - B implies every P_i(n) in A - A.

    Scans every nonzero n whose power vector can fit inside the difference
    box.  This holds by construction; the report exists to check it from
    the returned data alone.
    """
    k = family.common_degree_bound
    hw = lift.half_width
    width = 2 * hw
    limit = _integer_root(Fraction(width), k)
    diff_a = {x - y for x in a.elements for y in a.elements}
    if not lift.points:
        return ImplicationReport((), (), ())
    # Integer-encode box points for vectorized difference-set membership.
    stride = 2 * hw + 1
    b_arr = np.array(sorted(lift.points), dtype=np.int64)
    weights = stride ** np.arange(k, dtype=np.int64)
    codes = np.sort((b_arr + hw) @ weights)
    candidates, hits, violations = [], [], []
    for n in range(-limit, limit + 1):
        if n == 0:
            continue
        vec = np.array([n ** j for j in range(1, k + 1)], dtype=np.int64)
        if np.any(np.abs(vec) > width):
            continue
        candidates.append(n)
        shifted = b_arr + vec
        valid = np.all(np.abs(shifted) <= hw, axis=1)
        if not valid.any():
            continue
        probe = (shifted[valid] + hw) @ weights
        pos = np.searchsorted(codes, probe)
        pos[pos == codes.size] = 0
        if not np.any(codes[pos] == probe):
            continue
        hits.append(n)
        if any(p.evaluate(n) not in diff_a for p in family):
            violations.append(n)
    return ImplicationReport(tuple(candidates), tuple(hits), tuple(violations))
