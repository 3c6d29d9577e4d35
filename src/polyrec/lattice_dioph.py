"""Product-lattice Gaussian sums and diophantine approximation scans.

A product lattice Lambda = Lambda_1 x ... x Lambda_k (one block per
polynomial degree, blocks may be zero-dimensional) supports the theta
function Theta(t, x) = sum over lattice points of exp(-pi t |x - m|^2),
its dual-side form obtained by Poisson summation, the invariant
A = det(Lambda) * Theta(1, 0), and the Gaussian average

    F(N) = det(Lambda) * (1/N) sum_{n<=N} Theta(1, n*alpha),

where n*alpha dilates block j by n^j.  Largeness of F(N) witnesses that
the weighted orbit {n*alpha} keeps returning near the lattice; the scans
in this module extract the structured explanation (a denominator q and a
dual direction) when it does not.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .intset import IntegerSet, _Fresh
from .polyfam import IntPolynomial

__all__ = [
    "ProductLattice",
    "BlockVector",
    "GoodSet",
    "AverageBoundsReport",
    "SchmidtReport",
    "WeylDenominatorReport",
    "theta",
    "gaussian_mass",
    "gaussian_average",
    "approx_good_set_power",
    "approx_good_set_family",
    "check_average_bounds",
    "schmidt_scan",
    "weyl_denominator",
]

_ENUM_BUDGET = 2_000_000      # integer boxes enumerated per block
_MAX_BLOCK_DIM = 13           # a 14-dimensional box holds >= 3^14 > _ENUM_BUDGET points
_MAX_CONDITION = 1e8
#: Largest |x| of a phase x (n^j * alpha_j, P(n) * theta or q * theta) that
#: is reduced modulo 1 in long double: the integer part then leaves 6 of the
#: type's decimal digits for the fraction (1e12 for an 80-bit long double,
#: 1e9 where long double is a plain double).
_PHASE_LIMIT = 10.0 ** (np.finfo(np.longdouble).precision - 6)
_DILATE_CHUNK = 1 << 16       # values of n (or q) per block of a phase scan
_ORBIT_BUDGET = 10_000_000    # longest orbit scan: N or q_max
_PHASE_BLOCK = 2_000_000      # most terms (phases or theta points) per block of a scan
#: Most phases q * xi . alpha of a Schmidt scan, q_max times the candidates xi
#: of all blocks: about 50 ns each, so 5 s at this budget.
_SCHMIDT_BUDGET = 100_000_000


def _orbit(length: int, name: str = "N", width: int = 1):
    """n = 1..N (or q = 1..q_max) in int64 blocks of _DILATE_CHUNK values, fewer
    when each takes `width` terms.  A length past _ORBIT_BUDGET is refused at
    the call, before the caller allocates (a generator runs at its next())."""
    if length > _ORBIT_BUDGET:
        raise ValueError(f"orbit scan budget exceeded: need {name} <= {_ORBIT_BUDGET}")
    step = max(1, min(_DILATE_CHUNK, _PHASE_BLOCK // width))
    return (np.arange(s, min(s + step, length + 1)) for s in range(1, length + 1, step))


def _phases(x: np.ndarray, nearest: bool = False) -> np.ndarray:
    """The long-double phases x modulo 1: x - floor(x), or the distance
    |x - rint(x)| to the nearest integer with nearest=True.

    Both start from r = x - rint(x), which is exact; x - floor(x) is then
    r + 1 where r < 0, one rounding of the same real, so it has the same
    bits (and long-double floor costs about 20 times rint).

    Refuses x holding NaN or an entry past _PHASE_LIMIT in size; the
    message prints that entry with every digit it needs, so a phase just
    past the limit reads as past it."""
    top = max(-x.min(initial=0.0), x.max(initial=0.0))
    if not top <= _PHASE_LIMIT:  # NaN fails the comparison
        raise ValueError(f"phase {top!s} too large for reliable phase "
                         f"reduction (limit {_PHASE_LIMIT:g})")
    # one scratch array: a block of a scan reduces up to _PHASE_BLOCK phases
    frac = np.rint(x, out=np.empty_like(x))
    np.subtract(x, frac, out=frac)
    if nearest:
        return np.abs(frac, out=frac)
    return np.add(frac, 1, out=frac, where=frac < 0)


def _identity(d: int) -> np.ndarray:
    """np.eye(d) for a block basis, refused unbuilt past _MAX_BLOCK_DIM."""
    if d > _MAX_BLOCK_DIM:
        raise ValueError(f"lattice enumeration budget exceeded: block dimension {d}")
    return np.eye(d)


def _abs_det(basis: np.ndarray) -> float:
    """|det| of a block basis, inf without a warning when it is past float
    range (the enumeration box of such a lattice is refused)."""
    with np.errstate(over="ignore"):
        return abs(float(np.linalg.det(basis)))


def _frozen_matrix(mat) -> np.ndarray:
    arr = np.asarray(mat, dtype=float).copy()
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError("block basis must be a square matrix")
    if not np.isfinite(arr).all():
        raise ValueError("block basis must have finite entries")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ProductLattice:
    """Product of full-rank sublattices of R^{d_j}; rows are basis vectors."""

    blocks: tuple[np.ndarray, ...]

    def __post_init__(self):
        blocks = tuple(_frozen_matrix(b) for b in self.blocks)
        if not blocks:
            raise ValueError("need at least one block")
        for b in blocks:
            if b.shape[0] == 0:
                continue
            if _abs_det(b) < 1e-300:
                raise ValueError("block basis is singular")
            if np.linalg.cond(b) > _MAX_CONDITION:
                raise ValueError("block basis too ill-conditioned")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def integers(cls, dims: Sequence[int]) -> "ProductLattice":
        """Z^{d_1} x ... x Z^{d_k}."""
        return cls(tuple(_identity(int(d)) for d in dims))

    @classmethod
    def scaled_integers(cls, scale: float, dims: Sequence[int]) -> "ProductLattice":
        with np.errstate(invalid="ignore"):  # 0 * inf: __post_init__ refuses it
            return cls(tuple(float(scale) * _identity(int(d)) for d in dims))

    @classmethod
    def from_spec(cls, spec: Sequence[dict]) -> "ProductLattice":
        """Build from [{'dim': d, 'basis': [[...], ...]}, ...] (row-major)."""
        blocks = []
        for i, entry in enumerate(spec):
            d = operator.index(entry["dim"])
            if d < 0:
                raise ValueError(f"block {i}: dim must be >= 0")
            basis = np.array(entry["basis"] if "basis" in entry else _identity(d), dtype=float)
            if basis.shape != (d, d):
                raise ValueError(f"block {i}: basis must be {d}x{d}")
            blocks.append(basis)
        return cls(tuple(blocks))

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(b.shape[0] for b in self.blocks)

    @property
    def dimension(self) -> int:
        return sum(self.dims)

    @property
    def determinant(self) -> float:
        out = 1.0
        for b in self.blocks:
            if b.shape[0]:
                out *= _abs_det(b)
        return out

    def scale(self, factor: float) -> "ProductLattice":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ProductLattice(tuple(factor * b for b in self.blocks))


@dataclass(frozen=True)
class BlockVector:
    """Per-block real vectors alpha_j; dilation by n multiplies block j by n^j."""

    entries: tuple[tuple, ...]

    def __post_init__(self):
        entries = tuple(tuple(e) for e in self.entries)
        object.__setattr__(self, "entries", entries)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(len(e) for e in self.entries)

    def block_arrays(self) -> list[np.ndarray]:
        return [_long_doubles(e) for e in self.entries]


def _long_doubles(values) -> np.ndarray:
    """The entries as long doubles, through float().  An infinite entry, and
    an exact fraction past float range (float() raises OverflowError), are
    refused; a NaN is left to _phases, which refuses it."""
    try:
        out = np.asarray([float(x) for x in values], dtype=np.longdouble)
        if not np.isinf(out).any():
            return out
    except OverflowError:
        pass
    raise ValueError("entry out of float range")


def _tail_radius(t: float, sigma: float, d: int, tau: float) -> float:
    """Radius R with sum over lattice points beyond R of exp(-pi t r^2) < tau,
    for any lattice whose shortest vector is at least sigma (packing bound).

    A term of the bound that overflows means the lattice's scale is out of
    float range: that is refused, where growing R would never end.
    """
    radius = max(1.0, math.sqrt(max(d, math.log(1.0 / tau)) / (math.pi * t)))
    while True:
        total = 0.0
        for j in range(400):
            s = radius + j
            try:
                term = ((2.0 * (s + 1.0) + sigma) / sigma) ** d * math.exp(-math.pi * t * s * s)
            except OverflowError:
                raise ValueError("Gaussian tail radius is not finite: "
                                 "lattice scale out of range") from None
            total += term
            if term < tau * 1e-6:
                break
        if total < tau:
            return radius
        radius += 0.25


def _lattice_points_within(basis: np.ndarray, radius: float
                           ) -> tuple[np.ndarray, np.ndarray]:
    """All integer combinations of the basis rows with |point| <= radius.

    Returns (integer coordinates, points).  The coordinate box is sized
    from the inverse basis, so nothing inside the ball is missed; a few
    points straddling the boundary may be kept, which only helps accuracy.
    A box that is not finite (a basis or radius out of float range) or
    holds more than _ENUM_BUDGET points is refused.
    """
    d = basis.shape[0]
    if d == 0:
        return np.zeros((1, 0), dtype=np.int64), np.zeros((1, 0))
    inv = np.linalg.inv(basis)
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        box = np.floor(radius * np.linalg.norm(inv, axis=0)) + 1
    if not np.isfinite(box).all():
        raise ValueError("lattice enumeration box is not finite: "
                         "lattice scale out of range")
    if math.prod(2 * float(b) + 1 for b in box) > _ENUM_BUDGET:
        raise ValueError(
            "lattice enumeration budget exceeded (very dense block); "
            "use the dual-side evaluation instead"
        )
    ranges = [np.arange(-b, b + 1, dtype=np.int64) for b in box.astype(np.int64)]
    grid = np.meshgrid(*ranges, indexing="ij")
    offsets = np.stack([g.ravel() for g in grid], axis=1)
    pts = offsets.astype(float) @ basis
    keep = np.einsum("ij,ij->i", pts, pts) <= radius * radius + 1e-12
    return offsets[keep], pts[keep]


def _sigma_min(basis: np.ndarray) -> float:
    return float(np.linalg.svd(basis, compute_uv=False)[-1])


def _dual_points(basis: np.ndarray, t: float, tail: float
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The dual vectors xi of one block (rows of the inverse transpose of
    its basis) whose weights exp(-pi |xi|^2 / t) leave out less than tail,
    and those weights.  A zero-dimensional block has the one point ()."""
    d = basis.shape[0]
    if d == 0:
        return np.zeros((1, 0)), np.ones(1)
    dual_basis = np.linalg.inv(basis).T
    radius = _tail_radius(1.0 / t, _sigma_min(dual_basis), d, tail)
    _, pts = _lattice_points_within(dual_basis, radius)
    return pts, np.exp(-math.pi / t * np.einsum("ij,ij->i", pts, pts))


def _block_terms(basis: np.ndarray, t: float, side: str, tail: float
                 ) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """The points one block's factor of Theta(t, x) sums over, with their
    weights, enumerated once for every x: on the direct side the lattice
    points covering every term above the tail around the fundamental cell
    (no weights), on the dual side _dual_points.  A zero-dimensional block
    has the one point () on either side."""
    d = basis.shape[0]
    if side == "dual" or d == 0:
        return _dual_points(basis, t, tail)
    with np.errstate(over="ignore"):  # an infinite cell makes an infinite box
        cell_diam = float(np.sum(np.linalg.norm(basis, axis=1)))
    radius = _tail_radius(t, _sigma_min(basis), d, tail)
    return _lattice_points_within(basis, radius + cell_diam)[1], None


def _theta_values(lattice: ProductLattice, terms: Sequence[tuple], xs: np.ndarray,
                  t: float, side: str) -> np.ndarray:
    """Theta(t, x) for each row x of the long-double array xs: the product
    over blocks of each block's sum over its terms (_block_terms), one
    normalisation for the whole product.

    Direct: sum_m exp(-pi t |x - m|^2), with x first reduced into the
    fundamental cell.  Dual: sum_xi w(xi) cos(2 pi xi . x), real because
    the dual points come in +- pairs, over t^(D/2) det.  Both reduce their
    phases (x in lattice coordinates, xi . x) in long double through
    _phases.
    """
    out = np.ones(xs.shape[0])
    pos = 0
    for basis, (pts, weights) in zip(lattice.blocks, terms):
        d = basis.shape[0]
        x, pos = xs[:, pos:pos + d], pos + d
        if d == 0:
            continue
        if side == "direct":
            cell = _phases(x @ np.linalg.inv(basis).astype(np.longdouble))
            red = np.asarray(cell @ basis.astype(np.longdouble), dtype=float)
            diff = red[:, None, :] - pts
            out *= np.exp(-math.pi * t * np.einsum("abj,abj->ab", diff, diff)).sum(axis=1)
        else:
            arg = _phases(x @ pts.T.astype(np.longdouble)).astype(float)
            arg *= 2 * math.pi
            out *= np.cos(arg, out=arg) @ weights
    if side == "dual":
        out /= t ** (lattice.dimension / 2.0) * lattice.determinant
    return out


def theta(lattice: ProductLattice, t: float, x: Sequence[float],
          side: str = "direct", tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """Gaussian point sum over the lattice, or its dual-side evaluation.

    side='direct' sums exp(-pi t |x-m|^2) over lattice points; side='dual'
    evaluates t^(-D/2) det^-1 sum over dual vectors of
    exp(-pi |xi|^2 / t) e(xi . x).  The two agree (Poisson summation); both
    truncate with tail below tol.theta_tail.  Each side reduces its phases
    (x in the fundamental cell, xi . x modulo 1) in long double through
    _phases, so both refuse a point whose phases pass _PHASE_LIMIT.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    xs = np.asarray(x, dtype=np.longdouble)[None, :]
    if xs.shape[1] != lattice.dimension:
        raise ValueError(f"point must have {lattice.dimension} coordinates")
    if side not in ("direct", "dual"):
        raise ValueError(f"side must be 'direct' or 'dual', got {side!r}")
    terms = [_block_terms(basis, t, side, tol.theta_tail) for basis in lattice.blocks]
    return float(_theta_values(lattice, terms, xs, t, side)[0])


def gaussian_mass(lattice: ProductLattice,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """det(Lambda) * sum_m exp(-pi |m|^2); equals the same sum over the dual.

    Both sides are det * theta(lattice, 1, 0), once on the direct side and
    once on the dual side, and must agree to tol.poisson_rel; the
    direct-side value is returned.
    """
    zero = [0.0] * lattice.dimension
    direct = lattice.determinant * theta(lattice, 1.0, zero, "direct", tol)
    dual = lattice.determinant * theta(lattice, 1.0, zero, "dual", tol)
    if abs(direct - dual) > tol.poisson_rel * max(abs(direct), abs(dual)):
        raise AssertionError(
            f"two-sided evaluations disagree: {direct!r} vs {dual!r}"
        )
    return direct


def _orbit_theta(lattice: ProductLattice, alpha: BlockVector, n_range: int,
                 tail: float, side: str = "direct") -> np.ndarray:
    """Theta(1, n*alpha) for n = 1..N on one side: each block's terms are
    enumerated once, and the dilates (n a_1, n^2 a_2, ..., n^k a_k) are
    formed in long double a block of the scan at a time, as many n as keep
    the terms of a block within _PHASE_BLOCK.  An alpha whose blocks do not
    match the lattice's is refused first."""
    if alpha.dims != lattice.dims:
        raise ValueError("alpha blocks do not match lattice blocks")
    terms = [_block_terms(basis, 1.0, side, tail) for basis in lattice.blocks]
    arrays = alpha.block_arrays()
    blocks = _orbit(n_range, width=sum(len(pts) for pts, _ in terms))
    out = np.empty(n_range)  # allocated once _orbit has admitted N
    for ns in blocks:
        x = ns.astype(np.longdouble)[:, None]
        xs = np.concatenate([x ** j * arr for j, arr in enumerate(arrays, start=1)], axis=1)
        out[ns[0] - 1:ns[-1]] = _theta_values(lattice, terms, xs, 1.0, side)
    return out


def gaussian_average(lattice: ProductLattice, alpha: BlockVector, n_range: int,
                     check_dual: bool = False,
                     tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """F(N) = det * (1/N) sum_{n<=N} Theta(1, n*alpha) along the dilated orbit.

    With check_dual=True the dual-side form, a weighted average of the
    polynomial exponential sums (1/N) sum_n e(xi . (n*alpha)), is computed
    as well and must agree to tol.average_agreement_rel.
    """
    if n_range < 1:
        raise ValueError("need N >= 1")
    def average(side: str) -> float:
        return lattice.determinant * float(
            np.mean(_orbit_theta(lattice, alpha, n_range, tol.theta_tail, side)))
    if not check_dual:
        return average("direct")
    dual = average("dual")  # first: a phase it refuses costs no direct sum
    direct = average("direct")
    scale = max(abs(direct), abs(dual), 1e-300)
    if abs(direct - dual) > tol.average_agreement_rel * scale + 1e-12:
        raise AssertionError(
            f"average disagrees between sides: direct {direct!r}, dual {dual!r}"
        )
    return direct


@dataclass(frozen=True)
class GoodSet:
    """Solutions n <= N of a system of nearest-integer inequalities, and
    whether they were decided in exact arithmetic."""

    members: IntegerSet
    exact: bool


def _residues(values: np.ndarray, p: int, q: int) -> np.ndarray:
    """v * p mod q for each exact value v: int64 while q^2 < 2^63, else
    Python integers."""
    if q * q < 2 ** 63:
        return (values % q).astype(np.int64) * (p % q) % q
    return values.astype(object) % q * (p % q) % q


def _good_set(conditions: Sequence[tuple[IntPolynomial, tuple]], eps: float,
              n_range: int) -> GoodSet:
    """All n <= N at which every condition (P, block) holds: the phases
    P(n) x of the block's entries x lie within Euclidean distance eps of Z^d.

    P(n) is an exact integer table, taken once per polynomial for each
    _DILATE_CHUNK values of n.  When every entry is rational the test is
    exact: with entries p_i/q_i, Q the lcm of the block's q_i,
    r_i = P(n) p_i mod q_i and eps = a/b, the block holds when
    sum (min(r_i, q_i - r_i) Q/q_i)^2 < ceil((aQ/b)^2), summed in int64
    while d Q^2 < 2^63.  Otherwise the phases go to long double through
    _phases, which refuses one past _PHASE_LIMIT in size.
    """
    if not (math.isfinite(eps) and eps > 0) or n_range < 1:
        raise ValueError("need finite eps > 0 and N >= 1")
    exact = all(isinstance(x, Rational) for _, block in conditions for x in block)
    if exact:
        a, b = Fraction(eps).as_integer_ratio()
        rules = []  # (P, [(p_i, q_i, Q/q_i)], dtype of the sum, ceil((aQ/b)^2))
        for poly, block in conditions:
            fracs = [Fraction(x) for x in block]
            big_q = math.lcm(*(x.denominator for x in fracs))
            terms = [(x.numerator, x.denominator, big_q // x.denominator) for x in fracs]
            dtype = np.int64 if len(fracs) * big_q ** 2 < 2 ** 63 else object
            rules.append((poly, terms, dtype, -(-(a * big_q) ** 2 // b ** 2)))
    else:
        rules = [(poly, _long_doubles(block)) for poly, block in conditions]
    blocks, good = _orbit(n_range), np.ones(n_range, dtype=bool)
    for ns in blocks:
        keep = good[ns[0] - 1:ns[-1]]
        tables = {}
        for poly, *rule in rules:
            if poly not in tables:
                vals = poly.values(ns)
                tables[poly] = vals if exact else vals.astype(np.longdouble)[:, None]
            if exact:
                terms, dtype, limit = rule
                total = 0
                for p, q, w in terms:
                    r = _residues(tables[poly], p, q)
                    total = total + (np.minimum(r, q - r).astype(dtype) * w) ** 2
                keep &= total < limit
            else:
                d = _phases(tables[poly] * rule[0], nearest=True)
                keep &= np.sqrt(np.sum(d * d, axis=1)) < eps
    return GoodSet(IntegerSet(n_range, _Fresh(good)), exact=exact)


def approx_good_set_power(alpha: BlockVector, eps: float, n_range: int) -> GoodSet:
    """All n <= N with |n^j alpha_j| within eps of Z^{d_j} for every block:
    the conditions (n^j, alpha_j) of _good_set.

    Exact integer arithmetic whenever all entries of alpha are rational;
    otherwise long double, refused when a phase n^j alpha_j is past
    _PHASE_LIMIT in size.
    """
    return _good_set([(IntPolynomial((0,) * (j - 1) + (1,)), block)
                      for j, block in enumerate(alpha.entries, start=1)], eps, n_range)


def approx_good_set_family(family, thetas: Sequence, eps: float,
                           n_range: int) -> GoodSet:
    """All n <= N with |P_i(n) theta_r| < eps for every polynomial P_i and
    every real theta_r: the one-entry conditions (P_i, theta_r) of
    _good_set.  Exact integer arithmetic when the thetas are rational
    (with theta = p/q, r = P_i(n) p mod q and eps = a/b, the pair passes
    when min(r, q - r)^2 < ceil((aq/b)^2)); otherwise long double, refused
    when a phase P_i(n) theta_r is past _PHASE_LIMIT in size."""
    return _good_set([(poly, (th,)) for poly in family for th in thetas], eps, n_range)


@dataclass(frozen=True)
class AverageBoundsReport:
    """Scaling, subsampling, and perturbation behavior of the average F."""

    n: int
    c: float
    q: int
    f_n: float
    f_scaled: float          # F(floor(cN))
    f_subsampled: float      # F(floor(N/q))
    holds_scaling: bool      # F(N) >= (c/2) F(floor(cN))
    holds_subsampling: bool  # F(N) >= (1/2q) F(floor(N/q))
    perturbation_eps: float
    perturbation_ratio: float  # min_n theta ratio against the perturbed pair


def _perturbed_vector(alpha: BlockVector, n: int, eps: float) -> BlockVector:
    """(1 + eps) * beta, where beta has |beta_j - alpha_j| = eps * N^-j,
    pushed along the first axis."""
    out = []
    for j, block in enumerate(alpha.entries, start=1):
        vals = [float(x) for x in block]
        if vals:
            vals[0] += eps * float(n) ** (-j)
        out.append(tuple((1.0 + eps) * v for v in vals))
    return BlockVector(tuple(out))


def check_average_bounds(lattice: ProductLattice, alpha: BlockVector, n: int,
                         c: float, q: int,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> AverageBoundsReport:
    """Check the range-scaling and subsampling lower bounds for F, and
    report the perturbation ratio.

    (i)  F(N) >= (c/2) F(floor(cN)) for 1/10 < c < 1;
    (ii) F(N) >= (1/2q) F(floor(N/q)) for integers q <= N/2;
    (iii) the reported ratio min_n Theta(1, n*alpha) / Theta_scaled(1,
          n*(1+eps)beta) over the (1+eps)-dilated lattice, not asserted,
          with eps = min(1/d, 1/2) for a lattice of dimension d and
          (1+eps)beta from _perturbed_vector.
    """
    if n <= 20:
        raise ValueError("need N > 20")
    if not 0.1 < c < 1.0:
        raise ValueError("need 1/10 < c < 1")
    if q < 1 or q > n // 2:
        raise ValueError("need integer 1 <= q <= N/2")
    perturbation_eps = min(1.0 / max(lattice.dimension, 1), 0.5)
    # Theta(1, n*alpha) for n <= N: F(N), F(floor(cN)) and F(floor(N/q)) are
    # det times means of its leading entries, and it is the ratio's numerator
    top = _orbit_theta(lattice, alpha, n, tol.theta_tail)
    f_n, f_scaled, f_sub = (lattice.determinant * float(np.mean(top[:m]))
                            for m in (n, int(c * n), n // q))

    bot = _orbit_theta(lattice.scale(1.0 + perturbation_eps),
                       _perturbed_vector(alpha, n, perturbation_eps), n, tol.theta_tail)
    ratio = float(np.min(np.divide(top, bot, out=bot)))

    return AverageBoundsReport(
        n=n, c=c, q=q,
        f_n=f_n, f_scaled=f_scaled, f_subsampled=f_sub,
        holds_scaling=f_n >= (c / 2.0) * f_scaled,
        holds_subsampling=f_n >= f_sub / (2.0 * q),
        perturbation_eps=perturbation_eps,
        perturbation_ratio=ratio,
    )


@dataclass(frozen=True)
class SchmidtReport:
    """Either the average is large, or a structured obstruction was found."""

    alternative: int                     # 1: F(N) >= 1/2; 2: scan result
    f_value: float
    q: Optional[int] = None
    directions: tuple = ()               # per nonzero block: dual vector used
    distances: tuple = ()                # per nonzero block: |q xi . alpha|
    objective: Optional[float] = None    # max_j N^j * distance_j
    beats_quality: Optional[bool] = None


def schmidt_scan(lattice: ProductLattice, alpha: BlockVector, n: int,
                 q_max: int, radius_max: float, quality: float,
                 tol: Tolerances = DEFAULT_TOLERANCES) -> SchmidtReport:
    """The large-average / good-denominator alternative, by exhaustive scan.

    If F(N) >= 1/2 that is the report.  Otherwise every q <= q_max is
    paired with, per nonzero block j, the primitive dual vector xi_j
    (|xi_j| <= radius_max) minimizing |q xi_j . alpha_j| near integers;
    the returned q minimizes the objective max_j N^j |q xi_j . alpha_j|,
    and beats_quality records whether it stays below
    quality * N^-j blockwise.  q_max times the candidates of all blocks
    past _SCHMIDT_BUDGET is refused before the scan.
    """
    if q_max < 1 or not (math.isfinite(radius_max) and radius_max > 0) or not quality > 0:
        raise ValueError("need q_max >= 1, finite radius_max > 0, quality > 0")
    f_value = gaussian_average(lattice, alpha, n, tol=tol)
    if f_value >= 0.5:
        return SchmidtReport(alternative=1, f_value=f_value)

    arrays = alpha.block_arrays()
    block_data = []  # (power j, candidate dots) per nonzero block
    for j, basis in enumerate(lattice.blocks, start=1):
        if basis.shape[0] == 0:
            continue
        dual_basis = np.linalg.inv(basis).T
        offsets, pts = _lattice_points_within(dual_basis, radius_max)
        nonzero = np.any(offsets != 0, axis=1)
        primitive = nonzero & (np.gcd.reduce(np.abs(offsets), axis=1) == 1)
        if not np.any(primitive):
            continue
        cand = pts[primitive]
        dots = cand.astype(np.longdouble) @ arrays[j - 1]
        block_data.append((j, cand, dots))
    if not block_data:
        raise ValueError("no primitive dual vectors within radius_max")

    widths = [cand.shape[0] for _, cand, _ in block_data]
    scan = _orbit(q_max, "q_max", max(widths))  # its own budget on q_max first
    if q_max * sum(widths) > _SCHMIDT_BUDGET:
        raise ValueError(f"Schmidt scan budget exceeded: q_max * candidates > {_SCHMIDT_BUDGET}")
    best = None
    for qs in scan:
        dists = [(j, cand, _phases(dots * qs[:, None], nearest=True).astype(float))
                 for j, cand, dots in block_data]
        worst = np.max([float(n) ** j * d.min(axis=1) for j, _, d in dists], axis=0)
        i = int(np.argmin(worst))  # the first q of least worst distance
        if best is None or worst[i] < best[0]:
            best = (float(worst[i]), int(qs[i]),
                    tuple(tuple(map(float, cand[d[i].argmin()])) for _, cand, d in dists),
                    tuple(float(d[i].min()) for _, _, d in dists))
    objective, q_best, picks, dists = best
    return SchmidtReport(
        alternative=2,
        f_value=f_value,
        q=q_best,
        directions=picks,
        distances=dists,
        objective=objective,
        beats_quality=objective <= quality,
    )


@dataclass(frozen=True)
class WeylDenominatorReport:
    s_abs: float
    q: Optional[int]
    distances: tuple[float, ...]
    thresholds: tuple[float, ...]

    @property
    def found(self) -> bool:
        return self.q is not None


def weyl_denominator(thetas: Sequence, n: int, delta: float, q_max: int,
                     c_exponent: float = 2.0) -> WeylDenominatorReport:
    """|S_N| for S_N = (1/N) sum_n e(n th_1 + ... + n^k th_k), plus the
    smallest q <= q_max with |q th_i| below the threshold for every i.

    The thresholds are delta^-C * N^-i, C = c_exponent, and must be
    finite.  This is the computational face of the inverse principle: a
    large |S_N| should force such a q.
    """
    if n < 1 or q_max < 1:
        raise ValueError("need N >= 1 and q_max >= 1")
    if not 0 < delta <= 0.5:
        raise ValueError("need 0 < delta <= 1/2")
    if not math.isfinite(c_exponent):
        raise ValueError("need finite c_exponent")
    k = len(thetas)
    if k < 1:
        raise ValueError("need at least one coordinate")
    ths = _long_doubles(thetas)
    blocks, terms = _orbit(n), np.empty(n, dtype=complex)
    for ns in blocks:
        args = sum(ns.astype(np.longdouble) ** j * th for j, th in enumerate(ths, start=1))
        terms[ns[0] - 1:ns[-1]] = np.exp(2j * math.pi * _phases(args).astype(float))
    s_val = terms.mean()

    try:
        thresholds = [delta ** (-c_exponent) * float(n) ** (-i) for i in range(1, k + 1)]
    except OverflowError:
        raise ValueError("thresholds overflow: c_exponent too large") from None
    q_found = None
    dists_found: tuple[float, ...] = ()
    for qs in _orbit(q_max, "q_max", k):
        dist = _phases(qs[:, None] * ths, nearest=True).astype(float)
        hits = np.flatnonzero(np.all(dist < thresholds, axis=1))
        if hits.size:
            q_found = int(qs[hits[0]])
            dists_found = tuple(float(d) for d in dist[hits[0]])
            break
    return WeylDenominatorReport(
        s_abs=float(abs(s_val)),
        q=q_found,
        distances=dists_found,
        thresholds=tuple(thresholds),
    )
