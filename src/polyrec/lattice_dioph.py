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
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .polyfam import IntPolynomial

__all__ = [
    "ProductLattice",
    "BlockVector",
    "GoodSet",
    "AverageBoundsReport",
    "SchmidtReport",
    "WeylDenominatorReport",
    "nearest_integer_norm",
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
_DUAL_COMBO_BUDGET = 200_000  # product dual points in the average's dual form
_MAX_CONDITION = 1e8
#: Largest |x| of a phase x (n^j * alpha_j, P(n) * theta or q * theta) that
#: is reduced modulo 1 in long double: the integer part then leaves 6 of the
#: type's decimal digits for the fraction (1e12 for an 80-bit long double,
#: 1e9 where long double is a plain double).
_PHASE_LIMIT = 10.0 ** (np.finfo(np.longdouble).precision - 6)
_DILATE_CHUNK = 1 << 16       # values of n (or q) per block of a phase scan


def _phases(x: np.ndarray, nearest: bool = False) -> np.ndarray:
    """The long-double phases x modulo 1: x - floor(x), or the distance
    |x - rint(x)| to the nearest integer with nearest=True.

    Refuses x holding NaN or an entry past _PHASE_LIMIT in size; the
    message prints that entry with every digit it needs, so a phase just
    past the limit reads as past it."""
    top = max(-x.min(initial=0.0), x.max(initial=0.0))
    if not top <= _PHASE_LIMIT:  # NaN fails the comparison
        raise ValueError(f"phase {top!s} too large for reliable phase "
                         f"reduction (limit {_PHASE_LIMIT:g})")
    # one scratch array: the dual side of an average reduces 2e6 phases at once
    frac = (np.rint if nearest else np.floor)(x, out=np.empty_like(x))
    np.subtract(x, frac, out=frac)
    return np.abs(frac, out=frac) if nearest else frac


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
            if abs(np.linalg.det(b)) < 1e-300:
                raise ValueError("block basis is singular")
            if np.linalg.cond(b) > _MAX_CONDITION:
                raise ValueError("block basis too ill-conditioned")
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def integers(cls, dims: Sequence[int]) -> "ProductLattice":
        """Z^{d_1} x ... x Z^{d_k}."""
        return cls(tuple(np.eye(int(d)) for d in dims))

    @classmethod
    def scaled_integers(cls, scale: float, dims: Sequence[int]) -> "ProductLattice":
        with np.errstate(invalid="ignore"):  # 0 * inf: __post_init__ refuses it
            return cls(tuple(float(scale) * np.eye(int(d)) for d in dims))

    @classmethod
    def from_spec(cls, spec: Sequence[dict]) -> "ProductLattice":
        """Build from [{'dim': d, 'basis': [[...], ...]}, ...] (row-major)."""
        blocks = []
        for i, entry in enumerate(spec):
            d = int(entry["dim"])
            if d < 0:
                raise ValueError(f"block {i}: dim must be >= 0")
            basis = np.array(entry.get("basis", np.eye(d)), dtype=float)
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
                out *= abs(np.linalg.det(b))
        return out

    def dual(self) -> "ProductLattice":
        """Blockwise inverse-transpose basis; dual of dual recovers this."""
        return ProductLattice(tuple(
            np.linalg.inv(b).T if b.shape[0] else b for b in self.blocks
        ))

    def scale(self, factor: float) -> "ProductLattice":
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        return ProductLattice(tuple(factor * b for b in self.blocks))


def _entry_is_rational(x) -> bool:
    return isinstance(x, Rational)


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

    @property
    def is_rational(self) -> bool:
        return all(_entry_is_rational(x) for e in self.entries for x in e)

    def block_arrays(self) -> list[np.ndarray]:
        return [np.asarray([float(x) for x in e], dtype=np.longdouble)
                for e in self.entries]


def nearest_integer_norm(x) -> float:
    """Distance to the nearest integer point (Euclidean for vectors)."""
    arr = np.asarray(x, dtype=np.longdouble)
    d = _phases(arr, nearest=True)
    if arr.ndim == 0:
        return float(d)
    return float(np.sqrt(np.sum(d * d)))


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


def _block_theta_direct(basis: np.ndarray, xs: np.ndarray, t: float,
                        tail: float) -> np.ndarray:
    """sum_m exp(-pi t |x - m|^2) for each row x of xs (one lattice block).

    Offsets are first reduced into the fundamental cell (in extended
    precision, through _phases), then a fixed point cloud around the cell
    covers every term above the tail.
    """
    num = xs.shape[0]
    d = basis.shape[0]
    if d == 0:
        return np.ones(num)
    inv = np.linalg.inv(basis)
    c_real = xs @ inv.astype(np.longdouble)
    xs_red = np.asarray(_phases(c_real) @ basis.astype(np.longdouble), dtype=float)
    with np.errstate(over="ignore"):  # an infinite cell makes an infinite box
        cell_diam = float(np.sum(np.linalg.norm(basis, axis=1)))
    radius = _tail_radius(t, _sigma_min(basis), d, tail)
    _, pts = _lattice_points_within(basis, radius + cell_diam)
    diff = xs_red[:, None, :] - pts[None, :, :]
    d2 = np.einsum("abj,abj->ab", diff, diff)
    return np.exp(-math.pi * t * d2).sum(axis=1)


def _theta_direct_many(lattice: ProductLattice, t: float, xs_flat: np.ndarray,
                       tail: float) -> np.ndarray:
    """Theta(t, x) for many x at once (rows of xs_flat), direct side."""
    out = np.ones(xs_flat.shape[0])
    pos = 0
    for basis in lattice.blocks:
        d = basis.shape[0]
        out *= _block_theta_direct(basis, xs_flat[:, pos:pos + d], t, tail)
        pos += d
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
    if side == "direct":
        return float(_theta_direct_many(lattice, t, xs, tol.theta_tail)[0])
    if side != "dual":
        raise ValueError(f"side must be 'direct' or 'dual', got {side!r}")
    value = 1.0 + 0.0j
    pos = 0
    for basis in lattice.blocks:
        d = basis.shape[0]
        pts, weights = _dual_points(basis, t, tol.theta_tail)
        phases = _phases(pts.astype(np.longdouble) @ xs[0, pos:pos + d]).astype(float)
        pos += d
        value *= (weights * np.exp(2j * math.pi * phases)).sum()
    return float(value.real) / (t ** (lattice.dimension / 2.0) * lattice.determinant)


def gaussian_mass(lattice: ProductLattice,
                  tol: Tolerances = DEFAULT_TOLERANCES) -> float:
    """det(Lambda) * sum_m exp(-pi |m|^2); equals the same sum over the dual.

    Both sides are computed and must agree to tol.poisson_rel; the
    direct-side value is returned.
    """
    zero = np.zeros((1, lattice.dimension), dtype=np.longdouble)
    direct = lattice.determinant * float(
        _theta_direct_many(lattice, 1.0, zero, tol.theta_tail)[0])
    dual_lat = lattice.dual()
    dual = float(_theta_direct_many(
        dual_lat, 1.0, np.zeros((1, dual_lat.dimension), dtype=np.longdouble),
        tol.theta_tail)[0])
    if abs(direct - dual) > tol.poisson_rel * max(abs(direct), abs(dual)):
        raise AssertionError(
            f"two-sided evaluations disagree: {direct!r} vs {dual!r}"
        )
    return direct


def _dilate_matrix(alpha: BlockVector, n_range: int) -> np.ndarray:
    """Flat coordinates of n*alpha = (n a_1, n^2 a_2, ..., n^k a_k), one row
    per n <= N, in long double."""
    ns = np.arange(1, n_range + 1, dtype=np.int64).astype(np.longdouble)[:, None]
    return np.concatenate([ns ** j * arr for j, arr in
                           enumerate(alpha.block_arrays(), start=1)], axis=1)


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
    if alpha.dims != lattice.dims:
        raise ValueError("alpha blocks do not match lattice blocks")
    xs = _dilate_matrix(alpha, n_range)
    direct = lattice.determinant * float(
        np.mean(_theta_direct_many(lattice, 1.0, xs, tol.theta_tail)))
    if not check_dual:
        return direct

    # Dual side: product dual vectors xi with Gaussian weight, then the
    # average over n of the resulting polynomial phases.
    block_pts = [_dual_points(basis, 1.0, tol.theta_tail) for basis in lattice.blocks]
    if math.prod(pts.shape[0] for pts, _ in block_pts) > _DUAL_COMBO_BUDGET:
        raise ValueError("dual-side combination budget exceeded")
    # gamma[c, j] = xi_j . alpha_j for combination c, in extended precision;
    # the first block varies slowest
    dots = [pts.astype(np.longdouble) @ arr
            for (pts, _), arr in zip(block_pts, alpha.block_arrays())]
    gammas = np.stack([g.ravel() for g in np.meshgrid(*dots, indexing="ij")], axis=1)
    weights = math.prod(np.meshgrid(*(w for _, w in block_pts), indexing="ij")).ravel()
    combos = gammas.shape[0]
    ns = np.arange(1, n_range + 1, dtype=np.int64)
    powers = np.stack([ns.astype(np.longdouble) ** j
                       for j in range(1, len(lattice.blocks) + 1)], axis=1)
    acc = np.zeros(combos)
    chunk = max(1, 2_000_000 // max(n_range, 1))
    for start in range(0, combos, chunk):
        g = gammas[start:start + chunk]
        args = _phases(powers @ g.T)   # (N, chunk) in extended precision
        mean_re = np.cos(2.0 * math.pi * args.astype(float)).mean(axis=0)
        acc[start:start + chunk] = mean_re
    dual = float(np.sum(weights * acc))
    scale = max(abs(direct), abs(dual), 1e-300)
    if abs(direct - dual) > tol.average_agreement_rel * scale + 1e-12:
        raise AssertionError(
            f"average disagrees between sides: direct {direct!r}, dual {dual!r}"
        )
    return direct


@dataclass(frozen=True)
class GoodSet:
    """Solutions n <= N of a system of nearest-integer inequalities."""

    n_range: int
    eps: float
    members: tuple[int, ...]
    exact: bool

    @property
    def density(self) -> Fraction:
        return Fraction(len(self.members), self.n_range)

    @property
    def empty(self) -> bool:
        return not self.members


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
    exact = all(_entry_is_rational(x) for _, block in conditions for x in block)
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
        rules = [(poly, np.asarray([float(x) for x in block], dtype=np.longdouble))
                 for poly, block in conditions]
    good = np.ones(n_range, dtype=bool)
    for start in range(1, n_range + 1, _DILATE_CHUNK):
        ns = np.arange(start, min(start + _DILATE_CHUNK, n_range + 1), dtype=np.int64)
        keep = good[start - 1:start - 1 + ns.size]
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
    members = (np.flatnonzero(good) + 1).tolist()
    return GoodSet(n_range, eps, tuple(members), exact=exact)


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
    """beta with |beta_j - alpha_j| = eps * N^-j, pushed along the first axis."""
    out = []
    for j, block in enumerate(alpha.entries, start=1):
        if not block:
            out.append(())
            continue
        delta = eps * float(n) ** (-j)
        vals = [float(x) for x in block]
        vals[0] += delta
        out.append(tuple(vals))
    return BlockVector(tuple(out))


def check_average_bounds(lattice: ProductLattice, alpha: BlockVector, n: int,
                         c: float, q: int,
                         perturbation_eps: Optional[float] = None,
                         beta: Optional[BlockVector] = None,
                         tol: Tolerances = DEFAULT_TOLERANCES) -> AverageBoundsReport:
    """Check the range-scaling and subsampling lower bounds for F, and
    report the perturbation ratio.

    (i)  F(N) >= (c/2) F(floor(cN)) for 1/10 < c < 1;
    (ii) F(N) >= (1/2q) F(floor(N/q)) for integers q <= N/2;
    (iii) the reported ratio min_n Theta(1, n*alpha) / Theta_scaled(1,
          n*(1+eps)beta) over the (1+eps)-dilated lattice, not asserted.
    """
    if n <= 20:
        raise ValueError("need N > 20")
    if not 0.1 < c < 1.0:
        raise ValueError("need 1/10 < c < 1")
    if q < 1 or q > n // 2:
        raise ValueError("need integer 1 <= q <= N/2")
    if alpha.dims != lattice.dims:
        raise ValueError("alpha blocks do not match lattice blocks")
    if perturbation_eps is None:
        perturbation_eps = min(1.0 / max(lattice.dimension, 1), 0.5)
    # Theta(1, n*alpha) for n <= N: F(N), F(floor(cN)) and F(floor(N/q)) are
    # det times means of its leading entries, and it is the ratio's numerator
    top = _theta_direct_many(lattice, 1.0, _dilate_matrix(alpha, n), tol.theta_tail)
    f_n, f_scaled, f_sub = (lattice.determinant * float(np.mean(top[:m]))
                            for m in (n, int(c * n), n // q))

    if beta is None:
        beta = _perturbed_vector(alpha, n, perturbation_eps)
    scaled_lattice = lattice.scale(1.0 + perturbation_eps)
    stretched = BlockVector(tuple(
        tuple((1.0 + perturbation_eps) * float(x) for x in block)
        for block in beta.entries
    ))
    xs_bot = _dilate_matrix(stretched, n)
    bot = _theta_direct_many(scaled_lattice, 1.0, xs_bot, tol.theta_tail)
    ratio = float(np.min(top / bot))

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
    quality * N^-j blockwise.
    """
    if q_max < 1 or not (math.isfinite(radius_max) and radius_max > 0) or not quality > 0:
        raise ValueError("need q_max >= 1, finite radius_max > 0, quality > 0")
    if alpha.dims != lattice.dims:
        raise ValueError("alpha blocks do not match lattice blocks")
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

    best = None
    for q in range(1, q_max + 1):
        worst = 0.0
        picks = []
        dists = []
        for j, cand, dots in block_data:
            dist = _phases(q * dots, nearest=True).astype(float)
            idx = int(np.argmin(dist))
            picks.append(tuple(float(v) for v in cand[idx]))
            dists.append(float(dist[idx]))
            worst = max(worst, float(n) ** j * dist[idx])
        if best is None or worst < best[0]:
            best = (worst, q, tuple(picks), tuple(dists))
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
                     c_exponent: float = 2.0,
                     thresholds: Optional[Sequence[float]] = None
                     ) -> WeylDenominatorReport:
    """|S_N| for S_N = (1/N) sum_n e(n th_1 + ... + n^k th_k), plus the
    smallest q <= q_max with |q th_i| below the threshold for every i.

    Thresholds default to delta^-C * N^-i, C = c_exponent, and must be
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
    ths = np.asarray([float(t) for t in thetas], dtype=np.longdouble)
    ns = np.arange(1, n + 1, dtype=np.int64).astype(np.longdouble)
    args = np.zeros(n, dtype=np.longdouble)
    for j in range(1, k + 1):
        args += ns ** j * ths[j - 1]
    s_val = np.exp(2j * math.pi * _phases(args).astype(float)).mean()

    if thresholds is None:
        try:
            thresholds = [delta ** (-c_exponent) * float(n) ** (-i)
                          for i in range(1, k + 1)]
        except OverflowError:
            raise ValueError("thresholds overflow: c_exponent too large") from None
    else:
        thresholds = [float(b) for b in thresholds]
        if len(thresholds) != k:
            raise ValueError("need one threshold per coordinate")
        if not all(map(math.isfinite, thresholds)):
            raise ValueError("thresholds must be finite")
    q_found = None
    dists_found: tuple[float, ...] = ()
    for start in range(1, q_max + 1, _DILATE_CHUNK):
        qs = np.arange(start, min(start + _DILATE_CHUNK, q_max + 1), dtype=np.longdouble)
        dist = _phases(qs[:, None] * ths, nearest=True).astype(float)
        hits = np.flatnonzero(np.all(dist < thresholds, axis=1))
        if hits.size:
            q_found = start + int(hits[0])
            dists_found = tuple(float(d) for d in dist[hits[0]])
            break
    return WeylDenominatorReport(
        s_abs=float(abs(s_val)),
        q=q_found,
        distances=dists_found,
        thresholds=tuple(thresholds),
    )
