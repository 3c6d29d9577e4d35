"""Finite measure-preserving systems and constructive recurrence searches.

A FiniteMPSystem is a permutation T of {0, ..., m-1} carrying uniform
measure.  recurrence_measure computes mu(A intersect T^-n A) exactly.
khintchine_search finds a pair of prescribed times whose difference
nearly achieves the optimal intersection level mu(A)^2, by the
Cauchy-Schwarz averaging argument; success is guaranteed once the time
list is longer than 1/eps.  griesmer_search extends this to several
shift constants at once through a Ramsey edge-coloring recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .intset import _int64_array
from .zn_fourier import ExactnessError

__all__ = [
    "FiniteMPSystem",
    "KhintchineResult",
    "LevelInfo",
    "GriesmerResult",
    "recurrence_measure",
    "khintchine_search",
    "griesmer_search",
]


@dataclass(frozen=True, eq=False)
class FiniteMPSystem:
    """A bijection of {0, ..., m-1} with uniform measure, held as a
    read-only int64 array.

    `mapping` is the same permutation as a tuple of Python ints, built on
    first read.  Powers of T come from repeated squaring of the array;
    nothing about them is cached.
    """

    permutation: np.ndarray

    def __post_init__(self):
        message = "mapping is not a permutation"
        perm = _int64_array(self.permutation, message)
        n = perm.size
        if not n:
            raise ValueError("system must be nonempty")
        if perm.min() < 0 or perm.max() >= n:
            raise ValueError(message)
        seen = np.zeros(n, dtype=bool)
        seen[perm] = True
        if not seen.all():
            raise ValueError(message)
        perm.setflags(write=False)
        object.__setattr__(self, "permutation", perm)

    @classmethod
    def rotation(cls, m: int, a: int = 1) -> "FiniteMPSystem":
        """x -> x + a on Z_m."""
        if m < 1:
            raise ValueError("need m >= 1")
        return cls((np.arange(m, dtype=np.int64) + a % m) % m)

    @classmethod
    def skew_product(cls, m: int, a: int = 1) -> "FiniteMPSystem":
        """(x, y) -> (x + a, y + x) on Z_m x Z_m, flattened as x*m + y."""
        if m < 1:
            raise ValueError("need m >= 1")
        xs = np.arange(m, dtype=np.int64)
        image = ((xs + a % m) % m * m)[:, None] + (xs[:, None] + xs) % m
        return cls(image.ravel())

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "FiniteMPSystem":
        return cls(perm)

    @property
    def size(self) -> int:
        return int(self.permutation.size)

    @cached_property
    def mapping(self) -> tuple[int, ...]:
        return tuple(self.permutation.tolist())

    def cycles(self) -> list[list[int]]:
        """The cycles, ordered by their smallest point, each starting there."""
        perm = self.mapping
        seen = bytearray(len(perm))
        out = []
        for start in range(len(perm)):
            if seen[start]:
                continue
            cycle = []
            x = start
            while not seen[x]:
                seen[x] = 1
                cycle.append(x)
                x = perm[x]
            out.append(cycle)
        return out

    def order(self) -> int:
        """Least t >= 1 with T^t = identity (lcm of cycle lengths)."""
        return math.lcm(*{len(cycle) for cycle in self.cycles()})

    def _power(self, shift: int) -> np.ndarray:
        """T^shift as an int64 array (see power_map).

        Works in three arrays of the system's size whatever the shift, so
        its memory does not depend on how many bits the shift has.
        """
        out = np.arange(self.size, dtype=np.int64)
        step, spare = np.empty_like(out), np.empty_like(out)
        if shift < 0:
            step[self.permutation] = out
            shift = -shift
        else:
            np.copyto(step, self.permutation)
        while shift:
            # step is T^(2^i) (or its inverse) while bit i of |shift| is read;
            # mode="clip" writes straight into spare (indices are in range)
            if shift & 1:
                np.take(step, out, out=spare, mode="clip")
                out, spare = spare, out
            shift >>= 1
            if shift:
                np.take(step, step, out=spare, mode="clip")
                step, spare = spare, step
        return out

    def power_map(self, shift: int) -> tuple[int, ...]:
        """T^shift as a permutation tuple; shift may be negative or huge.

        Binary exponentiation: T^shift composes the squares T, T^2, T^4,
        ... named by the bits of |shift| (of the inverse of T when shift is
        negative), each by one array gather, so the cost is O(log |shift|)
        gathers and the shift stays an exact Python int.
        """
        return tuple(self._power(shift).tolist())

    def power_system(self, c: int) -> "FiniteMPSystem":
        """The system with map T^c on the same space."""
        return FiniteMPSystem(self._power(c))

    def validate_subset(self, subset) -> np.ndarray:
        """The subset as a boolean mask over the points.

        subset is either such a mask (a boolean array with one entry per
        point, returned as it is) or an iterable of points; a point
        outside [0, size) or a mask of another length is a ValueError.
        """
        if isinstance(subset, np.ndarray) and subset.dtype == bool:
            if subset.shape != (self.size,):
                raise ValueError(f"subset mask needs {self.size} entries, "
                                 f"got shape {subset.shape}")
            return subset
        message = "subset contains points outside the space"
        pts = _int64_array(subset, message)
        if pts.size and (pts.min() < 0 or pts.max() >= self.size):
            raise ValueError(message)
        mask = np.zeros(self.size, dtype=bool)
        mask[pts] = True
        return mask

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.permutation, other.permutation)

    def __hash__(self):
        return hash(self.permutation.tobytes())


def recurrence_measure(system: FiniteMPSystem, subset, shift: int) -> Fraction:
    """mu(A intersect T^-shift A), exactly.

    subset is a point mask or an iterable of points (see
    FiniteMPSystem.validate_subset).  A point x lies in the intersection
    iff x and T^shift(x) both lie in A, so the count is one gather of the
    mask through T^shift; the measure is symmetric under shift -> -shift
    and periodic with period order(T).
    """
    mask = system.validate_subset(subset)
    hits = np.count_nonzero(mask & mask[system._power(shift)])
    return Fraction(int(hits), system.size)


@dataclass(frozen=True)
class KhintchineResult:
    found: bool
    pair: Optional[tuple[int, int]]   # 1-based indices (j, k), j < k
    n: Optional[int]                  # v_k - v_j
    measure: Optional[Fraction]
    threshold: Fraction
    strict: Optional[bool]            # whether measure > threshold strictly
    pairs_scanned: int


def khintchine_search(system: FiniteMPSystem, subset, eps: float,
                      times: Sequence[int],
                      permissive: bool = False) -> KhintchineResult:
    """First pair of times whose difference nearly attains mu(A)^2.

    Scans pairs (j, k) with j < k in lexicographic order and returns the
    first with mu(A intersect T^-(v_k - v_j) A) >= mu(A)^2 - eps; all
    comparisons are exact rational arithmetic.  When the time list has
    at least ceil(1/eps) entries, a success is guaranteed to exist (the
    averaging argument: if every pair failed, the second moment of
    sum_j 1_{T^-v_j A} would fall below its Cauchy-Schwarz floor), and
    exhausting the scan raises AssertionError.  Shorter lists are
    rejected unless permissive=True, in which case exhaustion is a
    reported failure.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("need finite eps > 0")
    times = [int(v) for v in times]
    if len(set(times)) != len(times):
        raise ValueError("times must be distinct")
    needed = max(2, math.ceil(1.0 / eps))
    guaranteed = len(times) >= needed
    if not guaranteed and not permissive:
        raise ValueError(
            f"need at least {needed} times for the guarantee "
            f"(got {len(times)}); pass permissive=True to search anyway"
        )
    mask = system.validate_subset(subset)
    mu_a = Fraction(int(np.count_nonzero(mask)), system.size)
    threshold = mu_a * mu_a - Fraction(eps)
    scanned = 0
    cache: dict[int, Fraction] = {}
    for j in range(len(times)):
        for k in range(j + 1, len(times)):
            scanned += 1
            d = times[k] - times[j]
            if d not in cache:
                cache[d] = recurrence_measure(system, mask, d)
            if cache[d] >= threshold:
                return KhintchineResult(
                    found=True, pair=(j + 1, k + 1), n=d,
                    measure=cache[d], threshold=threshold,
                    strict=cache[d] > threshold, pairs_scanned=scanned,
                )
    if guaranteed:
        raise AssertionError("guaranteed pair not found; search is buggy")
    return KhintchineResult(found=False, pair=None, n=None, measure=None,
                            threshold=threshold, strict=None,
                            pairs_scanned=scanned)


@dataclass(frozen=True)
class LevelInfo:
    """One edge-coloring round of the recursion."""

    constants: tuple[int, ...]   # the half used for coloring at this level
    num_vertices: int
    red_edges: int
    total_edges: int
    clique_size: int


@dataclass(frozen=True)
class GriesmerResult:
    found: bool
    n: Optional[int]
    measures: tuple[Fraction, ...]    # one per original constant, at n
    threshold: Fraction
    constants: tuple[int, ...]
    padded_constants: tuple[int, ...]
    levels: tuple[LevelInfo, ...]
    failure_reason: Optional[str] = None


def _pad_to_power_of_two(constants: Sequence[int]) -> tuple[int, ...]:
    out = list(constants)
    while len(out) & (len(out) - 1):
        out.append(out[-1])
    return tuple(out)


def _greedy_red_clique(num: int, red) -> list[int]:
    """Indices of a red clique via majority-neighborhood peeling.

    Repeatedly take the lowest remaining vertex; keep whichever of its
    red/blue neighborhoods is larger, and admit the vertex to the clique
    only when the red side won.  Every admitted vertex is red-adjacent
    to all later survivors, so admitted vertices form a red clique.
    """
    verts = list(range(num))
    clique = []
    while verts:
        v = verts[0]
        rest = verts[1:]
        red_nbrs = [u for u in rest if red(v, u)]
        blue_nbrs = [u for u in rest if not red(v, u)]
        if len(red_nbrs) >= len(blue_nbrs):
            clique.append(v)
            verts = red_nbrs
        else:
            verts = blue_nbrs
    return clique


def griesmer_search(system: FiniteMPSystem, subset, eps: float,
                    constants: Sequence[int],
                    times: Sequence[int]) -> GriesmerResult:
    """Search for n in (B - B) \\ {0} with mu(A intersect T^-(c_i n) A)
    >= mu(A)^2 - eps for every constant c_i simultaneously.

    The constant list is padded to a power of two (duplicating the last
    entry, which adds no new condition).  Each recursion level colors
    the complete graph on the current times red where the first half of
    the constants all satisfy the inequality for that difference, peels
    off a red clique greedily, and recurses on the clique with the
    remaining constants; the base case is khintchine_search on T^c.
    Any returned n is re-verified against all original constants from
    scratch, and a verification failure raises ExactnessError.  At desk
    scale the time list can be too short for the tower-size hypothesis
    the guarantee needs, so running out of vertices is a reported
    failure, not an error.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("need finite eps > 0")
    constants = tuple(int(c) for c in constants)
    if not constants or any(c == 0 for c in constants):
        raise ValueError("constants must be nonzero")
    times = [int(v) for v in times]
    if len(set(times)) != len(times):
        raise ValueError("times must be distinct")
    mask = system.validate_subset(subset)
    mu_a = Fraction(int(np.count_nonzero(mask)), system.size)
    threshold = mu_a * mu_a - Fraction(eps)
    padded = _pad_to_power_of_two(constants)
    levels: list[LevelInfo] = []
    cache: dict[int, Fraction] = {}

    def shifted_measure(shift: int) -> Fraction:
        if shift not in cache:
            cache[shift] = recurrence_measure(system, mask, shift)
        return cache[shift]

    def recurse(active: tuple[int, ...], verts: list[int]) -> Optional[int]:
        if len(verts) < 2:
            return None
        if len(active) == 1:
            c = active[0]
            result = khintchine_search(system.power_system(c), mask, eps,
                                       verts, permissive=True)
            return result.n if result.found else None
        half = active[:len(active) // 2]
        rest = active[len(active) // 2:]

        def red(i: int, j: int) -> bool:
            d = abs(verts[j] - verts[i])
            return all(shifted_measure(c * d) >= threshold for c in half)

        num = len(verts)
        red_count = sum(red(i, j) for i in range(num) for j in range(i + 1, num))
        clique_idx = _greedy_red_clique(num, red)
        levels.append(LevelInfo(
            constants=half, num_vertices=num, red_edges=red_count,
            total_edges=num * (num - 1) // 2, clique_size=len(clique_idx),
        ))
        return recurse(rest, [verts[i] for i in clique_idx])

    n = recurse(padded, times)
    if n is None:
        return GriesmerResult(
            found=False, n=None, measures=(), threshold=threshold,
            constants=constants, padded_constants=padded,
            levels=tuple(levels),
            failure_reason="clique exhausted; time list too short",
        )
    measures = tuple(recurrence_measure(system, mask, c * n) for c in constants)
    if any(mu < threshold for mu in measures):
        raise ExactnessError(
            f"re-verification failed for n={n}: search returned a bad shift"
        )
    return GriesmerResult(
        found=True, n=n, measures=measures, threshold=threshold,
        constants=constants, padded_constants=padded, levels=tuple(levels),
    )
