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

import ctypes
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from typing import Iterable, Optional, Sequence

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

#: Most points of a rotation or skew product.  An `ergodic` query takes about
#: 38 bytes a point (the permutation, three arrays of a power, the masks):
#: 565-582 MB peak RSS at this budget.
SYSTEM_BUDGET = 2 ** 24
#: Most times of a search: a Griesmer red matrix holds one byte per pair of
#: times, and a Khintchine scan may read every pair.
TIMES_BUDGET = 4096

#: Least points of a system that trims the C heap when built: 128 KiB of
#: int64, glibc's default mmap threshold.  Smaller arrays move the peak by
#: little, and each trim makes later work fault its heap pages back in.
_TRIM_POINTS = 2 ** 14

try:  # glibc: hands the C heap's free pages back to the system
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # another C library
    _malloc_trim = None


@dataclass(frozen=True, eq=False)
class FiniteMPSystem:
    """A bijection of {0, ..., m-1} with uniform measure, held as a
    read-only int64 array.

    `mapping` is the same permutation as a tuple of Python ints, built on
    first read.  Powers of T come from repeated squaring of the array;
    nothing about them is cached.

    A system's arrays are the largest a query holds, so building one of
    at least _TRIM_POINTS points hands the C heap's free pages back
    (malloc_trim) once it holds its permutation.  Otherwise its powers
    land in whatever holes earlier work freed, which stay resident, and
    the same `ergodic` query peaked at 72 or 80 MB in one process by the
    seeds of the queries before it.
    """

    permutation: np.ndarray

    def __post_init__(self):
        message = "mapping is not a permutation"
        perm = _int64_array(self.permutation, message)
        if _malloc_trim is not None and perm.size >= _TRIM_POINTS:
            _malloc_trim(0)
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
        if m > SYSTEM_BUDGET:
            raise ValueError(f"system budget exceeded: need at most {SYSTEM_BUDGET} points")
        return cls((np.arange(m, dtype=np.int64) + a % m) % m)

    @classmethod
    def skew_product(cls, m: int, a: int = 1) -> "FiniteMPSystem":
        """(x, y) -> (x + a, y + x) on Z_m x Z_m, flattened as x*m + y."""
        if m < 1:
            raise ValueError("need m >= 1")
        if m * m > SYSTEM_BUDGET:
            raise ValueError(f"system budget exceeded: need at most {SYSTEM_BUDGET} points")
        xs = np.arange(m, dtype=np.int64)
        image = np.add(xs[:, None], xs)  # in place: no freed temporaries
        np.remainder(image, m, out=image)
        image += ((xs + a % m) % m * m)[:, None]
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


def _times(times: Iterable[int], eps: float) -> list[int]:
    """The times of a search as distinct ints, once eps is finite and positive;
    a list or range past TIMES_BUDGET is refused after one time past it."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("need finite eps > 0")
    times = [int(v) for v in itertools.islice(times, TIMES_BUDGET + 1)]
    if len(times) > TIMES_BUDGET:
        raise ValueError(f"time list budget exceeded: need at most {TIMES_BUDGET} times")
    if len(set(times)) != len(times):
        raise ValueError("times must be distinct")
    return times


def _level(system: FiniteMPSystem, mask: np.ndarray, eps: float):
    """The exact threshold mu(A)^2 - eps; the least hit count whose measure
    reaches it, ceil(threshold * size); and hits(shift), the count of one
    gather (see recurrence_measure), made once per shift."""
    mu_a = Fraction(int(np.count_nonzero(mask)), system.size)
    threshold = mu_a * mu_a - Fraction(eps)

    @cache
    def hits(shift: int) -> int:
        return int(np.count_nonzero(mask & mask[system._power(shift)]))

    return threshold, math.ceil(threshold * system.size), hits


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
                      times: Iterable[int],
                      permissive: bool = False) -> KhintchineResult:
    """First pair of times whose difference nearly attains mu(A)^2.

    Scans pairs (j, k) with j < k in lexicographic order and returns the
    first with mu(A intersect T^-(v_k - v_j) A) >= mu(A)^2 - eps; all
    comparisons are exact, of integer hit counts.  When the time list has
    at least ceil(1/eps) entries, a success is guaranteed to exist (the
    averaging argument: if every pair failed, the second moment of
    sum_j 1_{T^-v_j A} would fall below its Cauchy-Schwarz floor), and
    exhausting the scan raises AssertionError.  Shorter lists are
    rejected unless permissive=True, in which case exhaustion is a
    reported failure; lists past TIMES_BUDGET are refused.
    """
    times = _times(times, eps)
    needed = max(2, math.ceil(1 / Fraction(eps)))
    guaranteed = len(times) >= needed
    if not guaranteed and not permissive:
        raise ValueError(
            f"need at least {needed} times for the guarantee "
            f"(got {len(times)}); pass permissive=True to search anyway"
        )
    mask = system.validate_subset(subset)
    threshold, least, hits = _level(system, mask, eps)
    scanned = 0
    for j in range(len(times)):
        for k in range(j + 1, len(times)):
            scanned += 1
            d = times[k] - times[j]
            if hits(d) >= least:
                measure = Fraction(hits(d), system.size)
                return KhintchineResult(
                    found=True, pair=(j + 1, k + 1), n=d,
                    measure=measure, threshold=threshold,
                    strict=measure > threshold, pairs_scanned=scanned,
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


def _red_matrix(times: list[int], half: tuple[int, ...], least: int,
                hits) -> np.ndarray:
    """red[i, j]: times i != j whose difference d has hits(c * d) >= least
    for each c in half, filled a block of rows at a time (hits is read once
    per distinct difference of a block); differences are taken from the
    least time, in int64 when they fit."""
    low = min(times)
    v = np.array([t - low for t in times],
                 dtype=np.int64 if max(times) - low < 2 ** 63 else object)
    red = np.empty((v.size, v.size), dtype=bool)
    step = (1 << 18) // v.size + 1  # rows whose differences are held at once
    for lo in range(0, v.size, step):
        diffs = np.abs(v[lo:lo + step, None] - v)
        distinct, inverse = np.unique(diffs, return_inverse=True)
        red_of = np.array([d != 0 and all(hits(c * d) >= least for c in half)
                           for d in distinct.tolist()], dtype=bool)
        red[lo:lo + step] = red_of[inverse].reshape(diffs.shape)
    return red


def _greedy_red_clique(red: np.ndarray) -> list[int]:
    """Indices of a red clique via majority-neighborhood peeling.

    Repeatedly take the lowest remaining vertex; keep whichever of its
    red/blue neighborhoods is larger, and admit the vertex to the clique
    only when the red side won.  Every admitted vertex is red-adjacent
    to all later survivors, so admitted vertices form a red clique.
    """
    verts = np.arange(len(red))
    clique = []
    while verts.size:
        v, rest = verts[0], verts[1:]
        nbrs = red[v, rest]
        if 2 * np.count_nonzero(nbrs) >= rest.size:
            clique.append(int(v))
            verts = rest[nbrs]
        else:
            verts = rest[~nbrs]
    return clique


def griesmer_search(system: FiniteMPSystem, subset, eps: float,
                    constants: Sequence[int],
                    times: Iterable[int]) -> GriesmerResult:
    """Search for n in (B - B) \\ {0} with mu(A intersect T^-(c_i n) A)
    >= mu(A)^2 - eps for every constant c_i simultaneously.

    The constant list is padded to a power of two (duplicating the last
    entry, which adds no new condition).  Each recursion level colors
    the complete graph on the current times red where the first half of
    the constants all satisfy the inequality for that difference, peels
    off a red clique greedily, and recurses on the clique with the
    remaining constants; the base case is the first red pair for T^c.
    Any returned n is re-verified against all original constants from
    scratch, and a verification failure raises ExactnessError.  At desk
    scale the time list can be too short for the tower-size hypothesis
    the guarantee needs, so running out of vertices is a reported
    failure, not an error.
    """
    times = _times(times, eps)
    constants = tuple(int(c) for c in constants)
    if not constants or any(c == 0 for c in constants):
        raise ValueError("constants must be nonzero")
    mask = system.validate_subset(subset)
    threshold, least, hits = _level(system, mask, eps)
    padded = _pad_to_power_of_two(constants)
    levels: list[LevelInfo] = []
    active, verts, n = padded, times, None
    while len(verts) >= 2:
        half = active[:max(1, len(active) // 2)]
        red = _red_matrix(verts, half, least, hits)
        num = len(verts)
        if len(active) == 1:
            upper = np.triu(red, 1).ravel()
            first = int(np.argmax(upper))
            if upper[first]:
                j, k = divmod(first, num)
                n = verts[k] - verts[j]
            elif num >= math.ceil(1 / Fraction(eps)):
                raise AssertionError("guaranteed pair not found; search is buggy")
            break
        clique_idx = _greedy_red_clique(red)
        levels.append(LevelInfo(
            constants=half, num_vertices=num,
            red_edges=int(np.count_nonzero(red)) // 2,
            total_edges=num * (num - 1) // 2, clique_size=len(clique_idx),
        ))
        active, verts = active[len(half):], [verts[i] for i in clique_idx]
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
