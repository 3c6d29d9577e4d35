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

from .intset import _Fresh, _int64_array
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

#: Most points of a rotation or skew product, and most points that the
#: squares of T a search keeps hold together with T.  An `ergodic` query holds
#: the permutation, those kept squares and at most two working int64 arrays,
#: 8 bytes a point each, and three one-byte masks; a system at this budget
#: keeps no square: 468 MiB peak RSS.
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


def _rotated(m: int, a: int) -> np.ndarray:
    """x -> (x + a) mod m on 0..m-1, as a new int64 array."""
    shift = a % m
    image = np.arange(shift, shift + m, dtype=np.int64)
    image[m - shift:] -= m  # x + shift < 2m: one subtraction reduces it
    return image


@dataclass(frozen=True, eq=False)
class FiniteMPSystem:
    """A bijection of {0, ..., m-1} with uniform measure, held as a
    read-only int64 array.

    A permutation a caller passes is copied and checked.  rotation,
    skew_product and power_system build their array themselves and hand
    it over, so a system holds the one array it was built in.  `mapping`
    is the same permutation as a tuple of Python ints, built on first
    read.  Counts gather a subset's mask through the squares T, T^2, T^4,
    ... of the array (see _Squares); power_map and power_system compose
    those squares themselves.

    A system's arrays are the largest a query holds, so building one of
    at least _TRIM_POINTS points hands the C heap's free pages back
    (malloc_trim) once it holds its permutation.  Otherwise its powers
    land in whatever holes earlier work freed, which stay resident, and
    the same `ergodic` query peaked at 72 or 80 MB in one process by the
    seeds of the queries before it.
    """

    permutation: np.ndarray

    def __post_init__(self):
        if isinstance(self.permutation, _Fresh):
            perm = self.permutation.arr
        else:
            message = "mapping is not a permutation"
            perm = _int64_array(self.permutation, message)
            if not perm.size:
                raise ValueError("system must be nonempty")
            if perm.min() < 0 or perm.max() >= perm.size:
                raise ValueError(message)
            seen = np.zeros(perm.size, dtype=bool)
            seen[perm] = True
            if not seen.all():
                raise ValueError(message)
        if _malloc_trim is not None and perm.size >= _TRIM_POINTS:
            _malloc_trim(0)
        perm.setflags(write=False)
        object.__setattr__(self, "permutation", perm)

    @classmethod
    def rotation(cls, m: int, a: int = 1) -> "FiniteMPSystem":
        """x -> x + a on Z_m."""
        if m < 1:
            raise ValueError("need m >= 1")
        if m > SYSTEM_BUDGET:
            raise ValueError(f"system budget exceeded: need at most {SYSTEM_BUDGET} points")
        return cls(_Fresh(_rotated(m, a)))

    @classmethod
    def skew_product(cls, m: int, a: int = 1) -> "FiniteMPSystem":
        """(x, y) -> (x + a, y + x) on Z_m x Z_m, flattened as x*m + y."""
        if m < 1:
            raise ValueError("need m >= 1")
        if m * m > SYSTEM_BUDGET:
            raise ValueError(f"system budget exceeded: need at most {SYSTEM_BUDGET} points")
        # (x + y) mod m for x + y < 2m: row x is a window of 0..m-1 twice over
        xs = np.arange(m, dtype=np.int64)
        # copy first: the windows overlap, and a ufunc over them would
        # buffer a second m x m copy
        image = np.lib.stride_tricks.sliding_window_view(np.tile(xs, 2), m)[:m].copy()
        image += (_rotated(m, a) * m)[:, None]
        return cls(_Fresh(image.reshape(-1)))

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
        """T^shift as a new int64 array (see power_map).

        The first square that a set bit of |shift| names is copied out, and
        each later one is gathered into it.  Works in three arrays of the
        system's size whatever the shift, so its memory does not depend on
        how many bits the shift has.
        """
        step, spare = np.empty(self.size, dtype=np.int64), np.empty(self.size, dtype=np.int64)
        if shift < 0:
            step[self.permutation] = np.arange(self.size, dtype=np.int64)
            shift = -shift
        else:
            np.copyto(step, self.permutation)
        out = None
        while shift:
            # step is T^(2^i) (or its inverse) while bit i of |shift| is read;
            # mode="clip" writes straight into the output (indices are in range)
            if shift & 1:
                if out is None:
                    out = step.copy()
                else:
                    np.take(step, out, out=spare, mode="clip")
                    out, spare = spare, out
            shift >>= 1
            if shift:
                np.take(step, step, out=spare, mode="clip")
                step, spare = spare, step
        return np.arange(self.size, dtype=np.int64) if out is None else out

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
        return FiniteMPSystem(_Fresh(self._power(c)))

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


class _Squares:
    """The squares T, T^2, T^4, ... of a system's map, in that order, for
    _gathered.

    T is the permutation itself, read-only and uncopied.  Squares are built
    when an iteration first reaches them, each by one gather of the square
    before it.  They are kept for later iterations while the kept ones
    (beyond T) hold at most `room` points in all; each square past that is
    taken into whichever of two working arrays its root does not hold, and
    the working arrays go when the iteration does.  So room 0 keeps
    nothing, and reaching T^(2^i) costs min(i, 2) arrays of the system's
    size.

    A new array is made by indexing (`step[step]`), never by np.take, which
    would copy the read-only permutation as its index array: one array more.
    """

    def __init__(self, permutation: np.ndarray, room: int = 0):
        self.kept = [permutation]
        self.room = room

    def __iter__(self):
        kept = self.kept
        yield from kept
        step, work = kept[-1], []
        while True:
            if self.room >= step.size:
                square = step[step]
                kept.append(square)
                self.room -= step.size
            elif len(work) < 2:
                square = step[step]
                work.append(square)
            else:  # work[1] holds the root; work[0] is free
                square = work[0]
                np.take(step, step, out=square, mode="clip")  # indices are in range
                work.reverse()
            yield square
            step = square


def _gathered(mask: np.ndarray, squares: _Squares, shift: int) -> np.ndarray:
    """The mask composed with T^|shift|: x is set iff T^|shift|(x) is in the
    mask.  One gather of the one-byte mask through T^(2^i) for each set bit
    i of |shift| (powers of T commute, so their order does not matter); no
    power of T is composed.  T is a bijection, so mask & gathered counts as
    many points at shift and at -shift.
    """
    shift, out = abs(shift), mask
    steps = iter(squares)
    while shift:
        step = next(steps)
        if shift & 1:
            out = out[step]
        shift >>= 1
    return out


def recurrence_measure(system: FiniteMPSystem, subset, shift: int) -> Fraction:
    """mu(A intersect T^-shift A), exactly.

    subset is a point mask or an iterable of points (see
    FiniteMPSystem.validate_subset).  A point x lies in the intersection
    iff x and T^shift(x) both lie in A, so the count is of the mask and
    the mask gathered through T^|shift| (see _gathered).  The squares it
    gathers through are kept by nothing: a shift of |shift| <= 1 takes no
    int64 array beyond the permutation, |shift| <= 3 one, and any other
    two.  The measure is symmetric under shift -> -shift and periodic with
    period order(T).
    """
    mask = system.validate_subset(subset)
    hits = np.count_nonzero(mask & _gathered(mask, _Squares(system.permutation), shift))
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
    reaches it, ceil(threshold * size); and hits(shift), the count of
    recurrence_measure, made once per |shift|.  The squares of T that the
    counts gather through are kept for the whole search, so each is built
    once, while they and T hold at most SYSTEM_BUDGET points: a search at
    that budget keeps none, and holds no more than a measure."""
    mu_a = Fraction(int(np.count_nonzero(mask)), system.size)
    threshold = mu_a * mu_a - Fraction(eps)
    squares = _Squares(system.permutation, SYSTEM_BUDGET - system.size)

    @cache
    def count(size: int) -> int:
        return int(np.count_nonzero(mask & _gathered(mask, squares, size)))

    return threshold, math.ceil(threshold * system.size), lambda shift: count(abs(shift))


def _pair_needs(eps: float) -> int:
    """The fewest times, max(2, ceil(1/eps)), among which a pair is guaranteed."""
    return max(2, math.ceil(1 / Fraction(eps)))


def _first_pair(times: list[int], c: int, least: int, hits, eps: float):
    """The first pair (j, k), j < k, 0-based in row-major order, whose
    difference d = v_k - v_j has hits(c * d) >= least, or None, and the
    number of pairs scanned.  hits is read only for the pairs scanned.
    Exhausting a list of at least _pair_needs(eps) times raises
    AssertionError: the averaging argument guarantees a pair there."""
    scanned = 0
    for j in range(len(times)):
        for k in range(j + 1, len(times)):
            scanned += 1
            if hits(c * (times[k] - times[j])) >= least:
                return (j, k), scanned
    if len(times) >= _pair_needs(eps):
        raise AssertionError("guaranteed pair not found; search is buggy")
    return None, scanned


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
    needed = _pair_needs(eps)
    if len(times) < needed and not permissive:
        raise ValueError(
            f"need at least {needed} times for the guarantee "
            f"(got {len(times)}); pass permissive=True to search anyway"
        )
    mask = system.validate_subset(subset)
    threshold, least, hits = _level(system, mask, eps)
    pair, scanned = _first_pair(times, 1, least, hits, eps)
    if pair is None:
        return KhintchineResult(found=False, pair=None, n=None, measure=None,
                                threshold=threshold, strict=None, pairs_scanned=scanned)
    j, k = pair
    d = times[k] - times[j]
    measure = Fraction(hits(d), system.size)
    return KhintchineResult(found=True, pair=(j + 1, k + 1), n=d, measure=measure,
                            threshold=threshold, strict=measure > threshold,
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
    remaining constants; the base case is Khintchine's pair scan for T^c.
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
    levels: list[LevelInfo] = []
    active, verts, n = _pad_to_power_of_two(constants), times, None
    while len(verts) >= 2:
        if len(active) == 1:
            pair, _ = _first_pair(verts, active[0], least, hits, eps)
            if pair is not None:
                n = verts[pair[1]] - verts[pair[0]]
            break
        half = active[:len(active) // 2]
        red = _red_matrix(verts, half, least, hits)
        num = len(verts)
        clique_idx = _greedy_red_clique(red)
        levels.append(LevelInfo(
            constants=half, num_vertices=num,
            red_edges=int(np.count_nonzero(red)) // 2,
            total_edges=num * (num - 1) // 2, clique_size=len(clique_idx),
        ))
        active, verts = active[len(half):], [verts[i] for i in clique_idx]
    if n is None:
        return GriesmerResult(
            found=False, n=None, measures=(), threshold=threshold, levels=tuple(levels),
            failure_reason="clique exhausted; time list too short",
        )
    measures = tuple(recurrence_measure(system, mask, c * n) for c in constants)
    if any(mu < threshold for mu in measures):
        raise ExactnessError(
            f"re-verification failed for n={n}: search returned a bad shift"
        )
    return GriesmerResult(
        found=True, n=n, measures=measures, threshold=threshold, levels=tuple(levels),
    )
