"""Recurrence along polynomial shifts: profiles, searches, decompositions.

A dense set A in [1, N] should return to itself under many polynomial
shifts: |A ∩ (A + P_i(n))| stays close to the random-set heuristic
density^2 * N for most n in an admissible range.  This module measures
that exactly, searches for simultaneous good shifts, and carries the
supporting spectral tooling: the level-set decomposition f = f1 + f2 + f3
driven by a shrinking schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .intset import IntegerSet, _Fresh
from .polyfam import PolynomialFamily, ShiftRange, shift_range
from .zn_fourier import (CYCLIC, INTEGER, ZnFunction, _intersection_counts, _inverse_in_place,
                         dft, lp_norm)

__all__ = [
    "INTEGER",
    "CYCLIC",
    "ShiftReport",
    "DecompositionResult",
    "intersection_profile",
    "find_good_shifts",
    "default_schedule",
    "decompose",
]

def _count_table(a: IntegerSet, family: PolynomialFamily, m: int, mode: str) -> np.ndarray:
    """The l x M int64 table of |A ∩ (A + P_i(n))|, n = 1..M."""
    if m < 1:
        raise ValueError("need M >= 1")
    ns = np.arange(1, m + 1, dtype=np.int64)
    shifts = np.concatenate([poly.values(ns) for poly in family])
    return _intersection_counts(a, shifts, mode).reshape(family.size, m)


def intersection_profile(a: IntegerSet, family: PolynomialFamily, m: int
                         ) -> tuple[tuple[Fraction, ...], ...]:
    """The l x M table of |A ∩ (A + P_i(n))| / N as exact rationals.

    Counts inside [1, N] with no wrap-around, for any M.  Cyclic counts,
    over the range shift_range admits, are find_good_shifts(...,
    mode=CYCLIC).counts.
    """
    counts = _count_table(a, family, m, INTEGER).tolist()
    return tuple(tuple(Fraction(cnt, a.n) for cnt in row) for row in counts)


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of the simultaneous good-shift search."""

    shift_range: ShiftRange
    counts: np.ndarray            # |A ∩ (A + P_i(n))|, read-only l x M int64
    good_shifts: IntegerSet       # the good n, inside [1, M]
    threshold: Fraction           # density^2 - eps, exact
    within_hypotheses: bool


def find_good_shifts(a: IntegerSet, family: PolynomialFamily, eps: float,
                     c: float = 1.0, mode: str = INTEGER,
                     permissive: bool = False) -> ShiftReport:
    """All n in [1, M] with |A ∩ (A + P_i(n))|/N > density^2 - eps for every i.

    M comes from shift_range(family, N, eps, c), which keeps every
    |P_i(n)| within eps*N, so cyclic counts wrap around only that far.
    The comparison is exact: count/N > threshold exactly when
    count > floor(threshold * N), one integer limit for the whole table.
    Families with unequal degrees sit outside the guarantee and are
    rejected unless permissive, in which case the report is labeled
    accordingly.
    """
    equal = family.equal_degrees
    if not equal and not permissive:
        raise ValueError(
            "family has mixed degrees, outside the guarantee; "
            "pass permissive=True to search anyway"
        )
    sr = shift_range(family, a.n, eps, c)
    counts = _count_table(a, family, sr.m, mode)
    threshold = a.density ** 2 - Fraction(eps)
    good = (counts > math.floor(threshold * a.n)).all(axis=0)
    counts.setflags(write=False)
    return ShiftReport(shift_range=sr, counts=counts,
                       good_shifts=IntegerSet(sr.m, _Fresh(good)),
                       threshold=threshold, within_hypotheses=equal)


def default_schedule(eps: float) -> Callable[[int], float]:
    """The experimental shrinking schedule eta(t) = eps / (4 pi (t + 1))."""
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("need finite eps > 0")
    return lambda t: eps / (4.0 * math.pi * (t + 1))


@dataclass(frozen=True)
class DecompositionResult:
    """f = f1 + f2 + f3 split along the ranked spectrum.

    f1 holds the m largest coefficients (ties to the smaller frequency),
    f3 the next block up to the schedule's new mark, f2 everything after;
    sup |transform of f2| <= eta(m) and the L2 mass of f3 is below the
    requested eps.  An empty part is the zero function.  support is a
    read-only int64 array of f1's frequencies in rank order;
    reconstruction_error is max |f - (f1 + f2 + f3)|.
    """

    m: int
    rounds: int
    support: np.ndarray
    f1: ZnFunction
    f2: ZnFunction
    f3: ZnFunction
    eta_of_m: float
    reconstruction_error: float


def _descending(values: np.ndarray) -> np.ndarray:
    """np.argsort(-values, kind="stable"), from an unstable sort.

    The unstable sort leaves each run of equal values in any order; one
    int64 sort of the keys run * N + index puts every run back in
    ascending index order and leaves the runs where they are.
    """
    n = values.size
    neg = -values
    order = np.argsort(neg)
    ranked = neg[order]
    del neg
    keys = np.zeros(n, dtype=np.int64)
    np.cumsum(ranked[1:] != ranked[:-1], out=keys[1:])  # run of each rank
    del ranked
    keys *= n
    keys += order
    keys.sort()
    keys %= n
    return keys


def _head_order(mags: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest mags, largest first, ties to the smaller index.

    This is the first k entries of np.argsort(-mags, kind="stable"),
    found without sorting all of mags: every index above the k-th
    largest value, then the indices tied at it in ascending order, and a
    stable sort of that head.  k >= N sorts everything.
    """
    n = mags.size
    if k >= n:
        return _descending(mags)
    kth = np.partition(mags, n - k)[n - k]
    above = np.flatnonzero(mags > kth)
    tied = np.flatnonzero(mags == kth)[:k - above.size]
    head = np.concatenate([above, tied])
    return head[_descending(mags[head])]


def _extend_head(mags: np.ndarray, head: np.ndarray, k: int) -> np.ndarray:
    """The first k ranks of mags, given its first head.size ranks.

    The new ranks are the head of the frequencies off head, which stay
    in ascending order, so ties still go to the smaller frequency.
    """
    if not head.size:
        return _head_order(mags, k)
    rest = np.ones(mags.size, dtype=bool)
    rest[head] = False
    rest = np.flatnonzero(rest)
    return np.concatenate([head, rest[_head_order(mags[rest], k - head.size)]])


def _block_mass(mags: np.ndarray, head: np.ndarray, lo: int, hi: int) -> float:
    """Sum of mags^2 over the frequencies of ranks lo..hi-1, in ascending order.

    head holds the first ranks: at least hi of them, or lo when hi = N
    (the block is then every frequency off head[:lo]).  The sum reads the
    block alone: a difference of prefix sums or of a total would cancel,
    and could leave an empty block with a positive mass.
    """
    n = mags.size
    if hi < n:
        return float(np.sum(mags[np.sort(head[lo:hi])] ** 2))
    rest = np.ones(n, dtype=bool)
    rest[head[:lo]] = False
    return float(np.sum(mags[rest] ** 2))


def _sparse_part(coeffs: np.ndarray, sel: np.ndarray) -> ZnFunction:
    """Inverse transform of the coefficients at the frequencies sel, zero
    elsewhere, built in a zeroed array."""
    part = np.zeros(coeffs.size, dtype=np.complex128)
    part[sel] = coeffs[sel]
    return _inverse_in_place(part)


def decompose(f: ZnFunction, eps: float,
              schedule: Callable[[int], float] | None = None,
              tol: Tolerances = DEFAULT_TOLERANCES) -> DecompositionResult:
    """Split a unit-ball function along its spectrum by a shrinking schedule.

    Frequencies are ranked by coefficient magnitude, ties to the smaller
    frequency.  Marks grow by m' = max(m + 1, ceil(eta(m)^-2)) capped at
    N; the first block (m, m'] with L2 mass at most eps closes the
    search, which happens within ceil(eps^-2) rounds.  The schedule must
    stay positive and non-increasing at the visited marks, and every
    value of f must be finite.

    Only the head of the ranking that a round reads is ordered: ranks
    below m' (below m when m' = N, since that block is every frequency
    off the head), grown at least twofold when a round needs more, by
    ranking only the frequencies off it.  All N frequencies are ranked
    only when the last mark is N.

    Besides f and the FFT's scratch, at most four N-point complex arrays
    are live at once: the coefficients and the parts below the dense
    one, each inverted in its own array; then the dense part, in place of
    the coefficients; then the three parts and the residual.
    """
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError("need finite eps > 0")
    if not lp_norm(f, 2) <= 1.0 + tol.unit_norm_slack:  # NaN fails too
        if not np.isfinite(f.values).all():
            raise ValueError("decompose needs finite values")
        raise ValueError("decompose expects lp_norm(f, 2) <= 1; caller normalizes")
    eta = schedule if schedule is not None else default_schedule(eps)
    n = f.modulus
    coeffs = dft(f).coefficients
    mags = np.abs(coeffs)
    head = np.empty(0, dtype=np.intp)

    max_rounds = math.ceil(Fraction(eps) ** -2)  # eps ** -2 overflows below 2^-512
    m_mark = 1
    eta_prev = None
    for round_no in range(1, max_rounds + 1):
        eta_m = float(eta(m_mark))
        if not math.isfinite(eta_m) or eta_m <= 0:
            raise ValueError(f"schedule must be positive; eta({m_mark}) = {eta_m}")
        if eta_prev is not None and eta_m > eta_prev + 1e-15:
            raise ValueError("schedule must be non-increasing at visited marks")
        eta_prev = eta_m
        if eta_m < 1.0 / math.sqrt(n):  # eta^-2 would pass N (or overflow)
            next_mark = n
        else:
            next_mark = min(n, max(m_mark + 1, math.ceil(eta_m ** -2)))
        ranked = m_mark if next_mark == n else next_mark
        if ranked > head.size:
            head = _extend_head(mags, head, max(ranked, 2 * head.size))
        # L2 mass of ranks (m, next_mark] in probability normalization.
        block = math.sqrt(_block_mass(mags, head, m_mark, next_mark))
        if block <= eps:
            del mags
            # Ranks [0, m), [m, next_mark) and [next_mark, N) make f1, f3
            # and f2.  The last nonempty range reaches N: it is built last,
            # in a copy that outlives the coefficients, as every frequency
            # off the ranks before it.  Ranges past it are empty parts,
            # which take no transform.
            ranges = ((0, m_mark), (m_mark, next_mark), (next_mark, n))
            last = max(i for i, (lo, hi) in enumerate(ranges) if lo < hi)
            parts = [_sparse_part(coeffs, head[lo:hi]) for lo, hi in ranges[:last]]
            dense = coeffs.copy()
            del coeffs
            dense[head[:ranges[last][0]]] = 0
            parts.append(_inverse_in_place(dense))
            parts += [ZnFunction(n, _Fresh(np.zeros(n, dtype=np.complex128)))
                      for _ in ranges[last + 1:]]
            f1, f3, f2 = parts
            support = head[:m_mark].astype(np.int64)
            support.setflags(write=False)
            del head
            # f - (f1 + f2 + f3) in one scratch array, in the order of the plain sum
            resid = f1.values + f2.values
            resid += f3.values
            np.subtract(f.values, resid, out=resid)
            return DecompositionResult(
                m=m_mark,
                rounds=round_no,
                support=support,
                f1=f1,
                f2=f2,
                f3=f3,
                eta_of_m=eta_m,
                reconstruction_error=float(np.max(np.abs(resid))),
            )
        m_mark = next_mark
    raise AssertionError(
        "no admissible block within ceil(eps^-2) rounds; "
        "disjoint-block mass accounting is violated (bug)"
    )
