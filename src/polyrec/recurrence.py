"""Recurrence along polynomial shifts: profiles, searches, decompositions.

A dense set A in [1, N] should return to itself under many polynomial
shifts: |A ∩ (A + P_i(n))| stays close to the random-set heuristic
density^2 * N for most n in an admissible range.  This module measures
that exactly, searches for simultaneous good shifts, and carries the
supporting spectral tooling: the level-set decomposition f = f1 + f2 + f3
driven by a shrinking schedule, and the uniformity certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .intset import IntegerSet
from .polyfam import PolynomialFamily, ShiftRange, shift_range
from .zn_fourier import (Spectrum, ZnFunction, _block_layout, balanced_function,
                         dft, ellp_norm, exact_correlation, inverse_dft, lp_norm)

__all__ = [
    "INTEGER",
    "CYCLIC",
    "ShiftReport",
    "DecompositionResult",
    "UniformCertificate",
    "intersection_profile",
    "find_good_shifts",
    "default_schedule",
    "decompose",
    "uniform_certificate",
]

INTEGER = "integer"
CYCLIC = "cyclic"


#: Cost rule between the two exact routes of _intersection_counts: count
#: D distinct lags directly (D passes over W = ceil(N/64) packed words)
#: when D * (W + _DIRECT_LAG_COST) < _FFT_COST * rows * S * log2(S), rows
#: and S the block count and transform length of the blocked FFT.
#: _DIRECT_LAG_COST is the fixed per-lag overhead in words.  Both
#: constants are a least-squares fit to timings of the two routes at
#: N = 2e5-1e6 with largest lags 100-30000 (x86_64, numpy 2.4): about
#: 3.0 ns per word and lag, 1.6-3.0 ns per unit of rows * S * log2(S),
#: median 1.8; near a tie the FFT keeps the call.
_DIRECT_LAG_COST = 3000
_FFT_COST = 0.6


def _count_directly(lags: int, n: int, top: int) -> bool:
    """Whether `lags` direct passes beat the blocked FFT for lags <= top."""
    words = -(-n // 64)
    _, rows, size = _block_layout(n, top)
    return lags * (words + _DIRECT_LAG_COST) < _FFT_COST * rows * size * math.log2(size)


def _packed_counts(ind: np.ndarray, second: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """#{y : ind[y] and second[y + s]} for each lag 0 <= s < N, by AND-popcount.

    Both operands are packed into little-endian 64-bit words; the second
    is followed by zeros, so the word window at bit offset s holds
    second[y + s] for every y < N.  Integer arithmetic throughout, hence
    exact.
    """
    n = ind.size
    words = -(-n // 64)
    x = np.zeros(words, dtype="<u8")
    x.view(np.uint8)[:-(-n // 8)] = np.packbits(ind, bitorder="little")
    y = np.zeros(2 * words, dtype="<u8")
    y.view(np.uint8)[:-(-second.size // 8)] = np.packbits(second, bitorder="little")
    win = np.empty(words, dtype="<u8")
    high = np.empty(words, dtype="<u8")
    out = np.empty(lags.size, dtype=np.int64)
    for i, s in enumerate(lags.tolist()):
        q, r = divmod(s, 64)
        # Results go to the scratch buffers: at r == 0 the slice is a view
        # of y, and an AND into it would corrupt y for every later lag.
        if r:
            np.right_shift(y[q:q + words], r, out=win)
            np.left_shift(y[q + 1:q + 1 + words], 64 - r, out=high)
            win |= high
            win &= x
        else:
            np.bitwise_and(y[q:q + words], x, out=win)
        out[i] = np.bitwise_count(win).sum()
    return out


def _intersection_counts(a: IntegerSet, shifts, mode: str) -> np.ndarray:
    """|A ∩ (A + s)| for each shift, exactly (integer or cyclic convention).

    shifts is an int64 or object array (any other sequence is read as
    Python integers).  Every count is a correlation of the indicator with
    a second operand for lags 0 <= s <= top: the indicator itself in
    integer mode, where the count depends on |s| only and vanishes once
    |s| >= N; the indicator followed by its first top points in cyclic
    mode, where a lag s mod N is folded to min(s, N - s), exact because
    an autocorrelation has c(s) = c(N - s).  Two exact routes, picked by
    _count_directly: a direct AND-popcount of the packed operands per
    distinct lag, or one blocked FFT for every lag at once.
    """
    n = a.n
    if not isinstance(shifts, np.ndarray):
        shifts = np.array(shifts, dtype=object)
    ind = np.zeros(n, dtype=bool)
    if mode == INTEGER:
        lags = np.minimum(np.abs(shifts), n).astype(np.int64)  # N stands for any |s| >= N
        ind[a.array - 1] = True
    elif mode == CYCLIC:
        lags = (shifts % n).astype(np.int64)
        lags = np.minimum(lags, n - lags)
        ind[a.array % n] = True
    else:
        raise ValueError(f"unknown mode {mode!r} (want {INTEGER!r} or {CYCLIC!r})")
    distinct, where = np.unique(lags, return_inverse=True)
    inside = distinct[distinct < n]
    top = int(inside.max(initial=0))
    second = ind if mode == INTEGER else np.concatenate([ind, ind[:top]])
    if _count_directly(inside.size, n, top):
        counts = _packed_counts(ind, second, inside)
    else:
        counts = exact_correlation(ind, second, max_lag=top)[inside]
    # a lag of N (integer mode only) meets nothing
    return np.append(counts, np.zeros(distinct.size - inside.size, np.int64))[where]


def _count_table(a: IntegerSet, family: PolynomialFamily, m: int, mode: str,
                 validated: Optional[ShiftRange]) -> np.ndarray:
    """The l x M int64 table of |A ∩ (A + P_i(n))|, n = 1..M.

    Cyclic mode insists on a validated shift range for these inputs, so
    that every |P_i(n)| is small next to N.
    """
    if m < 1:
        raise ValueError("need M >= 1")
    if mode == CYCLIC:
        if validated is None:
            raise ValueError(
                "cyclic mode needs a validated ShiftRange (wrap-around control); "
                "compute one with shift_range()"
            )
        if validated.family != family or validated.n != a.n:
            raise ValueError("validated ShiftRange was computed for different inputs")
        if m > validated.m:
            raise ValueError(f"requested M={m} exceeds validated bound {validated.m}")
    ns = np.arange(1, m + 1, dtype=np.int64)
    shifts = np.concatenate([poly.values(ns) for poly in family])
    return _intersection_counts(a, shifts, mode).reshape(family.size, m)


def intersection_profile(a: IntegerSet, family: PolynomialFamily, m: int,
                         mode: str = INTEGER,
                         validated: Optional[ShiftRange] = None,
                         ) -> tuple[tuple[Fraction, ...], ...]:
    """The l x M table of |A ∩ (A + P_i(n))| / N as exact rationals.

    Integer mode counts inside [1, N] with no wrap-around and accepts any
    M; cyclic mode counts in Z_N and insists on a validated shift range so
    that every |P_i(n)| is small next to N.
    """
    counts = _count_table(a, family, m, mode, validated).tolist()
    return tuple(tuple(Fraction(cnt, a.n) for cnt in row) for row in counts)


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of the simultaneous good-shift search."""

    a: IntegerSet
    family: PolynomialFamily
    eps: float
    shift_range: ShiftRange
    counts: tuple[tuple[int, ...], ...]  # |A ∩ (A + P_i(n))|, l x M
    good_shifts: tuple[int, ...]
    threshold: Fraction           # density^2 - eps, exact
    within_hypotheses: bool

    @property
    def m(self) -> int:
        return self.shift_range.m

    @property
    def density_of_good(self) -> Fraction:
        return Fraction(len(self.good_shifts), self.m)

    @property
    def empty(self) -> bool:
        return not self.good_shifts


def find_good_shifts(a: IntegerSet, family: PolynomialFamily, eps: float,
                     c: float = 1.0, mode: str = INTEGER,
                     permissive: bool = False) -> ShiftReport:
    """All n in [1, M] with |A ∩ (A + P_i(n))|/N > density^2 - eps for every i.

    M comes from shift_range(family, N, eps, c).  The comparison is exact:
    count/N > threshold exactly when count > floor(threshold * N), one
    integer limit for the whole table.  Families with unequal degrees sit
    outside the guarantee and are rejected unless permissive, in which
    case the report is labeled accordingly.
    """
    equal = family.equal_degrees
    if not equal and not permissive:
        raise ValueError(
            "family has mixed degrees, outside the guarantee; "
            "pass permissive=True to search anyway"
        )
    sr = shift_range(family, a.n, eps, c)
    counts = _count_table(a, family, sr.m, mode, sr)
    threshold = a.density ** 2 - Fraction(eps)
    good = np.flatnonzero((counts > math.floor(threshold * a.n)).all(axis=0)) + 1
    return ShiftReport(a=a, family=family, eps=eps, shift_range=sr,
                       counts=tuple(map(tuple, counts.tolist())),
                       good_shifts=tuple(good.tolist()), threshold=threshold,
                       within_hypotheses=equal)


def default_schedule(eps: float) -> Callable[[int], float]:
    """The experimental shrinking schedule eta(t) = eps / (4 pi (t + 1))."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return lambda t: eps / (4.0 * math.pi * (t + 1))


@dataclass(frozen=True)
class DecompositionResult:
    """f = f1 + f2 + f3 split along the sorted spectrum.

    f1 holds the m largest coefficients (ties to the smaller frequency),
    f3 the next block up to the schedule's new mark, f2 everything after;
    sup |transform of f2| <= eta(m) and the L2 mass of f3 is below the
    requested eps.  support is a read-only int64 array of f1's
    frequencies in rank order; reconstruction_error is
    max |f - (f1 + f2 + f3)|.
    """

    m: int
    rounds: int
    support: np.ndarray
    f1: ZnFunction
    f2: ZnFunction
    f3: ZnFunction
    eta_of_m: float
    block_norms: tuple[float, ...]
    reconstruction_error: float


def decompose(f: ZnFunction, eps: float,
              schedule: Callable[[int], float] | None = None,
              tol: Tolerances = DEFAULT_TOLERANCES) -> DecompositionResult:
    """Split a unit-ball function along its spectrum by a shrinking schedule.

    Frequencies are ranked by coefficient magnitude.  Marks grow by
    m' = max(m + 1, ceil(eta(m)^-2)) capped at N; the first block
    (m, m'] with L2 mass at most eps closes the search, which happens
    within ceil(eps^-2) rounds.  The schedule must stay positive and
    non-increasing at the visited marks.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    if lp_norm(f, 2) > 1.0 + tol.unit_norm_slack:
        raise ValueError("decompose expects lp_norm(f, 2) <= 1; caller normalizes")
    eta = schedule if schedule is not None else default_schedule(eps)
    n = f.modulus
    spec = dft(f)
    coeffs = spec.coefficients
    order = np.argsort(-np.abs(coeffs), kind="stable")

    sorted_mags2 = np.abs(coeffs[order]) ** 2
    suffix = np.concatenate([np.cumsum(sorted_mags2[::-1])[::-1], [0.0]])

    max_rounds = math.ceil(eps ** -2)
    m_mark = 1
    eta_prev = None
    block_norms: list[float] = []
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
        # L2 mass of ranks (m, next_mark] in probability normalization.
        block = math.sqrt(max(suffix[m_mark] - suffix[next_mark], 0.0))
        block_norms.append(block)
        if block <= eps:
            sel1 = order[:m_mark]
            sel3 = order[m_mark:next_mark]
            sel2 = order[next_mark:]
            out = []
            for sel in (sel1, sel2, sel3):
                masked = np.zeros(n, dtype=np.complex128)
                masked[sel] = coeffs[sel]
                out.append(inverse_dft(Spectrum(n, masked)))
            # f - (f1 + f2 + f3) in one scratch array, in the order of the plain sum
            resid = out[0].values + out[1].values
            resid += out[2].values
            np.subtract(f.values, resid, out=resid)
            support = sel1.astype(np.int64)
            support.setflags(write=False)
            return DecompositionResult(
                m=m_mark,
                rounds=round_no,
                support=support,
                f1=out[0],
                f2=out[1],
                f3=out[2],
                eta_of_m=eta_m,
                block_norms=tuple(block_norms),
                reconstruction_error=float(np.max(np.abs(resid))),
            )
        m_mark = next_mark
    raise AssertionError(
        "no admissible block within ceil(eps^-2) rounds; "
        "disjoint-block mass accounting is violated (bug)"
    )


@dataclass(frozen=True)
class UniformCertificate:
    """Census of shifts whose profile stays eps-close to density^2."""

    eta: float                 # sup of |balanced transform|
    m: int
    count: int
    fraction: Fraction
    predicted_fraction: float  # 1 - l * C1 * eta^(1/K)
    bound_holds: bool


def uniform_certificate(a: IntegerSet, family: PolynomialFamily, eps: float,
                        k_order: int, c1: float = 1.0,
                        c: float = 1.0) -> UniformCertificate:
    """Count n <= M with |profile(i, n) - density^2| < eps for all i, and
    compare against the Fourier-uniformity prediction.

    eta is the largest balanced Fourier coefficient of A; when A is
    uniform (eta small) the predicted lower bound (1 - l C1 eta^(1/K)) M
    should be met by the actual count.
    """
    if k_order < 1:
        raise ValueError("moment order must be >= 1")
    eta = ellp_norm(dft(balanced_function(a)), math.inf)
    sr = shift_range(family, a.n, eps, c)
    counts = _count_table(a, family, sr.m, CYCLIC, sr)
    # |c/N - d^2| < eps exactly when floor((d^2 - eps) N) < c < ceil((d^2 + eps) N)
    target, eps_f = a.density ** 2, Fraction(eps)
    low = math.floor((target - eps_f) * a.n)
    high = math.ceil((target + eps_f) * a.n)
    count = int(((counts > low) & (counts < high)).all(axis=0).sum())
    predicted = 1.0 - family.size * c1 * eta ** (1.0 / k_order)
    return UniformCertificate(
        eta=eta,
        m=sr.m,
        count=count,
        fraction=Fraction(count, sr.m),
        predicted_fraction=predicted,
        bound_holds=count >= predicted * sr.m,
    )
