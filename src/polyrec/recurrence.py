"""Recurrence along polynomial shifts: profiles, searches, decompositions.

A dense set A in [1, N] should return to itself under many polynomial
shifts: |A ∩ (A + P_i(n))| stays close to the random-set heuristic
density^2 * N for most n in an admissible range.  This module measures
that exactly, searches for simultaneous good shifts, and carries the
supporting spectral tooling: the level-set decomposition f = f1 + f2 + f3
driven by a shrinking schedule, the structured main-term evaluator, and
the census of shifts with large error correlation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .intset import IntegerSet
from .polyfam import PolynomialFamily, ShiftRange, shift_range
from .zn_fourier import (Spectrum, ZnFunction, balanced_function, correlation,
                         dft, ellp_norm, exact_correlation, inverse_dft,
                         lp_norm)

__all__ = [
    "INTEGER",
    "CYCLIC",
    "ShiftReport",
    "DecompositionResult",
    "UniformCertificate",
    "intersection_profile",
    "find_good_shifts",
    "default_schedule",
    "reference_schedule_log",
    "decompose",
    "main_term",
    "uniform_certificate",
    "error_term_census",
]

INTEGER = "integer"
CYCLIC = "cyclic"


def _intersection_counts(a: IntegerSet, shifts: Sequence[int], mode: str) -> list[int]:
    """|A ∩ (A + s)| for each shift, exactly (integer or cyclic convention).

    Every count is read off one exact autocorrelation of the indicator.
    In integer mode the count depends on |s| only and vanishes once
    |s| >= N; shifts are reduced as Python integers, so any size is safe.
    """
    n = a.n
    ind = np.zeros(n, dtype=bool)
    if mode == INTEGER:
        lags = [abs(int(s)) for s in shifts]
        top = min(max(lags, default=0), n - 1)
        ind[np.array(a.elements, dtype=np.int64) - 1] = True
        corr = exact_correlation(ind, ind, max_lag=top).tolist()
        return [corr[s] if s < n else 0 for s in lags]
    if mode == CYCLIC:
        ind[np.array(a.elements, dtype=np.int64) % n] = True
        corr = exact_correlation(ind, ind, cyclic=True)
        return [int(corr[int(s) % n]) for s in shifts]
    raise ValueError(f"unknown mode {mode!r} (want {INTEGER!r} or {CYCLIC!r})")


def _require_validated_range(a: IntegerSet, family: PolynomialFamily, m: int,
                             validated: Optional[ShiftRange]) -> None:
    if validated is None:
        raise ValueError(
            "cyclic mode needs a validated ShiftRange (wrap-around control); "
            "compute one with shift_range()"
        )
    if validated.family != family or validated.n != a.n:
        raise ValueError("validated ShiftRange was computed for different inputs")
    if m > validated.m:
        raise ValueError(f"requested M={m} exceeds validated bound {validated.m}")


def intersection_profile(a: IntegerSet, family: PolynomialFamily, m: int,
                         mode: str = INTEGER,
                         validated: Optional[ShiftRange] = None,
                         ) -> tuple[tuple[Fraction, ...], ...]:
    """The l x M table of |A ∩ (A + P_i(n))| / N as exact rationals.

    Integer mode counts inside [1, N] with no wrap-around and accepts any
    M; cyclic mode counts in Z_N and insists on a validated shift range so
    that every |P_i(n)| is small next to N.
    """
    if m < 1:
        raise ValueError("need M >= 1")
    if mode == CYCLIC:
        _require_validated_range(a, family, m, validated)
    shifts = [poly.evaluate(n) for poly in family for n in range(1, m + 1)]
    counts = _intersection_counts(a, shifts, mode)
    return tuple(tuple(Fraction(cnt, a.n) for cnt in counts[i * m:(i + 1) * m])
                 for i in range(family.size))


@dataclass(frozen=True)
class ShiftReport:
    """Outcome of the simultaneous good-shift search."""

    a: IntegerSet
    family: PolynomialFamily
    eps: float
    shift_range: ShiftRange
    table: tuple[tuple[Fraction, ...], ...]
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

    M comes from shift_range(family, N, eps, c); the comparison runs in
    exact rational arithmetic on both sides.  Families with unequal
    degrees sit outside the guarantee and are rejected unless permissive,
    in which case the report is labeled accordingly.
    """
    equal = family.equal_degrees
    if not equal and not permissive:
        raise ValueError(
            "family has mixed degrees, outside the guarantee; "
            "pass permissive=True to search anyway"
        )
    sr = shift_range(family, a.n, eps, c)
    if mode == CYCLIC:
        table = intersection_profile(a, family, sr.m, mode=CYCLIC, validated=sr)
    else:
        table = intersection_profile(a, family, sr.m, mode=INTEGER)
    threshold = a.density ** 2 - Fraction(eps)
    good = tuple(
        n for n in range(1, sr.m + 1)
        if all(table[i][n - 1] > threshold for i in range(family.size))
    )
    return ShiftReport(a=a, family=family, eps=eps, shift_range=sr, table=table,
                       good_shifts=good, threshold=threshold,
                       within_hypotheses=equal)


def default_schedule(eps: float) -> Callable[[int], float]:
    """The experimental shrinking schedule eta(t) = eps / (4 pi (t + 1))."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return lambda t: eps / (4.0 * math.pi * (t + 1))


def reference_schedule_log(t: int, eps: float, ell: int, c1: float = 1.0,
                           k_order: int = 8, c_schedule: float = 1.0) -> float:
    """log of the tower-type reference schedule, evaluated symbolically.

    The schedule itself, (l C1)^(-K) (eps / 4 pi t)^(C Kt^2) / 2,
    underflows float range almost immediately, so only its logarithm is
    exposed; it exists for inspection and for comparing shrink rates, not
    for driving the decomposition.
    """
    if t < 1 or eps <= 0 or ell < 1:
        raise ValueError("need t >= 1, eps > 0, ell >= 1")
    return (
        -k_order * math.log(ell * c1)
        + c_schedule * k_order * t * t * math.log(eps / (4.0 * math.pi * t))
        - math.log(2.0)
    )


@dataclass(frozen=True)
class DecompositionResult:
    """f = f1 + f2 + f3 split along the sorted spectrum.

    f1 holds the m largest coefficients (ties to the smaller frequency),
    f3 the next block up to the schedule's new mark, f2 everything after;
    sup |transform of f2| <= eta(m) and the L2 mass of f3 is below the
    requested eps.
    """

    m: int
    rounds: int
    support: tuple[int, ...]
    f1: ZnFunction
    f2: ZnFunction
    f3: ZnFunction
    eta_of_m: float
    block_norms: tuple[float, ...]


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
    order = np.lexsort((np.arange(n), -np.abs(coeffs)))

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
            return DecompositionResult(
                m=m_mark,
                rounds=round_no,
                support=tuple(sel1.tolist()),
                f1=out[0],
                f2=out[1],
                f3=out[2],
                eta_of_m=eta_m,
                block_norms=tuple(block_norms),
            )
        m_mark = next_mark
    raise AssertionError(
        "no admissible block within ceil(eps^-2) rounds; "
        "disjoint-block mass accounting is violated (bug)"
    )


def main_term(spec: Spectrum, support: Sequence[int], shift: int) -> complex:
    """Structured part of a correlation: sum over the support frequencies
    of |F(xi)|^2 e(xi * shift / N)."""
    n = spec.modulus
    xi = np.array(list(support), dtype=np.int64)
    weights = np.abs(spec.coefficients[xi]) ** 2
    phases = np.exp(2j * np.pi * (xi * (shift % n)) / n)
    return complex(np.sum(weights * phases))


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
    table = intersection_profile(a, family, sr.m, mode=CYCLIC, validated=sr)
    target = a.density ** 2
    eps_f = Fraction(eps)
    count = sum(
        1 for n in range(1, sr.m + 1)
        if all(abs(table[i][n - 1] - target) < eps_f for i in range(family.size))
    )
    predicted = 1.0 - family.size * c1 * eta ** (1.0 / k_order)
    return UniformCertificate(
        eta=eta,
        m=sr.m,
        count=count,
        fraction=Fraction(count, sr.m),
        predicted_fraction=predicted,
        bound_holds=count >= predicted * sr.m,
    )


def error_term_census(h: ZnFunction, g: ZnFunction, poly, m: int,
                      threshold: float,
                      tol: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Number of n <= M whose correlation at shift P(n) reaches the threshold.

    Computes v_n = (1/N) sum_x h(x) g(x - P(n)) for every n and counts
    |v_n| >= threshold.  Both inputs must sit in the L2 unit ball.
    """
    if m < 1:
        raise ValueError("need M >= 1")
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    for name, fn in (("h", h), ("g", g)):
        if lp_norm(fn, 2) > 1.0 + tol.unit_norm_slack:
            raise ValueError(f"{name} must satisfy lp_norm({name}, 2) <= 1")
    corr = correlation(h, g)
    n_mod = h.modulus
    count = 0
    for n in range(1, m + 1):
        v = corr[poly.evaluate(n) % n_mod]
        if abs(v) >= threshold:
            count += 1
    return count
