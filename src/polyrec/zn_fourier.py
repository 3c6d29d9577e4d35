"""Discrete Fourier analysis on Z_N under the probability normalization.

Functions on Z_N carry the uniform probability measure, their transforms
carry counting measure.  Writing e(x) = exp(2*pi*i*x), the transform and
its inverse are

    F(xi) = (1/N) sum_x f(x) e(-x xi / N),      f(x) = sum_xi F(xi) e(x xi / N),

so the transform of an indicator has F(0) equal to the set's density,
Plancherel reads lp_norm(f, 2) == ellp_norm(F, 2), and correlations of
real functions are spectral sums of |F|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .intset import IntegerSet

__all__ = [
    "ZnFunction",
    "Spectrum",
    "dft",
    "inverse_dft",
    "lp_norm",
    "ellp_norm",
    "indicator",
    "balanced_function",
    "correlation",
    "ExactnessError",
    "exact_correlation",
]

#: Constant c in the a-priori rounding bound c * u * log2(L) * |a|_2 |b|_2
#: of an FFT correlation of length L (u is the float64 unit roundoff).
_FFT_ERROR_CONSTANT = 16.0
#: Both the a-priori bound and the observed rounding residual must stay
#: below this, far from the 1/2 at which rounding could pick a wrong integer.
_EXACT_MARGIN = 0.125


class ExactnessError(ArithmeticError):
    """A computation that must be exact could not be shown to be exact."""


def _frozen_complex(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128).copy()
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("expected a nonempty one-dimensional array of values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class ZnFunction:
    """A function Z_N -> C, stored as its value array of length N."""

    modulus: int
    values: np.ndarray

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        arr = _frozen_complex(self.values)
        if arr.size != self.modulus:
            raise ValueError(f"need exactly {self.modulus} values, got {arr.size}")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class Spectrum:
    """Fourier coefficients on the dual of Z_N, indexed by frequency."""

    modulus: int
    coefficients: np.ndarray

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        arr = _frozen_complex(self.coefficients)
        if arr.size != self.modulus:
            raise ValueError(f"need exactly {self.modulus} coefficients, got {arr.size}")
        object.__setattr__(self, "coefficients", arr)


def dft(f: ZnFunction) -> Spectrum:
    """Transform with the 1/N-normalized kernel e(-x xi / N)."""
    return Spectrum(f.modulus, np.fft.fft(f.values) / f.modulus)


def inverse_dft(spectrum: Spectrum) -> ZnFunction:
    """Inverse transform f(x) = sum_xi F(xi) e(x xi / N)."""
    return ZnFunction(spectrum.modulus, np.fft.ifft(spectrum.coefficients) * spectrum.modulus)


def _p_norm(arr: np.ndarray, p: float, weight: float) -> float:
    if p != p or p < 1:  # NaN or below 1
        raise ValueError("norm exponent must satisfy p >= 1")
    mags = np.abs(arr)
    if math.isinf(p):
        return float(mags.max())
    return float((weight * np.sum(mags ** p)) ** (1.0 / p))


def lp_norm(f: ZnFunction, p: float) -> float:
    """L^p norm under the uniform probability measure on Z_N; p=inf is the max."""
    return _p_norm(f.values, p, 1.0 / f.modulus)


def ellp_norm(spectrum: Spectrum, p: float) -> float:
    """Counting-measure norm of the coefficient array; p=inf is the max."""
    return _p_norm(spectrum.coefficients, p, 1.0)


def indicator(a: IntegerSet) -> ZnFunction:
    """0/1 indicator of A read modulo n (the element n lands on residue 0)."""
    vals = np.zeros(a.n, dtype=np.complex128)
    for r in a.residues():
        vals[r] = 1.0
    return ZnFunction(a.n, vals)


def balanced_function(a: IntegerSet) -> ZnFunction:
    """Indicator of A minus its density; the transform vanishes at frequency 0."""
    vals = np.full(a.n, -float(a.density), dtype=np.complex128)
    for r in a.residues():
        vals[r] += 1.0
    return ZnFunction(a.n, vals)


def correlation(h: ZnFunction, g: ZnFunction) -> np.ndarray:
    """All shifted averages out[t] = (1/N) sum_x h(x) g(x - t), computed spectrally.

    For real f, correlation(f, f)[t] equals sum_xi |F(xi)|^2 e(t xi / N).
    """
    if h.modulus != g.modulus:
        raise ValueError("h and g must live on the same Z_N")
    n = h.modulus
    # out[t] = (1/N) * (h * g~)(t) with g~(y) = g(-y), a cyclic convolution.
    g_rev = np.roll(g.values[::-1], 1)
    out = np.fft.ifft(np.fft.fft(h.values) * np.fft.fft(g_rev)) / n
    return out


def _fast_length(n: int) -> int:
    """Smallest 5-smooth integer >= n: transform lengths the FFT does fastest."""
    best = 1 << max(n - 1, 0).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p = p35
            while p < n:
                p *= 2
            best = min(best, p)
            p35 *= 3
        p5 *= 5
    return best


def _integer_array(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype.kind not in "biu":
        raise ValueError(f"exact correlation needs integer arrays, got {arr.dtype}")
    if arr.ndim < 1 or arr.size < 1:
        raise ValueError("exact correlation needs nonempty arrays")
    return arr


def exact_correlation(a, b, *, cyclic: bool = False,
                      max_lag: Optional[int] = None) -> np.ndarray:
    """Integer cross-correlation out[s] = sum_y a[y] * b[y + s], exactly.

    a and b are integer (or boolean) arrays of one dimension count; the
    lag s is a vector with one entry per axis.  Three layouts:

    - cyclic: a and b share one shape, indices wrap around it, and out
      has that shape with lag s at out[s];
    - linear (the default): every lag, s running from -(a extent - 1)
      through b extent - 1 along each axis, stored at s + a extent - 1,
      so out has shape a.shape + b.shape - 1;
    - linear with max_lag=L: only the lags 0 <= s <= L along each axis,
      stored at out[s]; the transform is padded just far enough for them.

    The product is formed with real FFTs and rounded to int64.  Exactness
    is checked twice and an ExactnessError raised if either check fails:
    the a-priori rounding bound c * u * log2(L) * |a|_2 * |b|_2 must stay
    far below 1/2, and so must the largest observed residual
    |raw - rint(raw)|.
    """
    a = _integer_array(a)
    b = _integer_array(b)
    if a.ndim != b.ndim:
        raise ValueError("a and b need the same number of dimensions")
    if cyclic:
        if a.shape != b.shape:
            raise ValueError("cyclic correlation needs a and b of one shape")
        if max_lag is not None:
            raise ValueError("max_lag applies to linear correlation only")
        # padded to a fast length >= 2N, then folded back to length N
        size = tuple(_fast_length(2 * n) for n in a.shape)
    elif max_lag is None:
        size = tuple(_fast_length(na + nb - 1) for na, nb in zip(a.shape, b.shape))
    else:
        if max_lag < 0:
            raise ValueError("max_lag must be nonnegative")
        size = tuple(_fast_length(max(na + max_lag, nb))
                     for na, nb in zip(a.shape, b.shape))

    af = a.astype(np.float64)
    bf = af if b is a else b.astype(np.float64)
    bound = (_FFT_ERROR_CONSTANT * np.finfo(np.float64).eps / 2
             * max(math.log2(math.prod(size)), 1.0)
             * math.sqrt(float(np.vdot(af, af)) * float(np.vdot(bf, bf))))
    if bound >= _EXACT_MARGIN:
        raise ExactnessError(
            f"FFT correlation of length {math.prod(size)} cannot be exact: "
            f"rounding bound {bound:.3g} is not below {_EXACT_MARGIN}")
    axes = tuple(range(a.ndim))
    fa = np.fft.rfftn(af, size, axes)
    prod = np.conj(fa)
    prod *= fa if b is a else np.fft.rfftn(bf, size, axes)
    del af, bf, fa
    raw = np.fft.irfftn(prod, size, axes)
    del prod
    if cyclic:
        for ax, (n, p) in enumerate(zip(a.shape, size)):
            lead = (slice(None),) * ax
            raw = raw[lead + (slice(0, n),)] + raw[lead + (slice(p - n, p),)]
    elif max_lag is None:
        shift = tuple(na - 1 for na in a.shape)
        raw = np.roll(raw, shift, axis=axes)
        raw = raw[tuple(slice(0, na + nb - 1) for na, nb in zip(a.shape, b.shape))]
    else:
        raw = raw[tuple(slice(0, max_lag + 1) for _ in size)]
    counts = np.rint(raw)
    residual = float(np.max(np.abs(raw - counts)))
    if residual >= _EXACT_MARGIN:
        raise ExactnessError(
            f"FFT correlation lost exactness: rounding residual {residual:.3g}")
    return counts.astype(np.int64)
