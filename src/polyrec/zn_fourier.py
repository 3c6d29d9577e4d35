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
    "ExactnessError",
    "exact_correlation",
]

#: Constant c in the a-priori rounding bound c * u * log2(L) * |a|_2 |b|_2
#: of an FFT correlation of length L (u is the float64 unit roundoff).
_FFT_ERROR_CONSTANT = 16.0
#: Both the a-priori bound and the observed rounding residual must stay
#: below this, far from the 1/2 at which rounding could pick a wrong integer.
_EXACT_MARGIN = 0.125
#: Shortest transform of the blocked max_lag layout: below it the per-row
#: overhead of a batched FFT outweighs its shorter length.
_SHORT_FFT = 2048
#: Transform points per batch of blocks: the batch's scratch (float copies
#: of blocks and windows, three half spectra, about 40 bytes per point)
#: stays near 2.5 MB.
_CHUNK_POINTS = 1 << 16


class ExactnessError(ArithmeticError):
    """A computation that must be exact could not be shown to be exact."""


class _Fresh:
    """A complex128 array made inside this package and referenced nowhere
    else, handed to ZnFunction or Spectrum without a copy."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray):
        self.arr = arr


def _frozen_complex(values) -> np.ndarray:
    """values as a read-only complex128 array of one dimension.

    A caller's values are always copied, so no array or view the caller
    holds can change the result.  Only a _Fresh array (from dft,
    inverse_dft, indicator, balanced_function or decompose's parts) is
    taken over as it is.
    """
    if isinstance(values, _Fresh):
        arr = values.arr
    else:
        arr = np.array(values, dtype=np.complex128)
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
    """Transform with the 1/N-normalized kernel e(-x xi / N).

    The FFT's output is scaled in place and taken over read-only, so
    each call makes one array.
    """
    coeffs = np.fft.fft(f.values)
    coeffs /= f.modulus
    return Spectrum(f.modulus, _Fresh(coeffs))


def inverse_dft(spectrum: Spectrum) -> ZnFunction:
    """Inverse transform f(x) = sum_xi F(xi) e(x xi / N); one array per call,
    as in dft."""
    vals = np.fft.ifft(spectrum.coefficients)
    vals *= spectrum.modulus
    return ZnFunction(spectrum.modulus, _Fresh(vals))


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
    vals[a.array % a.n] = 1.0
    return ZnFunction(a.n, _Fresh(vals))


def balanced_function(a: IntegerSet) -> ZnFunction:
    """Indicator of A minus its density; the transform vanishes at frequency 0."""
    vals = np.full(a.n, -float(a.density), dtype=np.complex128)
    vals[a.array % a.n] += 1.0  # residues are distinct, so each gets one 1
    return ZnFunction(a.n, _Fresh(vals))


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


def _block_length(n: int, max_lag: int) -> int:
    """Points of `a` per block in the blocked layout of exact_correlation.

    A block and its window take one transform of S = _fast_length(B +
    max_lag) points; S near four lags long (and at least _SHORT_FFT)
    was the fastest at N = 2e5-1e6 with 60-10000 lags.  Fewer than three
    such blocks were slower than one transform of n + max_lag points, so
    then all of `a` is one block.
    """
    block = _fast_length(max(_SHORT_FFT, 4 * max_lag)) - max_lag
    return block if 2 * block < n else n


def _block_layout(n: int, max_lag: int) -> tuple[int, int, int]:
    """(B, rows, S): block length, block count and transform length of the
    blocked correlation of an n-point `a` for lags 0..max_lag."""
    block = _block_length(n, max_lag)
    return block, -(-n // block), _fast_length(block + max_lag)


def _integer_array(x) -> np.ndarray:
    arr = np.asarray(x)
    if arr.dtype.kind not in "biu":
        raise ValueError(f"exact correlation needs integer arrays, got {arr.dtype}")
    if arr.ndim < 1 or arr.size < 1:
        raise ValueError("exact correlation needs nonempty arrays")
    return arr


def _sum_squares(x: np.ndarray) -> float:
    if x.dtype == np.bool_:
        return float(np.count_nonzero(x))
    xf = x.astype(np.float64)
    return float(np.vdot(xf, xf))


def _check_bound(length: int, factor: float, squares: float) -> None:
    """Refuse unless c * u * factor * sqrt(squares) stays below the margin.

    factor is log2 of the transform length (plus any sum of transforms)
    and squares the product |a|_2^2 |b|_2^2 (times any overlap).
    """
    bound = (_FFT_ERROR_CONSTANT * np.finfo(np.float64).eps / 2
             * max(factor, 1.0) * math.sqrt(squares))
    if bound >= _EXACT_MARGIN:
        raise ExactnessError(
            f"FFT correlation of length {length} cannot be exact: "
            f"rounding bound {bound:.3g} is not below {_EXACT_MARGIN}")


def _rounded(raw: np.ndarray) -> np.ndarray:
    """raw rounded to int64, refused when any residual reaches the margin."""
    counts = np.rint(raw)
    residual = float(np.max(np.abs(raw - counts)))
    if residual >= _EXACT_MARGIN:
        raise ExactnessError(
            f"FFT correlation lost exactness: rounding residual {residual:.3g}")
    return counts.astype(np.int64)


def _blocked_correlation(a: np.ndarray, b: np.ndarray, max_lag: int) -> np.ndarray:
    """out[s] = sum_y a[y] * b[y + s] for 0 <= s <= max_lag, a and b 1-D.

    Block j of `a` (points jB..jB+B-1) meets only the window of b from
    jB to jB+B+max_lag-1, so each pair takes one transform of S >= B +
    max_lag points, where no needed lag wraps.  The blocks' products
    are summed in the frequency domain and inverted once.  Rows go
    through the FFT _CHUNK_POINTS transform points at a time.
    """
    block, rows, size = _block_layout(a.size, max_lag)
    span = rows * block + max_lag
    # each point of b lies in at most 1 + ceil(max_lag / B) windows
    overlap = 1 + -(-max_lag // block)
    _check_bound(size, math.log2(size) + rows,
                 _sum_squares(a) * _sum_squares(b[:span]) * overlap)
    ext = np.zeros(span, dtype=b.dtype)  # b cut or padded with zeros to span
    ext[:b.size] = b[:span]
    if b is a:
        blocks = ext[:rows * block]
    else:
        blocks = np.zeros(rows * block, dtype=a.dtype)
        blocks[:a.size] = a
    blocks = blocks.reshape(rows, block)
    windows = np.lib.stride_tricks.sliding_window_view(ext, block + max_lag)[::block]
    total = np.zeros(size // 2 + 1, dtype=np.complex128)
    step = max(1, _CHUNK_POINTS // size)
    for r in range(0, rows, step):
        fa = np.fft.rfft(blocks[r:r + step], size, axis=1)
        prod = np.conj(fa)
        # one block of a against itself: its window is the block, zero-padded
        prod *= fa if b is a and rows == 1 else np.fft.rfft(windows[r:r + step], size, axis=1)
        total += prod.sum(axis=0)
    return _rounded(np.fft.irfft(total, size)[:max_lag + 1])


def exact_correlation(a, b, *, max_lag: Optional[int] = None) -> np.ndarray:
    """Integer cross-correlation out[s] = sum_y a[y] * b[y + s], exactly.

    a and b are integer (or boolean) arrays of one dimension count; the
    lag s is a vector with one entry per axis.  Two layouts:

    - linear (the default): every lag, s running from -(a extent - 1)
      through b extent - 1 along each axis, stored at s + a extent - 1,
      so out has shape a.shape + b.shape - 1;
    - max_lag=L, one dimension only: the lags 0 <= s <= L, stored at
      out[s].  a is cut into blocks of B points, and each block meets the
      window of b that starts with it and runs L points further, in one
      batched transform of S = _fast_length(B + L) points (S about 4L and
      at least _SHORT_FFT; a that would make fewer than three blocks is
      one block): no lag up to L wraps, the block products are summed
      before one inverse transform, and the cost is about (N/B) * S *
      log2(S) for N points of a, not the (N + L) * log2(N + L) of one
      long transform.

    The product is formed with real FFTs and rounded to int64.  Exactness
    is checked twice and an ExactnessError raised if either check fails:
    the a-priori rounding bound c * u * log2(L) * |a|_2 * |b|_2, L the
    transform length, must stay far below 1/2, and so must the largest
    observed residual |raw - rint(raw)|.  For blocks the bound reads
    c * u * (log2(S) + rows) * |a|_2 * |b|_2 * sqrt(1 + ceil(L / B)):
    summing the rows' products adds up to `rows` roundings, and a point
    of b sits in up to 1 + ceil(L / B) windows.
    """
    a = _integer_array(a)
    b = _integer_array(b)
    if a.ndim != b.ndim:
        raise ValueError("a and b need the same number of dimensions")
    if max_lag is not None:
        if a.ndim != 1:
            raise ValueError("max_lag applies to one-dimensional arrays only")
        if max_lag < 0:
            raise ValueError("max_lag must be nonnegative")
        return _blocked_correlation(a, b, max_lag)

    size = tuple(_fast_length(na + nb - 1) for na, nb in zip(a.shape, b.shape))
    af = a.astype(np.float64)
    bf = af if b is a else b.astype(np.float64)
    _check_bound(math.prod(size), math.log2(math.prod(size)),
                 float(np.vdot(af, af)) * float(np.vdot(bf, bf)))
    axes = tuple(range(a.ndim))
    fa = np.fft.rfftn(af, size, axes)
    prod = np.conj(fa)
    prod *= fa if b is a else np.fft.rfftn(bf, size, axes)
    del af, bf, fa
    raw = np.fft.irfftn(prod, size, axes)
    del prod
    raw = np.roll(raw, tuple(na - 1 for na in a.shape), axis=axes)
    return _rounded(raw[tuple(slice(0, na + nb - 1) for na, nb in zip(a.shape, b.shape))])
