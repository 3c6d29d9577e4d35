"""Discrete Fourier analysis on Z_N under the probability normalization.

Functions on Z_N carry the uniform probability measure, their transforms
carry counting measure.  Writing e(x) = exp(2*pi*i*x), the transform and
its inverse are

    F(xi) = (1/N) sum_x f(x) e(-x xi / N),      f(x) = sum_xi F(xi) e(x xi / N),

so the transform of an indicator has F(0) equal to the set's density,
Plancherel reads lp_norm(f, 2) == ellp_norm(F, 2), and correlations of
real functions are spectral sums of |F|^2.

The exact lag counter |A ∩ (A + s)| (integer or cyclic convention), read
by the intersection profiles and by the lift's implication check, sits
beside the blocked correlation whose layout its route rule prices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from typing import Optional

import numpy as np

from .intset import IntegerSet, _Fresh

__all__ = [
    "ZnFunction",
    "Spectrum",
    "dft",
    "inverse_dft",
    "lp_norm",
    "ellp_norm",
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


def _frozen_complex(values) -> np.ndarray:
    """values as a read-only complex128 array of one dimension.

    A caller's values are always copied, so no array or view the caller
    holds can change the result.  Only a _Fresh array (from dft,
    inverse_dft, balanced_function, decompose's parts or weyl_sum) is
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
    return _inverse_in_place(spectrum.coefficients.copy())


def _inverse_in_place(coeffs: np.ndarray) -> ZnFunction:
    """inverse_dft of a fresh, writable coefficient array, which it takes
    over: the transform is written into that array's own buffer and
    scaled there, bit for bit what a transform into a new array gives."""
    np.fft.ifft(coeffs, out=coeffs)
    coeffs *= coeffs.size
    return ZnFunction(coeffs.size, _Fresh(coeffs))


def _p_norm(arr: np.ndarray, p: float, weight: float) -> float:
    if p != p or p < 1:  # NaN or below 1
        raise ValueError("norm exponent must satisfy p >= 1")
    mags = np.abs(arr)
    if math.isinf(p):
        return float(mags.max())
    mags **= p
    return float((weight * np.sum(mags)) ** (1.0 / p))


def lp_norm(f: ZnFunction, p: float) -> float:
    """L^p norm under the uniform probability measure on Z_N; p=inf is the max."""
    return _p_norm(f.values, p, 1.0 / f.modulus)


def ellp_norm(spectrum: Spectrum, p: float) -> float:
    """Counting-measure norm of the coefficient array; p=inf is the max."""
    return _p_norm(spectrum.coefficients, p, 1.0)


def _residue_mask(a: IntegerSet) -> np.ndarray:
    """1_A on residues 0..n-1: the set's mask rolled by one, so that the
    element n lands on residue 0.  A new array."""
    return np.roll(a.mask, 1)


def balanced_function(a: IntegerSet) -> ZnFunction:
    """Indicator of A minus its density; the transform vanishes at frequency 0."""
    mask = _residue_mask(a)
    vals = mask.astype(np.complex128)
    vals -= int(np.count_nonzero(mask)) / a.n
    return ZnFunction(a.n, _Fresh(vals))


@cache
def _fast_length(n: int) -> int:
    """Smallest 5-smooth integer >= n: transform lengths the FFT does fastest.
    Cached: a lag count reads the same few lengths on every call."""
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
    if rows == 1:  # all of a is one block: no layout, the FFT pads both
        fa = np.fft.rfft(a, size)
        prod = np.conj(fa)
        prod *= fa if b is a else np.fft.rfft(b[:span], size)
        return _rounded(np.fft.irfft(prod, size)[:max_lag + 1])
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
    step = min(rows, max(1, _CHUNK_POINTS // size))
    # every chunk is transformed into the same two buffers: no chunk maps
    # fresh pages from the C heap
    fa = np.empty((step, size // 2 + 1), dtype=np.complex128)
    fw = np.empty_like(fa)
    for r in range(0, rows, step):
        k = min(step, rows - r)
        np.fft.rfft(blocks[r:r + k], size, axis=1, out=fa[:k])
        np.fft.rfft(windows[r:r + k], size, axis=1, out=fw[:k])
        np.conj(fa[:k], out=fa[:k])
        fa[:k] *= fw[:k]
        total += fa[:k].sum(axis=0)
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


#: The two conventions of _intersection_counts: inside [1, N] with no
#: wrap-around, or in Z_N.
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
    if mode == INTEGER:
        lags = np.minimum(np.abs(shifts), n).astype(np.int64)  # N stands for any |s| >= N
        ind = a.mask
    elif mode == CYCLIC:
        lags = (shifts % n).astype(np.int64)
        lags = np.minimum(lags, n - lags)
        ind = _residue_mask(a)
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
