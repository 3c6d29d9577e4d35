"""Finite integer sets A inside [1, n] and deterministic set generators."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

__all__ = ["IntegerSet", "generate_set", "bernoulli_mask"]

#: Largest ambient n of a set.  A `decompose` query takes about 100 bytes per
#: point (200 at a prime n, whose transform pads): peak RSS 187-223 MiB at this
#: budget (373-435 MiB at a prime n); a `search` takes 36-48 MiB, its set one
#: byte a point as a mask.
AMBIENT_BUDGET = 2_000_000
#: Draws per block in bernoulli_mask (64 KiB of float64 scratch).
_DRAW_BLOCK = 8192


def _integer(value) -> int:
    """int(value) when that equals value (7 or 7.0, not 7.5 or '7')."""
    out = int(value)
    if out != value:
        raise TypeError("not an integer")
    return out


def _int64_array(values, message: str) -> np.ndarray:
    """A new 1-D int64 array of `values`: an integer array converted as a
    whole, any other iterable entry by entry through _integer.  An entry
    that is not an integer in value (1.9, a string, a list, None) or does
    not fit int64, and a value that is not iterable, are a ValueError
    with `message`."""
    if (isinstance(values, np.ndarray) and values.ndim == 1
            and np.can_cast(values.dtype, np.int64)):
        return values.astype(np.int64)
    try:
        return np.array([_integer(v) for v in values], dtype=np.int64)
    except (OverflowError, TypeError):
        raise ValueError(message) from None


def _sorted_distinct(arr: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array: the array itself when it is
    strictly increasing, else a sort and a neighbour compare (np.unique
    hashes and is slower on large integer arrays)."""
    if np.all(arr[1:] > arr[:-1]):
        return arr
    arr = np.sort(arr)
    keep = np.empty(arr.size, dtype=bool)
    keep[0] = True
    np.not_equal(arr[1:], arr[:-1], out=keep[1:])
    return arr[keep]


class _Fresh:
    """An array made inside this package and referenced nowhere else,
    handed to the object built from it (IntegerSet, FiniteMPSystem,
    ZnFunction, Spectrum) without a copy or a check."""

    __slots__ = ("arr",)

    def __init__(self, arr: np.ndarray):
        self.arr = arr


@dataclass(frozen=True, eq=False, init=False, repr=False)
class IntegerSet:
    """A subset of [1, n].  Element n plays the role of 0 when the set is
    read modulo n.

    A set keeps the form it was built in and derives the other on first
    read, as a cached read-only array: `array` holds the elements sorted,
    in int64, and `mask` is the boolean array whose entry i says whether
    i + 1 is an element.  The constructor takes any iterable of integers
    (an integral float such as 7.0 counts, duplicates are dropped) or an
    integer array, copies and checks it and keeps the sorted array, so a
    sparse set in a huge [1, n] builds no mask unless one is read.
    generate_set hands over the mask it draws or fills.  `elements` is
    the same set as a tuple of Python ints, built on first read.
    """

    n: int

    def __init__(self, n: int, array):
        if n < 1:
            raise ValueError("ambient bound must be a positive integer")
        if isinstance(array, _Fresh):
            arr = array.arr
        else:
            message = f"elements must lie in [1, {n}]"
            arr = _sorted_distinct(_int64_array(array, message))
            if arr.size and (arr[0] < 1 or arr[-1] > n):
                raise ValueError(message)
        arr.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mask" if arr.dtype == bool else "array", arr)

    @cached_property
    def array(self) -> np.ndarray:
        arr = np.flatnonzero(self.mask)
        arr += 1
        arr.setflags(write=False)
        return arr

    @cached_property
    def mask(self) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[self.array - 1] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def elements(self) -> tuple[int, ...]:
        return tuple(self.array.tolist())

    @cached_property
    def size(self) -> int:
        if "array" in vars(self):
            return int(self.array.size)
        return int(np.count_nonzero(self.mask))

    @property
    def density(self) -> Fraction:
        return Fraction(self.size, self.n)

    def __contains__(self, x) -> bool:
        if not 1 <= x <= self.n:
            return False
        if "mask" in vars(self):
            return int(x) == x and bool(self.mask[int(x) - 1])
        i = int(np.searchsorted(self.array, x))
        return i < self.array.size and bool(self.array[i] == x)

    def __len__(self) -> int:
        return self.size

    def __iter__(self):
        return iter(self.elements)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.n, self.array.tobytes()))

    def __repr__(self):
        return f"IntegerSet(n={self.n}, array={self.array!r})"


def bernoulli_mask(n: int, density: float, seed: int) -> np.ndarray:
    """Boolean array whose entry i is the i-th draw random() < density of
    random.Random(seed).

    The stdlib generator's Mersenne Twister state is copied into numpy's
    MT19937; both turn two 32-bit words into one 53-bit float the same
    way, so the array reproduces the stdlib draws exactly, on every
    platform.  A density outside [0, 1], or NaN, is refused.
    """
    if not 0.0 <= density <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    state = random.Random(seed).getstate()[1]
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(state[:-1], dtype=np.uint32),
                            "pos": state[-1]}}
    draws = np.random.Generator(bits)
    mask = np.empty(n, dtype=bool)
    # One n-element float scratch, once freed, leaves later arrays on the
    # heap and raises the peak memory of the process; blocks avoid that.
    for lo in range(0, n, _DRAW_BLOCK):
        block = mask[lo:lo + _DRAW_BLOCK]
        np.less(draws.random(block.size), density, out=block)
    return mask


def generate_set(kind: str, n: int, *, start: int = 1, step: int = 1,
                 density: float = 0.5, seed: int = 0) -> IntegerSet:
    """Build one of the stock test sets inside [1, n].

    kind 'full' is all of [1, n]; 'evens' the even numbers; 'ap' the
    arithmetic progression start, start+step, ... capped at n; 'random'
    keeps each element independently with the given density, drawn from
    the Mersenne Twister seeded with `seed` (see bernoulli_mask).  Each
    kind is built as a mask, filled by one slice or drawn, and the set
    keeps it.  An n past AMBIENT_BUDGET is refused before anything is
    built.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n > AMBIENT_BUDGET:
        raise ValueError(f"ambient budget exceeded: need N <= {AMBIENT_BUDGET}")
    if kind == "random":
        return IntegerSet(n, _Fresh(bernoulli_mask(n, density, seed)))
    if kind == "ap":
        start, step = _integer(start), _integer(step)
        if step < 1 or start < 1:
            raise ValueError("ap needs start >= 1 and step >= 1")
    # element x sits at index x - 1; a slice past n is empty, not an error
    picked = {"full": slice(None), "evens": slice(1, None, 2),
              "ap": slice(start - 1, None, step)}.get(kind)
    if picked is None:
        raise ValueError(f"unknown set kind {kind!r} (want full|evens|ap|random)")
    mask = np.zeros(n, dtype=bool)
    mask[picked] = True
    return IntegerSet(n, _Fresh(mask))
