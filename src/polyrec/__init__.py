"""Desk-scale computational machinery for simultaneous polynomial recurrence.

The package follows one pipeline: a subset of [1, N] and a family of
integer polynomials with zero constant term go in; Fourier analysis on
Z_N, exponential-sum moments, lattice Gaussian sums, and finite
recurrence searches certify which shifts P_i(n) nearly preserve the
set's density, and why.
"""

from . import (config, intset, zn_fourier, polyfam, weyl_tarry, recurrence,
               lattice_dioph, ergodic_lab)
from .config import *
from .intset import *
from .zn_fourier import *
from .polyfam import *
from .weyl_tarry import *
from .recurrence import *
from .lattice_dioph import *
from .ergodic_lab import *

__version__ = "0.1.0"

__all__ = [name for module in (config, intset, zn_fourier, polyfam, weyl_tarry,
                               recurrence, lattice_dioph, ergodic_lab)
           for name in module.__all__]
