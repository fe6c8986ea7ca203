"""Weighted (A-)numerical radius toolkit.

Radii, Crawford numbers, and range boundaries for operators under a
Hermitian PSD weight; certified lower/upper bound brackets including 2x2
block-matrix bounds; companion-matrix bounds on polynomial zero moduli
with Perron-optimal weights; a JSON/table/SVG command line.

Each module's ``__all__`` lists the names the package re-exports, so a
new public name is added in one place, next to its definition.
"""

from . import arange, bounds, errors, linalg, polyzero, semihilbert
from .arange import *
from .bounds import *
from .errors import *
from .linalg import *
from .polyzero import *
from .semihilbert import *

__version__ = "0.1.0"

__all__ = []
__all__ += arange.__all__
__all__ += bounds.__all__
__all__ += errors.__all__
__all__ += linalg.__all__
__all__ += polyzero.__all__
__all__ += semihilbert.__all__
