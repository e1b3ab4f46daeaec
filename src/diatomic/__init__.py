"""Exact arithmetic on Stern's diatomic table.

Sequence values and table addressing, the design word algebra, continuants
and continued fractions, nonnegative unimodular matrix words, the assembly
map with exact enclosures, periodic designs with their quadratic
irrationals, and difference-quotient probes at rational points.

Each module's __all__ lists its public names; the package exports their union.
"""

from . import assembly, continuant, derivative, design, matrix, quadratic, rational, sdi
from ._backend import BACKEND

__version__ = "0.1.0"

# read before the star imports, whose functions continuant and sdi take their modules' names
__all__ = ["BACKEND"]
__all__ += assembly.__all__
__all__ += continuant.__all__
__all__ += derivative.__all__
__all__ += design.__all__
__all__ += matrix.__all__
__all__ += quadratic.__all__
__all__ += rational.__all__
__all__ += sdi.__all__

from .assembly import *
from .continuant import *
from .derivative import *
from .design import *
from .matrix import *
from .quadratic import *
from .rational import *
from .sdi import *
