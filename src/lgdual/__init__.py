"""Toric Landau-Ginzburg models over exact integer and rational arithmetic.

Build split-bundle models over the projective line (or any toric variety
given by its ray matrix), take the dual model by exchanging the divisor
and exponent matrix pairs together with their class decorations, and
decide self-duality by exact matrix search.
"""

from .complexq import *
from .errors import *
from .lgmodel import *
from .linalg import *
from .modelfile import *
from .polyhedra import *
from .selfdual import *
from .svg import *
from .toric import *

__version__ = "0.1.0"

# the public names are each module's __all__; importing a module binds its name here
__all__ = (
    complexq.__all__ + errors.__all__ + lgmodel.__all__ + linalg.__all__ + modelfile.__all__
    + polyhedra.__all__ + selfdual.__all__ + svg.__all__ + toric.__all__ + ["__version__"]
)
