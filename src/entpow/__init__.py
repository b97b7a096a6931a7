"""entpow: operator entanglement and entangling power of two-qudit unitaries.

Computes how entangled a unitary operator is, and how much entanglement it
creates on average, from two index rearrangements of its matrix --
realignment and partial transpose -- with closed-form constructors for the
standard gate families and a seeded Monte-Carlo cross-check.

Each module's ``__all__`` states its public names once.  The package
republishes those of the six library modules below, so each of their public
names is also ``entpow.<name>``; ``verify`` and ``cli`` are reached as
submodules.
"""

from .densemat import *  # noqa: F401
from .rearrange import *  # noqa: F401
from .entanglement import *  # noqa: F401
from .operators import *  # noqa: F401
from .opfile import *  # noqa: F401
from .sweep import *  # noqa: F401

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += densemat.__all__
__all__ += rearrange.__all__
__all__ += entanglement.__all__
__all__ += operators.__all__
__all__ += opfile.__all__
__all__ += sweep.__all__
