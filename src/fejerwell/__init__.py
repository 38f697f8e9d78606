"""Equal-weight wave packets in the infinite square well, their closed-form
expectation values, and the weighted (Fejer-style) Fourier averages of the
matching classical bounce trajectory.

The package re-exports the public names of its modules; each module
declares them once, in its own __all__.
"""

from . import classical, core, limits, optimizer, quantum
from .classical import *
from .core import *
from .limits import *
from .optimizer import *
from .quantum import *

__version__ = "0.1.0"

__all__ = []
__all__ += core.__all__
__all__ += classical.__all__
__all__ += quantum.__all__
__all__ += optimizer.__all__
__all__ += limits.__all__
