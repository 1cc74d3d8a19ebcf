"""Peak-gain analysis, worst-case inputs, and delay-predictor bounds for
stable LTI systems."""

# The public names are each module's own __all__, re-exported whole.
from .exceptions import *
from .linalg import *
from .quadrature import *
from .signals import *
from .gains import *
from .sim import *
from .delay import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *exceptions.__all__,
    *linalg.__all__,
    *quadrature.__all__,
    *signals.__all__,
    *gains.__all__,
    *sim.__all__,
    *delay.__all__,
]
