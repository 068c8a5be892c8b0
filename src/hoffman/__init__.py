"""Exact error-bound analysis for systems of linear inequalities.

The package decides, with exact rational arithmetic, whether a system
`A x <= b` admits a global error bound (residuals bound distances to the
solution set), whether that bound is stable under small anchored tilts of
the data, and what the sharp constant is; negative verdicts come with
certificates checkable by substitution.  A seeded floating-point sampling
module cross-checks the exact engines but never feeds them.
"""

from . import activesets, analysis, convex, formats, lp, rational, sampling
from .rational import *
from .lp import *
from .convex import *
from .activesets import *
from .analysis import *
from .sampling import *
from .formats import *

__version__ = "0.1.0"

# Each public name is declared once, by the `__all__` of the module that
# defines it.
__all__ = [
    *rational.__all__,
    *lp.__all__,
    *convex.__all__,
    *activesets.__all__,
    *analysis.__all__,
    *sampling.__all__,
    *formats.__all__,
    "__version__",
]
