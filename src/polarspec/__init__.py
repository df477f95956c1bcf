"""Exact ensemble-average weight spectra of pre-transformed polar codes.

The package exports exactly the names in its modules' ``__all__``.
"""

from . import construct, dyadic, kernel, oracle, pretransform, report, scl, spectrum
from .construct import *
from .dyadic import *
from .kernel import *
from .oracle import *
from .pretransform import *
from .report import *
from .scl import *
from .spectrum import *

__version__ = "1.0.0"

__all__ = [*construct.__all__, *dyadic.__all__, *kernel.__all__, *oracle.__all__,
           *pretransform.__all__, *report.__all__, *scl.__all__, *spectrum.__all__]
