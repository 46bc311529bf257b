"""Exactly solvable Hermitian dilation of a swept two-level PT-symmetric model.

Analytic Whittaker/closed-form solutions, the two-parameter metric operator
with validity analysis, the 4x4 Hermitian embedding, and verified
co-simulation of both systems.  The package's public names are its
modules' `__all__`.
"""

from .dilation import *
from .errors import *
from .evolve import *
from .metric import *
from .model import *
from .solutions import *
from .specfun import *

__version__ = "0.1.0"
