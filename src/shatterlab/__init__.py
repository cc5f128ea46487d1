"""Exact combinatorics lab: set-system dimensions, banned sequence
problems, type trees, and test-tree sampling audits.  The package exports
each module's ``__all__`` and the four error classes."""

from .errors import InputError, ResourceCapError, VerificationError, ShatterLabError
from .setsystem import *
from .geometry import *
from .dims import *
from .banseq import *
from .typetree import *
from .thicketvc import *

__version__ = "0.1.0"
