"""Exact-arithmetic toolkit for Pythagorean, natural and equal-tempered pitch.

The pieces: `exact` (canonical rationals, exponent vectors, smoothness),
`means` (the three proportional means), `scales` (diapason folding,
canonical scale constants, cycles of fifths, equal temperament),
`generator` (mean closure to a fixpoint, with trace), `analysis`
(classified mean tables, commas, census and ET comparison) and `cli`.
"""

from .exact import *
from .means import *
from .scales import *
from .generator import *
from .analysis import *

__version__ = "0.6.11"
