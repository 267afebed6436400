"""Exact-arithmetic toolkit for Pythagorean, natural and equal-tempered pitch.

The pieces: `exact` (canonical rationals, factorization, smoothness),
`means` (the three proportional means), `scales` (diapason folding,
canonical scale constants, cycles of fifths, equal temperament),
`generator` (mean closure to a fixpoint, with trace), `analysis`
(classified mean tables, commas, census and ET comparison) and `cli`.
"""

from .exact import (
    FIVE_LIMIT,
    MAGNITUDE_LIMIT,
    ONE,
    TWO,
    Factorization,
    Ratio,
    RatioOverflowError,
    Restriction,
    THREE_LIMIT,
    exact_sqrt,
    factorize,
    is_smooth,
    parse_ratio,
)
from .means import (
    MeanKind,
    StringModel,
    duality_check,
    frequency_of_length,
    is_proportion,
    mean_arithmetic,
    mean_geometric,
    mean_harmonic,
    mean_of_kind,
)
from .scales import (
    CANONICAL_NAMES,
    EqualTemperament,
    PitchClass,
    Scale,
    SpiralTone,
    canonical,
    cents,
    equal_temperament,
    fifths_spiral,
    pythagorean_by_diapente,
    reduce_to_diapason,
    scale_from_json_dict,
    step_intervals,
)
from .generator import (
    ClosureTrace,
    Generation,
    GeneratorConfig,
    Witness,
    closure_order_independence,
    generate_means,
    mean_closure,
)
from .analysis import (
    DiapenteRecipe,
    EqualComparison,
    INTERVAL_NAMES,
    IntervalCount,
    TableCell,
    TableClass,
    Transposition,
    compare_to_equal,
    comma_between,
    factor_identity,
    hexachord_diapente_check,
    interval_census,
    interval_name,
    mean_table,
)

__version__ = "0.2.0"
