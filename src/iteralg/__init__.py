"""iteralg: pure morphic words and the ring theory of their monomial algebras."""

from .config import AnalysisConfig
from .deciders import (
    ComplexityClass,
    ComplexityResult,
    DeciderOutputs,
    PropertyReport,
    Verdict,
    VerdictValue,
    classify_complexity,
    decide_eventual_periodicity,
    decide_prime,
    decide_primitive,
    decide_uniform_recurrence,
    ring_property_report,
    run_deciders,
)
from .errors import (
    ContractError,
    InvariantError,
    IterAlgError,
    MorphismParseError,
    NoSplitError,
    NotProlongableError,
    RecurrenceValidationError,
    ResourceBudgetError,
)
from .matrices import (
    CharPoly,
    IncidenceMatrix,
    LinearRecurrence,
    WeightSequences,
    char_poly,
    incidence_matrix,
    recurrence_from_charpoly,
    weight_sequence,
)
from .words import (
    FactorSet,
    Morphism,
    ShapeRecord,
    Word,
    WordPrefix,
    classify_shape,
    factor_closure,
    fixed_point_prefix,
    is_factor,
    is_prolongable,
    load_morphism,
    mortal_letters,
    parse_morphism,
    subword_complexity,
)

__version__ = "0.1.0"
