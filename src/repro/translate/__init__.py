"""Stage 1 of SpecCC: structured English to LTL with time abstraction and
input/output partitioning."""

from .partition import (
    Partition,
    RequirementPartition,
    classify_requirement,
    partition_formulas,
)
from .propositions import Proposition
from .semantics import (
    Color,
    SemanticAnalysis,
    SemanticsDelta,
    WordEntry,
    analyse_incremental,
    mutual_exclusion_assumptions,
    no_reasoning,
)
from .templates import TranslationOptions, clause_formula, group_formula, sentence_formula
from .timeabs import (
    AbstractionMethod,
    AbstractionResult,
    chain_lengths,
    rewrite_chains,
)
from .translator import (
    RequirementTranslation,
    SpecificationTranslation,
    Translator,
)

__all__ = [
    "AbstractionMethod",
    "AbstractionResult",
    "Color",
    "Partition",
    "Proposition",
    "RequirementPartition",
    "RequirementTranslation",
    "SemanticAnalysis",
    "SemanticsDelta",
    "SpecificationTranslation",
    "TranslationOptions",
    "Translator",
    "WordEntry",
    "analyse_incremental",
    "chain_lengths",
    "classify_requirement",
    "clause_formula",
    "group_formula",
    "mutual_exclusion_assumptions",
    "no_reasoning",
    "partition_formulas",
    "rewrite_chains",
    "sentence_formula",
]
