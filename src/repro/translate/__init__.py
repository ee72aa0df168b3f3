"""Stage 1 of SpecCC: structured English to LTL with time abstraction and
input/output partitioning."""

from .partition import (
    Partition,
    RequirementPartition,
    classify_requirement,
    partition_formulas,
    partition_report,
)
from .propositions import Proposition, clause_propositions
from .semantics import (
    Color,
    SemanticAnalysis,
    SemanticsDelta,
    WordEntry,
    analyse,
    analyse_incremental,
    mutual_exclusion_assumptions,
    no_reasoning,
)
from .templates import TranslationOptions, clause_formula, group_formula, sentence_formula
from .timeabs import (
    AbstractionMethod,
    AbstractionResult,
    abstract_time,
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
    "abstract_time",
    "analyse",
    "analyse_incremental",
    "chain_lengths",
    "classify_requirement",
    "clause_formula",
    "clause_propositions",
    "group_formula",
    "mutual_exclusion_assumptions",
    "no_reasoning",
    "partition_formulas",
    "partition_report",
    "rewrite_chains",
    "sentence_formula",
]
