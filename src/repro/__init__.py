"""SpecCC — formal consistency checking over specifications in natural
languages.

A from-scratch reproduction of Yan, Cheng, Zhang & Chai (DATE 2015): a
structured-English-to-LTL translator with semantic reasoning and time
abstraction, an LTL synthesis back end for realizability-based consistency
checking, and the heuristic refinement loop connecting them.

Quickstart::

    from repro import SpecCC

    tool = SpecCC()
    report = tool.check_document(
        '''
        When the button is pressed, eventually the door is opened.
        If the alarm is active, the door is not opened.
        '''
    )
    print(report.summary())
"""

from .core.graph import AnalysisGraph, shared_graph
from .core.pipeline import ConsistencyReport, SpecCC, SpecCCConfig
from .logic import parse as parse_ltl
from .service import BatchChecker, SessionReport, SpecSession, WorkerPool
from .synthesis.realizability import Verdict
from .translate.semantics import SemanticsDelta
from .translate.templates import TranslationOptions
from .translate.timeabs import AbstractionMethod
from .translate.translator import Translator

__version__ = "1.4.0"

__all__ = [
    "AbstractionMethod",
    "AnalysisGraph",
    "BatchChecker",
    "ConsistencyReport",
    "SemanticsDelta",
    "SessionReport",
    "SpecCC",
    "SpecCCConfig",
    "SpecSession",
    "TranslationOptions",
    "Translator",
    "Verdict",
    "WorkerPool",
    "parse_ltl",
    "shared_graph",
    "__version__",
]
