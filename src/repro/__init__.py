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

from .core.pipeline import ConsistencyReport, SpecCC, SpecCCConfig
from .logic import parse as parse_ltl
from .synthesis.realizability import Verdict
from .translate.semantics import SemanticsDelta
from .translate.templates import TranslationOptions
from .translate.timeabs import AbstractionMethod
from .translate.translator import Translator

__version__ = "1.4.0"

__all__ = [
    "AbstractionMethod",
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
    "__version__",
]

#: The serving tier's exports and their submodules of :mod:`repro.service`.
#: They load on first access (PEP 562), so a one-shot check imports no
#: serving module, nor ``asyncio`` or ``multiprocessing`` through one.
_SERVICE_EXPORTS = {
    "BatchChecker": "batch",
    "SessionReport": "session",
    "SpecSession": "session",
    "WorkerPool": "pool",
}


def __getattr__(name: str):
    submodule = _SERVICE_EXPORTS.get(name)
    if submodule is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.service.{submodule}"), name)
    globals()[name] = value
    return value
