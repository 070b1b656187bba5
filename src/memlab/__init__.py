"""Static memory-error analysis and differential benchmarking for a C subset.

Layers:

- ``frontend``: lexer, recursive-descent parser, AST for the supported
  C subset.
- ``cfg``: per-function control-flow graphs.
- ``analysis``: path-sensitive symbolic-heap checkers with tool-emulating
  profiles.
- ``diagnostics``: stable text and structured report rendering.
- ``ingest``: parsers for external analyzers' console reports.
- ``benchlab``: ground truth, TP/FP/FN/TN classification, size classes,
  defect persistence, corpus running.
- ``cli``: the ``memlab`` command.

``import memlab`` loads the four analysis layers only.  The triage names
in ``__all__`` (from ``ingest`` and ``benchlab``) and the attributes
``memlab.ingest`` and ``memlab.benchlab`` import their module on first
access (PEP 562), so an analysis never compiles or runs them.  The four
analysis layers define no dataclasses, so neither ``import memlab`` nor an
analysis imports ``dataclasses``.

A ``CheckerConfig`` is an immutable named tuple: derive one from a profile
with ``PROFILES["union"].replace(path_budget=64)`` or ``with_checkers``,
which check it as its constructor does.  ``dataclasses.replace`` does not
accept it.
"""

import importlib

from .analysis import (
    ALL_CHECKERS,
    ALL_KINDS,
    CheckerConfig,
    Finding,
    PROFILES,
    analyze_unit,
)
from .cfg import build_cfg
from .diagnostics import Report, emit_structured, render_text
from .frontend import parse_file, parse_source

__version__ = "0.1.0"

# Public name -> the triage module that defines it.
_LAZY = {
    **dict.fromkeys((
        "ConfusionMatrix", "GroundTruthEntry", "TruthManifest", "classify",
        "classify_program_size", "compute_persistence",
        "load_corpus_manifest", "load_truth_manifest", "run_corpus"),
        "benchlab"),
    "parse_report": "ingest",
}

__all__ = [
    "ALL_CHECKERS", "ALL_KINDS", "CheckerConfig", "ConfusionMatrix",
    "Finding", "GroundTruthEntry", "PROFILES", "Report",
    "TruthManifest", "analyze_unit", "build_cfg", "classify",
    "classify_program_size", "compute_persistence", "emit_structured",
    "load_corpus_manifest", "load_truth_manifest", "parse_file",
    "parse_report", "parse_source", "render_text", "run_corpus",
    "__version__",
]


def __getattr__(name: str):
    if name in ("benchlab", "ingest"):
        return importlib.import_module(f".{name}", __name__)
    if name in _LAZY:
        module = importlib.import_module(f".{_LAZY[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__, "benchlab", "ingest"})
