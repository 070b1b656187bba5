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
"""

from .analysis import (
    ALL_CHECKERS,
    ALL_KINDS,
    CheckerConfig,
    Finding,
    PROFILES,
    analyze_unit,
)
from .benchlab import (
    ConfusionMatrix,
    GroundTruthEntry,
    TruthManifest,
    classify,
    classify_program_size,
    compute_persistence,
    expected_present,
    load_corpus_manifest,
    load_truth_manifest,
    match_finding,
    run_corpus,
)
from .cfg import build_cfg
from .diagnostics import Report, emit_structured, render_text
from .frontend import parse_file, parse_source
from .ingest import parse_report

__version__ = "0.1.0"

__all__ = [
    "ALL_CHECKERS", "ALL_KINDS", "CheckerConfig", "ConfusionMatrix",
    "Finding", "GroundTruthEntry", "PROFILES", "Report",
    "TruthManifest", "analyze_unit", "build_cfg", "classify",
    "classify_program_size", "compute_persistence", "emit_structured",
    "expected_present", "load_corpus_manifest", "load_truth_manifest",
    "match_finding", "parse_file", "parse_report", "parse_source",
    "render_text", "run_corpus", "__version__",
]
