"""Cross-lingual entity span projection via alignment-weighted span matching.

Every public name resolves on first access (PEP 562), importing only the
submodule that defines it: ``import spanproject`` loads nothing else, so
each command of ``spanproject.cli`` pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "candidates": ("CandidateSet", "external_candidates", "ngram_candidates"),
    "core": (
        "AlignmentSet",
        "EntitySpan",
        "LabeledSentence",
        "MatchMode",
        "Sentence",
        "SourceKind",
        "bio_decode",
        "bio_encode",
        "spans_overlap",
    ),
    "errors": (
        "DataError",
        "FormatError",
        "GuardError",
        "InfeasibleError",
        "SpanProjectError",
        "UsageError",
    ),
    "evaluation": ("EvalReport", "LabelScores", "evaluate", "render_report", "report_record"),
    "formats": (
        "CorpusDocument",
        "parse_conll",
        "parse_pharaoh",
        "parse_span_records",
        "serialize_conll",
        "serialize_pharaoh",
        "serialize_span_records",
    ),
    "matching": (
        "MatchingProblem",
        "MatchingSolution",
        "build_problem",
        "render_problem",
        "solve_assignment_exact",
        "solve_exact",
        "solve_greedy",
        "validate_solution",
    ),
    "projection": (
        "Method",
        "ProjectionConfig",
        "Solver",
        "project_heuristic",
        "project_matching",
    ),
    "roundtrip": (
        "MarkedSentence",
        "assign_marker_labels",
        "edit_distance",
        "fuzzy_similarity",
        "parse_marked_sentence",
        "parse_translations_line",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
