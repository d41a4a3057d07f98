"""The `project` pipeline rebuilt from the package's public API, with spans.

`project_files` does what `spanproject project` does for one corpus, in the
order `cli._project_sentence` does it, but calls only names exported from
the `spanproject` package root and wraps a span around each call into a
layer. A span's name is `<module>.<operation>`; the modules are the layers
(`cli`, `formats`, `candidates`, `matching`, `projection`). Spans named
`bench.*` are the benchmark's own checks: they belong to no layer and are
subtracted from their parent's self time.

The output must be byte-identical to the CLI's, which shows that the traced
pipeline is the one the end-to-end metrics measure.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

from spanproject import (
    CorpusDocument,
    DataError,
    FormatError,
    GuardError,
    InfeasibleError,
    LabeledSentence,
    Method,
    ProjectionConfig,
    Solver,
    SourceKind,
    assign_marker_labels,
    build_problem,
    external_candidates,
    ngram_candidates,
    parse_conll,
    parse_marked_sentence,
    parse_pharaoh,
    parse_span_records,
    parse_translations_line,
    project_heuristic,
    serialize_conll,
    solve_assignment_exact,
    solve_greedy,
    validate_solution,
)

LAYERS = ("cli", "formats", "candidates", "matching", "projection")

# The solvers the workloads and fixture tests use, with their span names.
_SOLVERS = {
    Solver.GREEDY: (solve_greedy, "matching.solve_greedy"),
    Solver.ASSIGNMENT: (solve_assignment_exact, "matching.solve_assignment"),
}

# Errors the CLI turns into a skipped sentence under --skip-bad-sentences.
_SENTENCE_ERRORS = (FormatError, DataError, GuardError, InfeasibleError)


class CheckFailed(Exception):
    """The pipeline or the program produced output that fails a check."""


@dataclass
class Tracer:
    """Spans and counters kept in memory until the run ends.

    A span is `[name, sentence_id, parent_index, start_ns, end_ns]`; the
    parent index is -1 for a top-level span.
    """

    spans: list[list] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, sentence_id: int | None = None):
        index = len(self.spans)
        record = [name, sentence_id, self._open[-1] if self._open else -1, perf_counter_ns(), 0]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield
        finally:
            record[4] = perf_counter_ns()
            self._open.pop()

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> list[int]:
        """Each span's duration minus the part its direct children cover (ns)."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        """Write the spans as JSON Lines, one span per line."""
        with path.open("w", encoding="utf-8") as fh:
            for name, sentence_id, parent, start, end in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "sentence": sentence_id, "parent": parent,
                         "start_ns": start, "end_ns": end}
                    )
                    + "\n"
                )


@dataclass(frozen=True)
class Inputs:
    """The file paths of one `project` run; `labeled` is None for tgt2tgt."""

    target: Path
    align: Path
    labeled: Path | None = None
    marked: Path | None = None
    translations: Path | None = None
    spans: Path | None = None

    @classmethod
    def from_roles(cls, paths: dict[str, Path]) -> "Inputs":
        """The inputs among a generated corpus's files (`Corpus.write`)."""
        return cls(**{role: path for role, path in paths.items() if role != "gold"})


@dataclass
class PipelineResult:
    text: str
    skipped: list[int]


@dataclass(frozen=True)
class _Loaded:
    """Parsed inputs, as `cli.load_inputs` holds them."""

    target: CorpusDocument
    align_lines: list[str]
    labeled_doc: CorpusDocument | None = None
    marked_lines: list[str] | None = None
    translation_lines: list[str] | None = None
    spans_by_id: dict[int, list] | None = None


def _file_lines(text: str) -> list[str]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def project_files(inputs: Inputs, cfg: ProjectionConfig, tracer: Tracer) -> PipelineResult:
    """Project one corpus as `project --skip-bad-sentences` does, under spans."""
    span = tracer.span
    with span("cli.load"):
        with span("formats.parse_conll"):
            target = parse_conll(_read(inputs.target))
        n = len(target)
        align_lines = _file_lines(_read(inputs.align))
        if len(align_lines) != n:
            raise DataError(f"alignment file has {len(align_lines)} lines for {n} sentences")
        labeled_doc = marked_lines = translation_lines = spans_by_id = None
        if inputs.labeled is not None:
            with span("formats.parse_conll"):
                labeled_doc = parse_conll(_read(inputs.labeled))
            if len(labeled_doc) != n:
                raise DataError(f"labeled corpus has {len(labeled_doc)} sentences for {n}")
        else:
            marked_lines = _file_lines(_read(inputs.marked))
            translation_lines = _file_lines(_read(inputs.translations))
            if not len(marked_lines) == len(translation_lines) == n:
                raise DataError("marked or translations line count differs from the target")
        if inputs.spans is not None:
            with span("formats.parse_span_records"):
                spans_by_id = parse_span_records(_read(inputs.spans))
            if any(sentence_id >= n for sentence_id in spans_by_id):
                raise DataError("span record for a sentence beyond the corpus")
    tracer.count("formats.tokens", sum(len(s.sentence) for s in target))
    if labeled_doc is not None:
        tracer.count("formats.tokens", sum(len(s.sentence) for s in labeled_doc))

    loaded = _Loaded(
        target, align_lines, labeled_doc, marked_lines, translation_lines, spans_by_id
    )
    results: list[LabeledSentence] = []
    skipped: list[int] = []
    for i in range(n):
        with span("cli.sentence", i):
            try:
                results.append(_project_sentence(i, loaded, cfg, tracer))
            except _SENTENCE_ERRORS:
                skipped.append(i)
                results.append(LabeledSentence(target.sentences[i].sentence, ()))
    with span("formats.serialize_conll"):
        text = serialize_conll(CorpusDocument(tuple(results)))
    return PipelineResult(text, skipped)


def _project_sentence(
    i: int, loaded: _Loaded, cfg: ProjectionConfig, tracer: Tracer
) -> LabeledSentence:
    span = tracer.span
    target_sentence = loaded.target.sentences[i].sentence
    with span("formats.parse_pharaoh", i):
        align = parse_pharaoh(loaded.align_lines[i])
    tracer.count("formats.align_pairs", len(align))
    if loaded.labeled_doc is not None:
        labeled = loaded.labeled_doc.sentences[i]
    else:
        with span("formats.parse_marked", i):
            marked = parse_marked_sentence(
                loaded.marked_lines[i], parse_translations_line(loaded.translation_lines[i])
            )
        tracer.count("formats.tokens", len(marked.tokens))
        with span("projection.marker_labels", i):
            labeled = assign_marker_labels(marked, sentence_id=i)

    if cfg.method is Method.HEURISTIC:
        with span("projection.heuristic", i):
            return project_heuristic(labeled, target_sentence, align, cfg.ratio_threshold)

    solve, solve_span = _SOLVERS[cfg.solver]
    with span("projection.matching", i):
        align.check_bounds(len(labeled.sentence), len(target_sentence))
        with span("candidates.build", i):
            if cfg.candidate_source is SourceKind.EXTERNAL_NER:
                spans_by_id = loaded.spans_by_id
                external = spans_by_id.get(i, []) if spans_by_id is not None else None
                if external is None:
                    raise DataError(f"no external candidate spans for sentence {i}")
                cands = external_candidates(target_sentence, external)
            else:
                cands = ngram_candidates(target_sentence, cfg.max_ngram_len)
        with span("matching.build_problem", i):
            problem = build_problem(labeled, cands, align, cfg.mode)
        with span(solve_span, i):
            solution = solve(problem)
        result = LabeledSentence(
            target_sentence,
            tuple(
                cands.spans[t].with_label(labeled.entities[s].label)
                for s, t in solution.assignments
            ),
        )
    with span("bench.check", i):
        try:
            validate_solution(problem, solution)
        except DataError as exc:
            raise CheckFailed(f"sentence {i}: invalid solver result: {exc}") from exc
        n_src, n_cand = problem.shape
        tracer.count("candidates.count", n_cand)
        tracer.counts["candidates.max_per_sentence"] = max(
            tracer.counts.get("candidates.max_per_sentence", 0), n_cand
        )
        tracer.count("matching.cells", n_src * n_cand)
        tracer.count("matching.positive_cells", sum(c > 0 for row in problem.costs for c in row))
        tracer.count("matching.assignments", len(solution.assignments))
    return result


# --- per-layer metrics ----------------------------------------------------

# Spans whose summed self time is reported as `<name>_s`: those the gated
# workloads (BENCHMARK.json) call. The marker round trip's spans
# (`formats.parse_marked`, `formats.parse_span_records`,
# `projection.marker_labels`, `matching.solve_assignment`) count toward
# their layer totals and appear in the written spans.
TIMED_SPANS = (
    "cli.load",
    "formats.parse_conll",
    "formats.parse_pharaoh",
    "formats.serialize_conll",
    "candidates.build",
    "matching.build_problem",
    "matching.solve_greedy",
    "projection.heuristic",
    "projection.matching",
)

COUNTS = (
    "formats.tokens",
    "formats.align_pairs",
    "candidates.count",
    "candidates.max_per_sentence",
    "matching.cells",
    "matching.positive_cells",
    "matching.assignments",
)


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def sentence_ms(tracer: Tracer) -> list[float]:
    """Per-sentence pipeline time, without the benchmark's own checks."""
    sentence_ns: dict[int, int] = {}
    for name, sentence_id, _, start, end in tracer.spans:
        if name == "cli.sentence":
            sentence_ns[sentence_id] = end - start
        elif name == "bench.check":
            sentence_ns[sentence_id] -= end - start
    return [ns / 1e6 for ns in sentence_ns.values()]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Self time per traced operation and per layer, and the counters."""
    by_name: dict[str, int] = {}
    for span, self_ns in zip(tracer.spans, tracer.self_times()):
        by_name[span[0]] = by_name.get(span[0], 0) + self_ns
    metrics: dict[str, float] = {f"{name}_s": by_name.get(name, 0) / 1e9 for name in TIMED_SPANS}
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = sum(
            ns for name, ns in by_name.items() if name.split(".")[0] == layer
        ) / 1e9
    metrics["layer.total_s"] = sum(metrics[f"layer.{layer}_s"] for layer in LAYERS)
    counts = tracer.counts
    for name in COUNTS:
        metrics[name] = counts.get(name, 0)
    metrics["matching.positive_ratio"] = _ratio(
        counts.get("matching.positive_cells", 0), counts.get("matching.cells", 0)
    )
    return metrics
