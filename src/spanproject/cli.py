"""Batch command-line interface.

Subcommands: ``project`` (label a target corpus), ``candidates`` (dump
n-gram candidate spans), ``solve`` (debug one sentence's matching problem),
``evaluate`` (score a prediction against gold).

Exit codes: 0 success, 1 usage, 2 data or format problem, 3 infeasibility
or solver guard. Knobs resolve as command line over config file over
defaults. Output files are written atomically, so a failing run never
leaves a partial file behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path

from .candidates import SourceKind, ngram_candidates
from .core import AlignmentSet, EntitySpan, LabeledSentence, Sentence
from .errors import (
    DataError,
    FormatError,
    GuardError,
    InfeasibleError,
    UsageError,
)
from .evaluation import evaluate, render_report, report_record
from .formats import (
    CorpusDocument,
    parse_conll,
    parse_marked_sentence,
    parse_pharaoh,
    parse_span_records,
    parse_translations_line,
    serialize_conll,
    serialize_span_records,
)
from .matching import (
    BRUTE_FORCE_MAX_CANDIDATES,
    BRUTE_FORCE_MAX_SOURCES,
    MatchMode,
    render_problem,
    solve_bruteforce,
)
from .projection import (
    Method,
    ProjectionConfig,
    Solver,
    assign_marker_labels,
    matching_problem,
    project_heuristic,
    project_matching,
    solve,
)


class Direction(Enum):
    SRC2TGT = "src2tgt"
    TGT2TGT = "tgt2tgt"


@dataclass(frozen=True, slots=True)
class RunManifest:
    """A fully resolved projection run: configuration plus every file path."""

    config: ProjectionConfig
    direction: Direction
    target_path: Path
    align_path: Path
    labeled_path: Path | None = None
    spans_path: Path | None = None
    marked_path: Path | None = None
    translations_path: Path | None = None
    out_path: Path | None = None
    jobs: int = 1
    skip_bad: bool = False


@dataclass(frozen=True, slots=True)
class LoadedInputs:
    """Parsed run inputs, cross-checked for consistent sentence counts.

    The labeled side stays per-sentence raw material for the tgt2tgt
    direction (marker parsing happens in the worker so --skip-bad-sentences
    can catch per-sentence marker damage).
    """

    target: CorpusDocument
    align_lines: tuple[str, ...]
    labeled_doc: CorpusDocument | None = None
    marked_lines: tuple[str, ...] | None = None
    translations_lines: tuple[str, ...] | None = None
    spans_by_id: dict[int, list[EntitySpan]] | None = None


def _read_text(path: Path) -> str:
    # utf-8-sig drops a byte-order mark that would otherwise join the first token
    return path.read_text(encoding="utf-8-sig")


def _file_lines(text: str) -> list[str]:
    """Exact line split: a single final newline does not create a last empty line."""
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def atomic_write(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a partial file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


_CONFIG_KEYS = ("method", "candidates", "solver", "mode", "threshold", "max_ngram")


def load_config_file(path: Path) -> dict[str, str]:
    """Parse a key=value config file; '#' starts a comment line."""
    try:
        text = _read_text(path)
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, sep, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise UsageError(f"config file line {lineno} is not key=value: {line!r}")
        if key not in _CONFIG_KEYS:
            raise UsageError(f"unknown config key {key!r}; known keys: {', '.join(_CONFIG_KEYS)}")
        values[key] = value
    return values


def _pick(cli_value, file_values: dict[str, str], key: str):
    if cli_value is not None:
        return cli_value
    return file_values.get(key)


def _as_enum(enum_cls, raw, flag: str):
    try:
        return enum_cls(raw)
    except ValueError:
        valid = ", ".join(member.value for member in enum_cls)
        raise UsageError(f"invalid value {raw!r} for {flag}; expected one of: {valid}") from None


def _as_fraction(raw, flag: str) -> Fraction:
    try:
        return Fraction(str(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid rational {raw!r} for {flag}: {exc}") from exc


def _as_positive_int(raw, flag: str) -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid integer {raw!r} for {flag}") from exc
    if value < 1:
        raise UsageError(f"{flag} must be at least 1, got {value}")
    return value


def resolve_config(args: argparse.Namespace) -> ProjectionConfig:
    """Merge flags over config-file values over defaults into a ProjectionConfig."""
    file_values = load_config_file(Path(args.config)) if getattr(args, "config", None) else {}
    defaults = ProjectionConfig()

    method = _pick(getattr(args, "method", None), file_values, "method")
    cand = _pick(getattr(args, "candidates", None), file_values, "candidates")
    solver = _pick(getattr(args, "solver", None), file_values, "solver")
    mode = _pick(getattr(args, "mode", None), file_values, "mode")
    threshold = _pick(getattr(args, "threshold", None), file_values, "threshold")
    max_ngram = _pick(getattr(args, "max_ngram", None), file_values, "max_ngram")

    try:
        return ProjectionConfig(
            method=_as_enum(Method, method, "--method") if method else defaults.method,
            candidate_source=(
                _as_enum(SourceKind, cand, "--candidates") if cand else defaults.candidate_source
            ),
            solver=_as_enum(Solver, solver, "--solver") if solver else defaults.solver,
            ratio_threshold=(
                _as_fraction(threshold, "--threshold")
                if threshold is not None
                else defaults.ratio_threshold
            ),
            max_ngram_len=(
                _as_positive_int(max_ngram, "--max-ngram")
                if max_ngram is not None
                else defaults.max_ngram_len
            ),
            mode=_as_enum(MatchMode, mode, "--mode") if mode else defaults.mode,
        )
    except DataError as exc:
        raise UsageError(str(exc)) from exc


def build_manifest(args: argparse.Namespace) -> RunManifest:
    config = resolve_config(args)
    direction = Direction(args.direction)
    needs_out = args.command in ("project",)

    if args.target is None:
        raise UsageError("--target is required")
    if args.align is None:
        raise UsageError("--align is required")
    if needs_out and args.out is None:
        raise UsageError("--out is required")

    if direction is Direction.SRC2TGT:
        if args.labeled is None:
            raise UsageError("--labeled is required for --direction src2tgt")
        if args.marked or args.translations:
            raise UsageError("--marked/--translations only apply to --direction tgt2tgt")
    else:
        if args.marked is None or args.translations is None:
            raise UsageError("--marked and --translations are required for --direction tgt2tgt")
        if args.labeled:
            raise UsageError("--labeled does not apply to --direction tgt2tgt")

    wants_spans = (
        config.method is Method.CANDIDATE_MATCHING
        and config.candidate_source is SourceKind.EXTERNAL_NER
    )
    if wants_spans and args.spans is None:
        raise UsageError("--spans is required when --candidates ner")
    if not wants_spans and args.spans is not None:
        raise UsageError("--spans is only used with --method matching --candidates ner")

    jobs = getattr(args, "jobs", 1)
    if jobs < 1:
        raise UsageError(f"--jobs must be at least 1, got {jobs}")

    return RunManifest(
        config=config,
        direction=direction,
        target_path=Path(args.target),
        align_path=Path(args.align),
        labeled_path=Path(args.labeled) if args.labeled else None,
        spans_path=Path(args.spans) if args.spans else None,
        marked_path=Path(args.marked) if args.marked else None,
        translations_path=Path(args.translations) if args.translations else None,
        out_path=Path(args.out) if getattr(args, "out", None) else None,
        jobs=jobs,
        skip_bad=bool(getattr(args, "skip_bad_sentences", False)),
    )


def load_inputs(manifest: RunManifest) -> LoadedInputs:
    """Read and parse every input file, then check counts line up."""
    target = parse_conll(_read_text(manifest.target_path))
    n = len(target)
    align_lines = _file_lines(_read_text(manifest.align_path))
    if len(align_lines) != n:
        raise DataError(
            f"alignment file has {len(align_lines)} lines for {n} target sentences"
        )

    labeled_doc = None
    marked_lines = translations_lines = None
    if manifest.direction is Direction.SRC2TGT:
        labeled_doc = parse_conll(_read_text(manifest.labeled_path))
        if len(labeled_doc) != n:
            raise DataError(
                f"labeled corpus has {len(labeled_doc)} sentences for {n} target sentences"
            )
    else:
        marked_lines = tuple(_file_lines(_read_text(manifest.marked_path)))
        translations_lines = tuple(_file_lines(_read_text(manifest.translations_path)))
        if len(marked_lines) != n:
            raise DataError(f"marked file has {len(marked_lines)} lines for {n} target sentences")
        if len(translations_lines) != n:
            raise DataError(
                f"translations file has {len(translations_lines)} lines for {n} target sentences"
            )

    spans_by_id = None
    if manifest.spans_path is not None:
        spans_by_id = parse_span_records(_read_text(manifest.spans_path))
        for sentence_id in spans_by_id:
            if sentence_id >= n:
                raise DataError(
                    f"span record for sentence {sentence_id} but corpus has {n} sentences"
                )

    return LoadedInputs(
        target=target,
        align_lines=tuple(align_lines),
        labeled_doc=labeled_doc,
        marked_lines=marked_lines,
        translations_lines=translations_lines,
        spans_by_id=spans_by_id,
    )


def _sentence_inputs(
    inputs: LoadedInputs, i: int
) -> tuple[LabeledSentence, Sentence, AlignmentSet, list[EntitySpan] | None]:
    """Sentence i's (labeled, target, alignment, external spans); alignment errors come first."""
    align = parse_pharaoh(inputs.align_lines[i])
    if inputs.labeled_doc is not None:
        labeled = inputs.labeled_doc.sentences[i]
    else:
        marked = parse_marked_sentence(
            inputs.marked_lines[i], parse_translations_line(inputs.translations_lines[i])
        )
        labeled = assign_marker_labels(marked, sentence_id=i)
    external = None if inputs.spans_by_id is None else inputs.spans_by_id.get(i, [])
    return labeled, inputs.target.sentences[i].sentence, align, external


def _run_projection(manifest: RunManifest, inputs: LoadedInputs) -> list[LabeledSentence]:
    cfg = manifest.config

    def work(i: int) -> LabeledSentence:
        try:
            labeled, target, align, external = _sentence_inputs(inputs, i)
            if cfg.method is Method.HEURISTIC:
                return project_heuristic(labeled, target, align, cfg.ratio_threshold)
            return project_matching(labeled, target, align, cfg, external)
        except (FormatError, DataError, GuardError, InfeasibleError) as exc:
            if not manifest.skip_bad:
                raise
            print(f"warning: sentence {i} skipped: {exc}", file=sys.stderr)
            return LabeledSentence(inputs.target.sentences[i].sentence, ())

    ids = range(len(inputs.target))
    if manifest.jobs == 1:
        return [work(i) for i in ids]
    with ThreadPoolExecutor(max_workers=manifest.jobs) as pool:
        return list(pool.map(work, ids))


def cmd_project(manifest: RunManifest) -> int:
    inputs = load_inputs(manifest)
    results = _run_projection(manifest, inputs)
    atomic_write(manifest.out_path, serialize_conll(CorpusDocument(tuple(results))))
    return 0


def cmd_candidates(args: argparse.Namespace) -> int:
    config = resolve_config(args)
    if config.candidate_source is not SourceKind.NGRAM:
        raise UsageError("the candidates subcommand only generates n-gram candidates")
    if args.target is None:
        raise UsageError("--target is required")
    if args.out is None:
        raise UsageError("--out is required")
    doc = parse_conll(_read_text(Path(args.target)))
    records = {
        labeled.sentence.id: list(ngram_candidates(labeled.sentence, config.max_ngram_len).spans)
        for labeled in doc
    }
    atomic_write(Path(args.out), serialize_span_records(records))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    manifest = build_manifest(args)
    inputs = load_inputs(manifest)
    i = args.sentence
    if not 0 <= i < len(inputs.target):
        raise UsageError(f"--sentence {i} out of range for corpus of {len(inputs.target)}")

    cfg = manifest.config
    labeled, target, align, external = _sentence_inputs(inputs, i)
    problem = matching_problem(labeled, target, align, cfg, external)

    out = sys.stdout
    out.write(render_problem(problem))
    n_src, n_cand = problem.shape
    if n_src == 0 or n_cand == 0:
        out.write("empty problem: nothing to solve\n")
        return 0
    solution = solve(problem, cfg.solver)
    out.write(
        f"{cfg.solver.value}: objective={solution.objective} "
        f"assignments={list(solution.assignments)}\n"
    )
    if cfg.solver is Solver.BRUTE_FORCE:
        return 0
    if n_src <= BRUTE_FORCE_MAX_SOURCES and n_cand <= BRUTE_FORCE_MAX_CANDIDATES:
        oracle = solve_bruteforce(problem)
        out.write(
            f"brute-force oracle: objective={oracle.objective} "
            f"assignments={list(oracle.assignments)}\n"
        )
    else:
        out.write(
            f"brute-force oracle skipped: instance exceeds "
            f"{BRUTE_FORCE_MAX_SOURCES}x{BRUTE_FORCE_MAX_CANDIDATES} guard\n"
        )
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    pred = parse_conll(_read_text(Path(args.pred)))
    gold = parse_conll(_read_text(Path(args.gold)))
    report = evaluate(pred, gold)
    sys.stdout.write(render_report(report))
    sys.stdout.write(json.dumps(report_record(report)) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_common_flags(sub: argparse.ArgumentParser, with_out: bool = True) -> None:
    sub.add_argument("--method", choices=[m.value for m in Method])
    sub.add_argument("--candidates", choices=[k.value for k in SourceKind])
    sub.add_argument("--solver", choices=[s.value for s in Solver])
    sub.add_argument("--mode", choices=[m.value for m in MatchMode])
    sub.add_argument("--threshold", metavar="RATIONAL")
    sub.add_argument("--max-ngram", dest="max_ngram", type=int)
    sub.add_argument("--direction", choices=[d.value for d in Direction], default="src2tgt")
    sub.add_argument("--labeled", metavar="PATH")
    sub.add_argument("--target", metavar="PATH")
    sub.add_argument("--align", metavar="PATH")
    sub.add_argument("--spans", metavar="PATH")
    sub.add_argument("--marked", metavar="PATH")
    sub.add_argument("--translations", metavar="PATH")
    sub.add_argument("--config", metavar="PATH")
    if with_out:
        sub.add_argument("--out", metavar="PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spanproject", description="Cross-lingual entity span projection")
    commands = parser.add_subparsers(dest="command", required=True)

    project = commands.add_parser("project", help="label a target corpus")
    _add_common_flags(project)
    project.add_argument("--jobs", type=int, default=1)
    project.add_argument("--skip-bad-sentences", action="store_true")

    candidates = commands.add_parser("candidates", help="dump n-gram candidate spans")
    candidates.add_argument("--target", metavar="PATH")
    candidates.add_argument("--max-ngram", dest="max_ngram", type=int)
    candidates.add_argument("--candidates", choices=[k.value for k in SourceKind])
    candidates.add_argument("--config", metavar="PATH")
    candidates.add_argument("--out", metavar="PATH")

    solver = commands.add_parser("solve", help="debug one sentence's matching problem")
    _add_common_flags(solver, with_out=False)
    solver.add_argument("--sentence", type=int, default=0)

    ev = commands.add_parser("evaluate", help="score predictions against gold")
    ev.add_argument("pred", metavar="PRED")
    ev.add_argument("gold", metavar="GOLD")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "project":
            return cmd_project(build_manifest(args))
        if args.command == "candidates":
            return cmd_candidates(args)
        if args.command == "solve":
            return cmd_solve(args)
        return cmd_evaluate(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (GuardError, InfeasibleError) as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
