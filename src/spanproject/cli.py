"""Batch command-line interface.

Subcommands: ``project`` (label a target corpus), ``candidates`` (dump
n-gram candidate spans), ``solve`` (debug one sentence's matching problem),
``evaluate`` (score a prediction against gold).

Exit codes: 0 success, 1 usage, 2 data or format problem, 3 infeasibility
or solver guard. Each command's options resolve as command line over config
file over defaults; a command checks every config value but uses only the
keys of its own flags. Output files are written atomically (through a
symbolic link, as open would), so a failing run leaves no partial file.

Each command imports only what it runs: ``candidates`` and ``matching`` for
matching runs and ``solve``, ``candidates`` for the ``candidates`` command,
``roundtrip`` for ``--direction tgt2tgt``, ``evaluation`` for ``evaluate``,
and the JSON codec only for span records and ``evaluate``'s record (worker
payloads go through the builtin ``marshal``). A heuristic run loads neither
``candidates`` nor ``matching``. A round-trip run loads ``roundtrip`` while
it reads its inputs, and a matching run loads ``matching`` (and with it
``candidates``) before it forks, so no worker compiles either again.

Every ``project`` and ``solve`` run reads its inputs one way
(``open_inputs``): every file is read and every count checked on sentence
blocks, and the CoNLL files are parsed one chunk of sentences at a time. A
``project`` run of one ``--jobs`` worker, like ``solve``, parses one chunk,
the whole corpus; with more, each worker parses the sentences of its own.

The console script and ``python -m spanproject.cli`` enter through
``entrypoint``, which runs ``main`` with the cyclic garbage collector off and
freezes every live object when ``main`` returns, so that the collections
interpreter finalization runs skip them. Nothing is lost: a run's values are
acyclic and reference counting frees them, so a run leaves the same cyclic
garbage (the argument parser's own cycles) for one sentence as for
thousands. Forked ``--jobs`` workers inherit the disabled collector.
``main`` itself keeps the collector, for in-process callers.
"""

from __future__ import annotations

import argparse
import gc
import marshal
import os
import re
import stat
import sys
import tempfile
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Sequence

from .core import AlignmentSet, EntitySpan, LabeledSentence, MatchMode, SourceKind
from .errors import (
    DataError,
    FormatError,
    GuardError,
    InfeasibleError,
    UsageError,
)
from .formats import (
    _BLOCK,
    _conll_sentences,
    conll_block,
    parse_conll,
    parse_pharaoh,
    parse_span_records,
    serialize_span_records,
)
from .projection import (
    Method,
    ProjectionConfig,
    Solver,
    matching_problem,
    project_heuristic,
    project_matching,
    solve,
)


# A chunk's inputs per sentence: i -> (labeled, alignment, external spans).
Inputs = Callable[[int], tuple[LabeledSentence, AlignmentSet, list[EntitySpan] | None]]

# A chunk loader: (a, b) -> (the target corpus's sentences a..b-1, their inputs).
Loader = Callable[[int, int], tuple[Sequence[LabeledSentence], Inputs]]

# Per-sentence failures: fatal by default, a skipped sentence under --skip-bad-sentences.
_SENTENCE_ERRORS = (FormatError, DataError, GuardError, InfeasibleError)


def _read_text(path: Path) -> str:
    """The file decoded as UTF-8 with universal newlines, minus a leading BOM.

    A byte-order mark would otherwise join the first token. Bytes that are not
    UTF-8 are a FormatError naming the file and the line.
    """
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise FormatError(
            f"{path}: line {line}: invalid UTF-8 byte 0x{data[exc.start]:02x}"
        ) from None
    return text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n")


def _parse_file(path: Path, parse):
    """The whole file's text through parse; a FormatError names the file."""
    return _in_file(path, parse, _read_text(path))


def _in_file(path: Path, parse, *args):
    """``parse(*args)``, with a FormatError naming the file path."""
    try:
        return parse(*args)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _line_files(n: int, *files: tuple[str, str]) -> list[Callable]:
    """Read line-per-sentence files, then check that each has n lines.

    Each (path, what) pair gives a function ``parse(i, parse_line)``: line i
    through parse_line, with a FormatError naming the file and the line.
    Every file is read before any count is checked. A single final newline
    does not make a last empty line.
    """
    read = []
    for path, what in files:
        path = Path(path)
        lines = _read_text(path).split("\n")
        if lines[-1] == "":
            lines.pop()
        read.append((path, what, lines))
    for _, what, lines in read:
        if len(lines) != n:
            raise DataError(f"{what} has {len(lines)} lines for {n} target sentences")
    return [partial(_parse_line, path, lines) for path, _, lines in read]


def _parse_line(path: Path, lines: list[str], i: int, parse_line):
    try:
        return parse_line(lines[i])
    except FormatError as exc:
        raise FormatError(f"{path}: line {i + 1}: {exc}") from exc


def atomic_write(path: Path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a partial file.

    As with ``open(path, "w")``, a symbolic link is written through: its
    target is replaced (or created, for a dangling link) and the link stays.
    The file gets the mode ``open`` would leave: a replaced regular file's
    permission bits, or 0o666 less the umask for a new file. An OSError names
    path, not the temp file or the link's target.
    """
    tmp = None
    try:
        real = Path(os.path.realpath(path))
        if real.is_symlink():
            real.stat()  # realpath stops at a link loop: raise ELOOP, as open would
        if real.is_file():
            mode = stat.S_IMODE(real.stat().st_mode)
        else:
            umask = os.umask(0)  # reading the umask means setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=real.parent, prefix=real.name + ".", suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fd, mode)
            fh.write(text)
        os.replace(tmp, real)
        tmp = None
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc
    finally:
        if tmp is not None:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def load_config_file(path: Path) -> dict[str, str]:
    """Parse a key=value config file; '#' starts a comment line."""
    try:
        text = _read_text(path)
    except (OSError, FormatError) as exc:
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
        if key not in _CONFIG:
            raise UsageError(f"unknown config key {key!r}; known keys: {', '.join(_CONFIG)}")
        values[key] = value
    return values


def _as_enum(enum_cls, raw, flag: str):
    try:
        return enum_cls(raw)
    except ValueError:
        valid = ", ".join(member.value for member in enum_cls)
        raise UsageError(f"invalid value {raw!r} for {flag}; expected one of: {valid}") from None


def _as_ratio(raw, flag: str) -> Fraction:
    try:
        value = Fraction(str(raw))
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"invalid rational {raw!r} for {flag}: {exc}") from exc
    if not 0 < value <= 1:
        raise UsageError(f"ratio threshold must be in (0, 1], got {value}")
    return value


def _as_int(raw, flag: str, least: int = 1) -> int:
    try:
        value = int(raw)
    except (TypeError, ValueError) as exc:
        raise UsageError(f"invalid integer {raw!r} for {flag}") from exc
    if value < least:
        raise UsageError(f"{flag} must be at least {least}, got {value}")
    return value


# Config-file key -> (ProjectionConfig field, flag, converter). Each key is also
# the flag's argparse dest; this order is the "known keys" order in messages.
_CONFIG = {
    "method": ("method", "--method", partial(_as_enum, Method)),
    "candidates": ("candidate_source", "--candidates", partial(_as_enum, SourceKind)),
    "solver": ("solver", "--solver", partial(_as_enum, Solver)),
    "mode": ("mode", "--mode", partial(_as_enum, MatchMode)),
    "threshold": ("ratio_threshold", "--threshold", _as_ratio),
    "max_ngram": ("max_ngram_len", "--max-ngram", _as_int),
}


def resolve_config(args: argparse.Namespace) -> ProjectionConfig:
    """Merge flags over config-file values over defaults into a ProjectionConfig.

    Every value is checked; a key the command has no flag for keeps its
    default, so the combinations it takes part in are not checked.
    """
    file_values = load_config_file(Path(args.config)) if args.config is not None else {}
    fields = {}
    for key, (field, flag, convert) in _CONFIG.items():
        raw = getattr(args, key, None)
        if raw is None:
            raw = file_values.get(key)
        if raw is not None:
            value = convert(raw, flag)
            if hasattr(args, key):
                fields[field] = value
    try:
        return ProjectionConfig(**fields)
    except DataError as exc:
        raise UsageError(str(exc)) from exc


def checked_config(args: argparse.Namespace) -> ProjectionConfig:
    """Resolve a project or solve run's config, then check its flag combination."""
    config = resolve_config(args)
    if args.direction == "src2tgt":
        if args.labeled is None:
            raise UsageError("--labeled is required for --direction src2tgt")
        if args.marked is not None or args.translations is not None:
            raise UsageError("--marked/--translations only apply to --direction tgt2tgt")
    else:
        if args.marked is None or args.translations is None:
            raise UsageError("--marked and --translations are required for --direction tgt2tgt")
        if args.labeled is not None:
            raise UsageError("--labeled does not apply to --direction tgt2tgt")

    wants_spans = (
        config.method is Method.CANDIDATE_MATCHING
        and config.candidate_source is SourceKind.EXTERNAL_NER
    )
    if wants_spans and args.spans is None:
        raise UsageError("--spans is required when --candidates ner")
    if not wants_spans and args.spans is not None:
        raise UsageError("--spans is only used with --method matching --candidates ner")
    return config


def _marked_sentences(args: argparse.Namespace, n: int) -> Callable[[int], LabeledSentence]:
    """Sentence i's labeled side from the marked and translations files, parsed on call."""
    from .roundtrip import assign_marker_labels, parse_marked_sentence, parse_translations_line

    marked, translations = _line_files(
        n, (args.marked, "marked file"), (args.translations, "translations file")
    )

    def labeled_of(i: int) -> LabeledSentence:
        pairs = translations(i, parse_translations_line)
        sentence = marked(i, partial(parse_marked_sentence, entity_translations=pairs))
        return assign_marker_labels(sentence, sentence_id=i)

    return labeled_of


def _span_records(args: argparse.Namespace, n: int) -> dict[int, list[EntitySpan]] | None:
    """The --spans records by sentence id, each id checked against the corpus size."""
    if args.spans is None:
        return None
    spans_by_id = _parse_file(Path(args.spans), parse_span_records)
    for sentence_id in spans_by_id:
        if sentence_id >= n:
            raise DataError(f"span record for sentence {sentence_id} but corpus has {n} sentences")
    return spans_by_id


def open_inputs(args: argparse.Namespace) -> tuple[int, Loader]:
    """Read every input file the run names and check that their counts line up.

    Returns the target corpus's sentence count n and a loader of its
    chunks. The CoNLL files are only split into sentence blocks here:
    ``load(a, b)`` parses target blocks a..b-1, then labeled blocks a..b-1,
    so ``load(0, n)`` raises the first format error of parsing each file
    whole. Line-per-sentence files stay raw lines, parsed one sentence at a
    time (alignment, then translations, then marked line), so
    --skip-bad-sentences can catch per-sentence damage. When a read or a
    check fails, the CoNLL files read before it are parsed whole first, so
    that their format errors come before it.
    """
    target = labeled = None
    try:
        target = _conll_blocks(args.target)
        n = len(target[2])
        [align] = _line_files(n, (args.align, "alignment file"))
        if args.labeled is not None:
            labeled = _conll_blocks(args.labeled)
            if len(labeled[2]) != n:
                raise DataError(
                    f"labeled corpus has {len(labeled[2])} sentences for {n} target sentences"
                )
        else:
            marked_of = _marked_sentences(args, n)
        spans_by_id = _span_records(args, n)
    except (OSError, FormatError, DataError):
        for conll in filter(None, (target, labeled)):
            _conll_chunk(conll, 0, len(conll[2]))
        raise

    def load(a: int, b: int):
        targets = _conll_chunk(target, a, b)
        if labeled is None:
            labeled_of = marked_of
        else:
            chunk = _conll_chunk(labeled, a, b)
            labeled_of = lambda i: chunk[i - a]  # noqa: E731

        def inputs(i: int):
            alignment = align(i, parse_pharaoh)
            external = None if spans_by_id is None else spans_by_id.get(i, [])
            return labeled_of(i), alignment, external

        return targets, inputs

    return n, load


def _conll_blocks(path: str) -> tuple[Path, str, list[re.Match]]:
    """A CoNLL file's path, text and ``_BLOCK`` sentence blocks, none of them parsed."""
    path = Path(path)
    text = _read_text(path)
    return path, text, list(_BLOCK.finditer(text))


def _conll_chunk(conll: tuple[Path, str, list[re.Match]], a: int, b: int):
    """Sentences a..b-1 of a ``_conll_blocks`` file; a FormatError names the file."""
    path, text, blocks = conll
    return _in_file(path, _conll_sentences, text, blocks[a:b], a)


def _project_range(
    cfg: ProjectionConfig, load: Loader, skip_bad: bool, a: int, b: int
) -> tuple[str, list[str]]:
    """Sentences a..b-1 as CoNLL text, and a warning line per sentence skipped.

    The blocks are joined as serialize_conll joins them, so chunk texts
    joined with a newline are the whole output.
    """
    targets, inputs = load(a, b)
    blocks, warnings = [], []
    for i, target in enumerate(targets, start=a):
        try:
            labeled, align, external = inputs(i)
            if cfg.method is Method.HEURISTIC:
                result = project_heuristic(labeled, target.sentence, align, cfg.ratio_threshold)
            else:
                result = project_matching(labeled, target.sentence, align, cfg, external)
        except _SENTENCE_ERRORS as exc:
            if not skip_bad:
                raise type(exc)(f"sentence {i}: {exc}") from exc
            warnings.append(f"warning: sentence {i} skipped: {exc}")
            result = LabeledSentence(target.sentence, ())
        blocks.append(conll_block(result))
    return "\n".join(blocks), warnings


def _worker_count(n_sentences: int, jobs: int) -> int:
    """Processes for a run: at most one per job, sentence and usable CPU; 1 without fork."""
    if not hasattr(os, "fork"):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(jobs, n_sentences, cpus or 1))


def _fork_chunk(run: Callable[[int, int], tuple[str, list[str]]], a: int, b: int):
    """Fork a child that sends ``run(a, b)`` through a pipe, marshalled.

    Returns the child's pid and the pipe's read end, or None when fork fails.
    The child prints nothing and always leaves through os._exit, with status
    0 only after its whole payload is written.
    """
    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as pipe:
                marshal.dump(run(a, b), pipe)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, os.fdopen(r, "rb")


def _run_projection(cfg: ProjectionConfig, args: argparse.Namespace) -> str:
    """Project every sentence, print the warnings in sentence order, return the CoNLL text.

    The sentences split into contiguous chunks, one per worker, so a run of
    one worker is the run of one chunk. Chunk 0 runs here and each other
    chunk in a forked child, and each chunk parses its own sentences through
    ``open_inputs``' loader before it projects them. A chunk that fails (a
    format error, a bad sentence, a child that died or was never forked) is
    recomputed here; if that raises, the whole corpus is parsed first, so
    that a format error in any chunk comes before a bad sentence. Chunks are
    taken in order, so the output, warnings and first error are those of
    --jobs 1, whatever --jobs is. A matching run loads ``matching`` before
    it forks, so the workers share it.
    """
    n, load = open_inputs(args)
    workers = _worker_count(n, args.jobs)
    bounds = [n * k // workers for k in range(workers + 1)]
    chunks = list(zip(bounds, bounds[1:]))
    run = partial(_project_range, cfg, load, args.skip_bad_sentences)

    def run_here(a: int, b: int) -> tuple[str, list[str]]:
        try:
            return run(a, b)
        except _SENTENCE_ERRORS:
            if workers > 1:  # a format error in another chunk comes first
                load(0, n)
            raise

    children = {}
    if workers > 1:
        if cfg.method is Method.CANDIDATE_MATCHING:
            from . import matching  # noqa: F401
        sys.stdout.flush()
        sys.stderr.flush()
    try:
        for k, chunk in enumerate(chunks[1:], start=1):
            children[k] = _fork_chunk(run, *chunk)
        results = [run_here(*chunks[0])]
        for k, chunk in enumerate(chunks[1:], start=1):
            status = 1
            if children[k] is not None:
                pid, pipe = children[k]
                with pipe:
                    payload = pipe.read()
                _, status = os.waitpid(pid, 0)
            del children[k]
            results.append(marshal.loads(payload) if status == 0 else run_here(*chunk))
    finally:
        for pid, pipe in filter(None, children.values()):  # children not yet reaped
            import signal  # imported here: a run of one worker never needs it

            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    for _, warnings in results:
        for line in warnings:
            print(line, file=sys.stderr)
    return "\n".join(text for text, _ in results)


def cmd_project(args: argparse.Namespace) -> int:
    cfg = checked_config(args)
    text = _run_projection(cfg, args)
    atomic_write(Path(args.out), text)
    return 0


def cmd_candidates(args: argparse.Namespace) -> int:
    from .candidates import ngram_candidates

    config = resolve_config(args)
    doc = _parse_file(Path(args.target), parse_conll)
    records = {
        labeled.sentence.id: list(ngram_candidates(labeled.sentence, config.max_ngram_len).spans)
        for labeled in doc
    }
    atomic_write(Path(args.out), serialize_span_records(records))
    return 0


def cmd_solve(args: argparse.Namespace) -> int:
    cfg = checked_config(args)
    n, load = open_inputs(args)
    targets, inputs = load(0, n)
    i = args.sentence
    if i >= n:
        raise UsageError(f"--sentence {i} out of range for corpus of {n}")

    from .matching import EXACT_MAX_SOURCES, render_problem

    out = sys.stdout
    try:
        labeled, align, external = inputs(i)
        problem = matching_problem(labeled, targets[i].sentence, align, cfg, external)
        out.write(render_problem(problem))
        n_src, n_cand = problem.shape
        if n_src == 0 or n_cand == 0:
            out.write("empty problem: nothing to solve\n")
            return 0
        # the chosen solver, then the exact optimum as a cross-check
        for solver in dict.fromkeys((cfg.solver, Solver.EXACT)):
            if solver is not cfg.solver and n_src > EXACT_MAX_SOURCES:
                out.write(f"exact check skipped: {n_src} sources exceed {EXACT_MAX_SOURCES}\n")
                break
            solution = solve(problem, solver)
            out.write(
                f"{solver.value}: objective={solution.objective} "
                f"assignments={list(solution.assignments)}\n"
            )
    except _SENTENCE_ERRORS as exc:
        raise type(exc)(f"sentence {i}: {exc}") from exc
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    import json

    from .evaluation import evaluate, render_report, report_record

    pred = _parse_file(Path(args.pred), parse_conll)
    gold = _parse_file(Path(args.gold), parse_conll)
    report = evaluate(pred, gold)
    sys.stdout.write(render_report(report))
    sys.stdout.write(json.dumps(report_record(report)) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _path(raw: str) -> str:
    """A PATH value; an empty one is refused, as Path("") names the working directory."""
    if not raw:
        raise argparse.ArgumentTypeError("empty path ''")
    return raw


def _enum_metavar(enum_cls) -> str:
    """An enum option's metavar, ``{a,b}``; its value is converted by ``resolve_config``."""
    return "{" + ",".join(member.value for member in enum_cls) + "}"


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--candidates", metavar=_enum_metavar(SourceKind))
    sub.add_argument("--solver", metavar=_enum_metavar(Solver))
    sub.add_argument("--mode", metavar=_enum_metavar(MatchMode))
    sub.add_argument("--max-ngram", dest="max_ngram")
    sub.add_argument("--direction", choices=["src2tgt", "tgt2tgt"], default="src2tgt")
    sub.add_argument("--labeled", metavar="PATH", type=_path)
    sub.add_argument("--target", metavar="PATH", type=_path, required=True)
    sub.add_argument("--align", metavar="PATH", type=_path, required=True)
    sub.add_argument("--spans", metavar="PATH", type=_path)
    sub.add_argument("--marked", metavar="PATH", type=_path)
    sub.add_argument("--translations", metavar="PATH", type=_path)
    sub.add_argument("--config", metavar="PATH", type=_path)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="spanproject", description="Cross-lingual entity span projection")
    commands = parser.add_subparsers(dest="command", required=True)

    project = commands.add_parser("project", help="label a target corpus")
    project.add_argument("--method", metavar=_enum_metavar(Method))
    project.add_argument("--threshold", metavar="RATIONAL")
    _add_common_flags(project)
    project.add_argument("--out", metavar="PATH", type=_path, required=True)
    project.add_argument(
        "--jobs", type=partial(_as_int, flag="--jobs"), default=1,
        help="project sentence chunks in up to N forked processes, at most one per "
        "usable CPU; output and stderr are those of --jobs 1",
    )
    project.add_argument("--skip-bad-sentences", action="store_true")

    candidates = commands.add_parser("candidates", help="dump n-gram candidate spans")
    candidates.add_argument("--target", metavar="PATH", type=_path, required=True)
    candidates.add_argument("--max-ngram", dest="max_ngram")
    candidates.add_argument("--config", metavar="PATH", type=_path)
    candidates.add_argument("--out", metavar="PATH", type=_path, required=True)

    solver = commands.add_parser("solve", help="debug one sentence's matching problem")
    _add_common_flags(solver)
    solver.add_argument("--sentence", type=partial(_as_int, flag="--sentence", least=0), default=0)

    ev = commands.add_parser("evaluate", help="score predictions against gold")
    ev.add_argument("pred", metavar="PRED", type=_path)
    ev.add_argument("gold", metavar="GOLD", type=_path)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "project":
            return cmd_project(args)
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
    """The process boundary: run main() with the cyclic garbage collector off.

    A run's objects are acyclic values that reference counting frees, and
    freezing what is alive when main() returns lets the collections of
    interpreter finalization skip it.
    """
    gc.disable()
    code = main()
    gc.freeze()
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
