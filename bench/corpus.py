"""Seeded synthetic corpora for the projection benchmark.

Each workload is a `WorkloadSpec`: corpus shape (sentence count, lengths,
entity density, alignment noise) plus the `project` flags it runs with.
`generate(spec, seed)` builds the workload's input files and the planted
gold target labels from the seed alone; the same seed always gives the same
bytes. `self_check` parses every generated file back with the library's own
parsers and compares the result with what was planted.

The generator writes its files with plain string formatting, not with the
library's serializers, so the self-check is a real round trip.
"""

from __future__ import annotations

import json
import random
import string
from dataclasses import dataclass, field
from pathlib import Path

from spanproject import (
    EntitySpan,
    Method,
    ProjectionConfig,
    Solver,
    SourceKind,
    parse_conll,
    parse_marked_sentence,
    parse_pharaoh,
    parse_span_records,
    parse_translations_line,
)

LABELS = ("PER", "LOC", "ORG", "MISC")


class CorpusError(Exception):
    """A generated file does not parse back to what was planted."""


@dataclass(frozen=True)
class WorkloadSpec:
    """Corpus shape and `project` flags of one benchmark workload.

    Lengths count target tokens and are drawn from the inclusive range in
    equal shares (a shuffled cycle, not independent draws), so every seed
    gives the same total length and the same entity count; seeds differ in
    content and order only. `far_noise` is the share of entities that get
    one stray link to a far target word; `word_noise` is the share of
    labeled-side words that get one stray link to any target word.
    """

    name: str
    sentences: int
    length: tuple[int, int]
    tokens_per_entity: int
    entity_len: tuple[int, int]
    far_noise: float
    word_noise: float
    swap: float
    method: str
    candidates: str | None = None
    solver: str | None = None
    jobs: int = 1
    roundtrip: bool = False

    def config(self) -> ProjectionConfig:
        """The configuration that `flags()` selects, for the in-process pipeline."""
        kwargs: dict = {"method": Method(self.method)}
        if self.candidates:
            kwargs["candidate_source"] = SourceKind(self.candidates)
        if self.solver:
            kwargs["solver"] = Solver(self.solver)
        return ProjectionConfig(**kwargs)

    def flags(self) -> list[str]:
        """`project` flags other than the file paths."""
        argv = ["--method", self.method]
        if self.candidates:
            argv += ["--candidates", self.candidates]
        if self.solver:
            argv += ["--solver", self.solver]
        if self.roundtrip:
            argv += ["--direction", "tgt2tgt"]
        return argv + ["--jobs", str(self.jobs), "--skip-bad-sentences"]


# Sentence counts keep one invocation between about 0.4 and 2.5 seconds on
# the two-core reference machine, so a 30-second run holds at least ten.
WORKLOADS = {
    spec.name: spec
    for spec in (
        # Medium sentences with one entity per four tokens, so parsing and
        # serializing CoNLL is a large share and the heuristic runs often.
        # A fifth of entities get one far stray link (the shrink-to-longest-
        # run branch fires); the rest keep a clean hull (the hull branch).
        # Never calls candidates or matching: the control for matching work.
        WorkloadSpec(
            name="heuristic",
            sentences=2000,
            length=(8, 20),
            tokens_per_entity=4,
            entity_len=(1, 3),
            far_noise=0.2,
            word_noise=0.05,
            swap=0.1,
            method="heuristic",
        ),
        # Long sentences (15-35 tokens) with about one entity per eight
        # tokens give ~170 n-gram candidates and ~500 cost cells per
        # sentence, a quarter of them positive, so the cost matrix dominates.
        # Two jobs on the two-core reference machine exercise the pool.
        WorkloadSpec(
            name="matching-ngram",
            sentences=400,
            length=(15, 35),
            tokens_per_entity=8,
            entity_len=(1, 4),
            far_noise=0.3,
            word_noise=0.1,
            swap=0.15,
            method="matching",
            candidates="ngram",
            solver="greedy",
            jobs=2,
        ),
        # Back-translated sentences with bracket markers, fuzzy per-entity
        # translations (some too distorted to match) and disjoint NER spans
        # with boundary errors and false positives: edit distance and the
        # Hungarian solver dominate, the n-gram kernel is never used.
        # Runnable by name but not gated in BENCHMARK.json: on the shared
        # reference host its run-to-run spread comes too close to the bound.
        WorkloadSpec(
            name="roundtrip-ner",
            sentences=600,
            length=(10, 24),
            tokens_per_entity=4,
            entity_len=(1, 3),
            far_noise=0.2,
            word_noise=0.05,
            swap=0.1,
            method="matching",
            candidates="ner",
            solver="assignment",
            roundtrip=True,
        ),
    )
}


@dataclass
class PlantedSentence:
    """One generated sentence pair and everything planted for it."""

    target: list[str]
    gold: list[EntitySpan]
    labeled: list[str]  # labeled-side tokens: source words, or marked words for tgt2tgt
    labeled_entities: list[EntitySpan]  # source entities, or bracket spans for tgt2tgt
    align: set[tuple[int, int]]
    translations: list[tuple[str, str]] = field(default_factory=list)  # (text, label)
    ner: list[EntitySpan] = field(default_factory=list)


@dataclass
class Corpus:
    """A generated workload corpus; `files` maps a file role to its text."""

    spec: WorkloadSpec
    sentences: list[PlantedSentence]

    def head(self, n: int) -> "Corpus":
        return Corpus(self.spec, self.sentences[:n])

    @property
    def source_entities(self) -> int:
        return sum(len(s.labeled_entities) for s in self.sentences)

    def files(self) -> dict[str, str]:
        sents = self.sentences
        files = {
            "target": _conll((s.target, []) for s in sents),
            "gold": _conll(((s.target, s.gold) for s in sents), tagged=True),
            "align": "".join(
                " ".join(f"{i}-{j}" for i, j in sorted(s.align)) + "\n" for s in sents
            ),
        }
        if self.spec.roundtrip:
            files["marked"] = "".join(_marked(s) + "\n" for s in sents)
            files["translations"] = "".join(
                "|||".join(f"{label}\t{text}" for text, label in s.translations) + "\n"
                for s in sents
            )
        else:
            files["labeled"] = _conll(
                ((s.labeled, s.labeled_entities) for s in sents), tagged=True
            )
        if self.spec.candidates == "ner":
            files["spans"] = "".join(
                json.dumps(
                    {
                        "sentence_id": i,
                        "spans": [
                            {"start": sp.start, "end": sp.end, "label": sp.label}
                            for sp in s.ner
                        ],
                    }
                )
                + "\n"
                for i, s in enumerate(sents)
                if s.ner
            )
        return files

    def write(self, directory: Path) -> dict[str, Path]:
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for role, text in self.files().items():
            paths[role] = directory / f"{role}.txt"
            paths[role].write_text(text, encoding="utf-8")
        return paths


def _tags(n: int, entities: list[EntitySpan]) -> list[str]:
    tags = ["O"] * n
    for e in entities:
        tags[e.start] = f"B-{e.label}"
        for k in range(e.start + 1, e.end):
            tags[k] = f"I-{e.label}"
    return tags


def _conll(sentences, tagged: bool = False) -> str:
    blocks = []
    for tokens, entities in sentences:
        if tagged:
            lines = [f"{t} {g}\n" for t, g in zip(tokens, _tags(len(tokens), entities))]
        else:
            lines = [f"{t}\n" for t in tokens]
        blocks.append("".join(lines))
    return "\n".join(blocks)


def _marked(s: PlantedSentence) -> str:
    words = list(s.labeled)
    for span in s.labeled_entities:
        words[span.start] = "[" + words[span.start]
        words[span.end - 1] = words[span.end - 1] + "]"
    return " ".join(words)


# --- generation ---------------------------------------------------------


def _word(rng: random.Random, capital: bool) -> str:
    w = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(3, 8)))
    return w.capitalize() if capital else w


def _distort(rng: random.Random, text: str, rate: float) -> str:
    """Replace each letter with a random letter with probability `rate`."""
    return "".join(
        rng.choice(string.ascii_lowercase) if ch != " " and rng.random() < rate else ch
        for ch in text
    )


def _stratified(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    values = [lo + k % (hi - lo + 1) for k in range(n)]
    rng.shuffle(values)
    return values


def _units(rng: random.Random, spec: WorkloadSpec, length: int) -> list[tuple[int, str | None]]:
    """Target-side units in order: (token count, entity label or None for a filler).

    Entities never touch: each sits in its own gap between filler words.
    """
    n_ent = max(1, length // spec.tokens_per_entity)
    lens = [rng.randint(*spec.entity_len) for _ in range(n_ent)]
    while sum(lens) + n_ent - 1 > length:  # keep room for a separating filler
        lens[lens.index(max(lens))] -= 1
    fillers = length - sum(lens)
    gaps = sorted(rng.sample(range(fillers + 1), n_ent))
    units: list[tuple[int, str | None]] = []
    entity = 0
    for gap in range(fillers + 1):
        if entity < n_ent and gaps[entity] == gap:
            units.append((lens[entity], rng.choice(LABELS)))
            entity += 1
        if gap < fillers:
            units.append((1, None))
    return units


def _sentence(rng: random.Random, spec: WorkloadSpec, length: int) -> PlantedSentence:
    units = _units(rng, spec, length)
    # Labeled-side units: entities may gain or lose a word, fillers are kept
    # one to one. Local reordering swaps neighbouring units.
    order = list(range(len(units)))
    k = 0
    while k + 1 < len(order):
        if rng.random() < spec.swap:
            order[k], order[k + 1] = order[k + 1], order[k]
            k += 2
        else:
            k += 1

    target: list[str] = []
    gold: list[EntitySpan] = []
    tgt_pos = []
    for size, label in units:
        start = len(target)
        target += [_word(rng, label is not None) for _ in range(size)]
        tgt_pos.append((start, len(target)))
        if label is not None:
            gold.append(EntitySpan(start, len(target), label))

    labeled: list[str] = []
    labeled_entities: list[EntitySpan] = []
    translations: list[tuple[str, str]] = []
    align: set[tuple[int, int]] = set()
    far_links: list[tuple[int, int]] = []
    for u in order:
        size, label = units[u]
        t0, t1 = tgt_pos[u]
        if label is None:
            if spec.roundtrip and rng.random() < 0.7:
                word = target[t0]  # back translation keeps most filler words
            else:
                word = _word(rng, False)
            labeled.append(word)
            align.add((len(labeled) - 1, t0))
            continue
        src_size = max(1, size + rng.choice((-1, 0, 0, 0, 1)))
        start = len(labeled)
        if spec.roundtrip:
            words = target[t0:t1][:src_size] + [_word(rng, True)] * (src_size - size)
            labeled += _distort(rng, " ".join(words), 0.1).title().split()
            labeled_entities.append(EntitySpan(start, len(labeled)))
        else:
            labeled += [_word(rng, True) for _ in range(src_size)]
            labeled_entities.append(EntitySpan(start, len(labeled), label))
        widest = max(src_size, size)
        for step in range(widest):
            align.add((start + step * src_size // widest, t0 + step * size // widest))
        if rng.random() < spec.far_noise:
            far_links.append((rng.randrange(start, len(labeled)), u))
        if spec.roundtrip:
            # The known translation of the entity: its target words, case
            # changed and distorted; a tenth are too distorted to match.
            rate = 0.6 if rng.random() < 0.1 else rng.choice((0.0, 0.1, 0.2, 0.3))
            text = _distort(rng, " ".join(target[t0:t1]).lower(), rate)
            translations.append((text, label))

    # A far link goes to a target word neither inside nor next to the
    # entity's own target span.
    for i, u in far_links:
        t0, t1 = tgt_pos[u]
        far = [p for p in range(len(target)) if p < t0 - 1 or p > t1]
        if far:
            align.add((i, rng.choice(far)))
    for i in range(len(labeled)):
        if rng.random() < spec.word_noise:
            align.add((i, rng.randrange(len(target))))

    s = PlantedSentence(target, gold, labeled, labeled_entities, align)
    if spec.roundtrip:
        rng.shuffle(translations)
        translations.append((_word(rng, False), rng.choice(LABELS)))  # unmatched decoy
        s.translations = translations
    if spec.candidates == "ner":
        s.ner = _ner_spans(rng, gold, len(target))
    return s


def _ner_spans(rng: random.Random, gold: list[EntitySpan], n: int) -> list[EntitySpan]:
    """Disjoint NER predictions: gold spans with boundary errors and false positives."""
    taken = [False] * n
    for e in gold:
        for p in range(e.start, e.end):
            taken[p] = True
    spans = []
    for e in gold:
        start, end = e.start, e.end
        roll = rng.random()
        if roll < 0.1 and end < n and not taken[end] and (end + 1 >= n or not taken[end + 1]):
            end += 1  # swallow the following filler word
            taken[end - 1] = True
        elif roll < 0.2 and end - start > 1:
            end -= 1
        label = e.label if rng.random() < 0.9 else rng.choice(LABELS)
        spans.append(EntitySpan(start, end, label))
    for p in range(n):
        free = not taken[p] and (p == 0 or not taken[p - 1]) and (p + 1 == n or not taken[p + 1])
        if free and rng.random() < 0.25:
            taken[p] = True
            spans.append(EntitySpan(p, p + 1, rng.choice(LABELS)))
    return sorted(spans, key=EntitySpan.sort_key)


def generate(spec: WorkloadSpec, seed: int) -> Corpus:
    rng = random.Random(f"{spec.name}:{seed}")
    lengths = _stratified(rng, *spec.length, spec.sentences)
    return Corpus(spec, [_sentence(rng, spec, length) for length in lengths])


# --- self-check ---------------------------------------------------------


def _expect(ok: bool, what: str) -> None:
    if not ok:
        raise CorpusError(what)


def self_check(corpus: Corpus) -> None:
    """Parse every generated file with the library and compare with the plant."""
    files = corpus.files()
    sents = corpus.sentences
    target = parse_conll(files["target"])
    gold = parse_conll(files["gold"])
    _expect(len(target) == len(gold) == len(sents), "sentence counts differ")
    align_lines = files["align"].split("\n")[:-1]
    _expect(len(align_lines) == len(sents), "alignment line count differs")
    for s, t, g, line in zip(sents, target, gold, align_lines):
        _expect(list(t.sentence.tokens) == s.target, "target tokens differ")
        _expect(list(g.sentence.tokens) == s.target, "gold tokens differ")
        _expect(list(g.entities) == s.gold, "gold entities differ")
        _expect(parse_pharaoh(line).pairs == s.align, "alignment differs")
    if corpus.spec.roundtrip:
        marked = files["marked"].split("\n")[:-1]
        trans = files["translations"].split("\n")[:-1]
        _expect(len(marked) == len(trans) == len(sents), "marker line counts differ")
        for s, m_line, t_line in zip(sents, marked, trans):
            pairs = parse_translations_line(t_line)
            _expect(list(pairs) == s.translations, "translations differ")
            m = parse_marked_sentence(m_line, pairs)
            _expect(list(m.tokens) == s.labeled, "marked tokens differ")
            _expect(list(m.bracket_spans) == s.labeled_entities, "bracket spans differ")
    else:
        labeled = parse_conll(files["labeled"])
        _expect(len(labeled) == len(sents), "labeled sentence count differs")
        for s, lab in zip(sents, labeled):
            _expect(list(lab.sentence.tokens) == s.labeled, "labeled tokens differ")
            _expect(list(lab.entities) == s.labeled_entities, "labeled entities differ")
    if "spans" in files:
        records = parse_span_records(files["spans"])
        for i, s in enumerate(sents):
            _expect(records.get(i, []) == s.ner, f"NER spans of sentence {i} differ")
            ordered = sorted(s.ner, key=EntitySpan.sort_key)
            for a, b in zip(ordered, ordered[1:]):
                _expect(a.end <= b.start, f"NER spans of sentence {i} overlap")
