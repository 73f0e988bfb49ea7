"""Psycholinguistic lexicon ingestion and querying.

A lexicon is an immutable term -> value map loaded from a generic TSV layout
(configurable term/value columns). Continuous lexicons hold real-valued norms
(age of acquisition, prevalence, concreteness, familiarity, arousal, raw
frequency counts); binary lexicons hold 0/1 prior complexity labels.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from types import MappingProxyType
from typing import IO, Callable, Iterable, Mapping, Sequence

from .errors import DataError, decode_utf8

CONTINUOUS = "continuous"
BINARY = "binary"


@dataclass(frozen=True)
class LexiconSpec:
    """How to read one lexicon file: columns, kind and normalization."""

    name: str
    path: str
    kind: str = CONTINUOUS
    term_column: int = 0
    value_column: int = 1
    lowercase: bool = True
    skip_rows: int = 0

    def __post_init__(self):
        if self.kind not in (CONTINUOUS, BINARY):
            raise ValueError(f"lexicon {self.name!r}: kind must be continuous or binary")
        if self.term_column == self.value_column:
            raise ValueError(f"lexicon {self.name!r}: term_column equals value_column")
        if self.term_column < 0 or self.value_column < 0 or self.skip_rows < 0:
            raise ValueError(f"lexicon {self.name!r}: negative column or skip_rows")


@dataclass(frozen=True)
class Lexicon:
    """Immutable normalized term -> value map with provenance name and kind."""

    name: str
    kind: str
    entries: Mapping[str, float]
    lowercase: bool = True

    @property
    def source_count(self) -> int:
        return len(self.entries)

    def normalize(self, term: str) -> str:
        return term.lower() if self.lowercase else term


@dataclass(frozen=True)
class CoverageStat:
    lexicon_name: str
    vocab_size: int
    covered: int

    @property
    def fraction(self) -> float:
        return self.covered / self.vocab_size


def load_lexicon(spec: LexiconSpec, source: IO[bytes] | bytes) -> Lexicon:
    """Load a lexicon from a UTF-8 TSV stream.

    Duplicate terms are averaged (continuous) or resolved 1-if-any-1 (binary).
    Non-numeric or non-finite value cells, out-of-{0,1} binary values, short
    rows, empty terms and duplicates whose sum overflows raise DataError
    naming the first bad line.

    The file is read a column at a time, every line cut to one width; only a
    file that fails a check is walked line by line to find its first bad line.
    """
    lines = decode_utf8(source, f"lexicon {spec.name!r}:").splitlines()[spec.skip_rows :]
    columns = _columns(spec, lines)
    if columns is None:
        # Walk to the first bad line. The lines before it are valid and are
        # folded first, as an overflow among them comes earlier in the file.
        row = next(row for row, line in enumerate(lines) if _line_problem(spec, line))
        _entries(spec, *_columns(spec, lines[:row]))
        problem = _line_problem(spec, lines[row])
        raise DataError(f"lexicon {spec.name!r} line {spec.skip_rows + row + 1}: {problem}")
    return Lexicon(name=spec.name, kind=spec.kind, entries=_entries(spec, *columns), lowercase=spec.lowercase)


def _columns(spec: LexiconSpec, lines: list[str]) -> tuple[list[str], list[float]] | None:
    """The term and the value of each line, or None when a line has a problem
    that ``_line_problem`` names. A column is every ``width``-th cell: unless
    all lines have one width that holds both columns, each line is cut, or
    padded with empty cells that the checks refuse, to the ``need`` cells."""
    tabs = list(map(str.count, lines, repeat("\t")))
    if not tabs:
        return [], []
    width, need = max(tabs) + 1, max(spec.term_column, spec.value_column) + 1
    if min(tabs) + 1 == width >= need:
        cells = "\t".join(lines).split("\t")
    else:
        width, pad = need, "\t" * need
        cells = [cell for line in lines for cell in (line + pad).split("\t", need)[:need]]
    term_cells, value_cells = cells[spec.term_column :: width], cells[spec.value_column :: width]
    terms = list(map(str.strip, term_cells))
    if not all(terms):
        return None
    if spec.lowercase:
        terms = list(map(str.lower, terms))
    try:
        # stripped, as float keeps the U+001F that str.strip trims; + 0.0
        # turns -0 into 0, as the sum of a term's values does
        values = [float(cell) + 0.0 for cell in map(str.strip, value_cells)]
    except ValueError:
        return None
    if not all(map(math.isfinite, values)) or (spec.kind == BINARY and not set(values) <= {0.0, 1.0}):
        return None
    return terms, values


def _line_problem(spec: LexiconSpec, line: str) -> str | None:
    """What makes one line unreadable, or None."""
    parts = line.split("\t")
    need = max(spec.term_column, spec.value_column) + 1
    if len(parts) < need:
        return f"expected at least {need} columns, found {len(parts)}"
    if not parts[spec.term_column].strip():
        return "empty term"
    cell = parts[spec.value_column].strip()
    try:
        value = float(cell)
    except ValueError:
        return f"non-numeric value {cell!r}"
    if not math.isfinite(value):
        return f"non-finite value {cell!r}"
    if spec.kind == BINARY and value not in (0.0, 1.0):
        return f"binary value must be 0 or 1, got {cell}"
    return None


def _entries(spec: LexiconSpec, terms: list[str], values: list[float]) -> dict[str, float]:
    """Each term once, in first-occurrence order. A term on more than one line
    gets 1 if any of its values is 1 (binary), else the sum of its values in
    file order, from 0.0, over their count."""
    entries = dict(zip(terms, values))
    if len(entries) == len(terms):
        return entries
    counts = Counter(terms)
    rows = [row for row, term in enumerate(terms) if counts[term] > 1]
    if spec.kind == BINARY:
        entries.update((terms[row], 1.0) for row in rows if values[row])
        return entries
    sums: dict[str, float] = {}
    for row in rows:
        term = terms[row]
        sums[term] = sums.get(term, 0.0) + values[row]
        if not math.isfinite(sums[term]):
            line_no = spec.skip_rows + row + 1
            raise DataError(f"lexicon {spec.name!r} line {line_no}: the values of {term!r} overflow")
    entries.update((term, total / counts[term]) for term, total in sums.items())
    return entries


def lookup(lex: Lexicon, term: str) -> float | None:
    """Value for the normalized term, or None when absent. Never raises."""
    return lex.entries.get(lex.normalize(term))


def merge_average(a: Lexicon, b: Lexicon) -> Lexicon:
    """Average two continuous lexicons term-wise.

    Terms present in both sides get the mean of the two values; terms present
    in exactly one keep their single value.
    """
    if a.kind != CONTINUOUS or b.kind != CONTINUOUS:
        raise ValueError(f"merge_average requires continuous lexicons, got {a.kind}/{b.kind}")
    if a.lowercase != b.lowercase:
        raise ValueError("merge_average requires matching normalization")
    entries = dict(a.entries)
    for term, value in b.entries.items():
        entries[term] = (entries[term] + value) / 2.0 if term in entries else value
    return Lexicon(name=f"{a.name}+{b.name}", kind=CONTINUOUS, entries=entries, lowercase=a.lowercase)


def merge_binary_union(sources: Sequence[Lexicon]) -> Lexicon:
    """Union binary lexicons; conflicting labels resolve to 1 (complex wins)."""
    if not sources:
        raise ValueError("merge_binary_union requires at least one source")
    for lex in sources:
        if lex.kind != BINARY:
            raise ValueError(f"merge_binary_union: lexicon {lex.name!r} is not binary")
        if lex.lowercase != sources[0].lowercase:
            raise ValueError("merge_binary_union requires matching normalization")
    entries: dict[str, float] = {}
    for lex in sources:
        for term, value in lex.entries.items():
            entries[term] = max(entries.get(term, 0.0), value)
    return Lexicon(
        name="+".join(lex.name for lex in sources),
        kind=BINARY,
        entries=entries,
        lowercase=sources[0].lowercase,
    )


def coverage(lex: Lexicon, vocab: Iterable[str]) -> CoverageStat:
    """Fraction of a vocabulary the lexicon covers."""
    terms = list(vocab)
    if not terms:
        raise ValueError("coverage requires a non-empty vocabulary")
    covered = sum(1 for t in terms if lookup(lex, t) is not None)
    return CoverageStat(lexicon_name=lex.name, vocab_size=len(terms), covered=covered)


@dataclass
class LexiconRegistry:
    """Named collection of loaded lexicons, built once and shared read-only.

    The registry also keeps the merged views built from its lexicons (see
    ``view``) for as long as it lives, so reusing one registry across calls
    merges each view once.
    """

    _by_name: dict[str, Lexicon] = field(default_factory=dict)
    _views: dict[tuple[str, ...], Lexicon] = field(default_factory=dict, repr=False, compare=False)

    def add(self, lex: Lexicon) -> None:
        if lex.name in self._by_name:
            raise ValueError(f"duplicate lexicon name {lex.name!r}")
        self._by_name[lex.name] = lex
        self._views.clear()

    def view(self, names: tuple[str, ...], merge: Callable[[list[Lexicon]], Lexicon]) -> Lexicon:
        """The one named lexicon, or ``merge`` applied to the named lexicons,
        built on the first call for these names and returned as is after
        that, until the next ``add``. Lexicons are frozen, so a kept view
        cannot go stale; callers must merge a given tuple of names one way
        only."""
        if names not in self._views:
            found = [self._by_name[name] for name in names]
            self._views[names] = found[0] if len(found) == 1 else merge(found)
        return self._views[names]

    @property
    def lexicons(self) -> Mapping[str, Lexicon]:
        """Every lexicon added, by name; read-only."""
        return MappingProxyType(self._by_name)

    def get(self, name: str) -> Lexicon | None:
        return self._by_name.get(name)

    def names(self) -> list[str]:
        return sorted(self._by_name)
