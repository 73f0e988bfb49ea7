"""Dataset ingestion: TSV parsing, train/dev splitting, Likert band mapping.

The dataset format is a UTF-8 TSV with header ``id  corpus  sentence  token
complexity``; the complexity column may be absent or empty for unlabeled data.
Complexity scores live in [0, 1] and map onto five named Likert bands.
"""

from __future__ import annotations

import enum
import logging
import math
import random
from dataclasses import dataclass
from typing import IO, Sequence

from .errors import DataError, decode_utf8

logger = logging.getLogger(__name__)

_HEADER = ["id", "corpus", "sentence", "token", "complexity"]


class BandLabel(enum.Enum):
    """Five-point Likert band for a complexity score in [0, 1]."""

    VERY_EASY = "very_easy"
    EASY = "easy"
    NEUTRAL = "neutral"
    DIFFICULT = "difficult"
    VERY_DIFFICULT = "very_difficult"


def band_of(score: float) -> BandLabel:
    """Map a complexity score to its Likert band.

    0 is its own band (very_easy); the remaining bands are half-open above,
    except the last which includes 1. Scores outside [0, 1] raise ValueError.
    """
    if not (isinstance(score, (int, float)) and math.isfinite(score)):
        raise ValueError(f"score must be a finite number, got {score!r}")
    if score < 0.0 or score > 1.0:
        raise ValueError(f"score {score} outside [0, 1]")
    if score == 0.0:
        return BandLabel.VERY_EASY
    if score < 0.25:
        return BandLabel.EASY
    if score < 0.5:
        return BandLabel.NEUTRAL
    if score < 0.75:
        return BandLabel.DIFFICULT
    return BandLabel.VERY_DIFFICULT


@dataclass(frozen=True)
class Instance:
    """One annotated target word in a sentence.

    ``gold`` is the complexity score in [0, 1], or None for unlabeled data.
    """

    id: str
    subcorpus: str
    sentence: str
    token: str
    gold: float | None = None

    def __post_init__(self):
        if not self.token.strip():
            raise ValueError(f"instance {self.id!r}: token is empty")
        if self.gold is not None and not (0.0 <= self.gold <= 1.0):
            raise ValueError(f"instance {self.id!r}: gold {self.gold} outside [0, 1]")


@dataclass(frozen=True)
class DatasetSplit:
    """Disjoint train/dev partition of a dataset."""

    train: tuple[Instance, ...]
    dev: tuple[Instance, ...]


def split_rows(text: str) -> list[str]:
    """The rows of a TSV text. A row ends at LF or CRLF only: str.splitlines
    would also cut a cell at U+2028, a form feed and the like."""
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the newline that ends the last row
    return [line.removesuffix("\r") for line in lines]


def parse_dataset(source: IO[bytes] | bytes, has_gold: bool) -> list[Instance]:
    """Parse a dataset TSV into instances, preserving file order.

    With ``has_gold=False`` the complexity column may be missing entirely or
    must be empty on every row. Malformed rows, out-of-range complexity values
    and duplicate ids raise DataError naming the offending line or id.
    """
    lines = split_rows(decode_utf8(source, "input is"))
    if not lines:
        raise DataError("empty input: missing header row")
    header = lines[0].split("\t")
    if header == _HEADER:
        ncols = 5
    elif header == _HEADER[:4] and not has_gold:
        ncols = 4
    else:
        raise DataError(
            f"line 1: expected header {chr(9).join(_HEADER)!r}"
            + ("" if has_gold else " (complexity column optional)")
            + f", got {lines[0]!r}"
        )

    instances: list[Instance] = []
    seen: set[str] = set()
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != ncols:
            raise DataError(f"line {line_no}: expected {ncols} columns, found {len(parts)}")
        inst_id, subcorpus, sentence, token = parts[:4]
        gold_cell = parts[4] if ncols == 5 else ""
        if inst_id in seen:
            raise DataError(f"line {line_no}: duplicate id {inst_id!r}")
        seen.add(inst_id)
        if not token.strip():
            raise DataError(f"line {line_no}: id {inst_id!r} has an empty token")
        gold: float | None = None
        if gold_cell.strip():
            if not has_gold:
                raise DataError(
                    f"line {line_no}: id {inst_id!r} has a complexity value, but this input must be unlabeled"
                )
            try:
                gold = float(gold_cell)
            except ValueError:
                raise DataError(
                    f"line {line_no}: id {inst_id!r} has non-numeric complexity {gold_cell!r}"
                ) from None
            if not math.isfinite(gold) or gold < 0.0 or gold > 1.0:
                raise DataError(f"line {line_no}: id {inst_id!r}: complexity {gold_cell} outside [0, 1]")
        if token not in sentence:
            logger.warning("id %r: token %r does not occur in its sentence", inst_id, token)
        instances.append(Instance(inst_id, subcorpus, sentence, token, gold))
    return instances


def split_train_dev(
    instances: Sequence[Instance], dev_fraction: float, seed: int
) -> DatasetSplit:
    """Split instances into train/dev by a seeded uniform shuffle.

    The dev side gets round(dev_fraction * n) instances (half rounds up);
    original dataset order is preserved within each side. Identical inputs
    and seed always produce the identical partition.
    """
    n = len(instances)
    if n < 2:
        raise DataError(f"need at least 2 instances to split, got {n}")
    if not (0.0 < dev_fraction < 1.0):
        raise ValueError(f"dev_fraction must be in (0, 1), got {dev_fraction}")
    n_dev = int(math.floor(dev_fraction * n + 0.5))
    idx = list(range(n))
    random.Random(seed).shuffle(idx)
    dev_idx = sorted(idx[:n_dev])
    train_idx = sorted(idx[n_dev:])
    return DatasetSplit(
        train=tuple(instances[i] for i in train_idx),
        dev=tuple(instances[i] for i in dev_idx),
    )
