"""Load and save graphs as plain headerless CSV/text files.

Formats (all UTF-8, LF, no headers):

* edges:    one ``src,dst`` pair per line, 0-based node indices
* features: one row per node, comma-separated finite decimals
* labels:   one integer per line
* splits:   one token per line, each in {train, val, test}

Node count is fixed by the feature file; the label and split files must
match it, and every edge endpoint must be in range. Errors name the file
and 1-based line that failed.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import CsvFormatError
from .graphs import Graph, make_graph

__all__ = ["load_graph_csv", "save_graph_csv"]

_SPLIT_TOKENS = {"train": 0, "val": 1, "test": 2}


def _read_lines(path: str | Path) -> list[str]:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines


def load_graph_csv(edge_path, feature_path, label_path, split_path) -> Graph:
    """Parse the four files into a validated :class:`Graph`."""
    feat_lines = _read_lines(feature_path)
    if not feat_lines:
        raise CsvFormatError(str(feature_path), 1, "feature file is empty")
    width = None
    rows = []
    for i, line in enumerate(feat_lines, start=1):
        parts = line.split(",")
        if width is None:
            width = len(parts)
        elif len(parts) != width:
            raise CsvFormatError(
                str(feature_path), i,
                f"expected {width} columns, found {len(parts)}",
            )
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise CsvFormatError(str(feature_path), i, f"non-numeric value in {line!r}")
        if not np.all(np.isfinite(rows[-1])):
            raise CsvFormatError(str(feature_path), i, f"non-finite value in {line!r}")
    features = np.asarray(rows, dtype=np.float64)
    n = features.shape[0]

    label_lines = _read_lines(label_path)
    if len(label_lines) != n:
        raise CsvFormatError(
            str(label_path), min(len(label_lines), n) + 1,
            f"expected {n} labels, found {len(label_lines)}",
        )
    labels = np.zeros(n, dtype=np.int64)
    for i, line in enumerate(label_lines, start=1):
        tok = line.strip()
        try:
            labels[i - 1] = int(tok)
        except ValueError:
            raise CsvFormatError(str(label_path), i, f"non-integer label {tok!r}")
        if labels[i - 1] < 0:
            raise CsvFormatError(str(label_path), i, f"negative label {tok!r}")

    split_lines = _read_lines(split_path)
    if len(split_lines) != n:
        raise CsvFormatError(
            str(split_path), min(len(split_lines), n) + 1,
            f"expected {n} split tokens, found {len(split_lines)}",
        )
    split = np.zeros(n, dtype=np.int64)
    for i, line in enumerate(split_lines, start=1):
        tok = line.strip()
        if tok not in _SPLIT_TOKENS:
            raise CsvFormatError(str(split_path), i, f"unknown split token {tok!r}")
        split[i - 1] = _SPLIT_TOKENS[tok]

    edge_lines = _read_lines(edge_path)
    edges = np.zeros((len(edge_lines), 2), dtype=np.int64)
    for i, line in enumerate(edge_lines, start=1):
        parts = line.split(",")
        if len(parts) != 2:
            raise CsvFormatError(str(edge_path), i, f"expected 'src,dst', found {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise CsvFormatError(str(edge_path), i, f"non-integer endpoint in {line!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise CsvFormatError(
                str(edge_path), i, f"endpoint out of range [0, {n}) in {line!r}"
            )
        if u == v:
            raise CsvFormatError(str(edge_path), i, f"self-loop {line!r}")
        edges[i - 1] = (u, v)

    return make_graph(
        n, edges,
        features=features,
        labels=labels,
        train_mask=split == 0,
        val_mask=split == 1,
        test_mask=split == 2,
    )


def save_graph_csv(g: Graph, edge_path, feature_path, label_path, split_path) -> None:
    """Write ``g`` in the format :func:`load_graph_csv` reads back."""
    with open(edge_path, "w", encoding="utf-8", newline="\n") as f:
        for u, v in g.edges:
            f.write(f"{u},{v}\n")
    with open(feature_path, "w", encoding="utf-8", newline="\n") as f:
        for row in g.features:
            f.write(",".join(repr(float(x)) for x in row) + "\n")
    with open(label_path, "w", encoding="utf-8", newline="\n") as f:
        for y in g.labels:
            f.write(f"{y}\n")
    covered = g.train_mask | g.val_mask | g.test_mask
    if not covered.all():
        # the split format has no "unassigned" token
        raise CsvFormatError(
            str(split_path), int(np.flatnonzero(~covered)[0]) + 1,
            "node belongs to no split",
        )
    tokens = np.where(g.train_mask, "train", np.where(g.val_mask, "val", "test"))
    with open(split_path, "w", encoding="utf-8", newline="\n") as f:
        for tok in tokens:
            f.write(f"{tok}\n")
