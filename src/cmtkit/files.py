"""Facet file parsing and emission.

Text format: one facet per line as whitespace-separated vertex labels, none
starting with '#' or '@' (both formats share the rule `_writable`); lines
starting with '#' are comments; an empty file is the void complex and
a file whose only content is the line '@empty-face' is {<>}.  A JSON
alternative {"facets": [["1", "2"], ...]} is accepted on input (detected by
a leading '{').  Emission always uses the canonical text form, so
parse(emit(cx)) reproduces cx for compact complexes.

Text without any '#' or '@' is split into rows with no per-token check.
That is exact: a token of str.split() is never empty and holds no
whitespace, so `_writable` can only reject it for a '#' or '@' prefix, and
without either character there is no comment line and no marker line
either.  Any other text goes through the line-by-line loop, which reports
the first offending line.

Both formats build the complex straight from facet masks: the labels are
sorted (`_label_key`, or by length and text when every label is a plain
decimal, which gives the same order) and numbered 0..n-1 in that order,
each row becomes the OR of its labels' bits, and
`SimplicialComplex._from_masks` normalizes the masks once.  Every label of
a file lies in some facet, so nothing is relabelled afterwards.  The text
is split into rows in one C-level pass.  With at most 64 labels, every
row's mask is the sum of its labels' bits, also taken in C-level passes,
and a row that repeats a label (its sum has fewer bits set than the row
has tokens) sends the file to the OR of ids, row by row.  More labels
always take that path: a table of every label's bit would take memory
quadratic in the label count.
"""

from __future__ import annotations

import json
from itertools import repeat
from pathlib import Path

from .core import SimplicialComplex, _mask

EMPTY_FACE_LINE = "@empty-face"


class ParseError(ValueError):
    """Malformed facet file; carries the offending line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


def _writable(label: str) -> bool:
    """Whether the text format can hold the label as one vertex token."""
    return bool(label) and label.split() == [label] and not label.startswith(("#", "@"))


def _label_key(label: str):
    # Decimal labels sort by value, ties (leading zeros) by text, and every
    # other label lexicographically after them.  The value is compared as
    # (significant-digit count, significant digits), never through int() of
    # the whole label, so a label of any length sorts; non-ASCII decimal
    # digits are read one by one.
    if label.isdecimal():
        digits = label if label.isascii() else "".join(str(int(c)) for c in label)
        digits = digits.lstrip("0")
        return (0, len(digits), digits, label)
    return (1, label)


def _sorted_labels(labels: set[str]) -> list[str]:
    """The labels (each `_writable`) in `_label_key` order.  When all are
    ASCII decimals and none but "0" starts with a zero, that order is by
    length, then by text: two stable sorts with no per-label key tuple."""
    joined = "".join(labels)
    if joined.isascii() and joined.isdecimal():
        out = sorted(labels)
        # text order puts the labels that start with a zero first
        if [lb for lb in out[:2] if lb.startswith("0")] in ([], ["0"]):
            out.sort(key=len)
            return out
    return sorted(labels, key=_label_key)


def _build(rows: list[list[str]]) -> SimplicialComplex:
    """The complex whose facets are the given rows of labels (a row may
    repeat a label, lie in another row or equal one)."""
    labels = _sorted_labels(set().union(*rows))
    n = len(labels)
    if n <= 64:
        # each row sums its labels' bits, with no Python step per row; a sum
        # of k distinct bits has k bits set, so a row that repeats a label
        # shows up as a short count and sends the rows down the OR below
        bit = dict(zip(labels, map((1).__lshift__, range(n)))).__getitem__
        masks = list(map(sum, map(map, repeat(bit), rows)))
        if list(map(int.bit_count, masks)) == list(map(len, rows)):
            return SimplicialComplex._from_masks(masks, tuple(labels))
    index = dict(zip(labels, range(n))).__getitem__
    masks = [_mask(list(map(index, row))) for row in rows]
    return SimplicialComplex._from_masks(masks, tuple(labels))


def _parse_text(text: str) -> SimplicialComplex:
    if "#" not in text and "@" not in text:  # no comment, marker or bad token
        return _build(list(filter(None, map(str.split, text.splitlines()))))
    rows = []
    marker_line = None
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line == EMPTY_FACE_LINE:
            if marker_line is not None:
                raise ParseError(f"duplicate {EMPTY_FACE_LINE}", line=ln)
            marker_line = ln
            continue
        tokens = line.split()
        for tok in tokens:
            if not _writable(tok):
                raise ParseError(f"label {tok!r} cannot be written to the facet format", line=ln)
        rows.append(tokens)
    if marker_line is not None and rows:
        raise ParseError(f"{EMPTY_FACE_LINE} must be the only content", line=marker_line)
    return _build(rows if marker_line is None else [[]])


def _parse_json(text: str) -> SimplicialComplex:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e.msg}", line=e.lineno) from None
    if not isinstance(doc, dict) or "facets" not in doc:
        raise ParseError('JSON input must be an object with a "facets" key')
    facets = doc["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise ParseError('"facets" must be a list of lists of labels')
    for tok in (tok for f in facets for tok in f):
        if isinstance(tok, bool) or not isinstance(tok, (str, int)):
            raise ParseError(f"vertex labels must be strings or integers, got {json.dumps(tok)}")
        if not _writable(str(tok)):
            raise ParseError(f"label {json.dumps(tok)} cannot be written to the facet format")
    return _build([[str(tok) for tok in f] for f in facets])


def parse(text: str) -> SimplicialComplex:
    """Parse either facet format; JSON is detected by a leading '{'."""
    if text.lstrip().startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def load(path) -> SimplicialComplex:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e.strerror or e}") from None
    return parse(text)


def emit(cx: SimplicialComplex) -> str:
    """Canonical text form: facets in canonical order, one per line."""
    if cx.is_void:
        return ""
    if cx.dim == -1:
        return EMPTY_FACE_LINE + "\n"
    lines = []
    for facet in cx.facets:
        tokens = [cx.labels[v] for v in facet]
        for tok in tokens:
            if not _writable(tok):
                raise ValueError(f"label {tok!r} cannot be written to the facet format")
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"


def dump(cx: SimplicialComplex, path) -> None:
    Path(path).write_text(emit(cx))
