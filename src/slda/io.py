"""Stable text formats: dataset CSV, matrix CSV, the v1 model file, and
the flat key-value and comma-list parsers behind scenario and config
files. All floats print with 17 significant digits so re-ingestion is
value-exact."""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from .classify import SparsityReport
from .errors import DataError
from .model import Dataset, LinearRule, ThresholdConfig, require_finite, validate_dataset

LABEL_COLUMN = "class"


def fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


# ---------------------------------------------------------------------------
# dataset CSV
# ---------------------------------------------------------------------------

def _label(cell: str) -> int:
    """A class label: an integer literal as int() reads it, small enough
    (|label| <= 2**53) to be exact in the float64 table."""
    value = int(cell)
    if abs(value) > 2**53:
        raise ValueError(f"label {cell.strip()} is out of range")
    return value


def _number(cell: str) -> float:
    """float(cell) limited to the text loadtxt reads: ASCII, with no
    digit-group underscore. Only the error path uses it, to name the
    cell the bulk parse rejected."""
    text = cell.strip()
    if not text.isascii() or "_" in text:
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(text)


def _bad_line(path, rows, width: int, expected: str, parsers: dict,
              exc: ValueError) -> DataError:
    """The error for the first data line, in file order, that the bulk
    parse rejects: a wrong field count (``expected`` names the line that
    set ``width``) or a cell that does not parse, named by its 1-based
    file line. ``rows`` yields (line number, fields) for the data lines."""
    for line_no, row in rows:
        if len(row) != width:
            return DataError(f"{path}: line {line_no} has {len(row)} fields, "
                             f"{expected} has {width}")
        for j, cell in enumerate(row):
            try:
                parsers.get(j, _number)(cell)
            except ValueError as cell_exc:
                return DataError(f"{path}: line {line_no}: {cell_exc}")
    return DataError(f"{path}: {exc}")


def _read_table(path, labeled: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Header row, then numeric rows as a float matrix, parsed in one
    loadtxt pass as the file streams: no list of its lines is made, so
    the table and the features cut from it are the only copies held.
    Lines split at \\n, \\r\\n and \\r, as csv's do, and a blank line is
    skipped. The integer "class" column is required and returned when
    ``labeled``; otherwise it is skipped if present and no labels are
    returned. A parse error names the 1-based file line."""
    with open(path, newline="", encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: empty file")
        header = next(csv.reader([first]))
        label_idx = header.index(LABEL_COLUMN) if LABEL_COLUMN in header else None
        if labeled and label_idx is None:
            raise DataError(f'{path}: no "{LABEL_COLUMN}" column in header')
        body = fh.tell()
        # readline, not next(), keeps tell and seek usable
        if not any(line.strip("\r\n") for line in iter(fh.readline, "")):
            raise DataError(f"{path}: no data rows")  # before loadtxt could only warn
        fh.seek(body)
        # the label column goes through _label, or is read as 0 and dropped
        parsers = {} if label_idx is None else {label_idx: _label if labeled else (lambda cell: 0.0)}
        try:
            table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                               converters=parsers, ndmin=2)
            if table.shape[1] != len(header):
                raise ValueError(f"{table.shape[1]} fields, header has {len(header)}")
        except ValueError as exc:
            fh.seek(body)
            numbered = ((line_no, next(csv.reader([line])))
                        for line_no, line in enumerate(fh, start=2) if line.strip("\r\n"))
            raise _bad_line(path, numbered, len(header), "header", parsers, exc) from None
    if label_idx is None:
        return table, None
    labels = table[:, label_idx].astype(np.int64) if labeled else None
    return np.delete(table, label_idx, axis=1), labels


def read_dataset_csv(path) -> Dataset:
    """Load a labeled dataset: header row, numeric feature columns, and
    an integer label column named "class"."""
    features, labels = _read_table(path, labeled=True)
    return validate_dataset(features, labels)


def read_feature_csv(path) -> np.ndarray:
    """Load the feature rows of a CSV with a header; a "class" column is
    ignored if present. NaN or Inf cells raise DataError."""
    features, _ = _read_table(path, labeled=False)
    require_finite(features)
    return features


# ---------------------------------------------------------------------------
# plain matrix CSV (no header)
# ---------------------------------------------------------------------------

def _data_lines(fh):
    # (1-based line number, fields) of each line loadtxt reads as data:
    # "#" starts a comment, and a line empty before it is skipped
    for line_no, line in enumerate(fh, start=1):
        text = line.split("#", 1)[0].rstrip("\r\n")
        if text:
            yield line_no, text.split(",")


def read_matrix(path) -> np.ndarray:
    """Comma-separated rows of numbers with no header, parsed by loadtxt
    as the file streams: "#" starts a comment and a line empty before it
    is skipped. No data rows, a wrong field count or a cell that does
    not parse raise DataError, the last two naming the 1-based file line."""
    try:
        with open(path, encoding="utf-8") as fh:
            first = next(_data_lines(fh), None)
            if first is None:
                raise DataError(f"{path}: no data rows")
            fh.seek(0)
            try:
                return np.loadtxt(fh, delimiter=",", ndmin=2)
            except ValueError as exc:
                fh.seek(0)
                raise _bad_line(path, _data_lines(fh), len(first[1]), f"line {first[0]}", {},
                                exc) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# model file (line-oriented text, format v1)
# ---------------------------------------------------------------------------

MODEL_HEADER = "slda-model v1"


def write_model(path, rule: LinearRule, config: ThresholdConfig,
                report: SparsityReport | None = None) -> None:
    """Write the fitted rule: header, p/alpha/M1/M2/c/degenerate lines,
    sparsity-report lines when available, then p weight lines."""
    lines = [MODEL_HEADER,
             f"p {rule.p}",
             f"alpha {fmt_float(config.alpha)}",
             f"m1 {fmt_float(config.m1)}",
             f"m2 {fmt_float(config.m2)}",
             f"c {fmt_float(rule.cutoff)}",
             f"degenerate {1 if rule.degenerate else 0}"]
    if report is not None:
        lines += [f"q_hat {report.q_hat}",
                  f"nnz_offdiag {report.nnz_offdiag}",
                  f"pd_flag {1 if report.pd_flag else 0}"]
    lines.append("weights")
    # one format pass for all p weights: the bytes of fmt_float per weight
    lines.append("\n".join(["%.17g"] * rule.p) % tuple(rule.weights.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_model(path) -> tuple[LinearRule, dict]:
    """Read a v1 model file back into a rule plus its metadata dict."""
    text = Path(path).read_text(encoding="utf-8").splitlines()
    if not text or text[0].strip() != MODEL_HEADER:
        raise DataError(f'{path}: missing "{MODEL_HEADER}" header')
    meta: dict = {}
    line_of = {}  # key -> 1-based line number
    i = 1
    while i < len(text) and text[i].strip() != "weights":
        parts = text[i].split(None, 1)
        if len(parts) != 2:
            raise DataError(f"{path}: malformed line {i + 1}: {text[i]!r}")
        if parts[0] in meta:
            raise DataError(f"{path}: repeated key {parts[0]!r} on line {i + 1}")
        meta[parts[0]] = parts[1]
        line_of[parts[0]] = i + 1
        i += 1
    if i >= len(text):
        raise DataError(f'{path}: no "weights" section')
    try:
        p = int(meta["p"])
        if p < 1:
            raise ValueError(f"line {line_of['p']}: p must be >= 1, got {p}")
        cutoff = float(meta["c"])
        weights = np.array([float(v) for v in text[i + 1:i + 1 + p]])
    except (KeyError, ValueError) as exc:
        raise DataError(f"{path}: {exc}") from exc
    extra = sum(1 for line in text[i + 1 + p:] if line.strip())
    if weights.shape != (p,) or extra:
        raise DataError(f"{path}: expected {p} weight lines, found {weights.shape[0] + extra}")
    if not np.isfinite(cutoff):
        raise DataError(f"{path}: non-finite cutoff c = {cutoff}")
    bad = np.flatnonzero(~np.isfinite(weights))
    if bad.size:
        raise DataError(f"{path}: non-finite weight on line {i + 2 + bad[0]}")
    rule = LinearRule(weights=weights, cutoff=cutoff)
    expected = "1" if rule.degenerate else "0"
    flag = meta.get("degenerate", expected).strip()
    if flag != expected:
        raise DataError(f"{path}: degenerate {flag} contradicts the weights "
                        "(it is 1 exactly when every weight is 0)")
    return rule, meta


# ---------------------------------------------------------------------------
# flat key = value text (scenario and config files)
# ---------------------------------------------------------------------------

def read_kv(path) -> dict:
    """Key-value pairs of a ``key = value`` file; "#" starts a comment.
    An empty key or a key given twice raises DataError."""
    out = {}
    seen = {}  # key -> line number
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}: line {line_no} is not key = value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise DataError(f"{path}: line {line_no} has an empty key: {raw!r}")
        if key in seen:
            raise DataError(f"{path}: key {key!r} on line {line_no} repeats line {seen[key]}")
        seen[key] = line_no
        out[key] = value
    return out


def number(kind, least=None):
    """A parser, (text, name) -> a finite ``kind`` >= ``least``, for a
    flag or key value; it raises DataError naming ``name``."""
    def parse(text: str, name: str):
        try:
            value = kind(text)
        except ValueError as exc:
            raise DataError(f"{name}: {exc}") from None
        if kind is float and not np.isfinite(value):
            raise DataError(f"{name}: must be finite, got {text}")
        if least is not None and value < least:
            raise DataError(f"{name}: must be >= {least}, got {text}")
        return value
    return parse


def float_list(text: str, name: str) -> tuple[float, ...]:
    """The numbers of a comma-separated flag or key value. An empty value
    or item, or an item that is not a number, raises DataError naming
    ``name``."""
    items = text.split(",")
    if not all(item.strip() for item in items):
        raise DataError(f"{name} has an empty item: {text!r}")
    try:
        return tuple(float(item) for item in items)
    except ValueError as exc:
        raise DataError(f"{name}: {exc}") from None
