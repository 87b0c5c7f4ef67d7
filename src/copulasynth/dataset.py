"""Schema definition, microdata/marginal ingestion, and marginal extraction.

All tabular data is held as dense integer category codes. A code is the
position of a label in its variable's declared label list, so every
downstream computation works on codes and never on label strings.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import SynthesisError

VALID_KINDS = ("ordinal", "categorical")
# Counts and totals up to 2**53 keep every ECDF partial sum exact in float64.
MAX_COUNT = 2**53
# Rows per block of the microdata CSV reader and writer. A block holds
# about this many times d label strings or object pointers at once, which
# bounds their memory, and is large enough that the per-block numpy calls
# cost nothing next to the csv module's own work.
_CSV_BLOCK_ROWS = 1 << 14


@dataclass(frozen=True)
class VariableSpec:
    """One variable: a name, its ordered category labels, and its kind.

    The position of a label in ``labels`` defines its numeric code
    0..m-1. For categorical variables this ordering is artificial but
    fixed; for ordinal variables it is meaningful.
    """

    name: str
    labels: tuple[str, ...]
    kind: str = "categorical"

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))
        if not self.labels:
            raise SynthesisError(f"variable {self.name!r}: empty label list")
        if len(set(self.labels)) != len(self.labels):
            raise SynthesisError(f"variable {self.name!r}: duplicate labels")
        if self.kind not in VALID_KINDS:
            raise SynthesisError(f"variable {self.name!r}: unknown kind {self.kind!r}")
        object.__setattr__(self, "_code", {lab: i for i, lab in enumerate(self.labels)})

    @property
    def n_categories(self) -> int:
        return len(self.labels)

    def code_of(self, label: str) -> int:
        try:
            return self._code[label]
        except KeyError:
            raise SynthesisError(
                f"variable {self.name!r}: unknown label {label!r}"
            ) from None


@dataclass(frozen=True)
class Schema:
    """Ordered collection of variables; order fixes the column layout."""

    variables: tuple[VariableSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(self.variables) < 1:
            raise SynthesisError("schema needs at least one variable")
        names = [v.name for v in self.variables]
        if len(set(names)) != len(names):
            raise SynthesisError("duplicate variable names in schema")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})
        # Counting kernels read dims once per call; build the tuple once.
        object.__setattr__(
            self, "_dims", tuple(v.n_categories for v in self.variables)
        )

    @property
    def d(self) -> int:
        return len(self.variables)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.variables)

    @property
    def dims(self) -> tuple[int, ...]:
        return self._dims

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise SynthesisError(f"unknown variable {name!r}") from None


@dataclass(frozen=True, eq=False)
class MicroTable:
    """Category codes, shape (N, d), stored column-major: column(i) is contiguous."""

    schema: Schema
    codes: np.ndarray

    def __post_init__(self):
        arr = np.array(self.codes, dtype=np.int64, order="F", copy=True)
        if arr.ndim != 2 or arr.shape[1] != self.schema.d:
            raise SynthesisError(
                f"codes must have shape (N, {self.schema.d}), got {arr.shape}"
            )
        if arr.size:
            if arr.min() < 0:
                raise SynthesisError("negative category code")
            for i, m in enumerate(self.schema.dims):
                hi = arr[:, i].max()
                if hi >= m:
                    raise SynthesisError(
                        f"variable {self.schema.names[i]!r}: code {hi} out of range "
                        f"(m={m})"
                    )
        arr.flags.writeable = False
        object.__setattr__(self, "codes", arr)

    @property
    def n_rows(self) -> int:
        return self.codes.shape[0]

    def column(self, i: int) -> np.ndarray:
        return self.codes[:, i]


@dataclass(frozen=True, eq=False)
class MarginalTable:
    """Per-variable category counts; every code appears exactly once."""

    schema: Schema
    counts: tuple[np.ndarray, ...]

    def __post_init__(self):
        fixed = []
        for var, cnt in zip(self.schema.variables, self.counts, strict=True):
            arr = np.asarray(cnt)
            if arr.dtype.kind not in "iu":
                raise SynthesisError(f"variable {var.name!r}: counts must be integers")
            if arr.shape != (var.n_categories,):
                raise SynthesisError(
                    f"variable {var.name!r}: expected {var.n_categories} counts, "
                    f"got shape {arr.shape}"
                )
            if (arr < 0).any():
                raise SynthesisError(f"variable {var.name!r}: negative count")
            total = sum(arr.tolist())  # a Python int: no int64 wrap-around
            if total <= 0:
                raise SynthesisError(f"variable {var.name!r}: all-zero marginal")
            if total > MAX_COUNT:
                raise SynthesisError(f"variable {var.name!r}: total exceeds 2**53")
            arr = arr.astype(np.int64)
            arr.flags.writeable = False
            fixed.append(arr)
        object.__setattr__(self, "counts", tuple(fixed))


@contextmanager
def open_input(path):
    """Open an input file as UTF-8 text, less any byte-order mark, for csv or json.

    Undecodable bytes and csv or JSON syntax errors raised while the file
    is read become a SynthesisError that names the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (UnicodeDecodeError, csv.Error, json.JSONDecodeError) as exc:
        raise SynthesisError(f"{path}: {exc}") from None


def load_schema(path) -> Schema:
    """Read a schema JSON file: {name: {"kind": ..., "labels": [...]}}.

    Variable order and label order follow the file.
    """
    with open_input(path) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict) or not raw:
        raise SynthesisError(f"{path}: schema file must be a non-empty JSON object")
    variables = []
    for name, spec in raw.items():
        if not isinstance(spec, dict) or not isinstance(spec.get("labels"), list):
            raise SynthesisError(f"{path}: variable {name!r} needs a 'labels' list")
        variables.append(
            VariableSpec(
                name=name,
                labels=tuple(spec["labels"]),
                kind=spec.get("kind", "categorical"),
            )
        )
    return Schema(tuple(variables))


def write_schema(schema: Schema, path) -> None:
    raw = {
        v.name: {"kind": v.kind, "labels": list(v.labels)} for v in schema.variables
    }
    Path(path).write_text(json.dumps(raw, indent=2) + "\n", encoding="utf-8")


def load_micro_csv(path, schema: Schema) -> MicroTable:
    """Read a microdata CSV (header + one record per person) into codes.

    The header must name a superset of the schema variables; extra
    columns are ignored. Rows are read in blocks of ``_CSV_BLOCK_ROWS``,
    and each block is decoded column by column through the variables'
    label dicts, so at most one block of label strings is alive at a time.
    The first fault in file order is reported: a short row by its physical
    line, an unknown label by variable, row number and the offending token.
    """
    variables = schema.variables
    with open_input(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SynthesisError(f"{path}: empty file, header row required") from None
        col_of = []
        for var in variables:
            if var.name not in header:
                raise SynthesisError(f"{path}: missing column {var.name!r}")
            col_of.append(header.index(var.name))
        decoded = [[] for _ in variables]
        n_rows = 0
        while True:
            # A fault ends the block; the rows before it are decoded first,
            # so an unknown label on an earlier row is still reported first.
            rows = []
            fault = None
            try:
                for row in islice(reader, _CSV_BLOCK_ROWS):
                    if len(row) < len(header):
                        fault = SynthesisError(
                            f"{path}: line {reader.line_num}: {len(row)} field(s), "
                            f"header has {len(header)}"
                        )
                        break
                    rows.append(row)
            except (csv.Error, UnicodeDecodeError) as exc:
                fault = exc  # open_input names the file when it is raised
            try:
                for parts, var, col in zip(decoded, variables, col_of):
                    parts.append(
                        np.fromiter(
                            map(var._code.__getitem__, map(itemgetter(col), rows)),
                            dtype=np.int64,
                            count=len(rows),
                        )
                    )
            except KeyError:
                # Name the first unknown label in row order, then schema order.
                for r, row in enumerate(rows, start=n_rows + 1):
                    for var, col in zip(variables, col_of):
                        if row[col] not in var._code:
                            raise SynthesisError(
                                f"{path}: variable {var.name!r}, row {r}: "
                                f"unknown label {row[col]!r}"
                            ) from None
            if fault is not None:
                raise fault
            n_rows += len(rows)
            if len(rows) < _CSV_BLOCK_ROWS:
                break
    # Every column has at least one part: the last block read may be empty.
    codes = np.empty((n_rows, schema.d), dtype=np.int64, order="F")
    for i, parts in enumerate(decoded):
        np.concatenate(parts, out=codes[:, i])
    return MicroTable(schema, codes)


def write_micro_csv(table: MicroTable, path) -> None:
    """Write a microdata CSV: a header of variable names, then labels per row.

    Each block of ``_CSV_BLOCK_ROWS`` rows is built column by column, by
    indexing a per-variable label array with that block's codes, and the
    rows are handed to one ``csv.writer``. The bytes are the ``csv``
    module's: minimal quoting and ``\\r\\n`` line ends, UTF-8.
    """
    labels = [np.array(var.labels, dtype=object) for var in table.schema.variables]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.schema.names)
        for start in range(0, table.n_rows, _CSV_BLOCK_ROWS):
            stop = start + _CSV_BLOCK_ROWS
            columns = [
                lab[table.column(i)[start:stop]].tolist()
                for i, lab in enumerate(labels)
            ]
            writer.writerows(zip(*columns))


def load_marginals_csv(path, schema: Schema) -> MarginalTable:
    """Read a marginals CSV with columns variable,label,count.

    Categories omitted from the file get count 0. Counts must be integers
    in 0..2**53 and every variable's total must lie in 1..2**53.
    """
    counts = [np.zeros(v.n_categories, dtype=np.int64) for v in schema.variables]
    filled = [np.zeros(v.n_categories, dtype=bool) for v in schema.variables]
    with open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise SynthesisError(f"{path}: empty marginals file")
        if [h.strip() for h in header[:3]] != ["variable", "label", "count"]:
            raise SynthesisError(
                f"{path}: expected header 'variable,label,count', got {header!r}"
            )
        for rownum, row in enumerate(reader, start=1):
            if not row:
                continue
            if len(row) < 3:
                raise SynthesisError(
                    f"{path}: line {reader.line_num}: {len(row)} field(s), "
                    "expected variable,label,count"
                )
            name, label, raw_count = row[0], row[1], row[2]
            try:
                i = schema.index_of(name)
                code = schema.variables[i].code_of(label)
            except SynthesisError as exc:
                raise SynthesisError(f"{path}: row {rownum}: {exc}") from None
            try:
                value = int(raw_count)
            except ValueError:
                raise SynthesisError(
                    f"{path}: row {rownum}: count {raw_count!r} is not an integer"
                ) from None
            if value < 0:
                raise SynthesisError(
                    f"{path}: row {rownum}: negative count for "
                    f"{name}={label!r}"
                )
            if value > MAX_COUNT:
                raise SynthesisError(f"{path}: row {rownum}: count exceeds 2**53")
            if filled[i][code]:
                raise SynthesisError(
                    f"{path}: row {rownum}: duplicate entry for {name}={label!r}"
                )
            counts[i][code] = value
            filled[i][code] = True
    return MarginalTable(schema, tuple(counts))


def write_marginals_csv(marginals: MarginalTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variable", "label", "count"])
        for var, cnt in zip(marginals.schema.variables, marginals.counts):
            for label, value in zip(var.labels, cnt):
                writer.writerow([var.name, label, int(value)])


def marginals_of(table: MicroTable) -> MarginalTable:
    """Per-variable category counts over the table's rows."""
    if table.n_rows == 0:
        raise SynthesisError("cannot take marginals of an empty table")
    counts = tuple(
        np.bincount(table.column(i), minlength=m)
        for i, m in enumerate(table.schema.dims)
    )
    return MarginalTable(table.schema, counts)

