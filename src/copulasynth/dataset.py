"""Schema definition, microdata/marginal ingestion, and marginal extraction.

All tabular data is held as dense integer category codes. A code is the
position of a label in its variable's declared label list, so every
downstream computation works on codes and never on label strings. Codes
are stored in the smallest unsigned dtype that holds ``max(dims) - 1``
(see ``code_dtype``). Under numpy's promotion rules ``uint8 * int`` stays
uint8 and wraps, so arithmetic on codes names its result dtype.

The module also owns the one key encoding of a table's rows, shared by
the metrics, the BN and the IPF seed: ``set_keys`` builds mixed-radix keys
and re-ranks them once their range passes ``KEY_RANGE_PER_ROW`` per row.
Keys over a range of ``span`` values are stored in the narrowest of
uint8, uint16 and uint32 that holds ``span - 1``, or in int64 once
``span - 1`` reaches 2**32. Each multiply-add names that dtype for the
new range, which holds every new key, so it cannot wrap. A consumer that
does its own arithmetic on keys widens them first, as ``count_below``
does before ``rows * width``.

Keys cost a few bytes a row, so what a whole key array costs beside them
is kept small. Re-ranking (``_dense_ranks``) holds one intp sort index
and writes the ranks straight into their narrow dtype, and
``count_keys`` counts keys a row block at a time, so neither widens a
whole key array to intp as np.unique and np.bincount do.
"""

from __future__ import annotations

import codecs
import csv
import io
import json
import math
import numbers
import os
import stat
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, islice, pairwise
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import SynthesisError

VALID_KINDS = ("ordinal", "categorical")
# Counts and totals up to 2**53 keep every ECDF partial sum exact in float64.
MAX_COUNT = 2**53
# Rows per block of the microdata CSV writer and of the reader's csv.reader
# path. That path holds about this many times d label strings at once. The
# writer holds the block's fixed-width byte records, at most
# _CSV_BLOCK_BYTES of them, so a schema with a very wide label writes fewer
# rows per block. Both bounds keep a block's memory small, and blocks are
# still large enough that the per-block numpy calls and the one write cost
# little next to the bytes.
_CSV_BLOCK_ROWS = 1 << 12
_CSV_BLOCK_BYTES = 1 << 18
# The writer pads a field text of at most this many bytes; a wider one is
# written apart, so one long label does not widen every row of its column.
_CSV_PAD_BYTES = 256
# The byte reader decodes whole lines of about _CSV_READ_BYTES at a time.
# Its per-block int64 arrays, 8 bytes per field, then stay below glibc's
# default 128 KiB mmap threshold, so blocks reuse freed heap memory. At
# 256 KiB each block mapped fresh pages: about 3,000 page faults per 10k x
# 20 file, and a traced 39 ms instead of 21 ms to read generate_d20's two.
_CSV_READ_BYTES = 1 << 14
# The byte reader packs a field of up to _KEY_BYTES bytes and its length
# into one uint64 key (see _label_table); _FIELD_MASKS[w] keeps the top w
# bytes of a word, where a field of w bytes ends.
_KEY_BYTES = 7
_FIELD_MASKS = np.array(
    [((1 << 8 * w) - 1) << 8 * (8 - w) for w in range(_KEY_BYTES + 1)], dtype=np.uint64
)
# Fibonacci hashing: the top bits of key * (2**64 / golden ratio), mod 2**64,
# pick a key's first slot.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
# Combination keys may range over this many values per counted row before
# they are re-ranked densely, so a bincount over them stays a few words per
# row however many categories the columns have.
KEY_RANGE_PER_ROW = 4
# Every row-wise stage of generation runs over blocks of this many rows
# (see row_blocks): BN sampling draws and searches a block at a time, and
# the copula exit jitters a block and maps it through the target's
# pseudo-inverse while it is still in cache, so count_below's scratch is
# a block long. Scratch as long as a column mapped fresh pages per call,
# 18.6k faults (not 3.0k) to sample 150k x 20.
ROW_BLOCK = 1 << 15


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
        if not isinstance(self.name, str):
            raise SynthesisError(f"variable name must be a string, got {self.name!r}")
        if isinstance(self.labels, str):  # would give its characters as labels
            raise SynthesisError(
                f"variable {self.name!r}: labels {self.labels!r} are a string, not a list"
            )
        labels = as_tuple(self.labels, f"variable {self.name!r}: labels")
        object.__setattr__(self, "labels", tuple(map(str, labels)))
        if not self.labels:
            raise SynthesisError(f"variable {self.name!r}: empty label list")
        if len(set(self.labels)) != len(self.labels):
            raise SynthesisError(f"variable {self.name!r}: duplicate labels")
        if self.kind not in VALID_KINDS:
            raise SynthesisError(f"variable {self.name!r}: unknown kind {self.kind!r}")
        # Every output is UTF-8; a lone surrogate (JSON "\ud800") has no encoding.
        texts = [("name", self.name)] + [("label", x) for x in self.labels]
        for what, text in texts:
            try:
                text.encode("utf-8")
            except UnicodeEncodeError:
                raise SynthesisError(
                    f"variable {self.name!r}: {what} {text!r} "
                    "cannot be encoded as UTF-8"
                ) from None
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
        variables = as_tuple(self.variables, "schema variables")
        object.__setattr__(self, "variables", variables)
        if len(self.variables) < 1:
            raise SynthesisError("schema needs at least one variable")
        for v in self.variables:
            if not isinstance(v, VariableSpec):
                raise SynthesisError(f"schema variable {v!r} is not a VariableSpec")
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


def as_tuple(values, what: str) -> tuple:
    """``values`` as a tuple; a SynthesisError naming ``what`` if not a sequence."""
    try:
        return tuple(values)
    except TypeError:
        raise SynthesisError(f"{what} {values!r} are not a sequence") from None


def check_type(value, cls, what: str) -> None:
    """A SynthesisError naming ``what`` unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise SynthesisError(f"{what} must be a {cls.__name__}, got {value!r}")


def _typed_array(values, what: str, kinds: str, noun: str) -> np.ndarray:
    try:
        arr = np.asarray(values)
    except (TypeError, ValueError):  # ragged nesting, say
        raise SynthesisError(f"{what} must be a rectangular array of {noun}") from None
    if arr.dtype.kind not in kinds:
        raise SynthesisError(f"{what} must be {noun}, got dtype {arr.dtype}")
    return arr


def integer_array(values, what: str) -> np.ndarray:
    """``values`` as an array, rejected unless its dtype is an integer one."""
    return _typed_array(values, what, "iu", "integers")


def float_array(values, what: str) -> np.ndarray:
    """``values`` as a new float64 array, rejected unless they are real numbers."""
    return _typed_array(values, what, "iuf", "numbers").astype(np.float64)


def is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """Whether value is a real number a float holds finitely; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int past the float range
        return False


def code_dtype(schema: Schema) -> np.dtype:
    """The smallest unsigned dtype that holds every code of the schema."""
    return np.min_scalar_type(max(schema.dims) - 1)


def new_codes(schema: Schema, n: int) -> np.ndarray:
    """An unfilled (n, d) array in the table layout: column-major, in
    ``code_dtype(schema)``. A producer fills it, marks it read-only and
    hands it to ``MicroTable``, which keeps it without a copy."""
    return np.empty((n, schema.d), dtype=code_dtype(schema), order="F")


def _key_dtype(span) -> np.dtype:
    """The dtype of keys in 0..span-1: the narrowest unsigned one up to
    uint32, else int64, never uint64 (uint64 mixed with int64 gives float64)."""
    return np.min_scalar_type(span - 1) if span <= 2**32 else np.dtype(np.int64)


def _extend_keys(keys, span, column, m, budget):
    """Append one column of m categories to the keys' mixed-radix key.

    Keys lie in 0..span-1 and the column holds unsigned codes. When the new
    range passes the budget, _dense_ranks re-ranks the keys: that keeps
    their order and brings the range down to the number of distinct keys.
    """
    dtype = _key_dtype(span * m)
    if span == 1:  # every key is 0, and m itself may not fit (uint8 and 256)
        keys = column.astype(dtype)
    else:
        keys = np.multiply(keys, m, dtype=dtype)
        np.add(keys, column, out=keys, dtype=dtype)
    span *= m
    if span > budget:
        keys, span = _dense_ranks(keys)
    return keys, span


def _dense_ranks(keys):
    """Each key's rank among the distinct keys, and their number.

    The ranks keep the keys' order and equal np.unique's inverse, but are
    written straight into _key_dtype of their range: argsort, flag where a
    run of equal sorted keys starts, cumsum, scatter. The first run start
    is not flagged, so the largest rank is the count less one and the
    cumsum cannot wrap in the narrow dtype.
    """
    order = np.argsort(keys)
    ordered = keys[order]
    starts = np.empty(keys.size, bool)
    starts[:1] = False
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    del ordered
    span = np.count_nonzero(starts) + min(keys.size, 1)
    ranks = np.empty(keys.size, _key_dtype(span))
    ranks[order] = np.cumsum(starts, dtype=ranks.dtype)
    return ranks, span


def set_keys(sets, dims, column, n, budget=None):
    """Yield (cols, keys, span) for each tuple of columns, in the given order.

    ``keys`` are the n rows' mixed-radix keys over cols, first column most
    significant, ``column(c)`` giving column c's n codes. They lie in
    0..span-1, in _key_dtype of the range, and ascend in the lexicographic
    order of the combinations. Once a column takes the range past the
    budget (default KEY_RANGE_PER_ROW per row), _dense_ranks re-ranks the
    keys; keys never re-ranked equal np.ravel_multi_index's. Tables keyed
    end to end, one column function over all their rows, share keys. A
    set extends only the key prefix it shares with the set before it, and
    keeps only the prefixes the next set shares: sets in sorted order
    share long prefixes.
    """
    if budget is None:
        budget = KEY_RANGE_PER_ROW * n
    prefixes = [(np.zeros(n, dtype=_key_dtype(1)), 1)]  # over cols[:0], cols[:1], ...
    for cols, after in pairwise([*sets, ()]):
        keep = 0
        for a, b in zip(cols, after):
            if a != b:
                break
            keep += 1
        keys, span = prefixes[-1]
        for c in cols[len(prefixes) - 1 :]:
            keys, span = _extend_keys(keys, span, column(c), dims[c], budget)
            if len(prefixes) <= keep:
                prefixes.append((keys, span))
        del prefixes[keep + 1 :]
        yield cols, keys, span


def row_blocks(n):
    """Consecutive slices of at most ROW_BLOCK rows that cover rows 0..n-1."""
    for lo in range(0, n, ROW_BLOCK):
        yield slice(lo, min(lo + ROW_BLOCK, n))


def count_keys(keys, span):
    """np.bincount(keys, minlength=span), without a whole-array transient.

    np.bincount widens its input to intp, 8 bytes a key, so keys longer
    than a row block are added into one count array a row block at a time
    by np.add.at, which gives the same intp counts.
    """
    if keys.size <= ROW_BLOCK:
        return np.bincount(keys, minlength=span)
    counts = np.zeros(span, np.intp)
    for block in row_blocks(keys.size):
        np.add.at(counts, keys[block], 1)
    return counts


def count_below(cuts, width, u, rows=None):
    """Each u's count of the cuts below it in its row, in O(log width) halvings.

    ``cuts`` holds rows of ``width`` ascending cuts end to end, width a
    power of two and each row's last cut an inf that is never read; ``rows``
    holds each u's row as unsigned keys, None meaning one row. A 0-d u
    gives a numpy scalar, as np.searchsorted does. Its scratch is as long
    as u: callers pass one row block at a time.
    """
    counts = np.empty(u.shape, np.intp)
    x, pos = u.reshape(-1), counts.reshape(-1)
    hit, below = np.empty(x.size, bool), np.empty(x.size)
    inc = below.view(np.intp)  # below's buffer, free again once hit is set
    if rows is None:  # the first halving compares x with one cut (width 1: adds 0)
        step = width >> 1
        np.multiply(np.less(cuts[step - 1], x, out=hit), step, out=pos)
    else:  # keys come in their range's narrowest dtype: widen before * width
        step = width
        np.multiply(np.reshape(rows, -1), width, out=pos, dtype=np.intp)
    while step := step >> 1:
        # pos + step - 1 < cuts.size: 'clip' clips nothing, skips 'raise' buffering.
        cuts[step - 1 :].take(pos, out=below, mode="clip")
        np.less(below, x, out=hit)
        pos += np.multiply(hit, step, out=inc)
    if rows is not None:
        pos &= width - 1
    return counts[()]


@dataclass(frozen=True, eq=False)
class MicroTable:
    """Category codes, shape (N, d), stored column-major: column(i) is contiguous.

    The codes are read-only, in ``code_dtype(schema)``. An input that is
    already so, F-contiguous and owns its memory is kept as it is: every
    producer fills a ``new_codes`` array, marks it read-only and hands it
    over, so a generated population is one (N, d) array, never two. Any
    other input is copied, so a table never shares memory with a writable
    array that someone else holds. The input must have an integer dtype (a
    float or bool is rejected, never truncated) and is range-checked as
    given, before it is narrowed, so an out-of-range or negative code is
    rejected and never wraps. Narrow unsigned arithmetic wraps, so
    arithmetic on the codes names a result dtype wide enough for it, as
    set_keys does with _key_dtype.
    """

    schema: Schema
    codes: np.ndarray

    def __post_init__(self):
        check_type(self.schema, Schema, "schema")
        arr = integer_array(self.codes, "category codes")
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
        flags = arr.flags
        adoptable = flags.f_contiguous and flags.owndata and not flags.writeable
        if not adoptable or arr.dtype != code_dtype(self.schema):
            arr = np.array(arr, dtype=code_dtype(self.schema), order="F", copy=True)
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
        check_type(self.schema, Schema, "schema")
        counts = as_tuple(self.counts, "marginal counts")
        if len(counts) != self.schema.d:
            raise SynthesisError(
                f"expected {self.schema.d} count arrays, one per variable, "
                f"got {len(counts)}"
            )
        fixed = []
        for var, cnt in zip(self.schema.variables, counts):
            arr = integer_array(cnt, f"variable {var.name!r}: counts")
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

    Undecodable bytes, csv or JSON syntax errors and JSON nested too deeply
    to decode, raised while the file is read, become a SynthesisError that
    names the file.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            yield fh
    except (
        UnicodeDecodeError, csv.Error, json.JSONDecodeError, RecursionError
    ) as exc:
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
    columns are ignored, and a name given twice means its first column.
    A regular file is decoded straight from its bytes, in blocks of whole
    lines of about ``_CSV_READ_BYTES``: one ``np.flatnonzero`` finds a
    block's ``,`` and ``\\n`` bytes, each schema field of up to
    ``_KEY_BYTES`` bytes becomes one uint64 key, and one hash-table lookup
    of the whole block maps the keys to codes (see ``_label_table``).
    ``\\n`` and ``\\r\\n`` line ends, a leading byte-order mark and a
    last line with no newline are read as ``csv.reader`` reads them.

    The byte decoder gives the file up wherever ``csv.reader`` might read
    it otherwise or refuse it, and the ``csv.reader`` path
    (``_load_micro_rows``) then reads the whole file again: on a ``"``, a
    NUL, a ``\\r`` not followed by ``\\n``, a blank line, a row of
    another field count than the header's, a schema field wider than a key
    or that is no label of its variable, a line longer than
    ``csv.field_size_limit()`` bytes, bytes that are not UTF-8, and a file
    that is not regular, such as a pipe. So every fault is reported by the
    ``csv.reader`` path, as it always was: a short row by its physical
    line, an unknown label by variable, row number and the offending token.
    """
    table = _load_micro_bytes(path, schema)
    return _load_micro_rows(path, schema) if table is None else table


def _label_table(schema: Schema, dtype):
    """One open-addressing hash table of every variable's label keys.

    A field of w <= _KEY_BYTES bytes has as key the little-endian uint64 of
    the 8 bytes that end with the field, with the bytes before the field
    cleared and w in the lowest byte, which lies before the field. So ""
    and a label of NUL bytes get different keys.

    Variable i owns the run of slots from offsets[i]. A key's first slot in
    it is ``(key * _HASH_MULTIPLIER mod 2**64) >> shifts[i]``, and a key
    whose slot is taken lies in the next free one, fewer than ``probes``
    slots on. Each run has ``probes - 1`` spare slots at its end, so a
    search never leaves its variable's run. Free slots hold 2**64 - 1,
    whose length byte no field has. Labels wider than a key are left out:
    no field they could match is decoded.

    Returns the slots' keys and codes, the offsets and shifts as (d, 1)
    columns, and probes.
    """
    runs, offsets, shifts, probes = [], [], [], 1
    for var in schema.variables:
        fit = [
            (int.from_bytes(raw.rjust(8, b"\0"), "little") | len(raw), code)
            for code, raw in enumerate(label.encode() for label in var.labels)
            if len(raw) <= _KEY_BYTES
        ]
        # From over 2 to at most 32 slots per key: the first size at which
        # no key is moved, else the largest.
        low = (2 * len(fit)).bit_length()
        for bits in range(low, low + 4):
            run, moved = {}, 0
            for key, code in fit:
                first = slot = (key * _HASH_MULTIPLIER % 2**64) >> (64 - bits)
                while slot in run:
                    slot += 1
                run[slot] = key, code
                moved = max(moved, slot - first)
            if not moved:
                break
        probes = max(probes, moved + 1)
        runs.append((bits, run))
    keys, codes = [], []
    for bits, run in runs:
        offsets.append(len(keys))
        shifts.append(64 - bits)
        for slot in range((1 << bits) + probes - 1):
            key, code = run.get(slot, (2**64 - 1, 0))
            keys.append(key)
            codes.append(code)
    column = (len(offsets), 1)
    return (
        np.array(keys, dtype=np.uint64),
        np.array(codes, dtype=dtype),
        np.array(offsets, dtype=np.uint64).reshape(column),
        np.array(shifts, dtype=np.uint64).reshape(column),
        probes,
    )


def _line_blocks(fh):
    """The file's bytes in blocks of whole lines, each about _CSV_READ_BYTES.

    A last line without a newline is given one.
    """
    tail = b""
    while chunk := fh.read(_CSV_READ_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield tail + chunk[:cut]
            tail = chunk[cut:]
        else:
            tail += chunk
    if tail:
        yield tail + b"\n"


def _load_micro_bytes(path, schema: Schema):
    """The table of a regular microdata file, or None if the bytes are not plain.

    See load_micro_csv for what the byte decoder refuses.
    """
    try:
        if not stat.S_ISREG(os.stat(path).st_mode):
            return None
    except OSError:
        return None
    dtype = code_dtype(schema)
    table = _label_table(schema, dtype)
    with open(path, "rb") as fh:
        blocks = _line_blocks(fh)
        first = next(blocks, b"").removeprefix(codecs.BOM_UTF8)
        head, _, rest = first.partition(b"\n")
        head = head.removesuffix(b"\r")
        if (
            not head
            or len(head) > csv.field_size_limit()
            or any(c in head for c in (b'"', b"\0", b"\r"))
        ):
            return None
        try:
            header = head.decode().split(",")
        except UnicodeDecodeError:
            return None
        if not all(var.name in header for var in schema.variables):
            return None
        col_of = [header.index(var.name) for var in schema.variables]
        parts = []
        for block in chain([rest], blocks):
            codes = _decode_block(block, len(header), col_of, table, dtype)
            if codes is None:
                return None
            parts.append(codes)
    codes = new_codes(schema, sum(part.shape[1] for part in parts))
    np.concatenate(parts, axis=1, out=codes.T)
    codes.flags.writeable = False
    return MicroTable(schema, codes)


def _decode_block(block: bytes, n_fields: int, col_of, table, dtype):
    """A block of whole lines as (d, rows) codes, or None if it is not plain."""
    if b'"' in block or b"\0" in block:
        return None
    try:
        block.decode()
    except UnicodeDecodeError:
        return None
    if not block:
        return np.empty((len(col_of), 0), dtype=dtype)
    # Eight pad bytes, so the 8-byte word that ends with any field lies in buf.
    buf = bytes(8) + block
    padded = np.frombuffer(buf, dtype=np.uint8)
    text = padded[8:]
    newline = text == 10
    seps = np.flatnonzero(newline | (text == 44))
    rows = np.count_nonzero(newline)
    if seps.size != rows * n_fields:
        return None
    # Each row's last separator is a newline and there are no others, so
    # every row holds exactly n_fields fields.
    seps = seps.reshape(rows, n_fields)
    line_ends = seps[:, -1]
    if not newline[line_ends].all():
        return None
    crlf = padded[line_ends + 7] == 13  # the byte before each newline
    if np.count_nonzero(text == 13) != np.count_nonzero(crlf):
        return None  # a lone "\r", which csv reads as a line end
    lengths = np.diff(line_ends, prepend=-1) - 1 - crlf
    # A line of at most the limit's bytes has no field of more characters.
    if lengths.max() > csv.field_size_limit():
        return None
    if n_fields == 1 and lengths.min() == 0:
        return None  # a blank line, which csv reads as a row of no fields
    # Each variable's field ends, and the separators before its fields.
    ends = seps.T[col_of]
    starts = seps.T[[k - 1 for k in col_of]]
    for k, end, start in zip(col_of, ends, starts):
        if k == 0:  # the previous line's newline
            start[1:] = start[:-1]
            start[0] = -1
        if k == n_fields - 1:
            end -= crlf
    widths = ends - starts
    widths -= 1
    if widths.max() > _KEY_BYTES:
        return None
    # words[i] is the 8 bytes of buf that end just before text[i].
    words = np.ndarray((len(block),), dtype="<u8", buffer=buf, strides=(1,))
    keys = words[ends]
    keys &= _FIELD_MASKS.take(widths)
    keys |= widths.view(np.uint64)
    table_keys, table_codes, offsets, shifts, probes = table
    slots = keys * np.uint64(_HASH_MULTIPLIER)
    slots >>= shifts
    slots += offsets
    slots = slots.view(np.int64)
    for _ in range(probes):
        found = table_keys.take(slots) == keys
        if found.all():
            return table_codes.take(slots)
        slots += ~found
    return None  # a field that is no label of its variable


def _load_micro_rows(path, schema: Schema) -> MicroTable:
    """The csv.reader path of load_micro_csv, for any file the bytes refuse.

    Rows are read in blocks of ``_CSV_BLOCK_ROWS``, and each block is
    decoded column by column through the variables' label dicts, so at
    most one block of label strings is alive at a time. The first fault in
    file order is reported: a short row by its physical line, an unknown
    label by variable, row number and the offending token.
    """
    variables = schema.variables
    dtype = code_dtype(schema)
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
                # A decoded code is a label's position, at most m - 1, so it
                # fits the narrow dtype.
                for parts, var, col in zip(decoded, variables, col_of):
                    parts.append(
                        np.fromiter(
                            map(var._code.__getitem__, map(itemgetter(col), rows)),
                            dtype=dtype,
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
    codes = new_codes(schema, n_rows)
    for i, parts in enumerate(decoded):
        np.concatenate(parts, out=codes[:, i])
    codes.flags.writeable = False
    return MicroTable(schema, codes)


def _csv_row(fields, what) -> str:
    """One row as ``csv.writer`` writes it; a row it refuses names ``what``."""
    buf = io.StringIO()
    try:
        csv.writer(buf).writerow(fields)
    except csv.Error as exc:
        raise SynthesisError(f"{what}: cannot be written as CSV: {exc}") from None
    return buf.getvalue()


def _field_text(var: VariableSpec, label: str, d: int) -> str:
    """A label's field text in a d-column microdata row, less its separator.

    A lone empty field is quoted, so for d = 1 the text comes from the row
    ``[label]``; for d >= 2 it is the first half of ``[label, label]``,
    where every field is quoted on its own.
    """
    k = min(d, 2)
    row = _csv_row([label] * k, f"variable {var.name!r}, label {label!r}")
    return row[: (len(row) - k - 1) // k]


def write_micro_csv(table: MicroTable, path) -> None:
    """Write a microdata CSV: a header of variable names, then labels per row.

    ``csv.writer`` renders the header and each label's field text once,
    before the file is opened; a label it refuses (NUL on Python 3.10) is a
    SynthesisError naming the variable and the label. Each text carries its
    separator, ``,`` or ``\\r\\n`` for the last column, and is encoded to
    UTF-8 and padded with 0xFF bytes to its column's widest text of at most
    ``_CSV_PAD_BYTES``. A wider text is written apart: its padded text is
    the byte 0xFE. A block of rows is one array of fixed-width records, one
    field per column, filled by one ``take`` of each column's padded texts
    by the block's codes. If any text is padded, that is, some column's
    texts differ in width, one compress drops the block's 0xFF bytes;
    when every column's texts are of one width, the records are the
    output as they stand. If the block holds a wide text, its output is
    split at the 0xFE bytes and joined again with the wide texts in file
    order. UTF-8 never holds the bytes 0xFE and 0xFF, so this removes the
    padding and the marks and nothing else. The bytes are the ``csv``
    module's: minimal quoting and ``\\r\\n`` line ends, UTF-8.

    A block holds at most ``_CSV_BLOCK_ROWS`` rows, and its records take at
    most ``_CSV_BLOCK_BYTES`` (256 KiB) unless one record alone is larger.
    While a block is written, its records, the compress's byte mask, its
    8-byte positions and its output take at most 11 times that, plus twice
    the wide texts it writes. The padded texts take at most m times
    ``_CSV_PAD_BYTES`` per column.
    """
    d = table.schema.d
    header = _csv_row(table.schema.names, "variable names").encode()
    texts, wide, pads = [], [], False
    seps = [","] * (d - 1) + ["\r\n"]
    for i, (var, sep) in enumerate(zip(table.schema.variables, seps)):
        fields = [(_field_text(var, label, d) + sep).encode() for label in var.labels]
        apart = [len(field) > _CSV_PAD_BYTES for field in fields]
        if any(apart):
            wide.append((i, fields, np.array(apart)))
            fields = [b"\xfe" if far else field for field, far in zip(fields, apart)]
        width = max(map(len, fields))
        pads = pads or min(map(len, fields)) < width
        padded = b"".join(field.ljust(width, b"\xff") for field in fields)
        texts.append(np.frombuffer(padded, dtype=f"V{width}"))
    record = np.dtype([(f"f{i}", text.dtype) for i, text in enumerate(texts)])
    rows = max(1, min(_CSV_BLOCK_ROWS, _CSV_BLOCK_BYTES // record.itemsize))
    block = np.empty(rows, dtype=record)
    with open(path, "wb") as fh:
        fh.write(header)
        for start in range(0, table.n_rows, rows):
            stop = min(start + rows, table.n_rows)
            records = block[: stop - start]
            for i, text in enumerate(texts):
                records[f"f{i}"] = text.take(table.column(i)[start:stop])
            out = records.view(np.uint8)
            if pads:
                out = out.compress(out != 0xFF)
            if wide:
                out = _join_wide(out, table.codes[start:stop], wide)
            fh.write(out)


def _join_wide(out, codes, wide):
    """A block's output with its 0xFE marks replaced by their wide texts.

    ``codes`` are the block's rows, and ``wide`` holds (column, field
    texts, which texts are wide) for each column with a wide text.
    """
    at = np.stack([far.take(codes[:, i]) for i, _, far in wide], axis=1)
    rows, cols = np.nonzero(at)  # row by row, then column by column: file order
    if not rows.size:
        return out
    fields = [
        wide[j][1][codes[r, wide[j][0]]] for r, j in zip(rows.tolist(), cols.tolist())
    ]
    pieces = out.tobytes().split(b"\xfe")
    return b"".join(chain.from_iterable(zip(pieces, fields + [b""])))


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


def write_files(directory, writers) -> None:
    """Write each file of ``writers`` (name -> function writing at a path) into
    ``directory``, all or none: a directory destination is refused first, and
    the files land by os.replace from one temporary directory, always removed."""
    os.makedirs(directory, exist_ok=True)
    paths = {name: os.path.join(directory, name) for name in writers}
    for path in paths.values():
        if os.path.isdir(path):
            raise SynthesisError(f"{path}: is a directory")
    with tempfile.TemporaryDirectory(dir=directory) as temp:
        for name, write in writers.items():
            write(os.path.join(temp, name))
        for name, path in paths.items():
            os.replace(os.path.join(temp, name), path)


def marginals_of(table: MicroTable) -> MarginalTable:
    """Per-variable category counts over the table's rows."""
    check_type(table, MicroTable, "table")
    if table.n_rows == 0:
        raise SynthesisError("cannot take marginals of an empty table")
    counts = tuple(
        np.bincount(table.column(i), minlength=m)
        for i, m in enumerate(table.schema.dims)
    )
    return MarginalTable(table.schema, counts)

