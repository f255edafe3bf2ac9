"""The field reader behind the line-oriented artifact files (UG, BASIS,
PROOF, METRIC and GRAPH).

A reader splits its non-blank lines once (`split_lines`), checks its header
and row count, and hands the rows to `read_fields`. That converts every
field with Python's own `int` or `float`, called once per distinct token
string, and raises ValueError naming the first offending line, with the
message the same reader gave when it converted one line at a time (those
readers are the oracles in `tests/oracles.py`).
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain

import numpy as np

__all__ = ["split_lines", "read_fields", "any_per_row", "int_array"]


def split_lines(text: str) -> list:
    """(line number from 1, fields) for each non-blank line of `text`."""
    return [(no, fields) for no, fields in enumerate(map(str.split, text.splitlines()), 1)
            if fields]


def read_fields(rows: list, convs, checks=None, width_error=None) -> list:
    """The arrays of `rows`, (line number, fields) pairs, or ValueError
    `line N: ...` for the first offending line.

    `convs` is one conversion function (`int` or `float`) for every field,
    giving one array of all fields in row order, or a tuple of one function
    per column, giving one (rows, its columns) array per function in the
    order of its first column; then a row needs len(convs) fields, checked
    before its numbers, and `width_error(fields)` is the message of a row
    that has not. Each function is called once per distinct token string of
    its own columns (`1.5` is a good float and a bad int), so every value is
    Python's own; an int past int64 makes an object array. The first field
    that fails names its row with the function's message.

    `checks(widths, *arrays)`, if given, returns (mask over rows, message)
    pairs in the order a row is checked after its numbers (`widths` holds
    each row's field count, `message(r)` is the text for row r). The checks
    see the rows before the first that fails to convert, so an earlier row
    that fails a check names itself first.
    """
    widths, arrays, failure = _convert(rows, convs, width_error)
    if checks is not None:
        first, message = len(widths), None
        for mask, text in checks(widths, *arrays):
            hit = np.flatnonzero(mask[:first])  # a later check needs an earlier row
            if len(hit):
                first, message = int(hit[0]), text
        if message is not None:
            failure = rows[first][0], message(first)
    if failure:
        raise ValueError(f"line {failure[0]}: {failure[1]}")
    return arrays


def any_per_row(mask: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """Per row, whether `mask`, one entry per field in row order, holds on
    any of its fields."""
    hit = np.zeros(len(widths), dtype=bool)
    hit[np.repeat(np.arange(len(widths)), widths)[mask]] = True
    return hit


def _convert(rows: list, convs, width_error) -> tuple:
    """(widths, arrays, failure) for `read_fields`: arrays over the rows
    before the first that fails, failure its (line number, message), or
    None if every row converts."""
    fields = [f for _, f in rows]
    widths = np.fromiter(map(len, fields), np.intp, len(fields))
    flat = callable(convs)
    if flat:
        funcs, kinds = [convs], np.zeros(1, dtype=np.intp)
    else:
        funcs = list(dict.fromkeys(convs))
        kinds = np.array([funcs.index(f) for f in convs], dtype=np.intp)
        wrong = np.flatnonzero(widths != len(convs))
        if len(wrong):
            r = int(wrong[0])
            widths, arrays, failure = _convert(rows[:r], convs, width_error)
            return widths, arrays, failure or (rows[r][0], width_error(fields[r]))
    index = defaultdict()
    index.default_factory = index.__len__  # a token not seen yet gets the next id
    ids = np.fromiter(map(index.__getitem__, chain.from_iterable(fields)), np.intp,
                      int(widths.sum()))
    keys = list(index)
    grid = ids.reshape(-1, len(kinds))  # a token's function is its column's
    bad = np.zeros(grid.shape, dtype=bool)
    arrays, errors = [], {}
    for g, conv in enumerate(funcs):
        mine = grid[:, kinds == g]
        table, failed = {}, []
        for u in np.flatnonzero(np.bincount(mine.ravel(), minlength=len(keys))).tolist():
            try:
                table[u] = conv(keys[u])
            except ValueError as exc:
                errors[g, u] = str(exc)
                failed.append(u)
        values = list(table.values())
        values = np.array(values, dtype=np.float64) if conv is float else int_array(values)
        lut = np.zeros(len(keys), dtype=values.dtype)
        lut[list(table)] = values
        arrays.append(lut[ids] if flat else lut[mine])
        if failed:
            bad[:, kinds == g] = np.isin(mine, failed)
    if not errors:
        return widths, arrays, None
    at = int(np.flatnonzero(bad)[0])  # the first failing field in row order
    r = int(np.searchsorted(np.cumsum(widths), at, side="right"))
    widths, arrays, _ = _convert(rows[:r], convs, width_error)
    return widths, arrays, (rows[r][0], errors[int(kinds[at % len(kinds)]), int(ids[at])])


def int_array(values) -> np.ndarray:
    """Integers as an int64 array, or as an object array when an entry does
    not fit int64 (it compares as the exact integer)."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array(values, dtype=object)
