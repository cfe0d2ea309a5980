"""The one memo store of the process: edge tables and their successor
lists, rho system patterns, class step positions, enumeration plans, class
words of the rose, Ihara series, Heisenberg blocks, twist plans, Lyndon
tables and bracket expansions: none depends on weights.

One OrderedDict in least recently used order holds them under one budget
of entries. The store counts a value's entries itself (_count): an array
counts its elements, a number or a string 1 and None 0, and a tuple
(NamedTuples included) or a dataclass the sum of what it holds. A kept
value counts those entries, those of its key by the same rule, and
_OVERHEAD for the objects of the store itself. The least recently used
values go first once the budget is passed; a value over the whole budget
is returned and not kept. Every value built is shared, so the count
makes its arrays read-only on the same pass, whether it is kept or not.

Two caches stay apart: spectra.solve_rho's tables depend on the weights
and its cache_info is public, and cli._build_parser builds the parser
once.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from dataclasses import fields
from numbers import Number
from typing import Any, Callable

import numpy as np

# At least the 2^20 + 2^18 + 2^12 of the memos it replaced; filled with Lie
# expansions it retains about 60 MB on 64-bit CPython 3.11.
_BUDGET = 2 ** 20 + 2 ** 19
# The key tuple, the (value, entries) pair and the dict node of a kept value
# take a few hundred bytes; 32 entries of 8 bytes count 256 of them.
_OVERHEAD = 32
# (build, *key) -> (value, its entries), least recently used first.
_STORE: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
_held = 0  # the sum of those entries


def memoized(key: tuple, build: Callable[..., Any], *args) -> Any:
    """The value kept for (build, *key), or else build(*args), read-only,
    kept with _entries(key, _count(value)) entries."""
    global _held
    at = (build,) + key
    hit = _STORE.get(at)
    if hit is not None:
        _STORE.move_to_end(at)
        return hit[0]
    value = build(*args)
    entries = _entries(key, _count(value))
    if entries <= _BUDGET:
        _STORE[at] = value, entries
        _held += entries
        while _held > _BUDGET:
            _held -= _STORE.popitem(last=False)[1][1]
    return value


def _count(value: Any) -> int:
    """The entries of a value, its arrays made read-only on the way."""
    if isinstance(value, tuple):
        # ints and strings, the most common contents, are counted in place
        return sum(1 if isinstance(v, (int, str)) else _count(v) for v in value)
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
        return value.size
    if isinstance(value, (Number, str)):
        return 1
    if value is None:
        return 0
    # a dataclass: fields raises TypeError on any other value
    return sum(_count(getattr(value, f.name)) for f in fields(value))


def _entries(key: tuple, value_entries: int) -> int:
    """The entries a value of value_entries counts when kept under key."""
    return value_entries + _count(key) + _OVERHEAD


def memo(fn):
    """Decorator: memoized for a pure function of hashable positional args."""
    return functools.wraps(fn)(lambda *args: memoized(args, fn, *args))


def clear() -> None:
    global _held
    _STORE.clear()
    _held = 0
