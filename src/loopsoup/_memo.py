"""The one memo store of the process: enumeration plans, class words of
the rose, canonical classes, Ihara series, Heisenberg blocks, twist plans,
Lyndon tables and bracket expansions, all of which depend on no weights.

One OrderedDict in least recently used order holds them under one budget
of entries, an entry being one array element or one int held in a tuple.
A kept value counts its own entries (each site's size function counts
them), one per int in its key, and _OVERHEAD for the objects of the store
itself. The least recently used values go first once the budget is
passed; a value over the whole budget is returned and not kept. Values
kept are shared, so read-only.

Three caches stay apart: spectra.solve_rho's tables depend on the weights
and its cache_info is public; fourier._laurent hands one graph's
coefficients from the grid size to the grid of one H1 law; and
cli._build_parser builds the parser once.
"""

from __future__ import annotations

import functools
from collections import OrderedDict
from typing import Any, Callable

# At least the 2^20 + 2^18 + 2^12 of the memos it replaced; filled with Lie
# expansions it retains about 60 MB on 64-bit CPython 3.11.
_BUDGET = 2 ** 20 + 2 ** 19
# The key tuple, the (value, entries) pair and the dict node of a kept value
# take a few hundred bytes; 32 entries of 8 bytes count 256 of them.
_OVERHEAD = 32
# (build, *key) -> (value, its entries), least recently used first.
_STORE: OrderedDict[tuple, tuple[Any, int]] = OrderedDict()
_held = 0  # the sum of those entries


def memoized(key: tuple, size: Callable[[Any], int],
             build: Callable[..., Any], *args) -> Any:
    """The value kept for (build, *key), or else build(*args), kept with
    _entries(key, size(value)) entries."""
    global _held
    at = (build,) + key
    hit = _STORE.get(at)
    if hit is not None:
        _STORE.move_to_end(at)
        return hit[0]
    value = build(*args)
    entries = _entries(key, size(value))
    if entries <= _BUDGET:
        _STORE[at] = value, entries
        _held += entries
        while _held > _BUDGET:
            _held -= _STORE.popitem(last=False)[1][1]
    return value


def _entries(key: tuple, value_entries: int) -> int:
    """The entries a value of value_entries counts when kept under key."""
    return value_entries + _ints(key) + _OVERHEAD


def _ints(key: tuple) -> int:
    return sum(_ints(k) if isinstance(k, tuple) else 1 for k in key)


def memo(size: Callable[[Any], int]):
    """Decorator: memoized for a pure function of hashable positional args."""
    def wrap(fn):
        return functools.wraps(fn)(lambda *args: memoized(args, size, fn, *args))
    return wrap


def clear() -> None:
    global _held
    _STORE.clear()
    _held = 0
