"""One bounded memo for work that depends on a graph's topology alone.

The class words of the rose, the enumeration plans and the Ihara walk
counts are each rebuilt only for a new key; a run of queries repeats a few
keys on fresh weights. Each memo is an OrderedDict in least recently used
order, bounded by a budget of entries; a size function counts the entries
of each value.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")


def memoized(cache: OrderedDict, key: Hashable, build: Callable[[], T],
             size: Callable[[T], int], budget: int) -> T:
    """cache[key], or else build(), kept under key. The least recently used
    values go once those kept hold more than budget entries, by size; a
    value of more than budget entries is returned and not kept."""
    value = cache.get(key)
    if value is not None:
        cache.move_to_end(key)
        return value
    value = build()
    held = size(value)
    if held <= budget:
        held += sum(map(size, cache.values()))
        cache[key] = value
        while held > budget:
            held -= size(cache.popitem(last=False)[1])
    return value
