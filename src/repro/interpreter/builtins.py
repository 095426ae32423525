"""Implementations of the spec language's builtin functions.

The builtins give predicates the domain vocabulary that cloud
constraints need (CIDR arithmetic, membership, existence) while keeping
the grammar itself tiny.  Everything here is pure; ``new_id`` and
``now`` take their effects from the evaluation context so that emulator
runs are deterministic and replayable.
"""

from __future__ import annotations

import ipaddress
from functools import lru_cache

#: Upper bound on the CIDR cache.  The largest serve workload keeps
#: about 14k distinct CIDR strings live (800 VPC /20s, 800 x 16 subnet
#: /24 slots, a few hundred rule blocks); twice that fits with room
#: to spare, at about 150 bytes an entry (~5 MB at the bound).
CIDR_CACHE_SIZE = 1 << 15

#: Longest string the cache keeps: the longest spelling without
#: padding zeros, ``255.255.255.255/255.255.255.255``.  Longer strings
#: are still parsed, just not kept, so a client cannot park large
#: strings in process memory.
CIDR_CACHED_LENGTH = 31

#: Valid CIDR string -> its ``(first, last, prefixlen)`` integer
#: range.  Invalid strings are never kept, so junk input cannot evict
#: the working set.  Cleared wholesale when it reaches
#: :data:`CIDR_CACHE_SIZE`.
_CIDR_RANGES: dict[str, tuple[int, int, int]] = {}


def _parse_cidr(value: str) -> tuple[int, int, int] | None:
    """``value`` as an integer range, accepting exactly what
    ``ipaddress.IPv4Network(value, strict=False)`` accepts, and only
    when ``value`` contains a ``/``."""
    if "/" not in value:
        return None
    try:
        network = ipaddress.IPv4Network(value, strict=False)
    except ValueError:
        return None
    first = int(network.network_address)
    return first, first + network.num_addresses - 1, network.prefixlen


def cidr_range(value: object) -> tuple[int, int, int] | None:
    """The ``(first, last, prefixlen)`` range of a CIDR block, or
    ``None`` when ``value`` is not one.

    CIDR predicates dominate constraint checking (every subnet create
    compares its block against its VPC's and all its siblings'), so
    each distinct valid string is parsed once and kept in a bounded
    process-wide cache; the predicates then compare integers.
    """
    if not isinstance(value, str):
        return None
    found = _CIDR_RANGES.get(value)
    if found is None:
        found = _parse_cidr(value)
        if found is not None and len(value) <= CIDR_CACHED_LENGTH:
            if len(_CIDR_RANGES) >= CIDR_CACHE_SIZE:
                _CIDR_RANGES.clear()
            _CIDR_RANGES[value] = found
    return found


def valid_cidr(value: object) -> bool:
    """True when ``value`` is a syntactically valid IPv4 CIDR block."""
    return cidr_range(value) is not None


@lru_cache(maxsize=4096)
def _valid_ip_str(value: str) -> bool:
    try:
        ipaddress.IPv4Address(value)
    except ValueError:
        return False
    return True


def valid_ip(value: object) -> bool:
    """True when ``value`` is a valid IPv4 address."""
    if not isinstance(value, str):
        return False
    return _valid_ip_str(value)


def prefix_len(value: object) -> int:
    """Prefix length of a CIDR block; -1 when the block is invalid.

    Returning a sentinel instead of raising keeps predicates total,
    which symbolic execution (§4.3) depends on.
    """
    found = cidr_range(value)
    return -1 if found is None else found[2]


def cidr_within(inner: object, outer: object) -> bool:
    """True when CIDR ``inner`` is wholly contained in CIDR ``outer``."""
    a = cidr_range(inner)
    b = cidr_range(outer)
    if a is None or b is None:
        return False
    return b[0] <= a[0] and a[1] <= b[1]


def cidr_overlaps(left: object, right: object) -> bool:
    """True when two CIDR blocks overlap."""
    a = cidr_range(left)
    b = cidr_range(right)
    if a is None or b is None:
        return False
    return a[0] <= b[1] and b[0] <= a[1]


def length(value: object) -> int:
    """``len`` over lists, maps and strings; 0 for null."""
    if value is None:
        return 0
    if isinstance(value, (list, dict, str, tuple, set)):
        return len(value)
    return 0


def contains(container: object, item: object) -> bool:
    """Membership over lists/maps/strings; false for null containers."""
    if container is None:
        return False
    if isinstance(container, dict):
        return item in container
    if isinstance(container, (list, tuple, set, str)):
        return item in container
    return False


def exists(value: object) -> bool:
    """True when a value is present (non-null, non-empty-string)."""
    return value is not None and value != ""


def lookup(mapping: object, key: object) -> object:
    """Map lookup that is total (null on missing key / non-map)."""
    if isinstance(mapping, dict):
        return mapping.get(key)
    return None


def concat(*parts: object) -> str:
    """String concatenation; nulls render as empty strings."""
    return "".join("" if part is None else str(part) for part in parts)


def cidr_overlaps_any(block: object, blocks: object) -> bool:
    """True when ``block`` overlaps any CIDR in the list ``blocks``.

    The grammar has no loops (by design), so membership-style CIDR
    checks against a sibling list are a builtin.
    """
    if not isinstance(blocks, (list, tuple)):
        return False
    a = cidr_range(block)
    if a is None:
        return False
    first, last = a[0], a[1]
    for other in blocks:
        b = cidr_range(other)
        if b is not None and first <= b[1] and b[0] <= last:
            return True
    return False


def append(items: object, item: object) -> list:
    """Return a new list with ``item`` appended (lists are values)."""
    base = list(items) if isinstance(items, (list, tuple)) else []
    base.append(item)
    return base


def remove(items: object, item: object) -> list:
    """Return a new list with the first occurrence of ``item`` removed."""
    base = list(items) if isinstance(items, (list, tuple)) else []
    if item in base:
        base.remove(item)
    return base


def put(mapping: object, key: object, value: object) -> dict:
    """Return a new map with ``key`` set to ``value``."""
    base = dict(mapping) if isinstance(mapping, dict) else {}
    base[key] = value
    return base


def drop(mapping: object, key: object) -> dict:
    """Return a new map without ``key``."""
    base = dict(mapping) if isinstance(mapping, dict) else {}
    base.pop(key, None)
    return base


#: Pure builtins keyed by their spec-language name.  ``new_id`` and
#: ``now`` are context-bound and provided by the evaluator.
PURE_BUILTINS = {
    "valid_cidr": valid_cidr,
    "valid_ip": valid_ip,
    "prefix_len": prefix_len,
    "cidr_within": cidr_within,
    "cidr_overlaps": cidr_overlaps,
    "cidr_overlaps_any": cidr_overlaps_any,
    "len": length,
    "contains": contains,
    "exists": exists,
    "lookup": lookup,
    "concat": concat,
    "append": append,
    "remove": remove,
    "put": put,
    "drop": drop,
}
