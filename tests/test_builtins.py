"""Tests for the interpreter's builtin functions, incl. property tests."""

import ipaddress

import pytest
from hypothesis import given, strategies as st

from repro.interpreter import builtins
from repro.interpreter.builtins import (
    append,
    cidr_overlaps,
    cidr_overlaps_any,
    cidr_within,
    concat,
    contains,
    drop,
    exists,
    length,
    lookup,
    prefix_len,
    put,
    remove,
    valid_cidr,
    valid_ip,
)


class TestCidr:
    def test_valid_cidr_accepts_blocks(self):
        assert valid_cidr("10.0.0.0/16")
        assert valid_cidr("192.168.1.0/24")

    def test_valid_cidr_rejects_garbage(self):
        assert not valid_cidr("not-a-cidr")
        assert not valid_cidr("10.0.0.1")  # no prefix
        assert not valid_cidr("300.0.0.0/8")
        assert not valid_cidr(None)
        assert not valid_cidr(42)

    def test_prefix_len(self):
        assert prefix_len("10.0.0.0/16") == 16
        assert prefix_len("10.0.0.0/29") == 29
        assert prefix_len("junk") == -1

    def test_within(self):
        assert cidr_within("10.0.1.0/24", "10.0.0.0/16")
        assert not cidr_within("10.1.0.0/24", "10.0.0.0/16")
        assert not cidr_within("junk", "10.0.0.0/16")

    def test_overlaps(self):
        assert cidr_overlaps("10.0.0.0/24", "10.0.0.128/25")
        assert not cidr_overlaps("10.0.0.0/24", "10.0.1.0/24")

    def test_overlaps_any(self):
        blocks = ["10.0.1.0/24", "10.0.2.0/24"]
        assert cidr_overlaps_any("10.0.1.128/25", blocks)
        assert not cidr_overlaps_any("10.0.3.0/24", blocks)
        assert not cidr_overlaps_any("10.0.1.0/24", None)

    def test_valid_ip(self):
        assert valid_ip("10.1.2.3")
        assert not valid_ip("10.1.2.3/32")
        assert not valid_ip("hello")

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.integers(min_value=0, max_value=32))
    def test_valid_cidr_total(self, address, prefix):
        text = f"{ipaddress.IPv4Address(address)}/{prefix}"
        assert valid_cidr(text)
        assert prefix_len(text) == prefix

    @given(st.integers(min_value=0, max_value=2**24 - 1))
    def test_within_is_reflexive(self, network):
        block = f"{ipaddress.IPv4Address(network * 256)}/24"
        assert cidr_within(block, block)
        assert cidr_overlaps(block, block)


# -- differential: the integer-range CIDR builtins against ipaddress --------


def _reference_network(value):
    """What the builtins accept: a string ``ipaddress.IPv4Network``
    parses with ``strict=False`` and that contains a ``/``."""
    if not isinstance(value, str) or "/" not in value:
        return None
    try:
        return ipaddress.IPv4Network(value, strict=False)
    except ValueError:
        return None


def _reference(name, *args):
    nets = [_reference_network(arg) for arg in args[:2]]
    if name == "valid_cidr":
        return nets[0] is not None
    if name == "prefix_len":
        return -1 if nets[0] is None else nets[0].prefixlen
    if name == "cidr_overlaps_any":
        block, blocks = args
        if not isinstance(blocks, (list, tuple)):
            return False
        return any(_reference("cidr_overlaps", block, b) for b in blocks)
    if None in nets:
        return False
    if name == "cidr_within":
        return nets[0].subnet_of(nets[1])
    return nets[0].overlaps(nets[1])


_OCTETS = ("0", "1", "10", "99", "255", "256", "300", "999", "1000",
           "00", "010", "001", "", " 1", "1 ", "+1", "-1", "0x1",
           "\u0661", "\uff11", "1\u0660")
_MASKS = ("0", "8", "16", "24", "28", "32", "33", "99", "016", "08",
          "032", "", " 24", "24 ", "\uff12\uff14", "+8", "-1",
          "255.255.0.0", "255.255.255.0", "0.0.255.255", "0.255.255.255",
          "255.0.255.0", "0.0.0.0", "255.255.255.255", "255.255.0.1")

_cidrish = st.builds(
    lambda octets, sep, mask, pad: f"{pad}{'.'.join(octets)}{sep}{mask}{pad}",
    st.lists(st.sampled_from(_OCTETS), min_size=3, max_size=5),
    st.sampled_from(("/", "/", "/", "", "//", " / ")),
    st.sampled_from(_MASKS),
    st.sampled_from(("", "", "", " ", "\t", "\n")),
)
_canonical = st.builds(
    lambda address, prefix: f"{ipaddress.IPv4Address(address)}/{prefix}",
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=0, max_value=32),
)
_not_strings = st.one_of(
    st.none(), st.integers(), st.floats(allow_nan=False), st.booleans(),
    st.binary(max_size=8), st.lists(st.integers(), max_size=2),
)
_any_value = st.one_of(
    _canonical, _cidrish, _not_strings,
    st.text(alphabet="0123456789./ \t\u0661x", max_size=20),
)

#: The adversarial spellings ``ipaddress`` decides, named.
_ADVERSARIAL = (
    "010.0.0.0/16", "10.0.0.0/016", "10.0.0.0/255.255.0.0",
    "10.0.0.0/0.0.255.255", "10.0.0.0/255.0.255.0",
    "\u0661\u0660.0.0.0/8", "10.0.0.0/\uff11\uff16",
    " 10.0.0.0/16", "10.0.0.0/16 ", "\t10.0.0.0/16\n",
    "256.0.0.0/8", "10.0.0.300/24", "10.0.0.0/33", "10.0.0.0/99",
    "10.0.0.0", "10.0.0.0/", "/16", "10.0.0/16", "10.0.0.0.0/16",
    "10.0.0.0/16/16", "10.0.0.1/24", "0.0.0.0/0", "255.255.255.255/32",
    "", "/", None, 1, 16.0, True, b"10.0.0.0/16", ["10.0.0.0/16"],
)


class TestCidrMatchesIpaddress:
    """The five CIDR builtins agree with ``ipaddress`` on every input."""

    @pytest.mark.parametrize("value", _ADVERSARIAL)
    def test_adversarial_single(self, value):
        assert builtins.valid_cidr(value) == _reference("valid_cidr", value)
        assert builtins.prefix_len(value) == _reference("prefix_len", value)

    @pytest.mark.parametrize("value", _ADVERSARIAL)
    def test_adversarial_pairs(self, value):
        for other in ("10.0.0.0/8", "10.0.0.0/16", "0.0.0.0/0", value):
            for name in ("cidr_within", "cidr_overlaps"):
                impl = getattr(builtins, name)
                assert impl(value, other) == _reference(name, value, other)
                assert impl(other, value) == _reference(name, other, value)
        blocks = ["10.0.0.0/16", value, "192.168.0.0/24"]
        assert builtins.cidr_overlaps_any(value, blocks) == _reference(
            "cidr_overlaps_any", value, blocks
        )

    @given(_any_value)
    def test_generated_single(self, value):
        assert builtins.valid_cidr(value) == _reference("valid_cidr", value)
        assert builtins.prefix_len(value) == _reference("prefix_len", value)

    @given(_any_value, _any_value)
    def test_generated_pairs(self, left, right):
        for name in ("cidr_within", "cidr_overlaps"):
            impl = getattr(builtins, name)
            assert impl(left, right) == _reference(name, left, right)

    @given(st.one_of(_canonical, _cidrish),
           st.one_of(st.lists(st.one_of(_canonical, _any_value),
                              max_size=5),
                     _not_strings))
    def test_generated_overlaps_any(self, block, blocks):
        assert builtins.cidr_overlaps_any(block, blocks) == _reference(
            "cidr_overlaps_any", block, blocks
        )


class TestCidrCache:
    def test_fifteen_thousand_cidrs_all_stay_cached(self):
        builtins._CIDR_RANGES.clear()
        blocks = [f"10.{i // 256}.{i % 256}.0/24" for i in range(15_000)]
        for block in blocks + ["10.0.0.0/8"]:
            assert valid_cidr(block)
        assert all(block in builtins._CIDR_RANGES for block in blocks)
        # A second pass is served from the cache: no parse at all.
        parsed = []
        original = builtins._parse_cidr
        builtins._parse_cidr = lambda value: parsed.append(value)
        try:
            assert all(cidr_within(b, "10.0.0.0/8") for b in blocks)
        finally:
            builtins._parse_cidr = original
        assert parsed == []

    def test_cache_is_bounded(self):
        builtins._CIDR_RANGES.clear()
        bound = builtins.CIDR_CACHE_SIZE
        for i in range(bound + 100):
            valid_cidr(f"{i >> 16 & 255}.{i >> 8 & 255}.{i & 255}.0/24")
            assert len(builtins._CIDR_RANGES) <= bound
        builtins._CIDR_RANGES.clear()

    def test_invalid_and_long_strings_are_not_kept(self):
        builtins._CIDR_RANGES.clear()
        junk = "10.0.0.0/" + "x" * 10_000
        padded = "10.0.0.0/" + "0" * 40 + "16"
        assert not valid_cidr(junk)
        assert not valid_cidr("10.0.0.0/33")
        # A zero-padded prefix is valid but longer than any unpadded
        # spelling: still answered, never kept.
        assert prefix_len(padded) == 16
        assert cidr_within("10.0.1.0/24", padded)
        assert builtins._CIDR_RANGES == {
            "10.0.1.0/24": (0x0A000100, 0x0A0001FF, 24),
        }
        longest = "255.255.255.255/255.255.255.255"
        assert len(longest) == builtins.CIDR_CACHED_LENGTH
        assert prefix_len(longest) == 32
        assert longest in builtins._CIDR_RANGES
        builtins._CIDR_RANGES.clear()


class TestCollections:
    def test_append_returns_new_list(self):
        original = [1, 2]
        extended = append(original, 3)
        assert extended == [1, 2, 3]
        assert original == [1, 2]

    def test_append_on_null(self):
        assert append(None, "x") == ["x"]

    def test_remove_first_occurrence_only(self):
        assert remove([1, 2, 1], 1) == [2, 1]

    def test_remove_missing_is_noop(self):
        assert remove([1], 99) == [1]

    def test_put_and_drop_are_persistent(self):
        base = {"a": 1}
        updated = put(base, "b", 2)
        assert updated == {"a": 1, "b": 2}
        assert base == {"a": 1}
        assert drop(updated, "a") == {"b": 2}
        assert drop({}, "missing") == {}

    def test_lookup(self):
        assert lookup({"k": "v"}, "k") == "v"
        assert lookup({"k": "v"}, "absent") is None
        assert lookup(None, "k") is None

    def test_contains(self):
        assert contains([1, 2], 2)
        assert contains({"k": 1}, "k")
        assert contains("hello", "ell")
        assert not contains(None, "x")

    def test_length(self):
        assert length([1, 2, 3]) == 3
        assert length({}) == 0
        assert length(None) == 0
        assert length("abc") == 3

    def test_exists(self):
        assert exists("x")
        assert exists(0) is True  # zero is a real value
        assert not exists(None)
        assert not exists("")

    def test_concat(self):
        assert concat("a", "-", "b") == "a-b"
        assert concat("a", None, "b") == "ab"

    @given(st.lists(st.integers()), st.integers())
    def test_append_then_remove_preserves_multiset(self, items, item):
        result = remove(append(items, item), item)
        assert sorted(result) == sorted(items)

    @given(st.dictionaries(st.text(max_size=5), st.integers(), max_size=5),
           st.text(max_size=5), st.integers())
    def test_put_then_lookup(self, mapping, key, value):
        assert lookup(put(mapping, key, value), key) == value
        assert drop(put(mapping, key, value), key).get(key) is None
