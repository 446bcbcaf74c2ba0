"""Unit tests for the clairvoyant next-use index (repro.storage.nextuse)."""

from repro.storage.nextuse import NEVER, NextUseIndex


def test_distance_is_soonest_over_streams():
    uses = NextUseIndex({0: "abcab", 1: "xxb"})
    assert uses.distance("b", {0: 2, 1: 0}) == 2  # stream 1 reads b at 2
    assert uses.distance("b", {0: 4, 1: 0}) == 0  # stream 0 reads b at 4
    assert uses.distance("a", {0: 1, 1: 0}) == 2  # stream 1 never reads a


def test_use_at_cursor_counts_and_use_before_does_not():
    uses = NextUseIndex({0: "abab"})
    assert uses.distance("a", {0: 0}) == 0
    assert uses.distance("a", {0: 1}) == 1
    assert uses.distance("b", {0: 2}) == 1


def test_key_never_read_again_is_never():
    uses = NextUseIndex({0: "ab", 1: "a"})
    assert uses.distance("b", {0: 2, 1: 0}) == NEVER
    assert uses.distance("a", {0: 1, 1: 1}) == NEVER
    assert uses.distance("z", {0: 0, 1: 0}) == NEVER
    assert NEVER > 1 << 62
