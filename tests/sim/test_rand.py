"""Tests for the seeded named random streams."""

from repro.sim import RandomStreams


def test_streams_are_reproducible():
    a = RandomStreams(7).stream("crash")
    b = RandomStreams(7).stream("crash")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_streams_are_independent_by_name():
    streams = RandomStreams(7)
    crash = [streams.stream("crash").random() for _ in range(3)]
    jitter = [streams.stream("jitter").random() for _ in range(3)]
    assert crash != jitter


def test_adding_a_consumer_does_not_perturb_others():
    solo = RandomStreams(7)
    solo_draws = [solo.stream("crash").random() for _ in range(3)]

    both = RandomStreams(7)
    both.stream("new-consumer").random()  # interleaved new consumer
    both_draws = [both.stream("crash").random() for _ in range(3)]
    assert solo_draws == both_draws


def test_master_seed_changes_everything():
    a = RandomStreams(1).stream("x").random()
    b = RandomStreams(2).stream("x").random()
    assert a != b


def test_same_stream_object_returned():
    streams = RandomStreams(0)
    assert streams.stream("a") is streams.stream("a")
