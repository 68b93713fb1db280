"""Unit tests for the deterministic RNG."""

from repro.sim.rng import SimRng


def test_same_seed_same_stream():
    a = SimRng(7)
    b = SimRng(7)
    assert [a.randint(0, 100) for _ in range(20)] \
        == [b.randint(0, 100) for _ in range(20)]


def test_different_seeds_differ():
    a = [SimRng(1).randint(0, 1 << 30) for _ in range(5)]
    b = [SimRng(2).randint(0, 1 << 30) for _ in range(5)]
    assert a != b


def test_fork_is_label_stable():
    assert SimRng(3).fork("portA").randint(0, 1 << 30) \
        == SimRng(3).fork("portA").randint(0, 1 << 30)


def test_fork_labels_are_independent():
    root = SimRng(3)
    assert root.fork("a").seed != root.fork("b").seed


def test_fork_order_does_not_matter():
    r1 = SimRng(5)
    a_first = r1.fork("a").seed
    r2 = SimRng(5)
    r2.fork("zzz")
    assert r2.fork("a").seed == a_first


def test_choice_in_range():
    rng = SimRng(11)
    picks = {rng.choice(4) for _ in range(200)}
    assert picks == {0, 1, 2, 3}


def test_random_unit_interval():
    rng = SimRng(13)
    vals = [rng.random() for _ in range(100)]
    assert all(0.0 <= v < 1.0 for v in vals)

