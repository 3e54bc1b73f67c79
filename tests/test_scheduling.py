import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poisekit import (
    Graph,
    MulticastInstance,
    PoiseTree,
    Schedule,
    broadcast_rounds,
    exact_multicast_rounds,
    round_lower_bounds,
    tree_broadcast_schedule,
    tree_metrics,
    validate_schedule,
)

from conftest import two_branch_instance


def tree_as_instance(parent: dict[int, int], n: int) -> MulticastInstance:
    g = Graph(n, [(p, v) for v, p in parent.items()], directed=True)
    return MulticastInstance(g, 0, range(1, n), n - 1)


def random_parent_map(n: int, rng: random.Random) -> dict[int, int]:
    return {v: rng.randrange(v) for v in range(1, n)}


class TestTreeBroadcastSchedule:
    def test_star_needs_one_round_per_child(self):
        tree = PoiseTree(0, {1: 0, 2: 0, 3: 0})
        sched = tree_broadcast_schedule(tree)
        assert len(sched.rounds) == 3

    def test_path_needs_one_round_per_arc(self):
        tree = PoiseTree(0, {1: 0, 2: 1, 3: 2, 4: 3})
        assert len(tree_broadcast_schedule(tree).rounds) == 4

    def test_binary_tree_of_height_two(self):
        parent = {1: 0, 2: 0, 3: 1, 4: 1, 5: 2, 6: 2}
        sched = tree_broadcast_schedule(PoiseTree(0, parent))
        assert len(sched.rounds) == 4
        # cross-checked against the exhaustive round search on the same tree
        assert exact_multicast_rounds(tree_as_instance(parent, 7)) == 4

    def test_emitted_schedules_validate_and_inform_everything(self):
        rng = random.Random(6)
        for _ in range(50):
            n = rng.randint(2, 40)
            parent = random_parent_map(n, rng)
            inst = tree_as_instance(parent, n)
            tree = PoiseTree(0, parent)
            sched = tree_broadcast_schedule(tree)
            report = validate_schedule(inst, sched, n - 1)
            assert report.valid
            assert report.informed_terminals == n - 1

    def test_round_count_bounds_on_random_trees(self):
        rng = random.Random(16)
        for _ in range(60):
            n = rng.randint(2, 200)
            parent = random_parent_map(n, rng)
            tree = PoiseTree(0, parent)
            b = broadcast_rounds(tree)[0]
            degree = max(tree.out_degrees().values())
            height = tree.height()
            root_degree = sum(1 for p in parent.values() if p == 0)
            assert b >= max(height, root_degree)
            assert b <= degree * max(height, 1)

    @pytest.mark.parametrize("schedule_rounds", [broadcast_rounds, tree_broadcast_schedule])
    def test_root_listed_in_parent_map_is_named(self, schedule_rounds):
        tree = PoiseTree(0, {0: 1, 1: 0, 2: 1})
        with pytest.raises(ValueError, match='field "parent" lists the root 0 as a key'):
            schedule_rounds(tree)

    def test_optimal_on_small_random_trees(self):
        rng = random.Random(26)
        for _ in range(60):
            n = rng.randint(2, 12)
            parent = random_parent_map(n, rng)
            sched = tree_broadcast_schedule(PoiseTree(0, parent))
            assert len(sched.rounds) == exact_multicast_rounds(tree_as_instance(parent, n))


class TestValidateSchedule:
    def instance(self):
        g = Graph(4, [(0, 1), (0, 2), (1, 3)], directed=True)
        return MulticastInstance(g, 0, {2, 3}, 2)

    def test_double_send_is_matching_violation(self):
        sched = Schedule((((0, 1), (0, 2)),))
        report = validate_schedule(self.instance(), sched, 1)
        assert not report.valid
        assert report.violations[0]["rule"] == "matching"
        assert report.violations[0]["round"] == 0

    def test_reverse_arc_is_orientation_violation(self):
        sched = Schedule((((0, 1),), ((1, 0),)))
        report = validate_schedule(self.instance(), sched, 1)
        assert not report.valid
        assert report.violations[0]["rule"] == "arc"
        assert report.violations[0]["round"] == 1

    def test_uninformed_sender(self):
        sched = Schedule((((1, 3),),))
        report = validate_schedule(self.instance(), sched, 1)
        assert report.violations[0]["rule"] == "sender-uninformed"

    def test_coverage_shortfall(self):
        sched = Schedule((((0, 2),),))
        report = validate_schedule(self.instance(), sched, 2)
        assert not report.valid
        assert report.violations[0]["rule"] == "coverage"
        assert report.informed_terminals == 1

    @pytest.mark.parametrize("k", [-3, 0, 7])
    def test_k_outside_terminal_count_raises(self, k):
        # 2 terminals: an empty schedule would pass at k <= 0 and fail
        # coverage at k = 7 if k were not checked
        with pytest.raises(ValueError) as info:
            validate_schedule(two_branch_instance(), Schedule(()), k)
        assert str(info.value) == f"need 1 <= k <= |terminals|, got k={k}, |S|=2"


class TestRoundLowerBounds:
    def star_instance(self, m: int):
        g = Graph(m + 1, [(0, i) for i in range(1, m + 1)], directed=True)
        return MulticastInstance(g, 0, range(1, m + 1), m)

    def test_doubling_examples(self):
        assert round_lower_bounds(self.star_instance(7))[0] == 3
        assert round_lower_bounds(self.star_instance(1))[0] == 1

    def test_star_poise_half(self):
        inst = self.star_instance(4)
        tree = PoiseTree(0, {i: 0 for i in range(1, 5)})
        doubling, poise_half = round_lower_bounds(inst, tree)
        assert poise_half == 3  # ceil((4 + 1) / 2)
        assert exact_multicast_rounds(inst) == 4

    def test_no_tree_gives_no_poise_half(self):
        assert round_lower_bounds(self.star_instance(2))[1] is None


@given(st.integers(2, 60), st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_schedule_round_trip_and_metrics_consistency(n, seed):
    rng = random.Random(seed)
    parent = random_parent_map(n, rng)
    tree = PoiseTree(0, parent)
    inst = tree_as_instance(parent, n)
    sched = tree_broadcast_schedule(tree)
    # every vertex informed exactly once, in depth order
    seen = {0}
    for rnd in sched.rounds:
        for s, r in rnd:
            assert s in seen and r not in seen
            seen.add(r)
    assert seen == set(range(n))
    m = tree_metrics(tree, inst)
    assert len(sched.rounds) >= max(m.height, 1)
