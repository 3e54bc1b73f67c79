import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poisekit import (
    CoverageSystem,
    Graph,
    bfs_parents,
    build_coverage_instance,
    exact_matroid_coverage,
    greedy_matroid_max,
    pm_cover,
    pm_cover_system,
)
from poisekit import cover
from poisekit.cover import CoverRow, default_iteration_cap
from poisekit.driver import run_sweep, stage_budget
from poisekit.errors import InfeasibleGuessError
from poisekit.generators import generate_instance
from poisekit.graph import arc_keys

from conftest import full_coverage_tree, random_graph, set_based_pm_cover


def two_branch_graph() -> Graph:
    return Graph(5, [(0, 1), (0, 2), (1, 3), (2, 4)], directed=True)


def singleton_locations(elements):
    return {e: (e,) for e in elements}


class TestBuildCoverageInstance:
    def test_two_branch_pairs(self):
        g = two_branch_graph()
        system = build_coverage_instance(
            g, {0}, {1, 2, 3, 4}, [3, 4], singleton_locations([3, 4]), D=2, root=0
        )
        assert [(a, c, set(cov)) for a, c, cov in system.pairs] == [
            (0, 1, {3}),
            (0, 2, {4}),
        ]

    def test_zero_radius_covers_nothing(self):
        g = two_branch_graph()
        system = build_coverage_instance(
            g, {0}, {1, 2, 3, 4}, [3, 4], singleton_locations([3, 4]), D=0, root=0
        )
        assert all(not cov for _, _, cov in system.pairs)

    def test_min_distance_over_representatives(self):
        g = two_branch_graph()
        system = build_coverage_instance(
            g, {0}, {1, 2, 3, 4}, ["e"], {"e": (3, 4)}, D=1, root=0
        )
        covered = {(a, c): cov for a, c, cov in system.pairs}
        assert covered[(0, 1)] == frozenset({"e"})  # via vertex 3 at distance 1
        assert covered[(0, 2)] == frozenset({"e"})

    def test_root_outside_A_rejected(self):
        g = two_branch_graph()
        with pytest.raises(ValueError):
            build_coverage_instance(
                g, {1}, {0, 2, 3, 4}, [3], singleton_locations([3]), D=1, root=0
            )

    def test_coverage_agrees_with_reference_bfs(self):
        # independent check: recompute coverage by hand BFS inside G[C], on
        # directed graphs with one representative per element, then on
        # undirected graphs and on elements with several representatives
        rng = random.Random(4)
        for directed, multi in [(True, False)] * 30 + [(False, False), (True, True), (False, True)] * 20:
            n = rng.randint(4, 10)
            arcs = set()
            for _ in range(rng.randint(n, 3 * n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    arcs.add((u, v))
            g = Graph(n, arcs, directed=directed)
            C = set(rng.sample(range(1, n), rng.randint(1, n - 1)))
            A = set(range(n)) - C
            if multi:
                # representatives anywhere, shared or not, some outside C
                location = {
                    f"e{i}": rng.sample(range(n), rng.randint(1, 3))
                    for i in range(rng.randint(1, 4))
                }
            else:
                location = singleton_locations(v for v in C if rng.random() < 0.5)
            elements = list(location)
            D = rng.randint(0, 3)
            system = build_coverage_instance(g, A, C, elements, location, D, root=0)
            for a, c, cov in system.pairs:
                assert a in A and c in C and g.has_arc(a, c)
                # reference BFS restricted to C
                dist = {c: 0}
                frontier = [c]
                while frontier:
                    nxt = []
                    for u in frontier:
                        for w in g.out_neighbors(u):
                            if w in C and w not in dist:
                                dist[w] = dist[u] + 1
                                nxt.append(w)
                    frontier = nxt
                expect = {
                    e for e in elements if any(dist.get(w, D + 1) <= D for w in location[e])
                }
                assert set(cov) == expect

    def test_makes_no_bfs_call(self, monkeypatch):
        # the system comes from one `reach_labels` pass over the elements,
        # not from a BFS per boundary vertex
        from poisekit import graph as graph_module

        bfs_calls = []
        real_bfs = graph_module._bfs
        monkeypatch.setattr(
            graph_module, "_bfs", lambda *args: bfs_calls.append(args) or real_bfs(*args)
        )
        g = Graph(7, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 5), (5, 6)], directed=True)
        system = build_coverage_instance(
            g, {0}, range(1, 7), ["x", "y"], {"x": (4,), "y": (6, 4)}, D=2, root=0
        )
        assert [(a, c, set(cov)) for a, c, cov in system.pairs] == [
            (0, 1, {"x", "y"}), (0, 2, {"x", "y"}), (0, 3, {"y"}),
        ]
        assert bfs_calls == []


class TestGreedyMatroidMax:
    def test_forced_order_with_tie_break(self):
        system = CoverageSystem(
            {1, 2, 3},
            [(0, 1, frozenset({1, 2})), (0, 2, frozenset({2, 3})), (0, 3, frozenset({3}))],
        )
        picks = greedy_matroid_max(system, 2)
        chosen = {system.pairs[i][:2] for i in picks}
        assert chosen == {(0, 1), (0, 2)}

    def test_independence_limit(self):
        system = CoverageSystem(
            {1, 2, 3, 4, 5},
            [(0, 1, frozenset({1, 2})), (0, 2, frozenset({3, 4, 5}))],
        )
        picks = greedy_matroid_max(system, 1)
        assert {system.pairs[i][:2] for i in picks} == {(0, 2)}

    def test_half_of_optimum_on_random_systems(self, rng):
        for _ in range(120):
            system, capacity = random_system(rng, max_pairs=10, max_elems=8)
            picks = greedy_matroid_max(system, capacity)
            got = len(set().union(*(system.pairs[i][2] for i in picks)) if picks else set())
            best = exact_matroid_coverage(system, capacity)
            assert 2 * got >= best


def eager_picks(system, capacity, already_covered):
    """Reference greedy: rescan every pair's marginal gain before each pick;
    the picks in the order taken."""
    owner = [a for a, _, _ in system.pairs]
    covered = set(already_covered)
    load = {}
    chosen = []
    while True:
        best_idx, best_gain = None, 0
        for i, (_, _, cov) in enumerate(system.pairs):
            if i in chosen or load.get(owner[i], 0) >= capacity:
                continue
            gain = len(cov - covered)
            if gain > best_gain:
                best_gain, best_idx = gain, i
        if best_idx is None:
            return chosen
        chosen.append(best_idx)
        load[owner[best_idx]] = load.get(owner[best_idx], 0) + 1
        covered |= system.pairs[best_idx][2]


def eager_greedy(system, capacity, already_covered):
    return set(eager_picks(system, capacity, already_covered))


def tied_system(rng):
    """Few elements and anchors, so marginal gains often tie and parts fill."""
    elems = list(range(rng.randint(1, 6)))
    pairs = {}
    for _ in range(rng.randint(1, 12)):
        cov = frozenset(e for e in elems if rng.random() < 0.5)
        pairs[(rng.randint(0, 2), rng.randint(10, 20))] = cov
    system = CoverageSystem(elems, [(a, c, cov) for (a, c), cov in pairs.items()])
    return system, rng.randint(0, 3)


def random_system(rng, max_pairs=10, max_elems=8, capacity=None):
    elems = list(range(rng.randint(1, max_elems)))
    n_pairs = rng.randint(1, max_pairs)
    pairs = []
    used = set()
    for _ in range(n_pairs):
        a, c = rng.randint(0, 3), rng.randint(10, 25)
        if (a, c) in used:
            continue
        used.add((a, c))
        cov = frozenset(e for e in elems if rng.random() < 0.4)
        pairs.append((a, c, cov))
    system = CoverageSystem(elems, pairs)
    cap = capacity if capacity is not None else rng.randint(1, 3)
    return system, cap


def reference_pm_cover(system, capacity, target, max_iterations):
    """The iterated cover loop written out on `eager_greedy`: (chosen,
    covered, iterations, log, peak load)."""
    chosen, covered, log = set(), set(), []
    while len(log) < max_iterations and covered != system.ground:
        if target is not None and len(covered) >= target:
            break
        picks = sorted(eager_greedy(system, capacity, covered))
        per_part = {}
        for i in picks:
            per_part[system.pairs[i][0]] = per_part.get(system.pairs[i][0], 0) + 1
        newly = set().union(*(system.pairs[i][2] for i in picks)) - covered
        log.append({
            "iteration": len(log) + 1,
            "chosen": [system.pairs[i][:2] for i in picks],
            "covered": sorted(newly, key=repr),
            "per_part": per_part,
        })
        if not newly:
            if target is not None:
                raise InfeasibleGuessError("coverage stalled")
            break
        chosen.update(system.pairs[i][:2] for i in picks)
        covered |= newly
    peak = max((n for record in log for n in record["per_part"].values()), default=0)
    return chosen, covered, len(log), log, peak


@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from([tied_system, random_system]),
    st.integers(0, 4),
    st.booleans(),
)
@settings(max_examples=400, deadline=None)
def test_lazy_greedy_matches_eager_scan(seed, make, capacity, prefix):
    # from the coverage of a prefix of the uncapped greedy order, where the
    # greedy replays that order, and from arbitrary coverage
    rng = random.Random(seed)
    system, _ = make(rng)
    if prefix:
        order = eager_picks(system, len(system.pairs), ())
        already = set().union(*(system.pairs[i][2] for i in order[: rng.randint(0, len(order))]))
    else:
        already = {e for e in system.ground if rng.random() < 0.5}
    assert greedy_matroid_max(system, capacity, already) == eager_greedy(system, capacity, already)

    target = rng.choice([None, rng.randint(1, len(system.ground))])
    cap = default_iteration_cap(target or len(system.ground))

    def run(cover_loop):
        try:
            return cover_loop()
        except InfeasibleGuessError:
            return "stalled"

    def got():
        sel = pm_cover_system(system, capacity, target, cap)
        return sel.chosen, sel.covered_elements, sel.iterations, sel.log, sel.peak_load

    assert run(got) == run(lambda: reference_pm_cover(system, capacity, target, cap))


def test_greedy_falls_back_when_a_full_part_blocks_the_order():
    # uncapped order: (0, 10), (0, 11), (1, 12).  At capacity 1 its second
    # pick falls in the full part 0 while part 1 still has gain, so the
    # capped picks are not a prefix of the order
    system = CoverageSystem(
        [4, 5, 6, 9, 10, 11],
        [(0, 10, frozenset({9, 10, 11})), (0, 11, frozenset({4, 5})), (1, 12, frozenset({6}))],
    )
    assert system.order == [0, 1, 2]
    assert system.replay(0, 1) is None
    assert greedy_matroid_max(system, 1) == eager_greedy(system, 1, ()) == {0, 2}
    sel = pm_cover_system(system, 1, None, 3)
    assert (sel.chosen, sel.covered_elements, sel.iterations, sel.log, sel.peak_load) == (
        reference_pm_cover(system, 1, None, 3)
    )
    assert [(record["chosen"], record["covered"]) for record in sel.log] == [
        ([(0, 10), (1, 12)], [10, 11, 6, 9]),  # repr order
        ([(0, 11)], [4, 5]),
    ]


@given(st.integers(0, 2**32 - 1), st.sampled_from([tied_system, random_system]))
@settings(max_examples=300, deadline=None)
def test_capacity_above_peak_load_changes_nothing(seed, make):
    # A part never held more than peak_load picks, so the capacity test never
    # fired: any larger capacity replays the same picks.
    rng = random.Random(seed)
    system, drawn = make(rng)
    target = rng.choice([None, rng.randint(1, len(system.ground))])
    cap = None if target is not None else default_iteration_cap(len(system.ground))

    def run(capacity):
        try:
            return pm_cover_system(system, capacity, target, cap)
        except InfeasibleGuessError as exc:
            return str(exc)

    for capacity in (drawn, len(system.pairs) + 1):
        base = run(capacity)
        if isinstance(base, str):
            continue
        loads = [n for record in base.log for n in record["per_part"].values()]
        assert base.peak_load == max(loads, default=0)
        if base.peak_load == capacity:
            continue  # the capacity bound; a larger one may pick more
        for larger in range(base.peak_load + 1, base.peak_load + 4):
            sel = run(larger)
            assert (sel.chosen, sel.covered_elements, sel.iterations, sel.log) == (
                base.chosen, base.covered_elements, base.iterations, base.log,
            )


@st.composite
def cover_runs(draw):
    """A system over up to 10 elements below 31 (repr order is not numeric
    order past 9) with up to 4 parts, some elements possibly in no pair;
    a capacity in 0-4, a numeric or None target, and an iteration cap
    (None, the default, only for a numeric target)."""
    elements = draw(st.lists(st.integers(0, 30), min_size=1, max_size=10, unique=True))
    parts = draw(st.integers(1, 4))
    pairs = draw(st.dictionaries(
        st.tuples(st.integers(0, parts - 1), st.integers(10, 25)),
        st.frozensets(st.sampled_from(elements)), min_size=1, max_size=12,
    ))
    system = CoverageSystem(elements, [(a, c, cov) for (a, c), cov in pairs.items()])
    target = draw(st.none() | st.integers(1, len(elements) + 2))
    cap = draw((st.none() if target is not None else st.nothing()) | st.integers(1, 5))
    return system, draw(st.integers(0, 4)), target, cap


ONE_PART = CoverageSystem(range(6), [(0, 10 + i, frozenset({i, (i + 1) % 6})) for i in range(6)])
BLOCKED = CoverageSystem(  # its capped picks are not a prefix of its order
    [4, 5, 6, 9, 10, 11],
    [(0, 10, frozenset({9, 10, 11})), (0, 11, frozenset({4, 5})), (1, 12, frozenset({6}))],
)
UNREACHED = CoverageSystem([1, 2, 3], [(0, 10, frozenset({1})), (1, 11, frozenset({2}))])


@given(cover_runs())
@example((ONE_PART, 2, None, 4))  # every iteration replays the order
@example((BLOCKED, 1, None, 3))  # the first iteration runs the heap
@example((UNREACHED, 2, 3, None))  # stalls below its target and raises
@example((UNREACHED, 2, None, 3))  # stalls and stops
@example((ONE_PART, 0, 2, None))  # capacity 0 stalls at once
@example((ONE_PART, 1, 2, None))  # stops on reaching its target with more coverable
@settings(max_examples=400, deadline=None)
def test_mask_cover_loop_matches_the_set_based_loop(run):
    # the loop on the system's bitmasks against the loop on element sets:
    # the same selection, decoded log and peak load, or the same exception
    system, capacity, target, cap = run

    def outcome(cover_loop):
        try:
            return cover_loop()
        except InfeasibleGuessError as exc:
            return str(exc)

    def on_masks():
        sel = pm_cover_system(system, capacity, target, cap)
        return sel.chosen, sel.covered_elements, sel.iterations, sel.log, sel.peak_load

    assert outcome(on_masks) == outcome(lambda: set_based_pm_cover(system, capacity, target, cap))


class TestPmCover:
    def test_two_branch_capacity_one_takes_two_iterations(self):
        g = two_branch_graph()
        sel = pm_cover(
            g, 0, {0}, {1, 2, 3, 4}, [3, 4], singleton_locations([3, 4]),
            target=2, B=1, D=2,
        )
        assert sel.chosen == {(0, 1), (0, 2)}
        assert sel.iterations == 2
        assert sel.covered_elements == {3, 4}

    def test_capacity_two_finishes_in_one_iteration(self):
        g = two_branch_graph()
        sel = pm_cover(
            g, 0, {0}, {1, 2, 3, 4}, [3, 4], singleton_locations([3, 4]),
            target=2, B=2, D=2,
        )
        assert sel.iterations == 1
        assert sel.covered_elements == {3, 4}

    def test_stall_raises_infeasible(self):
        g = Graph(5, [(0, 1), (0, 2)], directed=True)  # terminals unreachable in C
        with pytest.raises(InfeasibleGuessError):
            pm_cover(
                g, 0, {0}, {1, 2, 3, 4}, [3, 4], singleton_locations([3, 4]),
                target=2, B=1, D=2,
            )

    def test_per_iteration_selections_are_independent(self, rng):
        for _ in range(60):
            system, capacity = random_system(rng)
            target = rng.randint(1, len(system.ground))
            try:
                sel = pm_cover_system(system, capacity, target)
            except InfeasibleGuessError:
                continue
            for record in sel.log:
                assert all(
                    count <= capacity for count in record["per_part"].values()
                )

    def test_soundness_of_chosen_pairs(self):
        g = two_branch_graph()
        sel = pm_cover(
            g, 0, {0}, {1, 2, 3, 4}, [3, 4], singleton_locations([3, 4]),
            target=2, B=2, D=2,
        )
        for a, c in sel.chosen:
            assert a == 0 and g.has_arc(a, c)

    def test_halving_reaches_feasible_targets(self, rng):
        # whenever the exact oracle certifies a target coverable by one
        # independent selection, the loop reaches it within ceil(log2)+1 rounds
        for _ in range(80):
            system, capacity = random_system(rng)
            best = exact_matroid_coverage(system, capacity)
            if best == 0:
                continue
            target = rng.randint(1, best)
            sel = pm_cover_system(system, capacity, target)
            assert len(sel.covered_elements) >= target
            assert sel.iterations <= default_iteration_cap(target)

    def test_all_mode_stops_without_error(self):
        g = Graph(5, [(0, 1), (0, 2)], directed=True)
        sel = pm_cover(
            g, 0, {0}, {1, 2, 3, 4}, [3, 4], singleton_locations([3, 4]),
            target=None, B=1, D=2, max_iterations=3,
        )
        assert sel.covered_elements == set()


    def test_given_system_is_used_as_built(self):
        g = two_branch_graph()
        args = (g, 0, {0}, {1, 2, 3, 4}, [3, 4], singleton_locations([3, 4]))
        system = build_coverage_instance(
            g, {0}, {1, 2, 3, 4}, [3, 4], singleton_locations([3, 4]), D=2, root=0
        )
        built = pm_cover(*args, target=2, B=1, D=2)
        given_ = pm_cover(*args, target=2, B=1, D=2, system=system)
        assert (given_.chosen, given_.covered_elements, given_.log) == (
            built.chosen, built.covered_elements, built.log,
        )


class TestCoverRow:
    def test_builds_each_part_once_on_first_use(self, monkeypatch):
        calls = []

        def counted(fn, label):
            def wrapper(*args, **kwargs):
                calls.append(label(args))
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            cover, "build_coverage_instance",
            counted(cover.build_coverage_instance, lambda args: "system"),
        )
        monkeypatch.setattr(cover, "bfs_parents", counted(cover.bfs_parents, lambda args: args[1]))
        g = two_branch_graph()
        row = CoverRow(g, 0, {0}, {1, 2, 3, 4}, singleton_locations([3, 4]), D=2)
        assert calls == []
        system = row.system
        assert row.system is system
        assert row.cover(2, B=1).covered_elements == {3, 4}
        assert row.arcs(1) == arc_keys(g, {(1, 3)}) and row.arcs(1) == arc_keys(g, {(1, 3)})
        assert row.arcs(2) == arc_keys(g, {(2, 4)}) and row.arcs(2) == arc_keys(g, {(2, 4)})
        assert calls == ["system", [1], [2]]


def layered_terminal_row():
    """The sweep-dir-layered shape: no vertex is rho-good, so the few-trees
    round covers its terminals.  (row, target, iteration cap, t)."""
    inst = generate_instance("layered-dag", {"width": 90, "depth": 2, "t": 90, "k": 72, "seed": 0})
    packing = stage_budget(inst, 3)
    assert packing.stitched is None
    return packing.row, inst.k - len(packing.packed & packing.terminals), None, len(inst.terminals)


def star_of_stars_super_row():
    """The sweep-und-clusters shape: every hub is a super-terminal that only
    the first round's cover reaches.  (row, target, iteration cap, t)."""
    inst = generate_instance("star-of-stars", {"branch": 10, "leaf": 4, "k": 30, "directed": False})
    first = stage_budget(inst, 3)
    assert first.found is None
    cap = min(default_iteration_cap(inst.k), default_iteration_cap(len(first.trees)))
    return first.super_row, None, cap, len(inst.terminals)


def _selection(cover_loop):
    try:
        sel = cover_loop()
    except InfeasibleGuessError as exc:
        return str(exc)
    return sel.chosen, sel.covered_elements, sel.log, sel.peak_load


ROWS = pytest.mark.parametrize(
    "make_row", [layered_terminal_row, star_of_stars_super_row],
    ids=["layered-terminals", "star-of-stars-supers"],
)


def _counting_pm_cover(monkeypatch):
    calls = []
    real = cover.pm_cover
    monkeypatch.setattr(cover, "pm_cover", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    return calls


@ROWS
@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_row_cover_equals_a_fresh_cover_in_any_budget_order(make_row, order, monkeypatch):
    # the row keeps a selection once its budget stops binding; at every
    # budget, in any order, what it returns is what a fresh cover gives
    row, target, cap, t = make_row()
    budgets = list(range(1, t + 1))
    if order == "descending":
        budgets.reverse()
    elif order == "shuffled":
        random.Random(18).shuffle(budgets)
    calls = _counting_pm_cover(monkeypatch)
    for B in budgets:
        assert _selection(lambda: row.cover(target, B, cap)) == _selection(
            lambda: pm_cover_system(row.system, B, target, cap)
        )
    assert len(calls) < len(budgets)


@ROWS
def test_row_cover_above_a_kept_peak_load_runs_no_cover(make_row, monkeypatch):
    row, target, cap, t = make_row()
    calls = _counting_pm_cover(monkeypatch)
    for B in range(1, t + 1):
        kept = row.cover(target, B, cap)
        if kept.peak_load < B:
            break
    else:
        pytest.fail("the budget never stopped binding")
    assert len(calls) == B
    for larger in range(kept.peak_load + 1, t + 2):
        assert row.cover(target, larger, cap) is kept
    assert len(calls) == B


def test_untraced_sweep_neither_encodes_nor_decodes_covered_sets(monkeypatch):
    # the cover loop keeps its covered set as the system's bitmask and
    # decodes elements only for a trace, which still logs what the loop on
    # element sets logs
    inst = generate_instance("layered-dag", {"width": 90, "depth": 2, "t": 90, "k": 72, "seed": 0})
    calls = []
    for name in ("elements_of", "mask"):
        real = getattr(CoverageSystem, name)
        monkeypatch.setattr(
            CoverageSystem, name,
            lambda self, arg, name=name, real=real: calls.append(name) or real(self, arg),
        )
    loops = _counting_pm_cover(monkeypatch)
    report, _ = run_sweep(inst)
    assert loops and any(record["feasible"] for record in report.records)
    assert calls == []
    stage = stage_budget(inst, 3)
    logged = 0
    for B in range(1, len(inst.terminals) + 1):
        try:
            _, trace = stage.trace(B)
        except InfeasibleGuessError:
            continue
        assert trace["pmcover"] == set_based_pm_cover(stage.row.system, B, trace["k_remaining"])[3]
        logged += bool(trace["pmcover"])
    assert logged and "elements_of" in calls


def reference_super_arcs(graph, C, c, groups, D):
    """The coverage arcs of c toward groups of representatives, written out:
    the BFS path from c to the closest member (ties to the lowest id) of every
    group within D hops in G[C]."""
    dist, parent = bfs_parents(graph, [c], restriction=C, max_depth=D)
    arcs = set()
    for reps in groups.values():
        reached = [(dist[w], w) for w in reps if w in dist]
        if not reached:
            continue
        _, v = min(reached)
        while v != c:
            arcs.add((parent[v], v))
            v = parent[v]
    return arcs


@given(
    n=st.integers(2, 14),
    seed=st.integers(0, 10**6),
    directed=st.booleans(),
)
@settings(max_examples=200, deadline=None)
def test_row_arcs_match_coverage_tree_and_super_reference(n, seed, directed):
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.randint(1, 3 * n), directed)
    C = frozenset(rng.sample(range(1, n), rng.randint(1, n - 1)))
    A = frozenset(range(n)) - C
    D = rng.randint(0, n)
    terminals = sorted(v for v in C if rng.random() < 0.5)
    members = rng.sample(sorted(C), rng.randint(0, len(C)))
    groups: dict[int, list[int]] = {}
    for w in members:
        groups.setdefault(rng.randrange(max(1, len(members) // 2)), []).append(w)
    terminal_row = CoverRow(g, 0, A, C, singleton_locations(terminals), D)
    super_row = CoverRow(g, 0, A, C, groups, D)
    for c in sorted(C):
        assert terminal_row.arcs(c) == arc_keys(g, full_coverage_tree(g, C, c, terminals, D).arcs())
        assert super_row.arcs(c) == arc_keys(g, reference_super_arcs(g, C, c, groups, D))


def test_negative_capacity_rejected():
    system = CoverageSystem({1}, [(0, 1, frozenset({1}))])
    with pytest.raises(ValueError, match="capacity must be nonnegative"):
        greedy_matroid_max(system, -1)
    with pytest.raises(ValueError, match="capacity must be nonnegative"):
        pm_cover_system(system, -1, target=1)
    with pytest.raises(ValueError, match="capacity must be nonnegative"):
        exact_matroid_coverage(system, -1)


class TestExactMatroidCoverage:
    def test_single_part_capacity_one(self):
        system = CoverageSystem({1, 2, 3}, [(0, 1, frozenset({1, 2})), (0, 2, frozenset({3}))])
        assert exact_matroid_coverage(system, 1) == 2

    def test_capacity_zero(self):
        system = CoverageSystem({1}, [(0, 1, frozenset({1}))])
        assert exact_matroid_coverage(system, 0) == 0

    def test_two_branch_system_by_capacity(self):
        g = two_branch_graph()
        system = build_coverage_instance(
            g, {0}, {1, 2, 3, 4}, [3, 4], singleton_locations([3, 4]), D=2, root=0
        )
        assert exact_matroid_coverage(system, 1) == 1
        assert exact_matroid_coverage(system, 2) == 2

    def test_matches_brute_force_reference(self, rng):
        # independent reference: plain itertools enumeration, no pruning
        import itertools

        for _ in range(40):
            system, capacity = random_system(rng, max_pairs=7, max_elems=6)
            owner = [a for a, _, _ in system.pairs]
            best = 0
            idxs = range(len(system.pairs))
            for r in range(len(system.pairs) + 1):
                for combo in itertools.combinations(idxs, r):
                    loads = {}
                    ok = True
                    for i in combo:
                        loads[owner[i]] = loads.get(owner[i], 0) + 1
                        if loads[owner[i]] > capacity:
                            ok = False
                            break
                    if not ok:
                        continue
                    cov = set().union(*(system.pairs[i][2] for i in combo)) if combo else set()
                    best = max(best, len(cov))
            assert exact_matroid_coverage(system, capacity) == best
