"""Invariants above oracle scale, on the partition-matroid cover paths and
on every generator model.

Wide shallow layered DAGs have no rho-good vertex, so the directed solver
completes its few-trees partition with the cover loop; undirected stars of
stars whose leaf count is at least ceil(t^(1/3)) turn every hub into a
super-terminal that only the cover loop can reach.  Grids of either
orientation and undirected random graphs mix the small, large and cover
iterations, which share their cover rows; directed random graphs pack many
trees through the screened greedy packing.  The undirected stars of stars
and grids are swept by the directed solver too (``mode="directed"``), the
one solver choice that changes behaviour.  Every feasible cell of the
sweep grid must give a valid k-tree with a valid optimal schedule, and the
row-staged solve must agree with a solve on a stage built for that cell
alone at every degree budget, both along the sweep's own path (ascending
budgets on one stage, whose cover rows keep a selection once the degree
budget stops binding) and in descending order on a fresh stage.
"""

from __future__ import annotations

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from poisekit import eccentricity, generate_instance, tree_metrics
from poisekit.driver import stage_budget
from poisekit.errors import GenerationError, InfeasibleGuessError
from poisekit.scheduling import broadcast_rounds, tree_broadcast_schedule, validate_schedule


def _outcome(solve):
    try:
        return solve()
    except InfeasibleGuessError as exc:
        return str(exc)


def _solves(stage, budgets):
    """Each budget's outcome on ``stage``, solved in the order given; an
    infeasible row's message, instead of a stage, fills every cell."""
    if isinstance(stage, str):
        return {B: stage for B in budgets}
    return {B: _outcome(lambda: stage.solve(B)) for B in budgets}


def check_every_cell(instance, mode: str = "auto") -> list[str]:
    """Check every (B, D) cell of solver ``mode``; return the branches the
    feasible ones took, plus "kept" for each cell whose solve returned the
    very tree of the cell before it: the tree of a cover selection the row
    kept once the budget stopped binding, one the row assembled for the same
    picks, or the tree of an undirected round that both walks end in."""
    branches = []
    budgets = range(1, len(instance.terminals) + 1)
    for D in range(1, eccentricity(instance.graph, instance.root) + 1):
        stage = _outcome(lambda: stage_budget(instance, D, mode))
        swept = _solves(stage, budgets)
        descended = _solves(_outcome(lambda: stage_budget(instance, D, mode)), reversed(budgets))
        previous = None
        for B in budgets:
            staged = swept[B]
            unstaged = _outcome(lambda: stage_budget(instance, D, mode).solve(B))
            if staged is previous and not isinstance(staged, str):
                branches.append("kept")
            previous = staged
            if isinstance(staged, str):
                assert staged == descended[B] == unstaged
                continue
            assert not isinstance(unstaged, str) and staged.parent == unstaged.parent
            assert not isinstance(descended[B], str) and descended[B].parent == unstaged.parent
            traced, trace = stage.trace(B)
            assert traced is staged
            m = tree_metrics(staged, instance)
            assert m.terminals_covered >= instance.k
            schedule = tree_broadcast_schedule(staged)
            assert validate_schedule(instance, schedule, instance.k).valid
            assert len(schedule.rounds) == broadcast_rounds(staged)[staged.root]
            if trace.get("pmcover"):
                branches.append("directed-cover")
            branches += [
                "undirected-" + it["branch"] for it in trace.get("iterations", ())
            ]
    return branches


@given(
    width=st.integers(20, 60),
    k_share=st.floats(0.5, 1.0),
    seed=st.integers(0, 10**6),
)
@example(width=22, k_share=0.5, seed=438485)  # packs enough trees that no cell covers
@settings(max_examples=4, deadline=None)
def test_layered_dag_cover_cells(width, k_share, seed):
    k = max(1, int(width * k_share))
    instance = generate_instance(
        "layered-dag", {"width": width, "depth": 2, "t": width, "k": k, "seed": seed}
    )
    branches = check_every_cell(instance)
    # a draw can pack enough trees that no cell covers: its checks have run,
    # but it does not count as an example of the cover
    assume("directed-cover" in branches)
    assert "kept" in branches


@given(leaf=st.integers(3, 5), data=st.data())
@settings(max_examples=4, deadline=None)
def test_star_of_stars_pmcover_cells(leaf, data):
    # leaf^2 >= branch makes leaf >= ceil(t^(1/3)), so every hub packs
    branch = data.draw(st.integers(leaf + 1, min(leaf * leaf, 12)))
    k = data.draw(st.integers(1, branch * leaf))
    instance = generate_instance(
        "star-of-stars", {"branch": branch, "leaf": leaf, "k": k, "directed": False}
    )
    branches = check_every_cell(instance)
    assert "undirected-pmcover" in branches and "kept" in branches
    check_every_cell(instance, "directed")  # the directed solver on an undirected graph


@given(
    w=st.integers(3, 7),
    h=st.integers(3, 7),
    t_share=st.floats(0.1, 0.5),
    k_share=st.floats(0.1, 1.0),
    directed=st.booleans(),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=10, deadline=None)
def test_grid_cells(w, h, t_share, k_share, directed, seed):
    t = max(1, int(w * h * t_share))
    k = max(1, int(t * k_share))
    instance = generate_instance(
        "grid", {"w": w, "h": h, "t": t, "k": k, "seed": seed, "directed": directed}
    )
    check_every_cell(instance)
    if not directed:
        check_every_cell(instance, "directed")


@given(
    n=st.integers(20, 60),
    t=st.integers(4, 16),
    k_share=st.floats(0.1, 1.0),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=10, deadline=None)
def test_undirected_random_cells(n, t, k_share, seed):
    params = {"n": n, "m": 2 * n, "t": t, "k": max(1, int(t * k_share)), "seed": seed,
              "directed": False, "connected": True}
    try:
        instance = generate_instance("random-digraph", params)
    except GenerationError:
        assume(False)
    check_every_cell(instance)


@given(
    n=st.integers(20, 60),
    t=st.integers(4, 16),
    k_share=st.floats(0.1, 1.0),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=6, deadline=None)
def test_directed_random_cells(n, t, k_share, seed):
    params = {"n": n, "m": 3 * n, "t": t, "k": max(1, int(t * k_share)), "seed": seed}
    try:
        instance = generate_instance("random-digraph", params)
    except GenerationError:
        assume(False)
    check_every_cell(instance)
