"""Acceptance suite: every guarantee the package promises, checked against
the exhaustive oracles at desk scale.  Run with -s to see one line per
criterion."""

import math
import random
import time

from poisekit import (
    Graph,
    MulticastInstance,
    PoiseGuess,
    PoiseTree,
    build_coverage_instance,
    exact_matroid_coverage,
    exact_min_poise_ktree,
    exact_multicast_rounds,
    greedy_matroid_max,
    pm_cover,
    prune_beyond,
    run_sweep,
    solve_directed,
    tree_broadcast_schedule,
    tree_metrics,
    validate_schedule,
)
from poisekit.cover import default_iteration_cap
from poisekit.driver import bench_rows
from poisekit.errors import InfeasibleGuessError
from poisekit.undirected import _ceil_cbrt, stage_undirected

from conftest import directed_stream, undirected_stream


def ceil_sqrt(k: int) -> int:
    r = math.isqrt(k)
    return r if r * r == k else r + 1


def log_factor(k: int) -> int:
    return default_iteration_cap(k)


def test_criterion_1_directed_additive_bound():
    started = time.perf_counter()
    violations = []
    count = 0
    for inst in directed_stream(500, seed=1001):
        count += 1
        res = exact_min_poise_ktree(inst)
        pruned = prune_beyond(inst, res.D_star)
        tree = solve_directed(pruned, PoiseGuess(res.B_star, res.D_star))
        m = tree_metrics(tree, inst)
        k = inst.k
        if m.terminals_covered < k:
            violations.append(("coverage", inst, m))
        if m.max_out_degree > log_factor(k) * res.B_star + 2 * ceil_sqrt(k):
            violations.append(("degree", inst, m))
        if m.height > 3 * res.D_star + 1:
            violations.append(("height", inst, m))
    elapsed = time.perf_counter() - started
    assert not violations, violations[:3]
    assert elapsed < 300
    print(f"\ncriterion 1 PASS: {count} directed instances, 0 violations, {elapsed:.1f}s")


def test_criterion_2_undirected_bounds():
    started = time.perf_counter()
    violations = []
    count = 0
    for inst in undirected_stream(300, seed=2002):
        count += 1
        res = exact_min_poise_ktree(inst)
        pruned = prune_beyond(inst, res.D_star)
        stage = stage_undirected(pruned, res.D_star)
        tree = stage.solve(res.B_star)
        m = tree_metrics(tree, inst)
        t = len(inst.terminals)
        rho = _ceil_cbrt(t)
        log = stage.trace(res.B_star)[1]["iterations"]
        if m.terminals_covered < inst.k:
            violations.append(("coverage", inst, m))
        if len(log) > rho + 1:
            violations.append(("iterations", inst, log))
        for rec in log:
            if rec["max_degree_delta_C"] > 2 * rho + 2:
                violations.append(("delta-C", inst, rec))
            if rec["branch"] == "pmcover" and rec["max_degree_delta_R"] > log_factor(inst.k) * res.B_star:
                violations.append(("delta-R-pmcover", inst, rec))
            if rec["branch"] == "large" and rec["max_degree_delta_R"] > 2:
                violations.append(("delta-R-large", inst, rec))
    elapsed = time.perf_counter() - started
    assert not violations, violations[:3]
    assert elapsed < 300
    print(f"criterion 2 PASS: {count} undirected instances, 0 violations, {elapsed:.1f}s")


def _random_planted_system(rng: random.Random):
    """Realize a random coverage system as a graph so the real cover loop can
    run on it: anchors a -> boundary c, boundary c -> element vertex, D=1."""
    n_a = rng.randint(1, 3)
    n_c = rng.randint(1, 6)
    n_e = rng.randint(1, 8)
    anchors = list(range(n_a))
    cs = list(range(n_a, n_a + n_c))
    elems = list(range(n_a + n_c, n_a + n_c + n_e))
    arcs = set()
    for c in cs:
        arcs.add((rng.choice(anchors), c))
        if rng.random() < 0.4:
            arcs.add((rng.choice(anchors), c))
        for e in elems:
            if rng.random() < 0.4:
                arcs.add((c, e))
    pair_count = sum(1 for u, v in arcs if u in set(anchors) and v in set(cs))
    if pair_count > 12:
        return None
    g = Graph(n_a + n_c + n_e, sorted(arcs), directed=True)
    A = set(anchors)
    C = set(cs) | set(elems)
    location = {e: (e,) for e in elems}
    capacity = rng.randint(1, 3)
    return g, A, C, elems, location, capacity


def test_criterion_3_pmcover_independence_and_halving():
    started = time.perf_counter()
    rng = random.Random(3003)
    checked = 0
    violations = []
    while checked < 200:
        made = _random_planted_system(rng)
        if made is None:
            continue
        g, A, C, elems, location, capacity = made
        system = build_coverage_instance(g, A, C, elems, location, D=1, root=0)
        matroid = capacity
        best = exact_matroid_coverage(system, matroid)
        if best == 0:
            continue
        checked += 1
        target = rng.randint(1, best)
        try:
            sel = pm_cover(g, 0, A, C, elems, location, target=target, B=capacity, D=1)
        except InfeasibleGuessError:
            violations.append(("stalled-below-certified-target", target, system))
            continue
        if len(sel.covered_elements) < target:
            violations.append(("target-missed", target, sel))
        if sel.iterations > default_iteration_cap(target):
            violations.append(("too-many-iterations", target, sel.iterations))
        for record in sel.log:
            if any(cnt > capacity for cnt in record["per_part"].values()):
                violations.append(("dependent-selection", record))
    elapsed = time.perf_counter() - started
    assert not violations, violations[:3]
    assert elapsed < 60
    print(f"criterion 3 PASS: {checked} planted systems, 0 violations, {elapsed:.1f}s")


def test_criterion_4_greedy_half_guarantee():
    rng = random.Random(4004)
    checked = 0
    violations = []
    while checked < 200:
        made = _random_planted_system(rng)
        if made is None:
            continue
        g, A, C, elems, location, capacity = made
        system = build_coverage_instance(g, A, C, elems, location, D=1, root=0)
        matroid = capacity
        checked += 1
        picks = greedy_matroid_max(system, matroid)
        got = len(set().union(*(system.pairs[i][2] for i in picks)) if picks else set())
        best = exact_matroid_coverage(system, matroid)
        if 2 * got < best:
            violations.append((system, got, best))
    assert not violations, violations[:3]
    print(f"criterion 4 PASS: {checked} systems, greedy always >= half of optimum")


def test_criterion_5_scheduler_optimal_on_trees():
    started = time.perf_counter()
    rng = random.Random(5005)
    violations = []
    for trial in range(200):
        n = rng.randint(2, 12)
        parent = {v: rng.randrange(v) for v in range(1, n)}
        g = Graph(n, [(p, v) for v, p in parent.items()], directed=True)
        inst = MulticastInstance(g, 0, range(1, n), n - 1)
        tree = PoiseTree(0, parent)
        sched = tree_broadcast_schedule(tree)
        report = validate_schedule(inst, sched, n - 1)
        if not report.valid:
            violations.append(("invalid-schedule", trial))
        if len(sched.rounds) != exact_multicast_rounds(inst):
            violations.append(("suboptimal", trial, len(sched.rounds)))
    elapsed = time.perf_counter() - started
    assert not violations, violations[:3]
    assert elapsed < 120
    print(f"criterion 5 PASS: 200 trees, schedule rounds all optimal, {elapsed:.1f}s")


def test_criterion_6_lower_bound_consistency():
    violations = []
    count = 0
    streams = [directed_stream(90, seed=6006), undirected_stream(60, seed=6007)]
    for stream in streams:
        for inst in stream:
            count += 1
            res = exact_min_poise_ktree(inst)
            rounds = exact_multicast_rounds(inst)
            floor = max(math.ceil(math.log2(inst.k + 1)), math.ceil(res.poise_star / 2))
            if rounds < floor:
                violations.append((inst, rounds, floor))
    assert not violations, violations[:3]
    print(f"criterion 6 PASS: {count} instances, rounds >= max(doubling, poise/2)")


def test_criterion_7_bench_determinism(tmp_path):
    import csv
    import io

    def render(seed):
        rows = bench_rows("desk", seed)
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
        return buf.getvalue().encode()

    a = render(42)
    b = render(42)
    assert a == b
    print("criterion 7 PASS: desk bench CSV byte-identical across two runs")


def test_criterion_8_desk_ratio_report():
    rows = []
    violations = []
    instances = list(directed_stream(8, seed=8080)) + list(undirected_stream(6, seed=8081))
    for inst in instances:
        res = exact_min_poise_ktree(inst)
        # note: D* may exceed ecc(root) when the optimum detours for degree,
        # in which case the sweep grid cannot contain the optimal guess; the
        # bound below still holds because it is evaluated at (B*, D*)
        report, _ = run_sweep(inst)
        assert report.best is not None
        best = report.best["poise"]
        k, t = inst.k, len(inst.terminals)
        if inst.graph.directed:
            bound = log_factor(k) * res.B_star + 2 * ceil_sqrt(k) + 3 * res.D_star + 1
        else:
            rho = _ceil_cbrt(t)
            bound = log_factor(k) * res.B_star * rho + 2 * rho + 2 + 4 * res.D_star + 1
        ratio = best / res.poise_star
        rows.append((inst.graph.directed, inst.graph.n, k, t, best, res.poise_star, ratio))
        if best > bound:
            violations.append((inst, best, bound))
    assert not violations, violations[:3]
    print("criterion 8 PASS: sweep-best poise vs oracle optimum")
    print("  directed     n  k  t  best  p*  ratio")
    for directed, n, k, t, best, p_star, ratio in rows:
        kind = "directed  " if directed else "undirected"
        print(f"  {kind} {n:3d} {k:2d} {t:2d}  {best:4d} {p_star:3d}  {ratio:.3f}")
