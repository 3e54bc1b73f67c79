"""Exhaustive ground-truth solvers for desk-scale instances.

Everything here works on bitmask vertex sets and is exponential by design;
the size limits keep the searches in the milliseconds-to-seconds range.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cover import CoverageSystem
from .errors import InfeasibleInstanceError
from .graph import MulticastInstance, PoiseTree, bfs_distances

DEFAULT_LIMIT_N = 12


@dataclass(frozen=True)
class OracleResult:
    best_tree: PoiseTree
    B_star: int
    D_star: int
    poise_star: int


def _bits(mask: int) -> list[int]:
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(v)
        mask >>= 1
        v += 1
    return out


def _masks(instance: MulticastInstance) -> tuple[list[int], list[int], int]:
    g = instance.graph
    out_mask = [0] * g.n
    in_mask = [0] * g.n
    for v in g.vertices():
        for w in g.out_neighbors(v):
            out_mask[v] |= 1 << w
        for w in g.in_neighbors(v):
            in_mask[v] |= 1 << w
    term_mask = 0
    for t in instance.terminals:
        term_mask |= 1 << t
    return out_mask, in_mask, term_mask


def _assign_parents(
    receivers: list[int], frontier_mask: int, in_mask: list[int], capacity: int
) -> dict[int, int] | None:
    """Assign each receiver a distinct-capacity parent in the frontier, or None.

    Augmenting search over senders; capacity is per sender.  Deterministic:
    receivers ascending, candidate senders ascending.
    """
    load: dict[int, int] = {}
    owner: dict[int, int] = {}

    def place(v: int, banned: set[int]) -> bool:
        options = _bits(in_mask[v] & frontier_mask)
        for u in options:
            if u not in banned and load.get(u, 0) < capacity:
                owner[v] = u
                load[u] = load.get(u, 0) + 1
                return True
        for u in options:
            if u in banned:
                continue
            banned.add(u)
            for w in [w for w, s in owner.items() if s == u]:
                del owner[w]
                load[u] -= 1
                if place(w, banned):
                    owner[v] = u
                    load[u] += 1
                    return True
                owner[w] = u
                load[u] += 1
        return False

    for v in sorted(receivers):
        if not place(v, set()):
            return None
    return owner


def _reachable_terminals(
    frontier: int, avail: int, depth: int, out_mask: list[int], term_mask: int
) -> int:
    seen = 0
    cur = frontier
    for _ in range(depth):
        nxt = 0
        for u in _bits(cur):
            nxt |= out_mask[u]
        cur = nxt & avail & ~seen
        if not cur:
            break
        seen |= cur
    return bin(seen & term_mask).count("1")


def _feasible_layers(
    out_mask: list[int],
    in_mask: list[int],
    term_mask: int,
    root: int,
    B: int,
    D: int,
    need: int,
) -> list[int] | None:
    """Layer masks of a tree rooted at root with out-degree <= B, height <= D
    covering >= need terminals, or None when no such tree exists."""
    n = len(out_mask)
    all_mask = (1 << n) - 1
    fail_memo: dict[tuple[int, int, int], int] = {}
    submask_cache: dict[int, list[int]] = {}

    def ordered_submasks(usable: int) -> list[int]:
        subs = submask_cache.get(usable)
        if subs is None:
            subs = []
            s = usable
            while s:
                subs.append(s)
                s = (s - 1) & usable
            subs.sort(key=lambda m: (-bin(m & term_mask).count("1"), -bin(m).count("1")))
            submask_cache[usable] = subs
        return subs

    def dfs(frontier: int, avail: int, d: int, need: int) -> list[int] | None:
        if need <= 0:
            return []
        if d == 0:
            return None
        key = (frontier, avail, d)
        floor = fail_memo.get(key)
        if floor is not None and need >= floor:
            return None
        if _reachable_terminals(frontier, avail, d, out_mask, term_mask) < need:
            fail_memo[key] = min(need, floor if floor is not None else need)
            return None
        usable = 0
        for u in _bits(frontier):
            usable |= out_mask[u]
        usable &= avail
        cap = B * bin(frontier).count("1")
        for layer in ordered_submasks(usable):
            if bin(layer).count("1") > cap:
                continue
            if _assign_parents(_bits(layer), frontier, in_mask, B) is None:
                continue
            rest = dfs(layer, avail & ~layer, d - 1, need - bin(layer & term_mask).count("1"))
            if rest is not None:
                return [layer] + rest
        fail_memo[key] = min(need, floor if floor is not None else need)
        return None

    return dfs(1 << root, all_mask & ~(1 << root), D, need)


def _tree_from_layers(
    root: int, layers: list[int], in_mask: list[int], B: int
) -> PoiseTree:
    parent: dict[int, int] = {}
    frontier = 1 << root
    for layer in layers:
        owner = _assign_parents(_bits(layer), frontier, in_mask, B)
        assert owner is not None, "layer sequence lost its parent assignment"
        parent.update(owner)
        frontier = layer
    return PoiseTree(root, parent)


def poise_feasible(
    instance: MulticastInstance, B: int, D: int, limit_n: int = DEFAULT_LIMIT_N
) -> bool:
    """True when some tree within budgets (B, D) covers k terminals."""
    if instance.graph.n > limit_n:
        raise ValueError(f"instance too large for the oracle (n={instance.graph.n})")
    out_mask, in_mask, term_mask = _masks(instance)
    layers = _feasible_layers(
        out_mask, in_mask, term_mask, instance.root, B, D, instance.k
    )
    return layers is not None


def exact_min_poise_ktree(
    instance: MulticastInstance, limit_n: int = DEFAULT_LIMIT_N
) -> OracleResult:
    """Minimum-poise k-tree by exhaustive budget search.

    Tries (B, D) pairs in increasing poise order (B ascending within equal
    poise) and returns the first feasible pair with a witness tree.  The
    witness realizes the pair exactly: a slack budget at the same poise would
    have been feasible one step earlier.
    """
    g = instance.graph
    if g.n > limit_n:
        raise ValueError(f"instance too large for the oracle (n={g.n})")
    dist = bfs_distances(g, [instance.root])
    term_dists = sorted(dist[t] for t in instance.terminals if t in dist)
    if len(term_dists) < instance.k:
        raise InfeasibleInstanceError(
            f"root reaches only {len(term_dists)} terminals, k={instance.k}"
        )
    d_floor = term_dists[instance.k - 1]
    out_mask, in_mask, term_mask = _masks(instance)
    max_dim = g.n - 1
    failed: list[tuple[int, int]] = []
    p = max(2, 1 + d_floor)
    while True:
        for B in range(1, p):
            D = p - B
            if D < d_floor or D > max_dim or B > max_dim:
                continue
            if any(bi >= B and di >= D for bi, di in failed):
                continue
            layers = _feasible_layers(
                out_mask, in_mask, term_mask, instance.root, B, D, instance.k
            )
            if layers is not None:
                tree = _tree_from_layers(instance.root, layers, in_mask, B)
                return OracleResult(tree, B, D, p)
            failed.append((B, D))
        p += 1
        # unreachable: the pruned BFS tree bounds the optimum by (n-1, n-1)
        if p > 2 * max_dim + 1:
            raise RuntimeError("budget search exceeded the structural upper bound")


def _matching_size(receivers: list[int], senders_mask: int, in_mask: list[int]) -> int:
    owner = _assign_parents(receivers, senders_mask, in_mask, capacity=1)
    if owner is not None:
        return len(receivers)
    # fall back: largest matchable subset size via incremental augmentation
    size = 0
    chosen: list[int] = []
    for v in receivers:
        if _assign_parents(chosen + [v], senders_mask, in_mask, capacity=1) is not None:
            chosen.append(v)
            size += 1
    return size


def _maximal_receiver_sets(cand: list[int], senders_mask: int, in_mask: list[int]) -> list[int]:
    """All maximum matchable receiver sets (bases of the transversal matroid)."""
    rank = _matching_size(cand, senders_mask, in_mask)
    if rank == 0:
        return []
    bases: list[int] = []

    def rec(i: int, chosen: list[int]) -> None:
        if len(chosen) == rank:
            mask = 0
            for v in chosen:
                mask |= 1 << v
            bases.append(mask)
            return
        if len(chosen) + (len(cand) - i) < rank:
            return
        for j in range(i, len(cand)):
            trial = chosen + [cand[j]]
            if _assign_parents(trial, senders_mask, in_mask, capacity=1) is not None:
                rec(j + 1, trial)

    rec(0, [])
    return bases


def exact_multicast_rounds(
    instance: MulticastInstance, limit_n: int = DEFAULT_LIMIT_N
) -> int:
    """Minimum telephone rounds to inform k terminals, by state-space search.

    Breadth-first over informed vertex sets; transitions add one maximum
    matchable receiver set (supersets of informed vertices dominate subsets,
    so only maximum sets are expanded).
    """
    g = instance.graph
    if g.n > limit_n:
        raise ValueError(f"instance too large for the oracle (n={g.n})")
    out_mask, in_mask, term_mask = _masks(instance)
    k = instance.k
    start = 1 << instance.root
    if bin(start & term_mask).count("1") >= k:
        return 0
    visited = {start}
    frontier = [start]
    rounds = 0
    while frontier:
        rounds += 1
        nxt = []
        for informed in frontier:
            cand_mask = 0
            for u in _bits(informed):
                cand_mask |= out_mask[u]
            cand_mask &= ~informed
            if not cand_mask:
                continue
            for add in _maximal_receiver_sets(_bits(cand_mask), informed, in_mask):
                state = informed | add
                if state in visited:
                    continue
                if bin(state & term_mask).count("1") >= k:
                    return rounds
                visited.add(state)
                nxt.append(state)
        frontier = nxt
    raise InfeasibleInstanceError("the root cannot inform k terminals at all")


def exact_matroid_coverage(system: CoverageSystem, capacity: int) -> int:
    """Maximum element coverage over all selections taking at most
    ``capacity`` pairs per anchor, by enumeration."""
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    if len(system.pairs) > 20:
        raise ValueError(f"too many pairs for exhaustive coverage ({len(system.pairs)})")
    element_bit = {e: i for i, e in enumerate(sorted(system.ground, key=repr))}
    covers = [
        sum(1 << element_bit[e] for e in cov) for _, _, cov in system.pairs
    ]
    m = len(covers)
    suffix = [0] * (m + 1)
    for i in range(m - 1, -1, -1):
        suffix[i] = suffix[i + 1] | covers[i]
    best = 0

    def rec(i: int, covered: int, load: dict[int, int]) -> None:
        nonlocal best
        best = max(best, bin(covered).count("1"))
        if i == m:
            return
        if bin(covered | suffix[i]).count("1") <= best:
            return
        a = system.pairs[i][0]
        if load.get(a, 0) < capacity:
            load[a] = load.get(a, 0) + 1
            rec(i + 1, covered | covers[i], load)
            load[a] -= 1
        rec(i + 1, covered, load)

    rec(0, 0, {})
    return best
