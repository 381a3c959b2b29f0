"""Exact and relaxation solvers.

exact_solve finds the minimum number of activations by iterative
deepening: for k = k_lb, k_lb+1, ... it enumerates the k-subsets of the
dashed edges in lexicographic order and accepts the first feasible one.
The enumeration is realised as a depth-first search with pruning rules
that only skip subtrees provably containing no feasible subset, so the
accepted subset is exactly the lexicographically first feasible one.

A leaf of the search is decided by the cut condition, without a flow:
all demand routes iff, for every app set A, cap(A) covers the demand of
the users whose reachable apps (preinstalled plus chosen) all lie in A.
The search keeps each user's reachable-app mask and the demand total per
mask current as it adds and removes edges, so a leaf costs one subset-sum
pass of m * 2^m additions over m apps.  Only where that pass would cost
more than CUT_ORACLE_ARC_FACTOR times the arc count of the network
holding every edge does a leaf run a Dinic max-flow instead.  Both decide
the same leaves; the accepted subset's witness allocation is always
routed by max_flow.

lp_lower_bound solves the relaxation where each activation variable may
be fractional.  Its optimum is n minus the largest sum of s_u / d_u over
the amounts s_u the users can route on preinstalled edges alone, and a
greedy over ascending demands attains it: one max-flow on a network of
the distinct preinstalled app sets, whose source arcs grow demand level
by demand level, gives the bound as an exact Fraction and a routing that
attains it.  No min-cost flow runs.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .flowcore import build_network, max_flow
from .flowcore import min_cost_max_flow  # noqa: F401  wrapped here by perfbench/tracing.py
from .model import Allocation, Instance, SolveResult
from . import _kernels

__all__ = [
    "ExactConfig",
    "GloballyInfeasibleError",
    "exact_solve",
    "lp_lower_bound",
    "export_milp",
    "check_3partition",
]


class GloballyInfeasibleError(RuntimeError):
    """Total demand exceeds total capacity: no activation set can help."""

    def __init__(self, total_demand, total_capacity):
        super().__init__(
            "globally infeasible: total demand %d exceeds total capacity %d"
            % (total_demand, total_capacity)
        )
        self.total_demand = total_demand
        self.total_capacity = total_capacity


# The exact search decides a leaf by _CutOracle while m * 2^m stays within
# this many times the arc count of the network holding every user/app
# edge, and by Dinic beyond.  Per leaf under CPython 3.11 the two broke
# even where m * 2^m was about 35 to 100 times the arc count (m = 7 to 12,
# 1 to 20 users); at 32 the oracle took at most 0.6 of a Dinic leaf.
CUT_ORACLE_ARC_FACTOR = 32


@dataclass
class ExactConfig:
    max_budget: "int | None" = None
    time_limit: "float | None" = None
    prune: bool = True


def _dashed_index_pairs(inst: Instance) -> list[tuple[int, int]]:
    pairs = []
    for u in range(inst.num_users):
        pre = set(int(a) for a in inst.preinstalled_of(u))
        for a in range(inst.num_apps):
            if a not in pre:
                pairs.append((u, a))
    return pairs


class _CutOracle:
    """Exact feasibility test by the cut condition, kept incrementally.

    All demand routes iff, for every app set A, cap(A) is at least the
    demand of the users whose reachable apps (preinstalled plus chosen)
    all lie in A.  The oracle keeps each user's reachable-app bit-mask and
    the demand total per mask; toggle() moves one user between masks in
    O(1).  holds() sums the totals over the subsets of every A (m * 2^m
    additions) and compares each sum with cap(A).
    """

    def __init__(self, inst: Instance):
        m = inst.num_apps
        size = 1 << m
        self.demand = inst.demands.tolist()
        self.reach = [0] * inst.num_users
        for u in range(inst.num_users):
            for a in inst.preinstalled_of(u).tolist():
                self.reach[u] |= 1 << a
        self.mask_demand = [0] * size
        for mask, d in zip(self.reach, self.demand):
            self.mask_demand[mask] += d
        caps = inst.capacities.tolist()
        self.cap_of = [0] * size
        for A in range(1, size):
            low = A & -A
            self.cap_of[A] = self.cap_of[A ^ low] + caps[low.bit_length() - 1]
        # (A, A without one of its apps), bit by bit: the subset-sum pass
        self.zeta_pairs = [
            (A, A ^ bit) for bit in (1 << a for a in range(m)) for A in range(size) if A & bit
        ]

    def toggle(self, u: int, a: int) -> None:
        """Add the edge (u, a) to u's reachable apps, or take it away."""
        d = self.demand[u]
        mask = self.reach[u]
        self.mask_demand[mask] -= d
        mask ^= 1 << a
        self.mask_demand[mask] += d
        self.reach[u] = mask

    def holds(self) -> bool:
        stuck = self.mask_demand[:]
        for A, B in self.zeta_pairs:
            stuck[A] += stuck[B]
        return all(map(operator.le, stuck, self.cap_of))


class _SubsetSearcher:
    """Lexicographic DFS over k-subsets of the dashed edges.

    A leaf is decided by _CutOracle, which the DFS updates as it pushes
    and pops each dashed edge.  Its m * 2^m leaf pass grows with the number
    of apps m alone, so where it exceeds CUT_ORACLE_ARC_FACTOR times the
    arc count of the network holding every edge, a leaf is decided by a
    Dinic max-flow on that one shared network instead: non-selected dashed
    arcs get capacity zero, which gives the same max-flow value as a
    network built without them.  Both decide exactly the same leaves.
    """

    def __init__(self, inst: Instance, dashed: list[tuple[int, int]]):
        self.inst = inst
        self.dashed = dashed
        n = inst.num_users
        m = inst.num_apps
        num_arcs = 2 * (n + n * m + m)
        if m << m <= CUT_ORACLE_ARC_FACTOR * num_arcs:
            self.oracle = _CutOracle(inst)
        else:
            self.oracle = None
            self.net = build_network(inst, dashed)
            arc_of = {(u, a): aid for aid, u, a, is_d in self.net.edge_arcs if is_d}
            self.dashed_arcs = np.array([arc_of[p] for p in dashed], dtype=np.int64)
            self.pristine = self.net.base_cap.copy()
            self.total = inst.total_demand
        # users with no preinstalled app need at least one chosen edge;
        # their dashed edges sit in one contiguous index block
        counts = np.diff(inst.pre_indptr)
        self.needs_edge = [int(counts[u]) == 0 for u in range(n)]
        self.block_end = [0] * n
        for idx, (u, a) in enumerate(dashed):
            self.block_end[u] = idx + 1
        self.leaf_evals = 0

    def _leaf_feasible(self, chosen: list[int]) -> bool:
        self.leaf_evals += 1
        if self.oracle is not None:
            return self.oracle.holds()
        net = self.net
        np.copyto(net.arc_cap, self.pristine)
        net.arc_cap[self.dashed_arcs] = 0
        if chosen:
            sel = self.dashed_arcs[chosen]
            net.arc_cap[sel] = self.pristine[sel]
        value = _kernels.dinic_kernel(
            net.num_nodes,
            net.arc_to,
            net.arc_cap,
            net.adj_indptr,
            net.adj_arcs,
            net.source,
            net.sink,
        )
        return int(value) == self.total

    def first_feasible(self, k: int, deadline: "float | None") -> "list[int] | None | str":
        """Lexicographically first feasible k-subset, None, or 'timeout'."""
        D = len(self.dashed)
        if k > D:
            return None
        uncovered = sum(1 for u in range(self.inst.num_users) if self.needs_edge[u])
        chosen: list[int] = []
        cover_hits = [0] * self.inst.num_users
        toggle = None if self.oracle is None else self.oracle.toggle

        def rec(start: int, uncovered: int) -> "list[int] | None | str":
            slots = k - len(chosen)
            if slots == 0:
                if deadline is not None and self.leaf_evals % 256 == 0 and time.perf_counter() > deadline:
                    return "timeout"
                return list(chosen) if self._leaf_feasible(chosen) else None
            if uncovered > slots:
                return None
            # every still-uncovered user must have a candidate edge ahead
            for u in range(self.inst.num_users):
                if self.needs_edge[u] and cover_hits[u] == 0 and self.block_end[u] <= start:
                    return None
            for idx in range(start, D - slots + 1):
                u, a = self.dashed[idx]
                newly = self.needs_edge[u] and cover_hits[u] == 0
                cover_hits[u] += 1
                chosen.append(idx)
                if toggle:
                    toggle(u, a)
                out = rec(idx + 1, uncovered - 1 if newly else uncovered)
                if toggle:
                    toggle(u, a)
                chosen.pop()
                cover_hits[u] -= 1
                if out is not None:
                    return out
            return None

        return rec(0, uncovered)


def exact_solve(inst: Instance, cfg: "ExactConfig | None" = None) -> SolveResult:
    """Minimum activation count by iterative deepening over subset sizes.

    Raises GloballyInfeasibleError when total demand exceeds total
    capacity.  A max_budget that is exhausted yields a structured result
    with status 'budget_exceeded' (optimal=False, no allocation); hitting
    time_limit yields status 'time_limit'.
    """
    cfg = cfg or ExactConfig()
    start = time.perf_counter()
    total_cap = int(inst.capacities.sum())
    if inst.total_demand > total_cap:
        raise GloballyInfeasibleError(inst.total_demand, total_cap)

    dashed = _dashed_index_pairs(inst)
    D = len(dashed)
    if cfg.max_budget is not None:
        if cfg.max_budget < 0:
            raise ValueError("max_budget must be non-negative")
        if cfg.max_budget > D:
            raise ValueError(
                "max_budget %d exceeds the number of dashed edges %d" % (cfg.max_budget, D)
            )

    deadline = None if cfg.time_limit is None else start + cfg.time_limit

    k_lb = 0
    if cfg.prune:
        bound = lp_lower_bound(inst)
        k_lb = max(0, math.ceil(bound.activation_count))

    budget = cfg.max_budget if cfg.max_budget is not None else D
    searcher = _SubsetSearcher(inst, dashed)
    for k in range(k_lb, budget + 1):
        found = searcher.first_feasible(k, deadline)
        if found == "timeout":
            return SolveResult(
                algorithm="exact",
                status="time_limit",
                optimal=False,
                activation_count=None,
                total_unallocated=None,
                wall_time=time.perf_counter() - start,
                allocation=None,
            )
        if found is not None:
            subset = [dashed[i] for i in found]
            alloc = _witness_allocation(inst, subset)
            return SolveResult(
                algorithm="exact",
                status="optimal",
                optimal=True,
                activation_count=k,
                total_unallocated=0,
                wall_time=time.perf_counter() - start,
                allocation=alloc,
            )
        if deadline is not None and time.perf_counter() > deadline:
            return SolveResult(
                algorithm="exact",
                status="time_limit",
                optimal=False,
                activation_count=None,
                total_unallocated=None,
                wall_time=time.perf_counter() - start,
                allocation=None,
            )
    return SolveResult(
        algorithm="exact",
        status="budget_exceeded",
        optimal=False,
        activation_count=None,
        total_unallocated=None,
        wall_time=time.perf_counter() - start,
        allocation=None,
    )


def _witness_allocation(inst: Instance, subset: list[tuple[int, int]]) -> Allocation:
    net = build_network(inst, subset)
    res = max_flow(net)
    fu, fa, fx = [], [], []
    for aid, u, a, _is_d in net.edge_arcs:
        f = int(res.arc_flows[aid])
        if f > 0:
            fu.append(u); fa.append(a); fx.append(f)
    au = [u for u, _a in subset]
    aa = [a for _u, a in subset]
    return Allocation(inst.user_ids, fu, fa, fx, au, aa)


def _preinstalled_sets(inst: Instance, demand: list[int]) -> tuple[list[tuple], list[list[int]]]:
    """Distinct non-empty preinstalled app sets, in order of first use, and
    the users holding each, sorted by demand, then index."""
    indptr = inst.pre_indptr.tolist()
    pre = inst.pre_indices.tolist()
    index: dict[tuple, int] = {}
    members: list[list[int]] = []
    for u in range(inst.num_users):
        lo, hi = indptr[u], indptr[u + 1]
        if lo < hi:
            c = index.setdefault(tuple(pre[lo:hi]), len(members))
            if c == len(members):
                members.append([])
            members[c].append(u)
    for users in members:
        users.sort(key=demand.__getitem__)
    return list(index), members


def _greedy_preinstalled_flow(
    inst: Instance, sets: list[tuple], members: list[list[int]], demand: list[int]
) -> tuple[Fraction, list[list[list[int]]]]:
    """Sum over demand levels d of (F_d - F_d-) / d, and the final flow as
    [app, amount] pairs per set.

    One network has a node per preinstalled set, arcs only to its apps
    and the app caps into the sink.  Each demand level d, ascending, adds
    the demand of the users at exactly d to their sets' source arcs; the
    flow it gains is F_d - F_d-.  Source capacities only grow, so each
    level starts from the max-flow left by the one before.
    """
    net = build_network(Instance(
        inst.num_apps,
        inst.capacities,
        ["s%d" % c for c in range(len(sets))],
        [sum(demand[u] for u in users) for users in members],
        [0] + list(itertools.accumulate(len(apps) for apps in sets)),
        [a for apps in sets for a in apps],
    ))
    raise_at: dict[int, dict[int, int]] = {}
    for c, users in enumerate(members):
        for u in users:
            step = raise_at.setdefault(demand[u], {})
            step[c] = step.get(c, 0) + demand[u]
    # residual capacities stay a list between Dinic calls; the source's
    # arcs lead to the sets in order and start empty
    cap = net.arc_cap.tolist()
    source = net.adj_arcs[net.adj_indptr[net.source] : net.adj_indptr[net.source + 1]].tolist()
    for s in source:
        cap[s] = 0
    into_sink = {int(net.arc_to[r]): int(r) ^ 1 for r in net.adj_arcs[net.adj_indptr[net.sink] :]}
    direct: list[list[tuple[int, int]]] = [[] for _ in sets]
    for aid, c, a, _is_d in net.edge_arcs:
        direct[c].append((aid, into_sink[net.app_node(a)]))

    freed = Fraction(0)
    for d in sorted(raise_at):
        # push the new demand along source -> set -> app -> sink first; only
        # what does not fit that way needs Dinic, which can reroute
        gained = short = 0
        for c, amount in raise_at[d].items():
            s = source[c]
            cap[s] += amount
            for e, t in direct[c]:
                x = min(amount, cap[t])
                if x:
                    for arc in (s, e, t):
                        cap[arc] -= x
                        cap[arc ^ 1] += x
                    gained += x
                    amount -= x
                    if not amount:
                        break
            short += amount
        if short:
            net.arc_cap[:] = cap
            gained += int(_kernels.dinic_kernel(
                net.num_nodes,
                net.arc_to,
                net.arc_cap,
                net.adj_indptr,
                net.adj_arcs,
                net.source,
                net.sink,
            ))
            cap = net.arc_cap.tolist()
        if gained:
            freed += Fraction(gained, d)

    set_flows: list[list[list[int]]] = [[] for _ in sets]
    base = net.base_cap.tolist()
    for aid, c, a, _is_d in net.edge_arcs:
        if base[aid] > cap[aid]:
            set_flows[c].append([a, base[aid] - cap[aid]])
    return freed, set_flows


def lp_lower_bound(inst: Instance) -> SolveResult:
    """Fractional-activation lower bound and a routing that attains it.

    Over all routings of the full demand with every dashed edge present,
    minimises the sum of (flow on dashed edge) / (owning user's demand).
    Every user reaches every app, so once caps cover demand this equals
    n - max sum_u s_u / d_u over the amounts s_u the users can route on
    preinstalled edges together.  Those s form a polymatroid and each
    weight 1 / d_u belongs to one user, so the greedy over ascending
    demands is optimal: with F_d the max preinstalled-only flow of the
    users with demand at most d, the bound is n - sum_d (F_d - F_d-) / d,
    d- the next smaller demand present.  activation_count is that exact
    Fraction.

    The routing spreads each preinstalled set's flow over its users,
    smallest demand first, then puts what is left of each user's demand
    onto apps with spare capacity.  None of those is preinstalled for
    that user: a user with demand left over has its set's apps saturated,
    or the max-flow would have used them.
    """
    start = time.perf_counter()
    total_cap = int(inst.capacities.sum())
    if inst.total_demand > total_cap:
        raise GloballyInfeasibleError(inst.total_demand, total_cap)
    demand = inst.demands.tolist()
    sets, members = _preinstalled_sets(inst, demand)
    freed, set_flows = _greedy_preinstalled_flow(inst, sets, members, demand)

    fu, fa, fx = [], [], []
    left = demand[:]
    for users, flows in zip(members, set_flows):
        i = 0
        for u in users:
            need = demand[u]
            while need and i < len(flows):
                a, f = flows[i]
                x = min(need, f)
                fu.append(u); fa.append(a); fx.append(x)
                need -= x
                if x == f:
                    i += 1
                else:
                    flows[i][1] = f - x
            left[u] = need
    spare = inst.capacities.tolist()
    for a, x in zip(fa, fx):
        spare[a] -= x
    au, aa = [], []
    a = 0
    for u, need in enumerate(left):
        while need:
            while not spare[a]:
                a += 1
            x = min(need, spare[a])
            fu.append(u); fa.append(a); fx.append(x)
            au.append(u); aa.append(a)
            spare[a] -= x
            need -= x
    return SolveResult(
        algorithm="lp",
        status="bound",
        optimal=False,
        activation_count=inst.num_users - freed,
        total_unallocated=0,
        wall_time=time.perf_counter() - start,
        allocation=Allocation(inst.user_ids, fu, fa, fx, au, aa),
    )


_NAME_RE = re.compile(r"[^A-Za-z0-9_]")


def _var_name(prefix: str, uid: str, app: int) -> str:
    return "%s_%s_%d" % (prefix, _NAME_RE.sub("_", uid), app)


def _wrap_terms(label: str, terms: list[str], tail: str) -> list[str]:
    lines = []
    current = " %s: %s" % (label, terms[0])
    for term in terms[1:]:
        piece = " + " + term
        if len(current) + len(piece) > 200:
            lines.append(current)
            current = "   + " + term
        else:
            current += piece
    lines.append(current + tail)
    return lines


def export_milp(inst: Instance, path) -> None:
    """Write the activation-minimisation model in LP text format.

    Flow variables f_<user>_<app> exist for every user/app pair; binary
    x_<user>_<app> variables exist for dashed pairs only, linked by
    f <= demand * x.  Row names: R_user_<id>, R_cap_<a>, R_act_<u>_<a>.
    Any MILP solver reading LP files can cross-check exact_solve.
    """
    n = inst.num_users
    m = inst.num_apps
    solid = [set(int(a) for a in inst.preinstalled_of(u)) for u in range(n)]

    lines = ["\\ activation minimization model", "Minimize"]
    obj_terms = []
    for u in range(n):
        for a in range(m):
            if a not in solid[u]:
                obj_terms.append(_var_name("x", inst.user_ids[u], a))
    if obj_terms:
        lines.extend(_wrap_terms("obj", obj_terms, ""))
    else:
        lines.append(" obj: 0 %s" % _var_name("f", inst.user_ids[0], 0))

    lines.append("Subject To")
    for u in range(n):
        terms = [_var_name("f", inst.user_ids[u], a) for a in range(m)]
        label = "R_user_%s" % _NAME_RE.sub("_", inst.user_ids[u])
        lines.extend(_wrap_terms(label, terms, " = %d" % int(inst.demands[u])))
    for a in range(m):
        terms = [_var_name("f", inst.user_ids[u], a) for u in range(n)]
        lines.extend(_wrap_terms("R_cap_%d" % a, terms, " <= %d" % int(inst.capacities[a])))
    for u in range(n):
        demand = int(inst.demands[u])
        for a in range(m):
            if a not in solid[u]:
                f = _var_name("f", inst.user_ids[u], a)
                x = _var_name("x", inst.user_ids[u], a)
                label = "R_act_%s_%d" % (_NAME_RE.sub("_", inst.user_ids[u]), a)
                lines.append(" %s: %s - %d %s <= 0" % (label, f, demand, x))

    lines.append("Bounds")
    for term in obj_terms:
        lines.append(" 0 <= %s <= 1" % term)

    lines.append("Generals")
    f_names = [
        _var_name("f", inst.user_ids[u], a) for u in range(n) for a in range(m)
    ]
    for i in range(0, len(f_names), 12):
        lines.append(" " + " ".join(f_names[i : i + 12]))
    if obj_terms:
        lines.append("Binaries")
        for i in range(0, len(obj_terms), 12):
            lines.append(" " + " ".join(obj_terms[i : i + 12]))
    lines.append("End")

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def check_3partition(items, B: int) -> bool:
    """Decide 3-Partition by solving the equivalent activation instance.

    items must contain 3m values strictly between B/4 and B/2 summing to
    m*B.  The answer is True exactly when the derived instance is solvable
    with 3m activations (one app install per user).
    """
    from .synth import reduce_3partition

    inst, budget = reduce_3partition(items, B)
    res = exact_solve(inst, ExactConfig(max_budget=budget, prune=True))
    return res.status == "optimal" and res.activation_count == budget
