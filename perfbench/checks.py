"""Output checkers that share no code with meaf.

Each checker recomputes what a correct output must satisfy from the
instance data alone (numpy arrays and plain Python) and raises
CheckFailed with a readable reason when it does not hold.  None of them
imports meaf, so a fault in the package cannot hide itself by also
sitting in the check.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def fail(msg: str) -> None:
    raise CheckFailed(msg)


# -- allocations -----------------------------------------------------------------


def solid_keys(num_apps: int, pre_indptr, pre_indices) -> np.ndarray:
    """Sorted keys u * num_apps + a of every preinstalled edge."""
    indptr = np.asarray(pre_indptr, dtype=np.int64)
    rows = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    return np.sort(rows * num_apps + np.asarray(pre_indices, dtype=np.int64))


def check_allocation(demands, capacities, pre_indptr, pre_indices,
                     flow_user, flow_app, flow_amount, act_user, act_app,
                     un_amount=(), activation_count=None) -> int:
    """Check a full routing; return its number of activations.

    Required: every flow row is a distinct in-range (user, app) pair with
    a positive amount; each user's flows sum to its demand and nothing is
    left unallocated; no app carries more than its cap; every flow on a
    non-preinstalled edge is activated; no activated pair is preinstalled
    or listed twice; the reported activation count matches the set.
    """
    demands = np.asarray(demands, dtype=np.int64)
    caps = np.asarray(capacities, dtype=np.int64)
    n, m = demands.size, caps.size
    fu = np.asarray(flow_user, dtype=np.int64)
    fa = np.asarray(flow_app, dtype=np.int64)
    fx = np.asarray(flow_amount, dtype=np.int64)
    au = np.asarray(act_user, dtype=np.int64)
    aa = np.asarray(act_app, dtype=np.int64)
    if not (fu.shape == fa.shape == fx.shape) or not au.shape == aa.shape:
        fail("flow or activation columns differ in length")
    for name, users, apps in (("flow", fu, fa), ("activation", au, aa)):
        if users.size and (users.min() < 0 or users.max() >= n):
            fail("%s row names an unknown user" % name)
        if apps.size and (apps.min() < 0 or apps.max() >= m):
            fail("%s row names an app out of range" % name)
    if fx.size and fx.min() <= 0:
        fail("flow row with non-positive amount")
    un = np.asarray(un_amount, dtype=np.int64)
    if un.size and un.any():
        fail("%d transactions left unallocated" % int(un.sum()))

    keys = fu * m + fa
    if np.unique(keys).size != keys.size:
        fail("a (user, app) pair has two flow rows")
    routed = np.zeros(n, dtype=np.int64)
    np.add.at(routed, fu, fx)
    short = np.nonzero(routed != demands)[0]
    if short.size:
        u = int(short[0])
        fail("user %d routes %d of demand %d (%d users off)"
             % (u, int(routed[u]), int(demands[u]), short.size))
    load = np.zeros(m, dtype=np.int64)
    np.add.at(load, fa, fx)
    over = np.nonzero(load > caps)[0]
    if over.size:
        a = int(over[0])
        fail("app %d carries %d over its cap %d" % (a, int(load[a]), int(caps[a])))

    solid = solid_keys(m, pre_indptr, pre_indices)
    act = au * m + aa
    act_set = np.unique(act)
    if act_set.size != act.size:
        fail("an activated pair is listed twice")
    if np.isin(act_set, solid).any():
        fail("an activated pair is preinstalled")
    dashed_flow = keys[~np.isin(keys, solid)]
    missing = ~np.isin(dashed_flow, act_set)
    if missing.any():
        k = int(dashed_flow[missing][0])
        fail("flow on (user %d, app %d) without an activation" % (k // m, k % m))
    if activation_count is not None and int(activation_count) != act_set.size:
        fail("reported %s activations, the allocation holds %d"
             % (activation_count, act_set.size))
    return int(act_set.size)


def read_allocation_file(path, user_ids):
    """Parse an allocation JSON file into index columns.

    Returns (flow_user, flow_app, flow_amount, act_user, act_app,
    unallocated amounts); user ids are mapped through user_ids.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    index = {uid: i for i, uid in enumerate(user_ids)}
    try:
        flows = raw["flows"]
        fu = np.fromiter((index[r[0]] for r in flows), dtype=np.int64, count=len(flows))
        fa = np.fromiter((r[1] for r in flows), dtype=np.int64, count=len(flows))
        fx = np.fromiter((r[2] for r in flows), dtype=np.int64, count=len(flows))
        acts = raw["activated"]
        au = np.fromiter((index[r[0]] for r in acts), dtype=np.int64, count=len(acts))
        aa = np.fromiter((r[1] for r in acts), dtype=np.int64, count=len(acts))
        un = [int(x) for x in raw["unallocated"].values()]
    except KeyError as exc:
        fail("allocation file names an unknown user or lacks a field: %s" % exc)
    return fu, fa, fx, au, aa, un


# -- preinstalled-only greedy (tail drop) -----------------------------------------


def preinstalled_only_drop(demands, capacities, pre_indptr, pre_indices) -> tuple[int, int]:
    """(users left short, transactions left short) of the preinstalled-only greedy.

    Users go in input order; each drains its preinstalled app with the
    most remaining capacity (lowest id on ties) until its demand is met
    or its apps are full.
    """
    rc = [int(c) for c in capacities]
    dem = np.asarray(demands).tolist()
    ptr = np.asarray(pre_indptr).tolist()
    idx = np.asarray(pre_indices).tolist()
    users_short = total_short = 0
    for u, need in enumerate(dem):
        apps = idx[ptr[u]:ptr[u + 1]]
        while need:
            best = max(apps, key=lambda a: (rc[a], -a), default=None)
            if best is None or rc[best] == 0:
                break
            take = min(need, rc[best])
            rc[best] -= take
            need -= take
        if need:
            users_short += 1
            total_short += need
    return users_short, total_short


def check_tail_drop(points, demands, pre_indptr, pre_indices, num_apps, alphas) -> None:
    """Each point must match the greedy under caps ceil(alpha * total demand)."""
    if len(points) != len(alphas):
        fail("tail drop returned %d points for %d fractions" % (len(points), len(alphas)))
    total = int(np.asarray(demands, dtype=np.int64).sum())
    n = len(demands)
    for point, alpha in zip(points, alphas):
        caps = [math.ceil(alpha * total)] * num_apps
        users, short = preinstalled_only_drop(demands, caps, pre_indptr, pre_indices)
        got = (point.users_unsatisfied, point.unallocated)
        if got != (users, short):
            fail("tail drop at %g: got %s, greedy gives %s" % (alpha, got, (users, short)))
        if abs(point.users_unsatisfied_pct - 100.0 * users / n) > 1e-9:
            fail("tail drop at %g: wrong percentage" % alpha)


def inverse_gini(loads) -> Fraction:
    """1 - mean absolute pairwise difference / (2 * mean), exactly."""
    xs = [int(x) for x in loads]
    n, total = len(xs), sum(xs)
    pairs = sum(abs(a - b) for a in xs for b in xs)
    return 1 - Fraction(pairs, 2 * n * total)


# -- tiny instances: brute force over cuts ----------------------------------------


def routable(demands, capacities, masks) -> bool:
    """Full demand routes iff every app set covers the users confined to it.

    masks[u] is the bit set of apps user u may use.  By max-flow/min-cut
    the routing exists exactly when, for every set S of apps, the users
    whose apps all lie in S demand at most the caps of S.
    """
    m = len(capacities)
    for s in range(1 << m):
        cap = sum(capacities[a] for a in range(m) if s >> a & 1)
        need = sum(d for d, mask in zip(demands, masks) if mask & ~s == 0)
        if need > cap:
            return False
    return True


def brute_force_optimum(demands, capacities, preinstalled) -> int:
    """Fewest activations that make the full demand routable."""
    m = len(capacities)
    base = [sum(1 << a for a in pre) for pre in preinstalled]
    dashed = [(u, a) for u, mask in enumerate(base) for a in range(m) if not mask >> a & 1]
    for k in range(len(dashed) + 1):
        for chosen in itertools.combinations(dashed, k):
            masks = list(base)
            for u, a in chosen:
                masks[u] |= 1 << a
            if routable(demands, capacities, masks):
                return k
    fail("no activation set routes the demand")


def check_tiny(optimum, brute, bound, heuristic_counts) -> None:
    """optimum == brute force, bound <= optimum <= every heuristic count."""
    if optimum != brute:
        fail("exact optimum %s, brute force over cuts gives %d" % (optimum, brute))
    if bound > optimum:
        fail("lower bound %s exceeds the optimum %d" % (bound, optimum))
    for count in heuristic_counts:
        if count < optimum:
            fail("heuristic count %d is below the optimum %d" % (count, optimum))


# -- 3-Partition gadgets -----------------------------------------------------------


def has_triple_partition(items, B: int) -> bool:
    """Direct search for a split of items into triples each summing to B."""
    def split(rest):
        if not rest:
            return True
        first, others = rest[0], rest[1:]
        for i, j in itertools.combinations(range(len(others)), 2):
            if first + others[i] + others[j] == B:
                left = [x for k, x in enumerate(others) if k not in (i, j)]
                if split(left):
                    return True
        return False

    return split(sorted(items))


def check_gadget(optimum, items, B: int) -> None:
    """The optimum is one activation per item exactly on yes-instances."""
    yes = has_triple_partition(items, B)
    if (optimum == len(items)) != yes:
        fail("gadget %s/B=%d: optimum %s but triple search says %s"
             % (items, B, optimum, "yes" if yes else "no"))


# -- relaxation bound ----------------------------------------------------------------


def relaxed_objective(demands, pre_indptr, pre_indices, num_apps,
                      flow_user, flow_app, flow_amount) -> Fraction:
    """Sum over non-preinstalled flows of amount / the user's demand."""
    solid = set(solid_keys(num_apps, pre_indptr, pre_indices).tolist())
    total = Fraction(0)
    for u, a, x in zip(np.asarray(flow_user).tolist(), np.asarray(flow_app).tolist(),
                       np.asarray(flow_amount).tolist()):
        if u * num_apps + a not in solid:
            total += Fraction(x, int(demands[u]))
    return total


def check_bound(bound, recomputed: Fraction, heuristic_counts) -> None:
    """The bound equals its routing's objective and is <= each heuristic count."""
    if bound != recomputed:
        fail("bound %s differs from its routing's objective %s" % (bound, recomputed))
    for count in heuristic_counts:
        if bound > count:
            fail("bound %s exceeds heuristic count %d" % (bound, count))
