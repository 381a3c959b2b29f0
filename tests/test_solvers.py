from __future__ import annotations

import hashlib
import re
from fractions import Fraction

import numpy as np
import pytest

from meaf import _kernels, solvers
from meaf import (
    ExactConfig,
    GenConfig,
    GloballyInfeasibleError,
    Instance,
    carl,
    check_3partition,
    dashed_edges,
    dtas,
    exact_solve,
    export_milp,
    generate,
    lp_lower_bound,
    reduce_3partition,
    verify_allocation,
)
from meaf.flowcore import build_network, min_cost_max_flow

import _oracles


def _inst(num_apps, caps, users):
    return Instance.from_users(num_apps, caps, users)


# ---------------------------------------------------------------- exact


def test_exact_zero_when_solid_suffices():
    inst = _inst(2, [3, 3], [("u0", 2, [0]), ("u1", 3, [1])])
    res = exact_solve(inst)
    assert res.status == "optimal"
    assert res.optimal is True
    assert res.activation_count == 0
    assert res.allocation.activated == set()


def test_exact_reduction_needs_one_edge_per_user():
    inst, budget = reduce_3partition([1, 1, 1], B=3)
    res = exact_solve(inst, ExactConfig(max_budget=budget))
    assert res.activation_count == 3
    oracle = _oracles.brute_min_activations(inst)
    assert oracle is not None and oracle[0] == 3


def test_exact_shared_app_overflows_to_second():
    inst = _inst(2, [2, 2], [("u1", 2, [0]), ("u2", 2, [0])])
    res = exact_solve(inst)
    assert res.activation_count == 1
    oracle = _oracles.brute_min_activations(inst)
    assert oracle is not None and oracle[0] == 1
    # lexicographically first witness: the first user takes the edge
    assert res.allocation.activated == {("u1", 1)}


def test_exact_witness_passes_verification():
    rng = np.random.RandomState(31337)
    seen = 0
    while seen < 40:
        inst = _oracles.random_tiny_instance(rng)
        if inst.total_demand > int(inst.capacities.sum()):
            continue
        try:
            res = exact_solve(inst)
        except GloballyInfeasibleError:  # pragma: no cover - filtered above
            continue
        if res.status != "optimal":
            continue
        seen += 1
        report = verify_allocation(inst, res.allocation)
        assert report.ok, report.violations
        assert len(res.allocation.activated) == res.activation_count


def test_exact_agrees_with_power_set_search():
    rng = np.random.RandomState(4242)
    agreements = 0
    for _ in range(150):
        inst = _oracles.random_tiny_instance(rng, max_users=4, max_apps=3,
                                             max_t=3, max_cap=4)
        oracle = _oracles.brute_min_activations(inst)
        if inst.total_demand > int(inst.capacities.sum()):
            with pytest.raises(GloballyInfeasibleError):
                exact_solve(inst)
            assert oracle is None
            continue
        res = exact_solve(inst)
        if oracle is None:
            # caps cover the total but some split still fails: impossible
            # once every edge is present, so the solver must have found a set
            assert res.status != "optimal"
        else:
            assert res.status == "optimal"
            assert res.activation_count == oracle[0]
            agreements += 1
    assert agreements > 50


def test_exact_prune_toggle_same_answer():
    rng = np.random.RandomState(7)
    for _ in range(40):
        inst = _oracles.random_tiny_instance(rng, max_users=4, max_apps=3,
                                             max_t=3, max_cap=5)
        if inst.total_demand > int(inst.capacities.sum()):
            continue
        pruned = exact_solve(inst, ExactConfig(prune=True))
        plain = exact_solve(inst, ExactConfig(prune=False))
        assert pruned.status == plain.status
        assert pruned.activation_count == plain.activation_count
        if pruned.status == "optimal":
            assert pruned.allocation.activated == plain.allocation.activated


def test_exact_budget_exceeded_status():
    inst, _budget = reduce_3partition([1, 1, 1], B=3)
    res = exact_solve(inst, ExactConfig(max_budget=2))
    assert res.status == "budget_exceeded"
    assert res.optimal is False
    assert res.activation_count is None
    assert res.allocation is None


def test_exact_time_limit_status():
    inst, budget = reduce_3partition([1, 1, 1], B=3)
    res = exact_solve(inst, ExactConfig(max_budget=budget, time_limit=0.0, prune=False))
    assert res.status == "time_limit"
    assert res.optimal is False
    assert res.activation_count is None


def test_exact_config_validation():
    inst = _inst(2, [2, 2], [("u1", 2, [0]), ("u2", 2, [0])])
    with pytest.raises(ValueError, match="non-negative"):
        exact_solve(inst, ExactConfig(max_budget=-1))
    with pytest.raises(ValueError, match="exceeds the number of dashed edges"):
        exact_solve(inst, ExactConfig(max_budget=3))  # only 2 dashed pairs exist


def test_exact_globally_infeasible():
    inst = _inst(1, [2], [("u0", 3, [0])])
    with pytest.raises(GloballyInfeasibleError, match="demand 3 exceeds total capacity 2"):
        exact_solve(inst)


# -------------------------------------------------------- exact leaves


def _dinic_searcher(inst, monkeypatch):
    """A searcher whose leaves run a max-flow, whatever the instance size."""
    with monkeypatch.context() as patch:
        patch.setattr(solvers, "CUT_ORACLE_ARC_FACTOR", 0)
        searcher = solvers._SubsetSearcher(inst, solvers._dashed_index_pairs(inst))
    assert searcher.oracle is None
    return searcher


def _assert_oracle_matches_dinic(inst, rng, monkeypatch, steps):
    """Walk random edge toggles; after each one the two decisions agree."""
    searcher = _dinic_searcher(inst, monkeypatch)
    oracle = solvers._CutOracle(inst)
    dashed = searcher.dashed
    chosen = set()
    yes = 0
    for step in range(steps + 1):
        if step and dashed:
            idx = int(rng.randint(len(dashed)))
            chosen ^= {idx}
            oracle.toggle(*dashed[idx])
        verdict = oracle.holds()
        assert verdict == searcher._leaf_feasible(sorted(chosen)), (inst, sorted(chosen))
        yes += verdict
    return yes


def test_cut_oracle_decides_leaves_like_dinic(monkeypatch):
    rng = np.random.RandomState(60606)
    leaves = yes = 0
    for _ in range(2500):
        inst = _oracles.random_tiny_instance(rng, max_users=6, max_apps=4,
                                             max_t=5, max_cap=9)
        yes += _assert_oracle_matches_dinic(inst, rng, monkeypatch, steps=4)
        leaves += 5
    assert 0 < yes < leaves  # both verdicts exercised


def test_cut_oracle_matches_dinic_where_dinic_is_selected(monkeypatch):
    # one or two users over eight or nine apps: m * 2^m exceeds the
    # factor times the arc count, so the search itself runs max-flows
    rng = np.random.RandomState(8080)
    for _ in range(12):
        m = int(rng.randint(8, 10))
        users = [("u%d" % u, int(rng.randint(1, 10)),
                  [a for a in range(m) if rng.randint(3) == 0])
                 for u in range(int(rng.randint(1, 3)))]
        inst = _inst(m, [int(rng.randint(0, 6)) for _ in range(m)], users)
        searcher = solvers._SubsetSearcher(inst, solvers._dashed_index_pairs(inst))
        assert searcher.oracle is None
        _assert_oracle_matches_dinic(inst, rng, monkeypatch, steps=20)


def _count_max_flows(monkeypatch):
    calls = []
    kernel = _kernels.dinic_kernel

    def counted(*args):
        calls.append(1)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "dinic_kernel", counted)
    return calls


def test_exact_dinic_leaves_on_many_apps(monkeypatch):
    calls = _count_max_flows(monkeypatch)
    inst = _inst(9, [2] * 9, [("u0", 5, [0])])
    res = exact_solve(inst, ExactConfig(prune=False))
    assert res.activation_count == 2
    assert res.allocation.activated == {("u0", 1), ("u0", 2)}
    assert len(calls) > 2  # leaves decided by max-flow, plus the witness


# The nine fixed 3-Partition gadgets of the benchmark (B = 40) and the
# SHA-256 of exact_solve's canonical JSON for each, as computed when every
# leaf ran a max-flow: the oracle must reproduce them byte for byte.
GADGET_ANSWERS = [
    ([12, 17, 13, 12, 11, 16, 13, 12, 14], 9,
     "53e897db945647c74e2b70d1342c0451c1e26fa6f529f446e6e66a8da7d98cdd"),
    ([12, 14, 14, 12, 12, 16, 13, 12, 15], 9,
     "043c1aa1dc04e585f98d0e967f2ecd225959bd9e3f18f1508f49f26cd9cd5183"),
    ([14, 16, 15, 11, 12, 12, 16, 13, 11], 9,
     "0cb6cbb87eb18d874b632b2db27bee98a28988a764be511dc1854fd0c141ab58"),
    ([13, 14, 16, 13, 15, 11, 12, 14, 12], 9,
     "698f45188926cd86d56200052f74fa7aab1fb663c9ae72128acb44b93487f152"),
    ([13, 11, 11, 18, 11, 11, 12, 18, 15], 9,
     "303c68a5fd7b8c8d200c709be296c3afd3ec77d380f861371264a7a0370dcb4f"),
    ([17, 14, 16, 12, 12, 11, 13, 11, 14], 9,
     "14cdc82234e2250d1ac7dc4a7e57c89b8e743fa97349482f90d12a79d3a466e8"),
    ([11, 13, 13, 16, 11, 13, 12, 16, 15], 9,
     "fcb9a201e51c3737595b2fc6e43426a7f5fd96385c8c84c024dc2317e0e6783f"),
    ([15, 12, 11, 17, 15, 17, 11, 11, 11], 10,
     "4fb0db714d44f05fccf80f96f8b41bf064e3cc175f44806018ed44530358d781"),
    ([12, 12, 12, 12, 17, 11, 13, 18, 13], 10,
     "1aac8f92d595b7e69196bf5c55c1c6cd9ba5a6fc708bfa7fb4d9503ef6a04fc8"),
]


@pytest.mark.parametrize("items, count, digest", GADGET_ANSWERS,
                         ids=["gadget%d" % k for k in range(len(GADGET_ANSWERS))])
def test_exact_gadget_answers_unchanged(items, count, digest):
    inst, _budget = reduce_3partition(items, 40)
    res = exact_solve(inst)
    assert res.activation_count == count
    assert hashlib.sha256(res.canonical_json().encode()).hexdigest() == digest


def test_exact_no_gadget_runs_one_max_flow(monkeypatch):
    # a "no" gadget visits every 9-subset leaf; none may reach a max-flow
    items = GADGET_ANSWERS[7][0]
    inst, budget = reduce_3partition(items, 40)
    calls = _count_max_flows(monkeypatch)
    assert exact_solve(inst).activation_count == budget + 1
    assert len(calls) == 1  # the witness allocation
    calls.clear()
    res = exact_solve(inst, ExactConfig(max_budget=budget))
    assert res.status == "budget_exceeded"
    assert calls == []  # no witness, no max-flow


# ------------------------------------------------------------------- lp


def test_lp_zero_when_solid_suffices():
    inst = _inst(2, [3, 3], [("u0", 2, [0]), ("u1", 3, [1])])
    res = lp_lower_bound(inst)
    assert res.status == "bound"
    assert res.activation_count == 0


def test_lp_fractional_bound_below_exact():
    inst = _inst(2, [2, 2], [("u0", 4, [])])
    lp = lp_lower_bound(inst)
    assert lp.activation_count == Fraction(1)
    assert isinstance(lp.activation_count, Fraction)
    exact = exact_solve(inst)
    assert exact.activation_count == 2
    assert lp.activation_count < exact.activation_count
    # independent route: smallest relaxed objective over all full flows
    assert _oracles.min_relaxation_over_flows(inst) == Fraction(1)


def test_lp_matches_flow_enumeration():
    rng = np.random.RandomState(616)
    checked = 0
    for _ in range(60):
        inst = _oracles.random_tiny_instance(rng, max_users=3, max_apps=3,
                                             max_t=3, max_cap=4)
        want = _oracles.min_relaxation_over_flows(inst)
        if inst.total_demand > int(inst.capacities.sum()):
            assert want is None
            with pytest.raises(GloballyInfeasibleError):
                lp_lower_bound(inst)
            continue
        assert want is not None  # caps cover demand and every edge is present
        got = lp_lower_bound(inst)
        assert got.activation_count == want
        checked += 1
    assert checked >= 25


def test_lp_witness_is_a_valid_allocation():
    rng = np.random.RandomState(929)
    for _ in range(30):
        inst = _oracles.random_tiny_instance(rng)
        if inst.total_demand > int(inst.capacities.sum()):
            continue
        res = lp_lower_bound(inst)
        report = verify_allocation(inst, res.allocation)
        assert report.ok, report.violations


def _min_cost_bound(inst):
    """The relaxation by the rational min-cost max-flow, an independent oracle."""
    res = min_cost_max_flow(build_network(inst, list(dashed_edges(inst)), activation_costs=True))
    assert res.value == inst.total_demand
    return res.cost


def _assert_attains(inst, res):
    """The witness is a verified full routing whose relaxed objective is the bound."""
    report = verify_allocation(inst, res.allocation)
    assert report.ok, report.violations
    solid = set(inst.solid_key_array().tolist())
    a = res.allocation
    objective = sum(
        (Fraction(x, int(inst.demands[u]))
         for u, app, x in zip(a.flow_user.tolist(), a.flow_app.tolist(), a.flow_amount.tolist())
         if u * inst.num_apps + app not in solid),
        Fraction(0),
    )
    assert objective == res.activation_count


def _parity_instances():
    rng = np.random.RandomState(2718)
    for _ in range(150):
        yield _oracles.random_tiny_instance(rng, max_users=6, max_apps=4, max_t=6, max_cap=12)
    for _ in range(150):
        n = int(rng.randint(1, 41))
        m = int(rng.randint(2, 7))
        yield generate(GenConfig(
            num_users=n,
            num_transactions=int(rng.randint(n, 10 * n + 1)),
            num_apps=m,
            alpha=float(rng.uniform(1.0 / m, 0.9)),
            seed=int(rng.randint(0, 2**31)),
        ))


def test_lp_matches_min_cost_flow_and_attains_the_bound():
    checked = 0
    for inst in _parity_instances():
        if inst.total_demand > int(inst.capacities.sum()):
            continue
        res = lp_lower_bound(inst)
        assert res.activation_count == _min_cost_bound(inst)
        _assert_attains(inst, res)
        checked += 1
    assert checked >= 200


def test_lp_certify_instance_pinned():
    # the 1,000-user instance of the benchmark's certify workload, seed 1;
    # the rational min-cost flow gives exactly this value
    inst = generate(GenConfig(num_users=1000, num_transactions=20000, num_apps=15,
                              alpha=0.08, seed=1))
    res = lp_lower_bound(inst)
    assert res.activation_count == Fraction(37264, 583)
    _assert_attains(inst, res)


def test_lp_more_apps_than_a_machine_word():
    inst = generate(GenConfig(num_users=60, num_transactions=600, num_apps=70,
                              alpha=0.02, seed=3))
    assert int(inst.pre_indices.max()) >= 64
    res = lp_lower_bound(inst)
    assert res.activation_count == _min_cost_bound(inst)
    _assert_attains(inst, res)


def test_lp_max_flows_per_demand_level(monkeypatch):
    calls = _count_max_flows(monkeypatch)
    # nobody has a preinstalled app: nothing to route, no max-flow
    inst, _budget = reduce_3partition(GADGET_ANSWERS[7][0], 40)
    assert lp_lower_bound(inst).activation_count == inst.num_users
    assert calls == []
    # each demand level fits straight into its apps: no max-flow either
    inst = _inst(2, [3, 3], [("u0", 2, [0]), ("u1", 3, [1])])
    assert lp_lower_bound(inst).activation_count == 0
    assert calls == []
    # u1 only fits if u0 moves to app 1: one max-flow reroutes it
    inst = _inst(2, [2, 2], [("u0", 2, [0, 1]), ("u1", 2, [0])])
    assert lp_lower_bound(inst).activation_count == 0
    assert len(calls) == 1
    calls.clear()
    inst = generate(GenConfig(num_users=200, num_transactions=3000, num_apps=6,
                              alpha=0.2, seed=5))
    lp_lower_bound(inst)
    assert 0 < len(calls) <= len(set(inst.demands.tolist()))


def test_sandwich_on_generated_instances():
    rng = np.random.RandomState(777)
    gaps = []
    for _ in range(40):
        n = int(rng.randint(2, 13))
        m = int(rng.randint(2, 5))
        cfg = GenConfig(
            num_users=n,
            num_transactions=int(rng.randint(n, 6 * n + 1)),
            num_apps=m,
            alpha=float(rng.uniform(1.0 / m, 0.9)),
            seed=int(rng.randint(0, 2**31)),
        )
        inst = generate(cfg)
        lp = lp_lower_bound(inst).activation_count
        exact = exact_solve(inst).activation_count
        assert lp <= exact
        for heur in (carl(inst), carl(inst, order="descending"), dtas(inst)):
            assert heur.total_unallocated == 0
            assert exact <= heur.activation_count
        gaps.append(exact - lp)
    assert max(gaps) < Fraction(3, 2)


# ------------------------------------------------------------ export_milp


def test_export_single_user_trivial(tmp_path):
    inst = _inst(1, [2], [("u0", 2, [0])])
    path = tmp_path / "trivial.lp"
    export_milp(inst, path)
    text = path.read_text()
    assert text.split("\n")[0] == "\\ activation minimization model"
    assert " obj: 0 f_u0_0" in text  # no dashed pair, constant objective
    assert text.count("R_user_") == 1
    assert text.count("R_cap_") == 1
    assert "x_" not in text
    assert text.endswith("End\n")


def test_export_two_by_two_objective(tmp_path):
    inst = _inst(2, [2, 2], [("u1", 2, [0]), ("u2", 2, [0])])
    path = tmp_path / "pair.lp"
    export_milp(inst, path)
    text = path.read_text()
    assert " obj: x_u1_1 + x_u2_1" in text
    assert " R_user_u1: f_u1_0 + f_u1_1 = 2" in text
    assert " R_cap_0: f_u1_0 + f_u2_0 <= 2" in text
    assert " R_act_u1_1: f_u1_1 - 2 x_u1_1 <= 0" in text
    for section in ("Minimize", "Subject To", "Bounds", "Generals", "Binaries", "End"):
        assert section in text
    assert "\r" not in text


def test_export_reduction_parse_back(tmp_path):
    inst, _budget = reduce_3partition([1, 1, 1], B=3)
    path = tmp_path / "reduction.lp"
    export_milp(inst, path)
    text = path.read_text()
    assert len(set(re.findall(r"\bx_\w+", text))) == 3
    act_rows = re.findall(r"R_act_\w+: (f_\w+) - (\d+) (x_\w+) <= 0", text)
    assert len(act_rows) == 3
    assert all(coef == "1" for _f, coef, _x in act_rows)  # slack bound = demand
    assert len(re.findall(r"R_user_", text)) == 3
    assert len(re.findall(r"R_cap_", text)) == 1


# -------------------------------------------------------- check_3partition


def test_3partition_smallest_yes():
    assert check_3partition([1, 1, 1], 3) is True


def test_3partition_two_triple_yes():
    items = [5, 5, 5, 6, 7, 8]
    assert check_3partition(items, 18) is True
    assert _oracles.partition_into_triples(items, 18) is True


def test_3partition_no_case():
    # every triple over {5, 7} sums to 15, 17, 19 or 21, never 16
    items = [5, 5, 5, 5, 5, 7]
    assert _oracles.partition_into_triples(items, 16) is False
    assert check_3partition(items, 16) is False


def test_3partition_agrees_with_triple_search():
    cases = [
        ([9, 6, 6, 6, 6, 7], 20),  # the 9 fits in no triple
        ([5, 5, 5, 5, 5, 7], 16),
        ([5, 5, 6, 6, 7, 7], 18),
        ([4, 4, 4], 12),
    ]
    rng = np.random.RandomState(2718)
    while len(cases) < 34:
        m = int(rng.randint(1, 3))
        B = int(rng.randint(4, 17))
        lo, hi = B // 4 + 1, (B - 1) // 2
        if lo > hi:
            continue
        items = [int(rng.randint(lo, hi + 1)) for _ in range(3 * m)]
        if sum(items) != m * B:
            continue
        cases.append((items, B))
    yes = no = 0
    for items, B in cases:
        want = _oracles.partition_into_triples(items, B)
        assert check_3partition(items, B) is want
        yes += want
        no += not want
    assert yes and no


def test_3partition_sum_mismatch():
    with pytest.raises(ValueError, match=r"items sum to 15 but m\*B = 2\*7 = 14"):
        check_3partition([2, 2, 2, 3, 3, 3], 7)


def test_3partition_item_out_of_range():
    with pytest.raises(ValueError, match="item 6 violates B/4 < s < B/2 for B=12"):
        check_3partition([6, 3, 3], 12)


def test_3partition_count_not_multiple_of_three():
    with pytest.raises(ValueError, match="multiple of 3"):
        check_3partition([1, 1], 3)
