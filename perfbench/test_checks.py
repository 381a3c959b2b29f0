"""The benchmark's checkers accept correct outputs and reject broken ones.

Run with: python3 -m pytest perfbench -q
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from meaf import GenConfig, carl, dtas, exact_solve, generate, lp_lower_bound, tail_drop_eval  # noqa: E402

# two users, two apps with caps 3 and 2; u0 (demand 3) has app 0,
# u1 (demand 2) has nothing preinstalled
DEMANDS = [3, 2]
CAPS = [3, 2]
INDPTR = [0, 1, 1]
INDICES = [0]
# u0 -> app 0: 3, u1 -> app 1: 2 (activated)
GOOD = dict(flow_user=[0, 1], flow_app=[0, 1], flow_amount=[3, 2], act_user=[1], act_app=[1])


def check(**changes):
    cols = dict(GOOD, **changes)
    return checks.check_allocation(DEMANDS, CAPS, INDPTR, INDICES, **cols)


def test_allocation_accepts_a_full_routing():
    assert check() == 1
    assert check(activation_count=1) == 1


@pytest.mark.parametrize("changes, reason", [
    # one of u1's transactions moved onto app 0, which is already full
    (dict(flow_user=[0, 1, 1], flow_app=[0, 1, 0], flow_amount=[3, 1, 1],
          act_user=[1, 1], act_app=[1, 0]), "over its cap"),
    (dict(act_user=[], act_app=[]), "without an activation"),
    (dict(flow_amount=[3, 1]), "routes 1 of demand 2"),
    (dict(act_user=[1, 0], act_app=[1, 0]), "preinstalled"),
    (dict(act_user=[1, 1], act_app=[1, 1]), "listed twice"),
    (dict(activation_count=2), "reported 2"),
    (dict(flow_user=[0, 1, 1], flow_app=[0, 1, 1], flow_amount=[3, 1, 1]), "two flow rows"),
    (dict(un_amount=[1]), "unallocated"),
])
def test_allocation_rejects_broken_routings(changes, reason):
    with pytest.raises(CheckFailed, match=reason):
        check(**changes)


def test_allocation_file_is_read_back_and_checked(tmp_path):
    path = tmp_path / "allocation.json"
    good = {"flows": [["a", 0, 3], ["b", 1, 2]], "activated": [["b", 1]], "unallocated": {}}
    path.write_text(json.dumps(good))
    cols = checks.read_allocation_file(path, ["a", "b"])
    assert checks.check_allocation(DEMANDS, CAPS, INDPTR, INDICES, *cols) == 1
    moved = dict(good, flows=[["a", 0, 3], ["b", 1, 1], ["b", 0, 1]], activated=[["b", 1], ["b", 0]])
    path.write_text(json.dumps(moved))
    cols = checks.read_allocation_file(path, ["a", "b"])
    with pytest.raises(CheckFailed, match="over its cap"):
        checks.check_allocation(DEMANDS, CAPS, INDPTR, INDICES, *cols)


def test_program_heuristics_pass_the_allocation_check():
    inst = generate(GenConfig(num_users=300, num_transactions=6000, num_apps=15, alpha=0.08, seed=5))
    for res in (dtas(inst), carl(inst, "ascending")):
        a = res.allocation
        checks.check_allocation(inst.demands, inst.capacities, inst.pre_indptr, inst.pre_indices,
                                a.flow_user, a.flow_app, a.flow_amount, a.act_user, a.act_app,
                                a.un_amount, res.activation_count)


def test_tail_drop_matches_greedy_and_rejects_an_off_by_one():
    inst = generate(GenConfig(num_users=400, num_transactions=8000, num_apps=15, alpha=0.3, seed=2))
    alphas = [0.07, 0.1, 0.3]
    points = tail_drop_eval(inst, alphas)
    args = (inst.demands, inst.pre_indptr, inst.pre_indices, inst.num_apps, alphas)
    checks.check_tail_drop(points, *args)
    points[1].users_unsatisfied += 1
    with pytest.raises(CheckFailed, match="tail drop at 0.1"):
        checks.check_tail_drop(points, *args)


def test_brute_force_agrees_with_exact_and_wrong_optimum_is_rejected():
    for seed in range(6):
        inst = generate(GenConfig(num_users=5, num_transactions=30, num_apps=3, alpha=0.34, seed=seed))
        pre = [inst.preinstalled_of(u).tolist() for u in range(inst.num_users)]
        brute = checks.brute_force_optimum(inst.demands.tolist(), inst.capacities.tolist(), pre)
        opt = exact_solve(inst).activation_count
        bound = lp_lower_bound(inst).activation_count
        checks.check_tiny(opt, brute, bound, [dtas(inst).activation_count])
        with pytest.raises(CheckFailed, match="brute force"):
            checks.check_tiny(opt + 1, brute, bound, [opt + 1])
    with pytest.raises(CheckFailed, match="exceeds the optimum"):
        checks.check_tiny(1, 1, Fraction(3, 2), [1])
    with pytest.raises(CheckFailed, match="below the optimum"):
        checks.check_tiny(2, 2, 1, [1])


def test_cut_condition():
    # two users of demand 2 confined to app 0 (cap 3): 4 > 3
    assert not checks.routable([2, 2], [3, 5], [0b01, 0b01])
    assert checks.routable([2, 2], [3, 5], [0b01, 0b11])


def test_gadget_check_follows_triple_search():
    yes, no = [12, 17, 13, 12, 11, 16, 13, 12, 14], [15, 12, 11, 17, 15, 17, 11, 11, 11]
    assert checks.has_triple_partition(yes, 40) and not checks.has_triple_partition(no, 40)
    checks.check_gadget(9, yes, 40)
    checks.check_gadget(10, no, 40)
    with pytest.raises(CheckFailed, match="says yes"):
        checks.check_gadget(10, yes, 40)
    with pytest.raises(CheckFailed, match="says no"):
        checks.check_gadget(9, no, 40)


def test_bound_equals_its_routing_objective():
    inst = generate(GenConfig(num_users=60, num_transactions=1200, num_apps=6, alpha=0.18, seed=4))
    res = lp_lower_bound(inst)
    a = res.allocation
    recomputed = checks.relaxed_objective(inst.demands, inst.pre_indptr, inst.pre_indices,
                                          inst.num_apps, a.flow_user, a.flow_app, a.flow_amount)
    checks.check_bound(res.activation_count, recomputed, [dtas(inst).activation_count])
    with pytest.raises(CheckFailed, match="differs"):
        checks.check_bound(res.activation_count + Fraction(1, 7), recomputed, [10**9])
    with pytest.raises(CheckFailed, match="exceeds heuristic"):
        checks.check_bound(res.activation_count, recomputed, [int(res.activation_count) - 1])


def test_inverse_gini_values():
    assert checks.inverse_gini([5, 5, 5]) == 1
    assert checks.inverse_gini([0, 0, 6]) == Fraction(1, 3)


def test_benchmark_json_names_the_emitted_metrics():
    import run
    import tracing

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracing.LAYER_METRICS
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
