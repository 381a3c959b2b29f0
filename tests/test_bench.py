from __future__ import annotations

import importlib.util
import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from meaf import (
    GenConfig,
    Instance,
    generate,
    inverse_gini,
    run_comparison,
    sweep_capacity,
    tail_drop_eval,
)
from meaf import bench
from meaf.bench import ALGORITHMS, CSV_HEADER, MetricError

import _oracles


# ------------------------------------------------------------ inverse_gini


def test_inverse_gini_uniform_is_one():
    assert inverse_gini([5, 5, 5, 5]) == pytest.approx(1.0, abs=1e-12)


def test_inverse_gini_single_loaded_app():
    assert inverse_gini([7, 0, 0, 0]) == pytest.approx(0.25, abs=1e-12)
    assert inverse_gini([3, 0]) == pytest.approx(0.5, abs=1e-12)


def test_inverse_gini_mixed_vector():
    assert inverse_gini([3, 1, 0, 0]) == pytest.approx(0.375, abs=1e-12)


def test_inverse_gini_scale_invariant():
    assert inverse_gini([2, 4, 6]) == pytest.approx(inverse_gini([1, 2, 3]), abs=1e-12)


def test_inverse_gini_matches_pairwise_oracle():
    rng = np.random.RandomState(13)
    for _ in range(200):
        n = int(rng.randint(1, 13))
        loads = rng.randint(0, 50, size=n)
        if loads.sum() == 0:
            loads[int(rng.randint(0, n))] = 1
        want = float(_oracles.gini_complement(loads))
        assert inverse_gini(loads) == pytest.approx(want, abs=1e-12)


@pytest.mark.parametrize(
    "loads,fragment",
    [
        ([], "non-empty"),
        ([[1, 2], [3, 4]], "1-d"),
        ([3, -1], "non-negative"),
        ([0, 0, 0], "all-zero"),
    ],
)
def test_inverse_gini_rejects_bad_input(loads, fragment):
    with pytest.raises(MetricError, match=fragment):
        inverse_gini(loads)


# ------------------------------------------------------------- tail drop


def test_tail_drop_no_drops_when_caps_generous():
    inst = Instance.from_users(
        2, [1, 1], [("u0", 3, [0, 1]), ("u1", 2, [0, 1])]
    )
    (point,) = tail_drop_eval(inst, [1.0])
    assert point.users_unsatisfied == 0
    assert point.users_unsatisfied_pct == 0.0
    assert point.unallocated == 0


def test_tail_drop_counts_starved_users():
    # nobody preinstalled anything: every transaction is dropped
    inst = Instance.from_users(1, [5], [("u0", 2, []), ("u1", 3, [])])
    (point,) = tail_drop_eval(inst, [1.0])
    assert point.users_unsatisfied == 2
    assert point.users_unsatisfied_pct == 100.0
    assert point.unallocated == 5


def test_tail_drop_monotone_on_generated_instances():
    alphas = [0.10, 0.15, 0.20, 0.25, 0.30, 0.35]
    for seed in (21, 22, 23):
        inst = generate(GenConfig(num_users=2000, num_transactions=30000,
                                  alpha=0.35, seed=seed))
        pts = tail_drop_eval(inst, alphas)
        assert [p.alpha for p in pts] == alphas
        for a, b in zip(pts, pts[1:]):
            assert b.unallocated <= a.unallocated
            assert b.users_unsatisfied <= a.users_unsatisfied


def test_tail_drop_can_rise_with_extra_capacity():
    # Raising every cap from 5 to 6 strands the last user: with caps of 5
    # the first user splits 5+1 across apps 0 and 1, with caps of 6 it
    # finishes inside app 0 and the tie-break sends the second user's 5
    # into app 1, leaving app 0 and 1 empty for the third user.  Greedy
    # draining is not monotone in the cap level, so the sweep above
    # asserts the behaviour on generated populations, not universally.
    inst = Instance.from_users(
        3, [1, 1, 1], [("u0", 6, [0, 1]), ("u1", 5, [1, 2]), ("u2", 2, [0, 1])]
    )
    low, high = tail_drop_eval(inst, [0.35, 0.45])  # caps 5 and 6 of T=13
    assert low.unallocated == 0 and low.users_unsatisfied == 0
    assert high.unallocated == 1 and high.users_unsatisfied == 1


# ----------------------------------------------------------------- sweep


def test_sweep_capacity_points():
    inst = generate(GenConfig(num_users=40, num_transactions=400, num_apps=4,
                              alpha=0.5, seed=7))
    alphas = [0.30, 0.50, 0.80]
    points = sweep_capacity(inst, alphas, "dtas")
    assert [p.alpha for p in points] == alphas
    for p in points:
        assert p.unallocated == 0
        assert 0.0 < p.inverse_gini <= 1.0
    # looser caps never force extra installs for dtas on this instance
    assert points[-1].activations <= points[0].activations


def test_sweep_rejects_unknown_algorithm():
    inst = generate(GenConfig(num_users=10, num_transactions=50, alpha=0.3, seed=1))
    with pytest.raises(ValueError, match="unknown algorithm"):
        sweep_capacity(inst, [0.3], "simplex")


# -------------------------------------------------------- run_comparison


def _specs():
    out = []
    for i, (n, total) in enumerate(((12, 90), (20, 260), (30, 500))):
        cfg = GenConfig(num_users=n, num_transactions=total, num_apps=4,
                        alpha=0.45, seed=100 + i)
        out.append(("g%d" % i, cfg.seed, cfg.alpha, generate(cfg)))
    hand = Instance.from_users(
        2, [2, 2], [("u1", 2, [0]), ("u2", 2, [0])]
    )
    out.append(("hand", None, None, hand))
    frac = Instance.from_users(2, [2, 2], [("u3", 3, [0])])
    out.append(("frac", None, None, frac))
    return out


def test_csv_header_is_frozen():
    assert CSV_HEADER == (
        "instance_id,seed,users,num_apps,total_transactions,alpha,"
        "algorithm,algorithm_version,status,activations,activations_exact,"
        "unallocated,inverse_gini,verified"
    )


def test_run_comparison_outputs(tmp_path):
    records, files = run_comparison(_specs(), ALGORITHMS, tmp_path / "a")
    assert len(records) == 5 * len(ALGORITHMS)

    by_algo = {}
    for rec in records:
        by_algo.setdefault(rec.algorithm, []).append(rec)
    # the generated instances have far more than 30 dashed edges: the
    # exact cells must be skipped, the hand instance must be solved
    exact = {r.instance_id: r for r in by_algo["exact"]}
    assert exact["g2"].status == "skipped (scale)"
    assert exact["g2"].activations is None
    assert exact["hand"].status == "ok"
    assert exact["hand"].activations == 1
    for rec in records:
        if rec.status == "ok":
            assert rec.verified is True
            assert rec.unallocated == 0
            assert rec.inverse_gini is not None
    lp_hand = next(r for r in by_algo["lp"] if r.instance_id == "hand")
    assert lp_hand.activations == Fraction(1)  # one full edge of relaxed mass
    lp_frac = next(r for r in by_algo["lp"] if r.instance_id == "frac")
    assert lp_frac.activations == Fraction(1, 3)

    text = (tmp_path / "a" / "records.csv").read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == 1 + len(records)
    # fractional activations carry an exact sidecar column
    frac_lp_row = next(
        line for line in text.splitlines() if line.startswith("frac,") and ",lp," in line
    )
    assert ",1/3," in frac_lp_row

    data = json.loads((tmp_path / "a" / "records.json").read_text())
    assert len(data) == len(records)
    assert all("wall_time_s" in row for row in data)
    assert {row["status"] for row in data} == {"ok", "skipped (scale)"}

    runtime = (tmp_path / "a" / "runtime.csv").read_text().splitlines()
    assert runtime[0] == "total_transactions," + ",".join(ALGORITHMS)
    assert len(runtime) == 1 + 5
    gp = (tmp_path / "a" / "runtime_loglog.gp").read_text()
    assert "plot" in gp and all(algo in gp for algo in ALGORITHMS)


def test_run_comparison_deterministic_records(tmp_path):
    specs = _specs()
    run_comparison(specs, ("lp", "carl-asc", "dtas"), tmp_path / "one")
    run_comparison(specs, ("lp", "carl-asc", "dtas"), tmp_path / "two")
    first = (tmp_path / "one" / "records.csv").read_bytes()
    second = (tmp_path / "two" / "records.csv").read_bytes()
    assert first == second


def test_run_comparison_threads_match_serial(tmp_path):
    specs = _specs()
    run_comparison(specs, ("carl-asc", "carl-desc", "dtas"), tmp_path / "serial")
    run_comparison(specs, ("carl-asc", "carl-desc", "dtas"), tmp_path / "pool",
                   threads=2)
    assert (tmp_path / "serial" / "records.csv").read_bytes() == (
        tmp_path / "pool" / "records.csv"
    ).read_bytes()


def test_run_comparison_force_overrides_skip(tmp_path):
    spec = _specs()[1]  # 20 users x 4 apps: 35 dashed edges
    assert spec[3].num_dashed_edges > bench.EXACT_DASHED_LIMIT
    records, _files = run_comparison([spec], ("exact",), tmp_path / "forced",
                                     force=True)
    assert records[0].status == "ok"
    assert records[0].verified is True


def test_run_comparison_rejects_unknown_algorithm(tmp_path):
    with pytest.raises(ValueError, match="unknown algorithm"):
        run_comparison(_specs()[:1], ("exact", "newton"), tmp_path / "x")


# ------------------------------------------------------------ trace guard


def _perfbench_tracer():
    """A perfbench Tracer, installed on meaf's modules."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    from meaf import _kernels, heuristics, model, solvers, synth

    tracer = tracing.Tracer()
    tracer.install((_kernels, bench, heuristics, model, solvers, synth))
    return tracer


def test_perfbench_trace_sees_the_sweep_layers():
    # perfbench/tracing.py wraps package functions by attribute name; a
    # refactor that moves one of these calls elsewhere would leave its
    # layer reading 0 without any error
    inst = generate(GenConfig(num_users=200, num_transactions=3000, num_apps=5,
                              alpha=0.3, seed=1))
    tracer = _perfbench_tracer()
    try:
        bench.sweep_capacity(inst, [0.25, 0.5], "dtas")
        bench.tail_drop_eval(inst, [0.25, 0.5])
    finally:
        tracer.uninstall()
    assert bench.tail_drop_eval is tail_drop_eval
    metrics = tracer.layer_metrics([tracer.phase])
    for name in ("model.with_capacities_s", "heuristics.dtas_s", "bench.tail_drop_s"):
        assert metrics[name]["value"] > 0, name


def test_perfbench_trace_sees_the_io_layers(tmp_path):
    # the population workload's plan: the I/O layers must stay visible to
    # the trace by the names it wraps
    from meaf import heuristics, model

    inst = generate(GenConfig(num_users=200, num_transactions=3000, num_apps=5,
                              alpha=0.3, seed=1))
    tracer = _perfbench_tracer()
    try:
        model.write_instance(inst, tmp_path / "instance.json")
        back = model.read_instance(tmp_path / "instance.json")
        res = heuristics.dtas(back)
        assert model.verify_allocation(back, res.allocation).ok
        model.write_allocation(res.allocation, tmp_path / "allocation.json")
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics([tracer.phase])
    for name in ("model.write_instance_s", "model.instance_bytes", "model.read_instance_s",
                 "model.verify_s", "model.write_allocation_s", "model.allocation_bytes"):
        assert metrics[name]["value"] > 0, name


def test_perfbench_trace_sees_the_generator():
    # the workloads build every input through synth.generate; that layer
    # must not read 0 because generate was restructured or renamed
    from meaf import synth

    tracer = _perfbench_tracer()
    try:
        inst = synth.generate(synth.GenConfig(num_users=200, num_transactions=3000,
                                              num_apps=5, alpha=0.3, seed=1))
    finally:
        tracer.uninstall()
    assert inst.num_users == 200
    assert tracer.layer_metrics([tracer.phase])["synth.generate_s"]["value"] > 0
