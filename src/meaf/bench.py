"""Benchmark harness: metrics, comparisons, capacity sweeps.

run_comparison executes (instance, algorithm) cells, re-verifies every
allocation before recording it, and writes records.csv / records.json
plus a gnuplot-ready runtime table.  records.csv is byte-deterministic
for a fixed config and seeds; wall-clock numbers live only in
records.json and runtime.csv, which are documented as non-reproducible
timing sidecars.

A scale guard keeps the exact search off large inputs: it is skipped
above 30 dashed edges (unless forced), and such cells get status
"skipped (scale)".
"""

from __future__ import annotations

import csv
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, _kernels
from .heuristics import carl, dtas
from .model import Instance, SolveResult, verify_allocation
from .solvers import ExactConfig, exact_solve, lp_lower_bound

__all__ = [
    "MetricError",
    "inverse_gini",
    "TailDropPoint",
    "tail_drop_eval",
    "SweepPoint",
    "sweep_capacity",
    "BenchRecord",
    "run_comparison",
    "run_algorithm",
    "ALGORITHMS",
    "EXACT_DASHED_LIMIT",
    "CSV_HEADER",
]

EXACT_DASHED_LIMIT = 30


class MetricError(ValueError):
    """Metric undefined for this input (e.g. an all-zero load vector)."""


def inverse_gini(loads) -> float:
    """1 - Gini over a per-app load vector, zero-load apps included.

    Gini is the mean absolute pairwise difference normalised by twice the
    mean: sum_ij |x_i - x_j| / (2 n^2 mean).  Uniform loads give 1.0, a
    single loaded app gives 1/n.  Computed with exact rational arithmetic
    and rounded once at the end.
    """
    arr = np.asarray(loads)
    if arr.ndim != 1 or arr.size == 0:
        raise MetricError("loads must be a non-empty 1-d vector")
    values = [Fraction(v) for v in arr.tolist()]
    if any(v < 0 for v in values):
        raise MetricError("loads must be non-negative")
    total = sum(values)
    if total == 0:
        raise MetricError("all-zero load vector: inverse Gini undefined")
    n = len(values)
    values.sort()
    pair_sum = 2 * sum(v * (2 * i - n + 1) for i, v in enumerate(values))
    gini = Fraction(pair_sum) / (2 * n * total)
    return float(1 - gini)


@dataclass
class TailDropPoint:
    alpha: float
    users_unsatisfied: int
    users_unsatisfied_pct: float
    unallocated: int


def tail_drop_eval(inst: Instance, alphas) -> list[TailDropPoint]:
    """Preinstalled-only greedy drop rates across cap fractions.

    Users are processed in input order; within a user, apps are drained
    by remaining capacity exactly like the first allocation layer of
    carl.  No activations happen, so leftover demand is dropped.
    """
    out = []
    for alpha in alphas:
        scaled = inst.with_capacities(alpha=alpha)
        users_short, total_short = _kernels.preonly_kernel(
            scaled.demands, scaled.capacities, scaled.pre_indptr, scaled.pre_indices
        )
        out.append(
            TailDropPoint(
                alpha=float(alpha),
                users_unsatisfied=int(users_short),
                users_unsatisfied_pct=100.0 * int(users_short) / inst.num_users,
                unallocated=int(total_short),
            )
        )
    return out


@dataclass
class SweepPoint:
    alpha: float
    activations: "int | Fraction"
    unallocated: int
    inverse_gini: float


ALGORITHMS = ("exact", "lp", "carl-asc", "carl-desc", "dtas")


def run_algorithm(name: str, inst: Instance, exact_budget=None, time_limit=None) -> SolveResult:
    if name == "exact":
        return exact_solve(inst, ExactConfig(max_budget=exact_budget, time_limit=time_limit))
    if name == "lp":
        return lp_lower_bound(inst)
    if name == "carl-asc":
        return carl(inst, "ascending")
    if name == "carl-desc":
        return carl(inst, "descending")
    if name == "dtas":
        return dtas(inst)
    raise ValueError("unknown algorithm %r" % name)


def sweep_capacity(inst: Instance, alphas, algorithm: str) -> list[SweepPoint]:
    """Re-run one algorithm across uniform cap fractions."""
    if algorithm not in ALGORITHMS:
        raise ValueError("unknown algorithm %r" % algorithm)
    points = []
    for alpha in alphas:
        scaled = inst.with_capacities(alpha=alpha)
        res = run_algorithm(algorithm, scaled)
        loads = res.allocation.app_loads(scaled.num_apps)
        points.append(
            SweepPoint(
                alpha=float(alpha),
                activations=res.activation_count,
                unallocated=res.total_unallocated,
                inverse_gini=inverse_gini(loads),
            )
        )
    return points


@dataclass
class BenchRecord:
    instance_id: str
    seed: "int | None"
    users: int
    num_apps: int
    total_transactions: int
    alpha: "float | None"
    algorithm: str
    algorithm_version: str
    status: str  # ok | skipped (scale) | budget_exceeded | time_limit
    activations: "int | Fraction | None"
    unallocated: "int | None"
    inverse_gini: "float | None"
    wall_time: "float | None"
    verified: "bool | None"


CSV_HEADER = (
    "instance_id,seed,users,num_apps,total_transactions,alpha,"
    "algorithm,algorithm_version,status,activations,activations_exact,"
    "unallocated,inverse_gini,verified"
)


def _fmt_activations(value) -> tuple[str, str]:
    if value is None:
        return "", ""
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator), ""
        return "%.6g" % float(value), "%d/%d" % (value.numerator, value.denominator)
    return str(int(value)), ""


def _csv_row(rec: BenchRecord) -> list[str]:
    act, act_exact = _fmt_activations(rec.activations)
    return [
        rec.instance_id,
        "" if rec.seed is None else str(rec.seed),
        str(rec.users),
        str(rec.num_apps),
        str(rec.total_transactions),
        "" if rec.alpha is None else "%g" % rec.alpha,
        rec.algorithm,
        rec.algorithm_version,
        rec.status,
        act,
        act_exact,
        "" if rec.unallocated is None else str(rec.unallocated),
        "" if rec.inverse_gini is None else "%.12g" % rec.inverse_gini,
        "" if rec.verified is None else ("true" if rec.verified else "false"),
    ]


def _json_record(rec: BenchRecord) -> dict:
    act = rec.activations
    if isinstance(act, Fraction):
        act_field = "%d/%d" % (act.numerator, act.denominator)
        act_approx = float(act)
    else:
        act_field = act
        act_approx = None if act is None else float(act)
    return {
        "instance_id": rec.instance_id,
        "seed": rec.seed,
        "users": rec.users,
        "num_apps": rec.num_apps,
        "total_transactions": rec.total_transactions,
        "alpha": rec.alpha,
        "algorithm": rec.algorithm,
        "algorithm_version": rec.algorithm_version,
        "status": rec.status,
        "activations": act_field,
        "activations_approx": act_approx,
        "unallocated": rec.unallocated,
        "inverse_gini": rec.inverse_gini,
        "wall_time_s": rec.wall_time,
        "verified": rec.verified,
    }


def _run_cell(instance_id, seed, alpha, inst: Instance, algorithm: str, force: bool) -> BenchRecord:
    base = dict(
        instance_id=instance_id,
        seed=seed,
        users=inst.num_users,
        num_apps=inst.num_apps,
        total_transactions=inst.total_demand,
        alpha=alpha,
        algorithm=algorithm,
        algorithm_version=__version__,
    )
    if algorithm == "exact" and not force and inst.num_dashed_edges > EXACT_DASHED_LIMIT:
        return BenchRecord(
            status="skipped (scale)",
            activations=None,
            unallocated=None,
            inverse_gini=None,
            wall_time=None,
            verified=None,
            **base,
        )
    res = run_algorithm(algorithm, inst)
    if res.allocation is None:
        return BenchRecord(
            status=res.status,
            activations=None,
            unallocated=None,
            inverse_gini=None,
            wall_time=res.wall_time,
            verified=None,
            **base,
        )
    report = verify_allocation(inst, res.allocation)
    loads = res.allocation.app_loads(inst.num_apps)
    igs = None
    if int(loads.sum()) > 0:
        igs = inverse_gini(loads)
    return BenchRecord(
        status="ok",
        activations=res.activation_count,
        unallocated=res.total_unallocated,
        inverse_gini=igs,
        wall_time=res.wall_time,
        verified=report.ok,
        **base,
    )


_GNUPLOT = """# log-log runtime comparison; run: gnuplot runtime_loglog.gp
set terminal pngcairo size 900,600
set output "runtime_loglog.png"
set datafile separator ","
set logscale xy
set xlabel "total transactions"
set ylabel "wall time (s)"
set key left top
plot %s
"""


def run_comparison(specs, algorithms, out_dir, threads: int = 1, force: bool = False):
    """Run every (instance, algorithm) cell and write the report files.

    specs: iterable of (instance_id, seed, alpha, Instance).  Returns
    (records, file map).  Cells may run on a thread pool; records are
    always emitted in deterministic (instance, algorithm) order.
    """
    specs = list(specs)
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError("unknown algorithm %r" % name)
    _kernels.warmup()

    cells = [
        (instance_id, seed, alpha, inst, algo)
        for (instance_id, seed, alpha, inst) in specs
        for algo in algorithms
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(
                pool.map(lambda c: _run_cell(c[0], c[1], c[2], c[3], c[4], force), cells)
            )
    else:
        records = [_run_cell(c[0], c[1], c[2], c[3], c[4], force) for c in cells]

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}

    csv_path = out / "records.csv"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for rec in records:
            writer.writerow(_csv_row(rec))
    files["records.csv"] = csv_path

    json_path = out / "records.json"
    import json as _json

    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_json.dumps([_json_record(r) for r in records], indent=2, sort_keys=True))
        fh.write("\n")
    files["records.json"] = json_path

    # wide timing table: one row per instance, one column per algorithm
    runtime_path = out / "runtime.csv"
    with open(runtime_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["total_transactions"] + list(algorithms))
        for i, (instance_id, _seed, _alpha, inst) in enumerate(specs):
            row = [str(inst.total_demand)]
            for j, _algo in enumerate(algorithms):
                rec = records[i * len(algorithms) + j]
                row.append("" if rec.wall_time is None else "%.6g" % rec.wall_time)
            writer.writerow(row)
    files["runtime.csv"] = runtime_path

    gp_path = out / "runtime_loglog.gp"
    plots = ", ".join(
        '"runtime.csv" using 1:%d with linespoints title "%s"' % (j + 2, algo)
        for j, algo in enumerate(algorithms)
    )
    with open(gp_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(_GNUPLOT % plots)
    files["runtime_loglog.gp"] = gp_path

    return records, files
