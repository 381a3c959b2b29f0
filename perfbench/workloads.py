"""The benchmark's workloads.

A workload builds its inputs from the seed in setup(), then runs whole
rounds of the same operations: ops() lists (label, callable) pairs, the
runner times each call, and check() tests each output against the
independent checkers in checks.py.  Every call reaches meaf through its
module namespaces (heuristics.dtas, model.read_instance, ...) so that a
traced run sees it.

Each workload names the op label timed as its primary and secondary
end-to-end metric, and fills `counts` with its two count metrics; a
count that changes between rounds of one run is a fault.
"""

from __future__ import annotations

import random
import statistics

import numpy as np

import checks

SETUP_REPEATS = 3

# 3-Partition inputs with m = 3 and B = 40: seven with a split into
# triples and two without.  Fixed, so the gadget timings do not depend on
# the seed; the checker decides yes/no itself.
GADGET_B = 40
GADGETS = [
    [12, 17, 13, 12, 11, 16, 13, 12, 14],
    [12, 14, 14, 12, 12, 16, 13, 12, 15],
    [14, 16, 15, 11, 12, 12, 16, 13, 11],
    [13, 14, 16, 13, 15, 11, 12, 14, 12],
    [13, 11, 11, 18, 11, 11, 12, 18, 15],
    [17, 14, 16, 12, 12, 11, 13, 11, 14],
    [11, 13, 13, 16, 11, 13, 12, 16, 15],
    [15, 12, 11, 17, 15, 17, 11, 11, 11],
    [12, 12, 12, 12, 17, 11, 13, 18, 13],
]

SWEEP_ALPHAS = [0.07, 0.08, 0.09, 0.10, 0.12, 0.15, 0.20, 0.30]


def _columns(inst):
    return inst.demands, inst.capacities, inst.pre_indptr, inst.pre_indices


def _check_result(inst, res) -> None:
    """A heuristic or exact result must be a full routing with its count."""
    if res.total_unallocated != 0:
        checks.fail("%s left %s transactions unallocated" % (res.algorithm, res.total_unallocated))
    a = res.allocation
    checks.check_allocation(*_columns(inst), a.flow_user, a.flow_app, a.flow_amount,
                            a.act_user, a.act_app, a.un_amount, res.activation_count)


class Workload:
    name = ""
    primary = secondary = ""

    def __init__(self, meaf_modules, seed: int, workdir):
        _, self.bench, self.heuristics, self.model, self.solvers, self.synth = meaf_modules
        self.seed = seed
        self.workdir = workdir
        self.counts: dict = {}

    def gen(self, **kw):
        return self.synth.generate(self.synth.GenConfig(**kw))

    def record_count(self, name: str, value) -> None:
        if self.counts.setdefault(name, value) != value:
            checks.fail("%s changed between rounds: %s then %s" % (name, self.counts[name], value))


class Population(Workload):
    """The compliance operator's plan for a whole user base at a binding cap."""

    name = "population"
    primary, secondary = "plan", "carl_asc"
    USERS = 10**6

    def setup(self) -> None:
        n = self.USERS
        self.inst = self.gen(num_users=n, num_transactions=20 * n, num_apps=15,
                             alpha=0.08, seed=self.seed)
        self.inst_path = self.workdir / "instance.json"
        self.alloc_path = self.workdir / "allocation.json"
        self.model.write_instance(self.inst, self.inst_path)

    def plan(self):
        inst = self.model.read_instance(self.inst_path)
        res = self.heuristics.dtas(inst)
        report = self.model.verify_allocation(inst, res.allocation)
        self.model.write_allocation(res.allocation, self.alloc_path)
        return res.activation_count, res.total_unallocated, report.ok

    def ops(self):
        return [("plan", self.plan),
                ("carl_asc", lambda: self.heuristics.carl(self.inst, "ascending"))]

    def check(self, label, out) -> None:
        if label == "plan":
            count, unallocated, verified = out
            if not verified or unallocated:
                checks.fail("dtas plan not verified (unallocated %d)" % unallocated)
            cols = checks.read_allocation_file(self.alloc_path, self.inst.user_ids)
            checks.check_allocation(*_columns(self.inst), *cols, activation_count=count)
            self.record_count("primary_count", count)
        else:
            _check_result(self.inst, out)
            self.record_count("secondary_count", out.activation_count)

    def detail(self, metrics, op_times):
        return {"plan_s": metrics["primary_s"], "carl_asc_s": metrics["secondary_s"],
                "dtas_activations": metrics["primary_count"],
                "carl_asc_activations": metrics["secondary_count"],
                "users": self.USERS}


class CapSweep(Workload):
    """The analyst's what-if: the same users under eight cap fractions."""

    name = "cap-sweep"
    primary, secondary = "sweep_capacity", "tail_drop"
    USERS = 10**5

    def setup(self) -> None:
        n = self.USERS
        self.inst = self.gen(num_users=n, num_transactions=20 * n, num_apps=15,
                             alpha=0.30, seed=self.seed)
        self.tail_seen = None
        self.reference = None

    def ops(self):
        return [
            ("sweep_capacity", lambda: self.bench.sweep_capacity(self.inst, SWEEP_ALPHAS, "dtas")),
            ("tail_drop", lambda: self.bench.tail_drop_eval(self.inst, SWEEP_ALPHAS)),
        ]

    def _sweep_reference(self):
        # dtas at each fraction, its allocation checked independently;
        # (activations, inverse Gini of the checked loads) per fraction
        ref = []
        for alpha in SWEEP_ALPHAS:
            scaled = self.inst.with_capacities(alpha=alpha)
            res = self.heuristics.dtas(scaled)
            _check_result(scaled, res)
            loads = np.zeros(scaled.num_apps, dtype=np.int64)
            np.add.at(loads, res.allocation.flow_app, res.allocation.flow_amount)
            ref.append((res.activation_count, checks.inverse_gini(loads)))
        return ref

    def check(self, label, out) -> None:
        if label == "tail_drop":
            got = [(p.users_unsatisfied, p.unallocated, p.users_unsatisfied_pct) for p in out]
            if self.tail_seen is None:
                checks.check_tail_drop(out, self.inst.demands, self.inst.pre_indptr,
                                       self.inst.pre_indices, self.inst.num_apps, SWEEP_ALPHAS)
                self.tail_seen = got
            elif got != self.tail_seen:
                checks.fail("tail drop changed between rounds")
            self.record_count("secondary_count", sum(p.users_unsatisfied for p in out))
            return
        if len(out) != len(SWEEP_ALPHAS):
            checks.fail("sweep returned %d points" % len(out))
        if self.reference is None:
            self.reference = self._sweep_reference()
        for point, alpha, (count, igini) in zip(out, SWEEP_ALPHAS, self.reference):
            if point.alpha != alpha or point.unallocated != 0 or point.activations != count:
                checks.fail("sweep point %r disagrees with dtas at %g (%d activations)"
                            % (point, alpha, count))
            if point.inverse_gini != float(igini):
                checks.fail("sweep inverse Gini %r at %g, loads give %r"
                            % (point.inverse_gini, alpha, float(igini)))
        self.record_count("primary_count", sum(p.activations for p in out))

    def detail(self, metrics, op_times):
        sweeps = [a + b for a, b in zip(op_times["sweep_capacity"], op_times["tail_drop"])]
        return {"sweep_s": statistics.median(sweeps), "sweep_capacity_s": metrics["primary_s"],
                "tail_drop_s": metrics["secondary_s"],
                "dtas_activations_over_fractions": metrics["primary_count"],
                "users_short_over_fractions": metrics["secondary_count"],
                "users": self.USERS, "alphas": SWEEP_ALPHAS}


class Certify(Workload):
    """Optimality certificates: the exact search, the bound and the gadgets."""

    name = "certify"
    primary, secondary = "gadget", "bound"
    TINY = 600
    BOUND_USERS = 1000

    def setup(self) -> None:
        self.gadgets = [self.synth.reduce_3partition(items, GADGET_B)[0] for items in GADGETS]
        rng = random.Random(self.seed)
        self.tiny = []
        for i in range(self.TINY):
            m = 3 + i % 2
            self.tiny.append(self.gen(num_users=6, num_transactions=36, num_apps=m,
                                      alpha=1.0 / m + 0.01, seed=rng.getrandbits(63)))
        n = self.BOUND_USERS
        self.big = self.gen(num_users=n, num_transactions=20 * n, num_apps=15, alpha=0.08,
                            seed=self.seed)
        self.tiny_expected = {}
        self.big_counts = {}

    def ops(self):
        s = self.solvers
        h = self.heuristics
        self.tiny_sums = [0, 0]
        ops = [("gadget", (lambda k=k, g=g: (k, s.exact_solve(g))))
               for k, g in enumerate(self.gadgets)]
        ops += [("tiny", (lambda i=i: self.solve_tiny(i))) for i in range(self.TINY)]
        ops += [
            ("bound", lambda: s.lp_lower_bound(self.big)),
            ("bound_dtas", lambda: h.dtas(self.big)),
            ("bound_carl", lambda: h.carl(self.big, "ascending")),
        ]
        return ops

    def solve_tiny(self, i: int):
        inst = self.tiny[i]
        return (i, self.solvers.exact_solve(inst), self.solvers.lp_lower_bound(inst),
                self.heuristics.dtas(inst), self.heuristics.carl(inst, "ascending"))

    def check(self, label, out) -> None:
        if label == "gadget":
            k, res = out
            _check_result(self.gadgets[k], res)
            checks.check_gadget(res.activation_count, GADGETS[k], GADGET_B)
        elif label == "tiny":
            i, exact, bound, heur_dtas, heur_carl = out
            inst = self.tiny[i]
            for res in (exact, heur_dtas, heur_carl):
                _check_result(inst, res)
            if i not in self.tiny_expected:
                pre = [inst.preinstalled_of(u).tolist() for u in range(inst.num_users)]
                self.tiny_expected[i] = checks.brute_force_optimum(
                    inst.demands.tolist(), inst.capacities.tolist(), pre)
            checks.check_tiny(exact.activation_count, self.tiny_expected[i],
                              bound.activation_count,
                              [heur_dtas.activation_count, heur_carl.activation_count])
            self.tiny_sums[0] += heur_dtas.activation_count
            self.tiny_sums[1] += heur_carl.activation_count
            if i == self.TINY - 1:
                self.record_count("primary_count", self.tiny_sums[0])
                self.record_count("secondary_count", self.tiny_sums[1])
        elif label == "bound":
            self.bound = out
        else:
            _check_result(self.big, out)
            self.big_counts[label] = out.activation_count
            if label == "bound_carl":
                self._check_bound()

    def _check_bound(self) -> None:
        a = self.bound.allocation
        checks.check_allocation(*_columns(self.big), a.flow_user, a.flow_app, a.flow_amount,
                                a.act_user, a.act_app, a.un_amount)
        recomputed = checks.relaxed_objective(self.big.demands, self.big.pre_indptr,
                                              self.big.pre_indices, self.big.num_apps,
                                              a.flow_user, a.flow_app, a.flow_amount)
        checks.check_bound(self.bound.activation_count, recomputed,
                           list(self.big_counts.values()))

    def detail(self, metrics, op_times):
        return {"certify_s": metrics["primary_s"], "bound_s": metrics["secondary_s"],
                "exact_s.p50": statistics.median(op_times["gadget"]),
                "exact_samples": len(op_times["gadget"]),
                "tiny_dtas_activations": metrics["primary_count"],
                "tiny_carl_asc_activations": metrics["secondary_count"],
                "bound": str(self.bound.activation_count),
                "bound_instance_dtas_activations": self.big_counts["bound_dtas"],
                "bound_instance_carl_asc_activations": self.big_counts["bound_carl"],
                "gadgets": len(GADGETS), "tiny_instances": self.TINY,
                "bound_users": self.BOUND_USERS}


WORKLOADS = {w.name: w for w in (Population, CapSweep, Certify)}
