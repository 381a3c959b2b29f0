"""Command-line entry point.

One binary, six subcommands: generate / solve / bench / sweep /
reduce3p / export-milp.  stdout carries machine-readable output only;
progress and human commentary go to stderr.  Exit codes are a public
contract: 0 success, 2 configuration or usage error, 3 globally
infeasible instance, 4 exact-search budget exceeded.

Subcommands that produce multiple files (bench, sweep, reduce3p,
export-milp) treat --out as a directory and drop a manifest.json there
listing every produced file with its sha256 plus a hash of the
effective config.  Manifests carry no timestamps, so reruns with the
same inputs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__, bench, synth
from .model import (
    InstanceError,
    canonical_dumps,
    format_count,
    read_instance,
    write_instance,
)
from .solvers import GloballyInfeasibleError, check_3partition, export_milp

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_BUDGET = 4


class CliError(Exception):
    """Configuration or usage error; maps to exit code 2."""


def _log(args, msg: str) -> None:
    if getattr(args, "verbose", False):
        print(msg, file=sys.stderr)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, files,
                    not_reproducible=()) -> Path:
    """Hash each of `files`; name `not_reproducible` files (wall times)
    without a hash, so reruns of one config write the same manifest."""
    entries = []
    for path in sorted(files, key=lambda p: p.name):
        entries.append(
            {"name": path.name, "sha256": _sha256(path), "bytes": path.stat().st_size}
        )
    config_bytes = canonical_dumps(config).encode("utf-8")
    manifest = {
        "command": command,
        "config_sha256": hashlib.sha256(config_bytes).hexdigest(),
        "config": config,
        "files": entries,
        "tool_version": __version__,
    }
    if not_reproducible:
        manifest["not_reproducible"] = sorted(not_reproducible)
    path = out_dir / "manifest.json"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(canonical_dumps(manifest))
    return path


def _require_out_dir(args) -> Path:
    if not args.out:
        raise CliError("--out DIR is required for this subcommand")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_instance(path: str):
    try:
        return read_instance(path)
    except FileNotFoundError:
        raise CliError("instance file not found: %s" % path)
    except (InstanceError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CliError("invalid instance %s: %s" % (path, exc))


def _parse_alphas(text: str) -> list[float]:
    try:
        values = [float(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise CliError("--alphas must be a comma-separated list of numbers")
    if not values:
        raise CliError("--alphas must name at least one value")
    return values


# ---------------------------------------------------------------- generate


def cmd_generate(args) -> int:
    try:
        cfg = synth.genconfig_from_file(args.config)
    except FileNotFoundError:
        raise CliError("config file not found: %s" % args.config)
    except ValueError as exc:
        raise CliError(str(exc))
    if args.seed is not None:
        import dataclasses

        cfg = dataclasses.replace(cfg, seed=args.seed)
    try:
        cfg.validate()
        inst = synth.generate(cfg)
    except ValueError as exc:
        raise CliError(str(exc))
    if not args.out:
        raise CliError("--out FILE is required for generate")
    write_instance(inst, args.out)
    print(
        "users=%d transactions=%d apps=%d seed=%d out=%s"
        % (inst.num_users, inst.total_demand, inst.num_apps, cfg.seed, args.out)
    )
    return EXIT_OK


# ------------------------------------------------------------------- solve


def _result_payload(res, include_timing: bool) -> dict:
    return res.to_json_dict(include_timing=include_timing)


def cmd_solve(args) -> int:
    if args.format != "json":
        raise CliError("solve supports --format json only")
    inst = _load_instance(args.instance)
    try:
        res = bench.run_algorithm(args.algo, inst, args.budget, args.time_limit)
    except GloballyInfeasibleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE
    except ValueError as exc:
        raise CliError(str(exc))

    if isinstance(res.activation_count, Fraction):
        shown = format_count(res.activation_count)
    elif res.activation_count is None:
        shown = "n/a"
    else:
        shown = str(res.activation_count)
    summary = "algo=%s status=%s activations=%s unallocated=%s time=%.3fs" % (
        res.algorithm,
        res.status,
        shown,
        "n/a" if res.total_unallocated is None else res.total_unallocated,
        res.wall_time,
    )

    payload = canonical_dumps(_result_payload(res, include_timing=True))
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(payload)
        print(summary)
    else:
        sys.stdout.write(payload)
        print(summary, file=sys.stderr)

    if args.dot:
        from .flowcore import build_network, to_dot

        active = sorted(res.allocation.activated) if res.allocation is not None else []
        net = build_network(inst, active)
        with open(args.dot, "w", encoding="utf-8", newline="") as fh:
            fh.write(to_dot(net, user_ids=inst.user_ids))
        _log(args, "wrote %s" % args.dot)

    if res.status == "budget_exceeded":
        return EXIT_BUDGET
    return EXIT_OK


# ------------------------------------------------------------------- bench


def _bench_specs(config: dict):
    instances = config.get("instances")
    if not isinstance(instances, list) or not instances:
        raise CliError("bench config needs a non-empty \"instances\" list")
    specs = []
    for i, entry in enumerate(instances):
        if not isinstance(entry, dict):
            raise CliError("instances[%d] must be an object" % i)
        if "path" in entry:
            inst = _load_instance(entry["path"])
            instance_id = entry.get("id", Path(entry["path"]).stem)
            specs.append((str(instance_id), entry.get("seed"), None, inst))
            continue
        known = {"id", "users", "transactions", "apps", "alpha", "seed", "skew"}
        extra = set(entry) - known
        if extra:
            raise CliError("instances[%d]: unknown keys %s" % (i, sorted(extra)))
        try:
            cfg = synth.GenConfig(
                num_users=entry["users"],
                num_transactions=entry["transactions"],
                num_apps=entry.get("apps", 15),
                alpha=entry.get("alpha", 0.30),
                skew_exponent=entry.get("skew", 1.0),
                seed=entry.get("seed", 0),
            )
            cfg.validate()
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError("instances[%d]: %s" % (i, exc))
        inst = synth.generate(cfg)
        instance_id = str(entry.get("id", "gen-%d" % cfg.seed))
        specs.append((instance_id, cfg.seed, cfg.alpha, inst))
    return specs


def cmd_bench(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise CliError("config file not found: %s" % args.config)
    except json.JSONDecodeError as exc:
        raise CliError("config is not valid JSON: %s" % exc)
    if not isinstance(config, dict):
        raise CliError("bench config must be a JSON object")

    if args.algorithms:
        algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    else:
        algorithms = config.get("algorithms", list(bench.ALGORITHMS))
    if not algorithms:
        raise CliError("no algorithms selected")
    for name in algorithms:
        if name not in bench.ALGORITHMS:
            raise CliError(
                "unknown algorithm %r (choices: %s)" % (name, ", ".join(bench.ALGORITHMS))
            )

    specs = _bench_specs(config)
    out = _require_out_dir(args)
    _log(args, "running %d cells on %d thread(s)" % (len(specs) * len(algorithms), args.threads))
    records, files = bench.run_comparison(
        specs, algorithms, out, threads=args.threads, force=args.force
    )
    timed = ("records.json", "runtime.csv")
    manifest = _write_manifest(
        out, "bench", {"algorithms": algorithms, "source": config},
        [path for name, path in files.items() if name not in timed], timed,
    )
    _log(args, "wrote %s" % manifest)
    bad = [r for r in records if r.status == "ok" and not r.verified]
    for rec in records:
        print(
            "%s %s status=%s activations=%s"
            % (rec.instance_id, rec.algorithm, rec.status, rec.activations)
        )
    if bad:
        print("error: %d record(s) failed verification" % len(bad), file=sys.stderr)
        return 1
    return EXIT_OK


# ------------------------------------------------------------------- sweep


def cmd_sweep(args) -> int:
    inst = _load_instance(args.instance)
    alphas = _parse_alphas(args.alphas)
    out = _require_out_dir(args)

    if args.tail_drop:
        points = bench.tail_drop_eval(inst, alphas)
        rows = [
            {
                "alpha": p.alpha,
                "users_unsatisfied": p.users_unsatisfied,
                "users_unsatisfied_pct": p.users_unsatisfied_pct,
                "unallocated": p.unallocated,
            }
            for p in points
        ]
        header = ["alpha", "users_unsatisfied", "users_unsatisfied_pct", "unallocated"]
        mode = "tail-drop"
    else:
        if not args.algo:
            raise CliError("sweep needs --algo (or --tail-drop)")
        try:
            points = bench.sweep_capacity(inst, alphas, args.algo)
        except GloballyInfeasibleError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return EXIT_INFEASIBLE
        rows = []
        for p in points:
            act = p.activations
            if isinstance(act, Fraction) and act.denominator != 1:
                act = float(act)
            elif isinstance(act, Fraction):
                act = int(act)
            rows.append(
                {
                    "alpha": p.alpha,
                    "activations": act,
                    "unallocated": p.unallocated,
                    "inverse_gini": p.inverse_gini,
                }
            )
        header = ["alpha", "activations", "unallocated", "inverse_gini"]
        mode = args.algo

    if args.format == "json":
        path = out / "sweep.json"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(canonical_dumps({"algorithm": mode, "points": rows}))
    else:
        path = out / "sweep.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=header, lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
    config = {"mode": mode, "alphas": alphas, "instance_sha256": _sha256(Path(args.instance))}
    _write_manifest(out, "sweep", config, [path])
    for row in rows:
        print(",".join(str(row[k]) for k in header))
    return EXIT_OK


# ---------------------------------------------------------------- reduce3p


def _parse_items(text: str) -> list[int]:
    try:
        items = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise CliError("--items must be a comma-separated list of integers")
    if not items:
        raise CliError("--items must name at least one integer")
    return items


def cmd_reduce3p(args) -> int:
    items = _parse_items(args.items)
    try:
        inst, budget = synth.reduce_3partition(items, args.B)
    except ValueError as exc:
        raise CliError(str(exc))

    files = []
    if args.out:
        out = _require_out_dir(args)
        inst_path = out / "instance.json"
        write_instance(inst, inst_path)
        files.append(inst_path)

    if args.check:
        yes = check_3partition(items, args.B)
        verdict = "YES (k=%d)" % budget if yes else "NO"
        print(verdict)
        if args.out:
            check_path = out / "check.json"
            with open(check_path, "w", encoding="utf-8", newline="") as fh:
                fh.write(
                    canonical_dumps(
                        {"items": items, "B": args.B, "budget": budget, "partitionable": yes}
                    )
                )
            files.append(check_path)
    else:
        print("users=%d apps=%d budget=%d" % (inst.num_users, inst.num_apps, budget))

    if args.out:
        _write_manifest(out, "reduce3p", {"items": items, "B": args.B}, files)
    return EXIT_OK


# ------------------------------------------------------------- export-milp


def cmd_export_milp(args) -> int:
    inst = _load_instance(args.instance)
    out = _require_out_dir(args)
    path = out / "model.lp"
    export_milp(inst, path)
    _write_manifest(
        out, "export-milp", {"instance_sha256": _sha256(Path(args.instance))}, [path]
    )
    print("wrote %s" % path)
    return EXIT_OK


# ------------------------------------------------------------------ parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--out", default=None, help="output file or directory")
    common.add_argument("--format", choices=("json", "csv"), default="json")
    common.add_argument(
        "--threads",
        type=int,
        default=int(os.environ.get("MEAF_THREADS", "1")),
        help="worker pool size for bench (env MEAF_THREADS)",
    )
    common.add_argument("--verbose", action="store_true", help="progress chatter on stderr")

    parser = argparse.ArgumentParser(
        prog="meaf",
        description="Minimum-activation transaction routing toolkit.",
    )
    parser.add_argument("--version", action="version", version="meaf %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", parents=[common], help="generate an instance from a config")
    p.add_argument("config", help="generator config file (.json or .toml)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", parents=[common], help="solve one instance file")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument(
        "--algo", required=True, choices=bench.ALGORITHMS, help="solver to run"
    )
    p.add_argument("--budget", type=int, default=None, help="max activations for exact")
    p.add_argument("--time-limit", type=float, default=None, help="seconds for exact")
    p.add_argument("--dot", default=None, help="write the flow network as graphviz dot")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", parents=[common], help="run an algorithm comparison")
    p.add_argument("--config", required=True, help="bench config JSON")
    p.add_argument("--algorithms", default=None, help="comma list overriding the config")
    p.add_argument("--force", action="store_true", help="ignore instance-size guards")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("sweep", parents=[common], help="sweep capacity fractions")
    p.add_argument("instance", help="instance JSON file")
    p.add_argument("--alphas", required=True, help="comma list of cap fractions")
    p.add_argument("--algo", choices=bench.ALGORITHMS, default=None)
    p.add_argument(
        "--tail-drop",
        action="store_true",
        help="preinstalled-only drop rates instead of a solver",
    )
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("reduce3p", parents=[common], help="encode a 3-partition question")
    p.add_argument("--items", required=True, help="comma list of item sizes")
    p.add_argument("--B", type=int, required=True, help="target bin sum")
    p.add_argument("--check", action="store_true", help="run the exact solver and answer")
    p.set_defaults(func=cmd_reduce3p)

    p = sub.add_parser("export-milp", parents=[common], help="write an LP-format model")
    p.add_argument("instance", help="instance JSON file")
    p.set_defaults(func=cmd_export_milp)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_CONFIG
    except GloballyInfeasibleError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main(argv=sys.argv[1:]))
