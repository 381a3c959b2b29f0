from __future__ import annotations

import json
from importlib import resources
from pathlib import Path

import pytest

from meaf import Instance, read_instance, validate_instance, write_instance
from meaf.cli import main


def _schema(name: str) -> dict:
    text = resources.files("meaf").joinpath("data/schemas/%s" % name).read_text()
    return json.loads(text)


def _validate_result(payload: dict) -> None:
    import jsonschema
    from referencing import Registry, Resource

    registry = Registry().with_resources(
        (schema["$id"], Resource.from_contents(schema))
        for schema in (_schema("result.schema.json"), _schema("allocation.schema.json"))
    )
    jsonschema.Draft7Validator(_schema("result.schema.json"), registry=registry).validate(
        payload
    )


def _gen_config(tmp_path: Path, **overrides) -> Path:
    data = {
        "num_users": 25,
        "num_transactions": 300,
        "num_apps": 4,
        "alpha": 0.4,
        "seed": 5,
    }
    data.update(overrides)
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(data))
    return path


def _instance_file(tmp_path: Path, name="inst.json") -> Path:
    inst = Instance.from_users(
        2, [2, 2], [("u1", 2, [0]), ("u2", 2, [0])]
    )
    path = tmp_path / name
    write_instance(inst, path)
    return path


# ---------------------------------------------------------------- generate


def test_generate_writes_instance(tmp_path, capsys):
    cfg = _gen_config(tmp_path)
    out = tmp_path / "inst.json"
    assert main(["generate", str(cfg), "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    assert line == "users=25 transactions=300 apps=4 seed=5 out=%s" % out
    validate_instance(json.loads(out.read_text()))


def test_generate_deterministic_bytes(tmp_path):
    cfg = _gen_config(tmp_path)
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["generate", str(cfg), "--out", str(first)]) == 0
    assert main(["generate", str(cfg), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_generate_seed_override_changes_output(tmp_path):
    cfg = _gen_config(tmp_path)
    base, other = tmp_path / "a.json", tmp_path / "b.json"
    main(["generate", str(cfg), "--out", str(base)])
    assert main(["generate", str(cfg), "--seed", "6", "--out", str(other)]) == 0
    assert base.read_bytes() != other.read_bytes()
    inst = read_instance(other)
    assert inst.num_users == 25


def test_generate_bad_config_exits_2(tmp_path, capsys):
    cfg = _gen_config(tmp_path, num_transactions=1)  # fewer than users
    assert main(["generate", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
    assert "every user needs at least one" in capsys.readouterr().err


def test_generate_alpha_floor_exits_2(tmp_path, capsys):
    cfg = _gen_config(tmp_path, alpha=0.1)  # below 1/num_apps = 0.25
    assert main(["generate", str(cfg), "--out", str(tmp_path / "x.json")]) == 2
    assert "alpha below 1/num_apps" in capsys.readouterr().err


def test_generate_missing_config_exits_2(tmp_path, capsys):
    assert main(["generate", str(tmp_path / "nope.json"), "--out", "x"]) == 2
    assert "not found" in capsys.readouterr().err


# ------------------------------------------------------------------- solve


def test_solve_exact_json_payload(tmp_path, capsys):
    inst = _instance_file(tmp_path)
    out = tmp_path / "result.json"
    assert main(["solve", str(inst), "--algo", "exact", "--out", str(out)]) == 0
    summary = capsys.readouterr().out
    assert "algo=exact status=optimal activations=1 unallocated=0" in summary
    payload = json.loads(out.read_text())
    _validate_result(payload)
    assert payload["activation_count"] == 1
    assert payload["allocation"]["activated"] == [["u1", 1]]


def test_solve_stdout_payload_validates(tmp_path, capsys):
    inst = _instance_file(tmp_path)
    assert main(["solve", str(inst), "--algo", "dtas"]) == 0
    payload = json.loads(capsys.readouterr().out)
    _validate_result(payload)
    assert payload["status"] == "heuristic"
    assert "wall_time_s" in payload


def test_solve_lp_fractional_summary(tmp_path, capsys):
    inst = Instance.from_users(2, [2, 2], [("u3", 3, [0])])
    path = tmp_path / "frac.json"
    write_instance(inst, path)
    out = tmp_path / "lp.json"
    assert main(["solve", str(path), "--algo", "lp", "--out", str(out)]) == 0
    assert "activations=1/3 ≈ 0.333" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    _validate_result(payload)
    assert payload["activation_count"] == "1/3"
    assert payload["activation_count_approx"] == pytest.approx(1 / 3)


def test_solve_budget_exceeded_exits_4(tmp_path, capsys):
    inst = _instance_file(tmp_path)
    out = tmp_path / "result.json"
    code = main(["solve", str(inst), "--algo", "exact", "--budget", "0",
                 "--out", str(out)])
    assert code == 4
    assert "status=budget_exceeded" in capsys.readouterr().out
    payload = json.loads(out.read_text())
    _validate_result(payload)
    assert payload["activation_count"] is None


def test_solve_infeasible_exits_3(tmp_path, capsys):
    inst = Instance.from_users(1, [2], [("u0", 3, [0])])
    path = tmp_path / "tight.json"
    write_instance(inst, path)
    assert main(["solve", str(path), "--algo", "exact"]) == 3
    assert "globally infeasible" in capsys.readouterr().err


def test_solve_unknown_algo_usage_error(tmp_path, capsys):
    inst = _instance_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(inst), "--algo", "simplex"])
    assert exc.value.code == 2


def test_solve_missing_instance_exits_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "ghost.json"), "--algo", "dtas"]) == 2
    assert "not found" in capsys.readouterr().err


def test_solve_corrupt_instance_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"num_apps": 0}')
    assert main(["solve", str(path), "--algo", "dtas"]) == 2
    assert "invalid instance" in capsys.readouterr().err


@pytest.mark.parametrize("doc, reason", [
    ('{"num_apps": 1, "capacities": [5], "users": [{"id": "a", "demand": 4611686018427387904},'
     ' {"id": "b", "demand": 4611686018427387904}]}', "total demand does not fit in int64"),
    ('{"num_apps": 1, "capacities": {"alpha": Infinity}, "users": [{"id": "a", "demand": 1}]}',
     "alpha must be finite"),
    ('{"num_apps": 1, "capacities": {"alpha": true}, "users": [{"id": "a", "demand": 1}]}',
     "alpha must be a number"),
    ('{"num_apps": 1, "capacities": {"alpha": "0.7"}, "users": [{"id": "a", "demand": 1}]}',
     "alpha must be a number"),
    ('{"num_apps": 2, "capacities": 5, "users": [{"id": "a", "demand": 1}]}',
     "capacities must be an array"),
    ('{"num_apps": 2, "capacities": [5, 5], "users": [{"id": "a", "demand": 1, "preinstalled": 0}]}',
     "preinstalled must be an array"),
    ('{"num_apps": 2, "capacities": [5, 5], "users": [{"id": "a", "demand": 1, "preinstalled": [1.7]}]}',
     "preinstalled app id must be an integer"),
    ('{"num_apps": 2, "capacities": [5, 5], "users": [{"id": "a", "demand": 1, "preinstalled": [true]}]}',
     "preinstalled app id must be an integer"),
    ('{"num_apps": 2, "capacities": [5, 5], "users": [{"id": "a", "demand": 1, "preinstalled": ["1"]}]}',
     "preinstalled app id must be an integer"),
    ('{"num_apps": 1, "capacities": [5], "users": [{"id": "a", "demand": 1}], "alpha": 0.5}',
     "unknown keys in instance: 'alpha'"),
    ('{"num_apps": 1, "capacities": [5], "users": [{"id": "a", "demand": 1, "apps": [0]}]}',
     "unknown keys in user 'a': 'apps'"),
    # numpy refuses both column sizes before allocating anything
    ('{"num_apps": 9223372036854775808, "capacities": {"alpha": 0.5},'
     ' "users": [{"id": "a", "demand": 1}]}', "cannot build caps"),
    ('{"num_apps": 4611686018427387904, "capacities": {"alpha": 0.5},'
     ' "users": [{"id": "a", "demand": 1}]}', "cannot build caps"),
    ('{"num_apps": 1, "capacities": [5], "users": %s%s}' % ("[" * 200000, "]" * 200000),
     "nested too deeply"),
], ids=["demand-total", "alpha-infinity", "alpha-bool", "alpha-string", "capacities-number",
        "preinstalled-number", "preinstalled-float", "preinstalled-bool", "preinstalled-string",
        "unknown-top-level-key", "unknown-user-key", "num-apps-2-63", "num-apps-2-62",
        "over-deep-users"])
def test_solve_out_of_range_instance_exits_2(tmp_path, capsys, doc, reason):
    path = tmp_path / "wide.json"
    path.write_text(doc)
    assert main(["solve", str(path), "--algo", "exact"]) == 2
    assert reason in capsys.readouterr().err


def test_solve_writes_dot(tmp_path, capsys):
    inst = _instance_file(tmp_path)
    dot = tmp_path / "net.dot"
    assert main(["solve", str(inst), "--algo", "exact", "--out",
                 str(tmp_path / "r.json"), "--dot", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "style=dashed" in text  # the activated edge


# ------------------------------------------------------------------- bench


def test_bench_end_to_end(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "algorithms": ["lp", "carl-asc", "dtas"],
        "instances": [
            {"id": "small", "users": 10, "transactions": 80, "apps": 3,
             "alpha": 0.5, "seed": 1},
            {"id": "medium", "users": 40, "transactions": 600, "apps": 4,
             "alpha": 0.4, "seed": 2},
        ],
    }))
    out = tmp_path / "report"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6  # 2 instances x 3 algorithms

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "bench"
    assert sorted(e["name"] for e in manifest["files"]) == [
        "records.csv", "records.json", "runtime.csv", "runtime_loglog.gp"
    ]
    assert "timestamp" not in manifest
    for entry in manifest["files"]:
        import hashlib
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        assert entry["sha256"] == digest
        assert entry["bytes"] == (out / entry["name"]).stat().st_size


def test_bench_algorithms_override(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "instances": [{"id": "one", "users": 8, "transactions": 50, "apps": 3,
                       "alpha": 0.5, "seed": 3}],
    }))
    out = tmp_path / "r"
    assert main(["bench", "--config", str(config), "--algorithms", "dtas",
                 "--out", str(out)]) == 0
    text = (out / "records.csv").read_text()
    assert text.count("\n") == 2  # header + one cell
    assert ",dtas," in text


def test_bench_instance_by_path(tmp_path, capsys):
    inst_path = _instance_file(tmp_path)
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "algorithms": ["exact"],
        "instances": [{"path": str(inst_path), "id": "fixed"}],
    }))
    out = tmp_path / "r"
    assert main(["bench", "--config", str(config), "--out", str(out)]) == 0
    assert "fixed exact status=ok activations=1" in capsys.readouterr().out


def test_bench_bad_algorithm_exits_2(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "algorithms": ["newton"],
        "instances": [{"users": 5, "transactions": 20, "apps": 2,
                       "alpha": 0.6, "seed": 1}],
    }))
    assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_bench_unknown_instance_key_exits_2(tmp_path, capsys):
    config = tmp_path / "bench.json"
    config.write_text(json.dumps({
        "instances": [{"users": 5, "transactions": 20, "bogus": 1}],
    }))
    assert main(["bench", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    assert "unknown keys" in capsys.readouterr().err


# ------------------------------------------------------------------- sweep


def test_sweep_algo_csv(tmp_path, capsys):
    cfg = _gen_config(tmp_path)
    inst_path = tmp_path / "inst.json"
    main(["generate", str(cfg), "--out", str(inst_path)])
    capsys.readouterr()
    out = tmp_path / "sweep"
    assert main(["sweep", str(inst_path), "--alphas", "0.3,0.5,0.8",
                 "--algo", "dtas", "--format", "csv", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "alpha,activations,unallocated,inverse_gini"
    assert len(lines) == 4
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"


def test_sweep_tail_drop_json(tmp_path, capsys):
    cfg = _gen_config(tmp_path)
    inst_path = tmp_path / "inst.json"
    main(["generate", str(cfg), "--out", str(inst_path)])
    capsys.readouterr()
    out = tmp_path / "drop"
    assert main(["sweep", str(inst_path), "--alphas", "0.3,0.6",
                 "--tail-drop", "--out", str(out)]) == 0
    data = json.loads((out / "sweep.json").read_text())
    assert data["algorithm"] == "tail-drop"
    assert [p["alpha"] for p in data["points"]] == [0.3, 0.6]
    for p in data["points"]:
        assert set(p) == {"alpha", "users_unsatisfied", "users_unsatisfied_pct",
                          "unallocated"}


def test_sweep_needs_mode(tmp_path, capsys):
    inst_path = _instance_file(tmp_path)
    assert main(["sweep", str(inst_path), "--alphas", "0.5",
                 "--out", str(tmp_path / "o")]) == 2
    assert "--algo" in capsys.readouterr().err


def test_sweep_bad_alphas_exits_2(tmp_path, capsys):
    inst_path = _instance_file(tmp_path)
    assert main(["sweep", str(inst_path), "--alphas", "0.5,oops",
                 "--algo", "dtas", "--out", str(tmp_path / "o")]) == 2
    assert "comma-separated" in capsys.readouterr().err


# ---------------------------------------------------------------- reduce3p


def test_reduce3p_check_yes(tmp_path, capsys):
    out = tmp_path / "red"
    assert main(["reduce3p", "--items", "1,1,1", "--B", "3", "--check",
                 "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "YES (k=3)"
    inst = read_instance(out / "instance.json")
    assert inst.num_users == 3
    check = json.loads((out / "check.json").read_text())
    assert check == {"B": 3, "budget": 3, "items": [1, 1, 1], "partitionable": True}


def test_reduce3p_check_no(capsys):
    assert main(["reduce3p", "--items", "5,5,5,5,5,7", "--B", "16", "--check"]) == 0
    assert capsys.readouterr().out.strip() == "NO"


def test_reduce3p_without_check_prints_shape(capsys):
    assert main(["reduce3p", "--items", "5,5,5,6,7,8", "--B", "18"]) == 0
    assert capsys.readouterr().out.strip() == "users=6 apps=2 budget=6"


def test_reduce3p_precondition_exits_2(capsys):
    assert main(["reduce3p", "--items", "2,2,2,3,3,3", "--B", "7", "--check"]) == 2
    assert "items sum to 15" in capsys.readouterr().err


# ------------------------------------------------------------- export-milp


def test_export_milp_writes_model(tmp_path, capsys):
    inst_path = _instance_file(tmp_path)
    out = tmp_path / "milp"
    assert main(["export-milp", str(inst_path), "--out", str(out)]) == 0
    text = (out / "model.lp").read_text()
    assert " obj: x_u1_1 + x_u2_1" in text
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["name"] for e in manifest["files"]] == ["model.lp"]


# ---------------------------------------------------------------- manifest


def test_manifest_stable_across_reruns(tmp_path):
    inst_path = _instance_file(tmp_path)
    one, two = tmp_path / "m1", tmp_path / "m2"
    main(["export-milp", str(inst_path), "--out", str(one)])
    main(["export-milp", str(inst_path), "--out", str(two)])
    assert (one / "manifest.json").read_bytes() == (two / "manifest.json").read_bytes()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("meaf ")
