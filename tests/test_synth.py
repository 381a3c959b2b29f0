from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from meaf import (
    GenConfig,
    canonical_dumps,
    generate,
    genconfig_from_file,
    instance_to_dict,
    reduce_3partition,
    validate_instance,
)
from meaf import synth

import _oracles


def test_generate_is_deterministic():
    cfg = GenConfig(num_users=200, num_transactions=3000, alpha=0.3, seed=42)
    first = canonical_dumps(instance_to_dict(generate(cfg)))
    second = canonical_dumps(instance_to_dict(generate(cfg)))
    assert first == second


def test_generate_output_validates():
    inst = generate(GenConfig(num_users=50, num_transactions=600, alpha=0.4, seed=9))
    validate_instance(instance_to_dict(inst))
    assert inst.num_users == 50
    assert inst.total_demand == 600


@pytest.mark.parametrize("skew", [0.0, 1.0, 2.0])
def test_demands_match_apportionment_oracle(skew):
    n, total = 37, 411
    cfg = GenConfig(num_users=n, num_transactions=total, alpha=0.3,
                    skew_exponent=skew, seed=3)
    inst = generate(cfg)
    weights = [Fraction(1) if skew == 0.0 else Fraction(rank) ** -int(skew)
               for rank in range(1, n + 1)]
    want = [1 + extra for extra in _oracles.largest_remainder_shares(total - n, weights)]
    assert [int(t) for t in inst.demands] == want
    assert int(inst.demands.sum()) == total


def test_flat_skew_spreads_evenly():
    inst = generate(GenConfig(num_users=10, num_transactions=107, alpha=0.5,
                              skew_exponent=0.0, seed=0))
    demands = [int(t) for t in inst.demands]
    assert max(demands) - min(demands) <= 1
    assert sum(demands) == 107


def test_higher_skew_concentrates_demand():
    flat = generate(GenConfig(num_users=40, num_transactions=2000, alpha=0.3,
                              skew_exponent=0.0, seed=1))
    steep = generate(GenConfig(num_users=40, num_transactions=2000, alpha=0.3,
                               skew_exponent=2.0, seed=1))
    assert int(steep.demands[0]) > int(flat.demands[0])
    assert int(steep.demands[-1]) < int(flat.demands[-1])
    # first user is the heaviest under a positive skew
    assert int(steep.demands[0]) == int(steep.demands.max())


def test_chunked_sampling_is_stream_invariant(monkeypatch):
    cfg = GenConfig(num_users=150, num_transactions=2000, alpha=0.3, seed=77)
    want = canonical_dumps(instance_to_dict(generate(cfg)))
    monkeypatch.setattr(synth, "_CHUNK", 7)
    assert canonical_dumps(instance_to_dict(generate(cfg))) == want


def test_preinstall_sizes_follow_histogram_support():
    cfg = GenConfig(num_users=400, num_transactions=5000, alpha=0.3, seed=12,
                    apps_per_user={2: 0.5, 4: 0.5})
    inst = generate(cfg)
    sizes = np.diff(inst.pre_indptr)
    assert set(np.unique(sizes)) == {2, 4}


def test_preinstall_rows_sorted_and_unique():
    inst = generate(GenConfig(num_users=300, num_transactions=4000, alpha=0.3, seed=4))
    for u in range(inst.num_users):
        row = inst.pre_indices[inst.pre_indptr[u]: inst.pre_indptr[u + 1]]
        assert list(row) == sorted(set(int(a) for a in row))


def test_market_share_drives_preinstall_frequency():
    cfg = GenConfig(num_users=20000, num_transactions=40000, num_apps=2,
                    market_shares=[0.999, 0.001], apps_per_user={1: 1.0},
                    alpha=0.6, seed=99)
    inst = generate(cfg)
    freq0 = float(np.mean(inst.pre_indices == 0))
    assert freq0 > 0.99


def test_capacity_is_alpha_share_of_total():
    cfg = GenConfig(num_users=30, num_transactions=1000, num_apps=4,
                    alpha=0.37, seed=2)
    inst = generate(cfg)
    import math
    want = math.ceil(0.37 * 1000)
    assert [int(c) for c in inst.capacities] == [want] * 4
    assert inst.alpha == pytest.approx(0.37)


def test_user_ids_zero_padded():
    inst = generate(GenConfig(num_users=100, num_transactions=500, alpha=0.3, seed=0))
    assert inst.user_ids[0] == "u00"
    assert inst.user_ids[99] == "u99"
    single = generate(GenConfig(num_users=1, num_transactions=5, alpha=1.0,
                                num_apps=1, seed=0))
    assert single.user_ids == ("u0",) or list(single.user_ids) == ["u0"]


# ------------------------------------------------------- reduce_3partition


def test_reduction_shape():
    inst, budget = reduce_3partition([5, 5, 5, 6, 7, 8], 18)
    assert budget == 6
    assert inst.num_users == 6
    assert inst.num_apps == 2
    assert [int(c) for c in inst.capacities] == [18, 18]
    assert [int(t) for t in inst.demands] == [5, 5, 5, 6, 7, 8]
    assert inst.pre_indices.size == 0  # nothing preinstalled


def test_reduction_item_count_error():
    with pytest.raises(ValueError, match="multiple of 3, got 4"):
        reduce_3partition([1, 1, 1, 1], 3)


def test_reduction_bad_B():
    with pytest.raises(ValueError, match="positive integer"):
        reduce_3partition([1, 1, 1], 0)


# ------------------------------------------------------- config handling


def test_genconfig_from_json(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({
        "num_users": 10,
        "num_transactions": 100,
        "num_apps": 3,
        "apps_per_user": {"1": 0.5, "2": 0.5},
        "alpha": 0.5,
        "seed": 6,
    }))
    cfg = genconfig_from_file(path)
    assert cfg.num_users == 10
    assert cfg.apps_per_user == {1: 0.5, 2: 0.5}  # keys coerced to int
    inst = generate(cfg)
    assert inst.total_demand == 100


def test_genconfig_from_toml(tmp_path):
    path = tmp_path / "gen.toml"
    path.write_text(
        'num_users = 10\nnum_transactions = 100\nnum_apps = 3\nalpha = 0.5\nseed = 6\n'
        "[apps_per_user]\n1 = 0.5\n2 = 0.5\n"
    )
    cfg = genconfig_from_file(path)
    json_cfg = genconfig_from_file(_write_json_twin(tmp_path))
    assert cfg == json_cfg


def _write_json_twin(tmp_path):
    path = tmp_path / "gen_twin.json"
    path.write_text(json.dumps({
        "num_users": 10,
        "num_transactions": 100,
        "num_apps": 3,
        "apps_per_user": {"1": 0.5, "2": 0.5},
        "alpha": 0.5,
        "seed": 6,
    }))
    return path


def test_genconfig_rejects_unknown_keys(tmp_path):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps({"num_users": 5, "num_transactions": 50, "typo": 1}))
    with pytest.raises(ValueError, match="unknown generator config keys: typo"):
        genconfig_from_file(path)


def test_validate_transaction_floor():
    with pytest.raises(ValueError, match="every user needs at least one"):
        GenConfig(num_users=10, num_transactions=9).validate()


def test_validate_rejects_zero_share():
    cfg = GenConfig(num_users=5, num_transactions=50, num_apps=2,
                    market_shares=[1.0, 0.0])
    with pytest.raises(ValueError, match="zero mass is illegal"):
        cfg.validate()


def test_validate_share_length():
    cfg = GenConfig(num_users=5, num_transactions=50, num_apps=3,
                    market_shares=[0.5, 0.5])
    with pytest.raises(ValueError, match="length 2 != num_apps 3"):
        cfg.validate()


def test_validate_alpha_floor():
    cfg = GenConfig(num_users=5, num_transactions=50, num_apps=4, alpha=0.2)
    with pytest.raises(ValueError, match="alpha below 1/num_apps"):
        cfg.validate()


def test_validate_alpha_not_finite():
    cfg = GenConfig(num_users=5, num_transactions=50, num_apps=4, alpha=float("inf"))
    with pytest.raises(ValueError, match="alpha must be finite"):
        cfg.validate()


def test_validate_seed_range():
    cfg = GenConfig(num_users=5, num_transactions=50, seed=2**64)
    with pytest.raises(ValueError, match="64-bit"):
        cfg.validate()


def test_validate_negative_skew():
    cfg = GenConfig(num_users=5, num_transactions=50, skew_exponent=-1.0)
    with pytest.raises(ValueError, match="skew_exponent"):
        cfg.validate()
