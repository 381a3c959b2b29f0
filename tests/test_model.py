import gc
import hashlib
import json
import math
import re
import types
from collections.abc import Mapping
from fractions import Fraction
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import meaf
from meaf import (
    Allocation,
    Instance,
    InstanceError,
    SolveResult,
    UserRecord,
    dashed_edges,
    format_count,
    read_allocation,
    read_instance,
    validate_instance,
    verify_allocation,
    write_allocation,
    write_instance,
)
from meaf.model import (
    _sorted_member,
    allocation_from_dict,
    allocation_to_dict,
    canonical_dumps,
    instance_from_dict,
    instance_to_dict,
)

from conftest import tiny_instances


def simple_instance():
    return Instance.from_users(
        2, [3, 3], [("u0", 4, [0]), ("u1", 1, [0]), ("u2", 1, [0])]
    )


def _schema(name):
    return jsonschema.Draft7Validator(json.loads(
        resources.files("meaf").joinpath("data/schemas", name).read_text()
    ))


_INSTANCE_SCHEMA = _schema("instance.schema.json")
_ALLOCATION_SCHEMA = _schema("allocation.schema.json")


def _semantic_checks_pass(doc) -> bool:
    """What a schema-valid instance document must meet beyond the schema."""
    m, caps, users = doc["num_apps"], doc["capacities"], doc["users"]
    apps = [a for u in users for a in u.get("preinstalled", [])]
    demands = [u["demand"] for u in users]
    integers = [m, *demands, *apps, *(caps if isinstance(caps, list) else [])]
    # the schema's "integer" also matches 2.0; the reader takes JSON integers only
    if any(type(v) is not int for v in integers):
        return False
    if any(a >= m for a in apps):
        return False
    ids = [u["id"] for u in users]
    if len(set(ids)) != len(ids):
        return False
    total = sum(demands)
    if isinstance(caps, dict):
        alpha = float(caps["alpha"])
        if not (math.isfinite(alpha) and alpha >= 1 / m):
            return False
        caps = [math.ceil(alpha * total)] * m
    elif len(caps) != m:
        return False
    return max([*demands, total, *caps, sum(caps)]) <= 2**63 - 1


def _mostly(good, *edges):
    """Mostly good, else one of the edge values or strategies; the rare
    branch is a middle value, since hypothesis favours the ends of a range."""
    bad = st.one_of(*(e if isinstance(e, st.SearchStrategy) else st.just(e) for e in edges))
    return st.integers(0, 9).flatmap(lambda k: bad if k == 5 else good)


@st.composite
def _near_schema_documents(draw):
    """Instance documents at and just past the schema's edges."""
    m = draw(_mostly(st.integers(1, 3), 0, -1, True, 2.0, "2", None))
    width = m if type(m) is int and m > 0 else 2
    cap = _mostly(st.integers(0, 5), -1, 2**62, 2**63 - 1, 2**63, 1.5, 2.0, True, "3", None)
    alpha = _mostly(st.sampled_from([0.34, 0.5, 1, 1.0]),
                    0.25, 0, -0.5, 1e300, math.inf, math.nan, True, "0.5", None)
    caps = draw(_mostly(
        st.lists(cap, min_size=width, max_size=width) | st.fixed_dictionaries({"alpha": alpha}),
        st.lists(cap, min_size=width - 1, max_size=width - 1),
        st.lists(cap, min_size=width + 1, max_size=width + 1),
        5, {}, {"alpha": 0.5, "x": 1},
    ))
    app = _mostly(st.integers(0, width), -1, True, 1.5, 1.0, "1", None)
    pre = _mostly(st.lists(app, max_size=3), 0, None, {})
    users = []
    for i in range(draw(st.integers(0, 3))):
        rec = {"id": draw(_mostly(st.just("u%d" % i), "u0", "", 7, None)),
               "demand": draw(_mostly(st.integers(1, 4), 0, 2**62, 2**63, 1.5, 2.0, True, "2"))}
        if draw(st.booleans()):
            rec["preinstalled"] = draw(pre)
        if draw(st.integers(0, 19)) == 5:
            rec["extra"] = 1
        users.append(draw(_mostly(st.just(rec), "u", 5, None)))
    doc = {"num_apps": m, "capacities": caps, "users": draw(_mostly(st.just(users), "u", 5, {}))}
    edit = draw(st.integers(0, 19))
    if edit == 5:
        doc["extra"] = 1
    elif edit == 6:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif edit == 7:
        return [doc]
    return doc


def _allocation_semantics_pass(doc) -> bool:
    """What a schema-valid allocation document must meet beyond the schema:
    JSON integers (the schema's "integer" also matches 2.0) within int64."""
    values = [v for row in doc["flows"] + doc["activated"] for v in row[1:]]
    values += doc["unallocated"].values()
    return all(type(v) is int and v <= 2**63 - 1 for v in values)


@st.composite
def _near_schema_allocations(draw):
    """Allocation documents at and just past the schema's edges."""
    uid = _mostly(st.sampled_from(["a", "b", "", "\u00fc"]), 7, None, ["a"])
    app = _mostly(st.integers(0, 3), -1, 2**63 - 1, 2**63, 1.5, 1.0, True, "1", None)
    amount = _mostly(st.integers(1, 4), 0, -1, 2**63, 2.5, 2.0, True, "3", None)

    def rows(*items):
        row = _mostly(st.tuples(*items).map(list), st.tuples(*items[:-1]).map(list),
                      st.tuples(*items, amount).map(list), "abc", None, {})
        return _mostly(st.lists(row, max_size=3), "x", None, {})

    unallocated = _mostly(st.dictionaries(st.sampled_from(["a", "b"]), amount, max_size=2),
                          [], None, "x")
    doc = {"flows": draw(rows(uid, app, amount)), "activated": draw(rows(uid, app)),
           "unallocated": draw(unallocated)}
    edit = draw(st.integers(0, 19))
    if edit == 5:
        doc["bogus"] = 1
    elif edit == 6:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif edit == 7:
        return [doc]
    return doc


class TestUserRecord:
    def test_frozen(self):
        rec = UserRecord("u", 3, frozenset({0, 1}))
        with pytest.raises(AttributeError):
            rec.demand = 5

    def test_preinstalled_is_frozenset(self):
        rec = UserRecord("u", 3, frozenset({1}))
        assert rec.preinstalled == frozenset({1})


class TestInstanceValidation:
    def test_basic_fields(self):
        inst = simple_instance()
        assert inst.num_users == 3
        assert inst.num_apps == 2
        assert inst.total_demand == 6
        assert inst.num_solid_edges == 3
        assert inst.num_dashed_edges == 3
        assert [u.id for u in inst.users] == ["u0", "u1", "u2"]
        assert inst.users[0].preinstalled == frozenset({0})

    def test_empty_preinstall_rows(self):
        inst = Instance.from_users(3, [2, 2, 2], [("a", 2, []), ("b", 1, [2]), ("c", 1, [])])
        assert inst.num_solid_edges == 1
        assert inst.num_dashed_edges == 8
        assert list(inst.preinstalled_of(0)) == []
        assert list(inst.preinstalled_of(1)) == [2]

    def test_duplicate_user_id(self):
        with pytest.raises(InstanceError, match="duplicate user id"):
            Instance.from_users(1, [5], [("u", 1, []), ("u", 1, [])])

    def test_non_string_id(self):
        with pytest.raises(InstanceError, match="user id must be a string"):
            Instance.from_users(1, [5], [(7, 1, [])])

    def test_empty_user_id_rejected(self):
        with pytest.raises(InstanceError, match="user id must not be empty"):
            Instance.from_users(1, [5], [("", 1, [])])
        with pytest.raises(InstanceError, match="user id must not be empty"):
            validate_instance({"num_apps": 1, "capacities": [5],
                               "users": [{"id": "", "demand": 1}]})

    def test_zero_demand_rejected(self):
        with pytest.raises(InstanceError, match="non-positive demand"):
            Instance.from_users(1, [5], [("u", 0, [])])

    def test_negative_capacity_rejected(self):
        with pytest.raises(InstanceError, match="negative capacity"):
            Instance.from_users(2, [3, -1], [("u", 1, [])])

    def test_capacity_length_mismatch(self):
        with pytest.raises(InstanceError, match="capacity list length"):
            Instance.from_users(2, [3], [("u", 1, [])])

    def test_app_id_out_of_range(self):
        with pytest.raises(InstanceError, match="app id out of range: 2"):
            Instance.from_users(2, [3, 3], [("u", 1, [2])])

    def test_duplicate_preinstall(self):
        with pytest.raises(InstanceError, match="duplicate preinstalled app"):
            Instance.from_users(2, [3, 3], [("u", 1, [0, 0])])

    def test_preinstalled_rows_checked_by_init(self):
        # the CSR check names the user and app of a duplicate, and an
        # unsorted row, which the row builder never produces, is rejected
        with pytest.raises(InstanceError, match="duplicate preinstalled app 1 for user 'b'"):
            Instance(2, [5, 5], ["a", "b"], [3, 1], [0, 1, 3], [0, 1, 1])
        with pytest.raises(InstanceError, match="unsorted preinstalled app ids for user 'a'"):
            Instance(2, [5, 5], ["a", "b"], [3, 1], [0, 2, 2], [1, 0])

    @pytest.mark.parametrize("app", [1.7, True, "1"], ids=["float", "bool", "string"])
    def test_non_integer_app_id_rejected(self, app):
        with pytest.raises(InstanceError, match="preinstalled app id must be an integer"):
            Instance.from_users(2, [5, 5], [("a", 1, [app])])
        with pytest.raises(InstanceError, match="preinstalled app id must be an integer"):
            Instance.from_users(2, [5, 5], [("a", 1, [0, app])])
        with pytest.raises(InstanceError, match="preinstalled app id must be an integer"):
            Instance(2, [5, 5], ["a"], [1], [0, 1], [app])

    def test_float_index_arrays_rejected(self):
        # a cast would truncate 0.9 to app 0
        with pytest.raises(InstanceError, match="preinstalled app id must be an integer"):
            Instance(2, [5, 5], ["a"], [3], [0, 1], np.array([0.9]))
        with pytest.raises(InstanceError, match="must be an integer"):
            Instance(2, [5, 5], ["a"], [3], np.array([0.0, 1.0]), [0])

    @pytest.mark.parametrize("num_apps", [True, 2.0, "2", 0])
    def test_num_apps_must_be_a_positive_int(self, num_apps):
        with pytest.raises(InstanceError, match="num_apps must be a positive integer"):
            Instance(num_apps, [5, 5], ["a"], [3], [0, 1], [0])

    def test_exactly_one_of_capacities_and_alpha(self):
        with pytest.raises(InstanceError, match="exactly one of capacities / alpha"):
            Instance(2, [1, 100], ["a"], [3], [0, 1], [1], alpha=0.5)
        with pytest.raises(InstanceError, match="alpha must be a number"):
            Instance(2, None, ["a"], [3], [0, 1], [1])
        # alpha alone derives the caps, and the written form reads back the same
        inst = Instance(2, None, ["a"], [3], [0, 1], [1], alpha=0.5)
        assert inst.capacities.tolist() == [2, 2] and inst.alpha == 0.5
        back = instance_from_dict(instance_to_dict(inst))
        assert back.capacities.tolist() == [2, 2] and back.alpha == 0.5

    def test_alpha_floor(self):
        with pytest.raises(InstanceError, match="alpha below 1/num_apps"):
            simple_instance().with_capacities(alpha=0.4)

    @pytest.mark.parametrize("alpha", [float("inf"), float("nan")])
    def test_alpha_not_finite(self, alpha):
        with pytest.raises(InstanceError, match="alpha must be finite"):
            simple_instance().with_capacities(alpha=alpha)
        with pytest.raises(InstanceError, match="alpha must be finite"):
            validate_instance({"num_apps": 2, "capacities": {"alpha": alpha},
                               "users": [{"id": "u", "demand": 1}]})

    def test_totals_must_fit_int64(self):
        with pytest.raises(InstanceError, match="total demand does not fit in int64"):
            Instance.from_users(1, [5], [("a", 2**62, [0]), ("b", 2**62, [0])])
        with pytest.raises(InstanceError, match="total capacity does not fit in int64"):
            Instance.from_users(2, [2**62, 2**62], [("a", 1, [0])])
        with pytest.raises(InstanceError, match="demand does not fit in int64"):
            Instance.from_users(1, [5], [("a", 2**63, [0])])
        # the largest totals that fit are accepted, and summed exactly
        inst = Instance.from_users(1, [2**63 - 1], [("a", 2**62, [0]), ("b", 2**62 - 1, [0])])
        assert inst.total_demand == 2**63 - 1

    @pytest.mark.parametrize("caps, demand", [
        ([5.9], 1.7), ([5.9], 1), ([5], 1.7), ([True], 1), ([5], True), ([5], "2"),
    ], ids=["both-float", "float-cap", "float-demand", "bool-cap", "bool-demand", "str-demand"])
    def test_non_integer_values_rejected(self, caps, demand):
        with pytest.raises(InstanceError, match="must be an integer"):
            Instance.from_users(1, caps, [("a", demand, [0])])

    def test_non_integer_columns_rejected(self):
        # a bool among ints, and float arrays, are rejected rather than cast
        with pytest.raises(InstanceError, match="demand must be an integer, got True"):
            Instance.from_users(1, [5], [("a", 2, [0]), ("b", True, [0])])
        with pytest.raises(InstanceError, match="capacity must be an integer"):
            Instance(1, np.array([5.0]), ["a"], [1], [0, 1], [0])
        with pytest.raises(InstanceError, match="demand must be an integer"):
            Instance(1, [5], ["a"], np.array([1.0]), [0, 1], [0])
        with pytest.raises(InstanceError, match="demand does not fit in int64"):
            Instance(1, [5], ["a"], np.array([2**63], dtype=np.uint64), [0, 1], [0])
        # integer arrays of any width are accepted
        inst = Instance(1, np.array([5], dtype=np.uint8), ["a"], np.array([2], dtype=np.int32),
                        [0, 1], [0])
        assert inst.capacities.dtype == np.int64 and inst.demands.tolist() == [2]

    def test_immutable(self):
        inst = simple_instance()
        with pytest.raises(AttributeError):
            inst.num_apps = 5
        with pytest.raises(ValueError):
            inst.demands[0] = 9

    def test_with_capacities_alpha(self):
        inst = simple_instance().with_capacities(alpha=0.5)
        # ceil(0.5 * 6) = 3 per app
        assert inst.capacities.tolist() == [3, 3]
        assert inst.alpha == 0.5

    def test_with_capacities_explicit(self):
        inst = simple_instance().with_capacities(capacities=[1, 9])
        assert inst.capacities.tolist() == [1, 9]
        with pytest.raises(ValueError):
            simple_instance().with_capacities()

    def test_with_capacities_shares_the_users(self):
        inst = simple_instance()
        assert inst.user_index("u2") == 2  # fills the id cache
        scaled = inst.with_capacities(alpha=0.5)
        for name in ("user_ids", "demands", "pre_indptr", "pre_indices", "_id_index"):
            assert getattr(scaled, name) is getattr(inst, name)
        assert scaled.total_demand == inst.total_demand
        assert inst.capacities.tolist() == [3, 3] and inst.alpha is None
        # the caps are still checked
        with pytest.raises(InstanceError, match="exactly one of capacities / alpha"):
            inst.with_capacities(capacities=[3, 3], alpha=0.5)
        with pytest.raises(InstanceError, match="capacity list length 1"):
            inst.with_capacities(capacities=[3])
        with pytest.raises(InstanceError, match="negative capacity"):
            inst.with_capacities(capacities=[3, -1])
        with pytest.raises(InstanceError, match="capacity must be an integer"):
            inst.with_capacities(capacities=[3, 1.5])

    def test_user_index_and_is_solid(self):
        inst = simple_instance()
        assert inst.user_index("u1") == 1
        assert inst.user_index(2) == 2
        with pytest.raises(KeyError):
            inst.user_index("nope")
        assert inst.is_solid("u0", 0)
        assert not inst.is_solid("u0", 1)
        assert inst.is_solid(1, 0)


class TestValidateInstance:
    def test_mapping_form(self):
        inst = validate_instance(
            {
                "num_apps": 2,
                "capacities": [3, 3],
                "users": [
                    {"id": "u0", "demand": 4, "preinstalled": [0]},
                    {"id": "u1", "demand": 1},
                ],
            }
        )
        assert inst.num_users == 2
        assert inst.num_dashed_edges == 3

    def test_alpha_capacities(self):
        inst = validate_instance(
            {
                "num_apps": 2,
                "capacities": {"alpha": 0.5},
                "users": [{"id": "u", "demand": 6, "preinstalled": []}],
            }
        )
        assert inst.capacities.tolist() == [3, 3]

    def test_bool_demand_rejected(self):
        with pytest.raises(InstanceError):
            validate_instance(
                {"num_apps": 1, "capacities": [1], "users": [{"id": "u", "demand": True}]}
            )

    @pytest.mark.parametrize("caps", [[1.5], [True], ["3"]], ids=["float", "bool", "string"])
    def test_non_integer_capacity_rejected(self, caps):
        with pytest.raises(InstanceError, match="capacity must be an integer"):
            validate_instance({"num_apps": 1, "capacities": caps,
                               "users": [{"id": "u", "demand": 1}]})

    @pytest.mark.parametrize("alpha", [True, "0.7", None], ids=["bool", "string", "null"])
    def test_alpha_must_be_a_number(self, alpha):
        with pytest.raises(InstanceError, match="alpha must be a number"):
            validate_instance({"num_apps": 2, "capacities": {"alpha": alpha},
                               "users": [{"id": "u", "demand": 1}]})

    def test_instance_passthrough(self):
        inst = simple_instance()
        assert validate_instance(inst) is inst

    def test_unknown_keys_rejected(self):
        user = {"id": "u", "demand": 1}
        with pytest.raises(InstanceError, match="unknown keys in instance: 'alpha'"):
            validate_instance({"num_apps": 1, "capacities": [5], "users": [user], "alpha": 1})
        with pytest.raises(InstanceError, match="unknown keys in user 'u': 'pre'"):
            validate_instance({"num_apps": 1, "capacities": [5], "users": [dict(user, pre=[0])]})
        with pytest.raises(InstanceError, match="unknown keys in user 'u': 'x'"):
            validate_instance({"num_apps": 1, "capacities": [5],
                               "users": [dict(user, preinstalled=[0], x=None)]})

    def test_preinstalled_rows_are_sorted(self):
        inst = validate_instance({"num_apps": 3, "capacities": [5, 5, 5],
                                  "users": [{"id": "u", "demand": 1, "preinstalled": [2, 0]}]})
        assert inst.pre_indices.tolist() == [0, 2]

    def test_user_may_be_any_mapping(self):
        # a plain dict skips the ABC check; every other mapping still passes it
        class Record(Mapping):
            def __init__(self, fields):
                self._fields = dict(fields)

            def __getitem__(self, key):
                return self._fields[key]

            def __iter__(self):
                return iter(self._fields)

            def __len__(self):
                return len(self._fields)

        class DictRecord(dict):
            pass

        users = [{"id": "a", "demand": 3, "preinstalled": [1, 0]}, {"id": "b", "demand": 2}]
        want = instance_to_dict(
            validate_instance({"num_apps": 2, "capacities": [4, 4], "users": users})
        )
        for kind in (Record, types.MappingProxyType, DictRecord):
            got = validate_instance({"num_apps": 2, "capacities": [4, 4],
                                     "users": [kind(u) for u in users]})
            assert instance_to_dict(got) == want, kind

    @pytest.mark.parametrize("user", [["a", 1], "a", None], ids=["list", "string", "null"])
    def test_user_must_be_an_object(self, user):
        with pytest.raises(InstanceError, match="each user must be a JSON object"):
            validate_instance({"num_apps": 1, "capacities": [5], "users": [user]})

    @settings(max_examples=400)
    @given(st.data())
    def test_schema_parity(self, data):
        # the reader accepts a document iff the JSON Schema does and the
        # checks the schema cannot state pass
        doc = data.draw(_near_schema_documents())
        accepted = _INSTANCE_SCHEMA.is_valid(doc) and _semantic_checks_pass(doc)
        try:
            validate_instance(doc)
        except InstanceError:
            assert not accepted, doc
        else:
            assert accepted, doc


class TestDashedEdges:
    def test_order_and_content(self):
        inst = simple_instance()
        assert list(dashed_edges(inst)) == [("u0", 1), ("u1", 1), ("u2", 1)]

    def test_no_preinstalls(self):
        inst = Instance.from_users(2, [1, 1], [("u", 1, [])])
        assert list(dashed_edges(inst)) == [("u", 0), ("u", 1)]


class TestRoundTrips:
    def test_instance_json_roundtrip(self, tmp_path):
        inst = simple_instance()
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        back = read_instance(path)
        assert back.user_ids == inst.user_ids
        assert back.demands.tolist() == inst.demands.tolist()
        assert back.capacities.tolist() == inst.capacities.tolist()
        assert back.pre_indices.tolist() == inst.pre_indices.tolist()

    def test_alpha_roundtrip(self, tmp_path):
        inst = simple_instance().with_capacities(alpha=0.5)
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        raw = json.loads(path.read_text())
        assert raw["capacities"] == {"alpha": 0.5}
        back = read_instance(path)
        assert back.capacities.tolist() == [3, 3]

    def test_canonical_bytes_stable(self, tmp_path):
        inst = simple_instance()
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_instance(inst, p1)
        write_instance(inst, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert p1.read_bytes().endswith(b"\n")

    @given(tiny_instances())
    def test_dict_roundtrip_property(self, inst):
        back = instance_from_dict(instance_to_dict(inst))
        assert back.user_ids == inst.user_ids
        assert back.demands.tolist() == inst.demands.tolist()
        assert back.capacities.tolist() == inst.capacities.tolist()
        assert back.pre_indptr.tolist() == inst.pre_indptr.tolist()
        assert back.pre_indices.tolist() == inst.pre_indices.tolist()

    def test_allocation_roundtrip(self, tmp_path):
        inst = simple_instance()
        res = meaf.carl(inst, "ascending")
        path = tmp_path / "alloc.json"
        write_allocation(res.allocation, path)
        back = read_allocation(path)
        assert back.flows == res.allocation.flows
        assert back.activated == res.allocation.activated
        assert back.unallocated == res.allocation.unallocated

    def test_writer_bytes_pinned(self, tmp_path):
        # canonical files are byte-stable (docs/formats.md): these digests
        # must not move when the writers change
        inst = meaf.generate(meaf.GenConfig(num_users=10**4, num_transactions=2 * 10**5,
                                            num_apps=15, alpha=0.08, seed=1))
        explicit = inst.with_capacities(capacities=list(range(16000, 16015)))
        write_instance(inst, tmp_path / "alpha.json")
        write_instance(explicit, tmp_path / "explicit.json")
        write_allocation(meaf.dtas(inst).allocation, tmp_path / "dtas.json")
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("alpha.json", "explicit.json", "dtas.json")}
        assert digests == {
            "alpha.json": "7afb76817e8081d81d903892e0a00f41d0baa5cc8947945b03244407b923ca97",
            "explicit.json": "7a1578469503a3e1f9d186c50fa36af17629222dcc02df87f0fbaf9fec1a17f7",
            "dtas.json": "647834b5a17ea229e34229679d0dc41c2bd81ee84f1b62a77fc724e856d1d8d5",
        }
        # non-ASCII ids are escaped; a user without preinstalls gets []
        small = Instance.from_users(2, [5, 4], [("\u00fc-1", 2, [1]), ("\u65e5\u672c", 3, [])])
        write_instance(small, tmp_path / "small.json")
        assert (tmp_path / "small.json").read_bytes() == (
            b'{"capacities":[5,4],"num_apps":2,"users":[{"demand":2,"id":"\\u00fc-1",'
            b'"preinstalled":[1]},{"demand":3,"id":"\\u65e5\\u672c","preinstalled":[]}]}\n'
        )

    @staticmethod
    def _reads_back(res):
        doc = allocation_to_dict(res.allocation)
        assert _ALLOCATION_SCHEMA.is_valid(doc), (res.algorithm, doc)
        assert allocation_to_dict(allocation_from_dict(doc)) == doc

    @given(tiny_instances())
    def test_written_allocations_read_back(self, inst):
        # every allocation the package writes is schema-valid, so the
        # strict reader takes it back unchanged
        results = [meaf.dtas(inst), meaf.carl(inst, "ascending"), meaf.carl(inst, "descending")]
        if inst.total_demand <= int(inst.capacities.sum()):
            results += [meaf.exact_solve(inst), meaf.lp_lower_bound(inst)]
        for res in results:
            self._reads_back(res)

    def test_short_allocations_read_back(self):
        inst = meaf.generate(meaf.GenConfig(num_users=2000, num_transactions=40000,
                                            num_apps=15, alpha=0.08, seed=1))
        short = inst.with_capacities(capacities=(inst.capacities // 2).tolist())
        for res in (meaf.dtas(short), meaf.carl(short, "ascending")):
            assert res.total_unallocated > 0
            self._reads_back(res)

    def test_allocation_dict_is_sorted(self):
        alloc = allocation_from_dict(
            {
                "flows": [["b", 1, 2], ["a", 0, 1], ["a", 1, 1]],
                "activated": [["b", 1], ["a", 1]],
                "unallocated": {"b": 3},
            }
        )
        d = allocation_to_dict(alloc)
        assert d["flows"] == [["b", 1, 2], ["a", 0, 1], ["a", 1, 1]]
        assert d["activated"] == [["b", 1], ["a", 1]]
        assert d["unallocated"] == {"b": 3}


class TestReadAllocation:
    @pytest.mark.parametrize("doc, reason", [
        ({"flows": [["a", 1.7, "3"]], "activated": [], "unallocated": {}},
         "flow app id must be an integer, got 1.7"),
        ({"flows": [["a", 1, "3"]], "activated": [], "unallocated": {}},
         "flow amount must be an integer, got '3'"),
        ({"flows": [], "activated": [["a", True]], "unallocated": {}},
         "activated app id must be an integer, got True"),
        ({"flows": [], "activated": [], "unallocated": {"a": 2.5}},
         "unallocated amount must be an integer, got 2.5"),
        ({"flows": [], "bogus": 1}, "missing required field 'activated'"),
        ({"flows": [], "activated": [], "unallocated": {}, "bogus": 1},
         "unknown keys in allocation: 'bogus'"),
        ({"flows": [["a", 1]], "activated": [], "unallocated": {}},
         "flows row must have 3 items, got ['a', 1]"),
        ({"flows": ["abc"], "activated": [], "unallocated": {}}, "flows row must be an array"),
        ({"flows": [[7, 1, 2]], "activated": [], "unallocated": {}},
         "user id must be a string, got 7"),
        ({"flows": [["a", -1, 2]], "activated": [], "unallocated": {}},
         "flow app id must be at least 0, got -1"),
        ({"flows": [["a", 1, 0]], "activated": [], "unallocated": {}},
         "flow amount must be at least 1, got 0"),
        ({"flows": [], "activated": [], "unallocated": []}, "unallocated must be an object"),
    ], ids=["float-app", "string-amount", "bool-app", "float-unallocated", "missing-key",
            "unknown-key", "short-row", "string-row", "int-id", "negative-app", "zero-amount",
            "unallocated-array"])
    def test_rejects_what_the_schema_rejects(self, doc, reason):
        assert not _ALLOCATION_SCHEMA.is_valid(doc)
        with pytest.raises(InstanceError, match=re.escape(reason)):
            allocation_from_dict(doc)

    @settings(max_examples=400)
    @given(st.data())
    def test_schema_parity(self, data):
        # the reader accepts a document iff the JSON Schema does and its
        # integers are JSON integers within int64
        doc = data.draw(_near_schema_allocations())
        accepted = _ALLOCATION_SCHEMA.is_valid(doc) and _allocation_semantics_pass(doc)
        try:
            allocation_from_dict(doc)
        except InstanceError:
            assert not accepted, doc
        else:
            assert accepted, doc

    def test_over_deep_document_rejected(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text('{"flows": %s%s}' % ("[" * 200000, "]" * 200000))
        with pytest.raises(InstanceError, match="nested too deeply"):
            read_allocation(path)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_bulk_io_leaves_the_collector_as_it_found_it(tmp_path, enabled):
    # the readers and writers pause the cyclic collector; they must hand it
    # back in the caller's state, also when a reader raises
    inst = simple_instance()
    alloc = meaf.dtas(inst).allocation
    bad = tmp_path / "bad.json"
    bad.write_text('{"flows": [["a", 1.7, 3]], "activated": [], "unallocated": {}}')
    steps = [
        lambda: write_instance(inst, tmp_path / "inst.json"),
        lambda: read_instance(tmp_path / "inst.json"),
        lambda: write_allocation(alloc, tmp_path / "alloc.json"),
        lambda: read_allocation(tmp_path / "alloc.json"),
    ]
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for step in steps:
            step()
            assert gc.isenabled() is enabled
        for reader in (read_instance, read_allocation):
            with pytest.raises(InstanceError):
                reader(bad)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


class TestAllocation:
    def test_views(self):
        alloc = allocation_from_dict(
            {
                "flows": [["x", 0, 2], ["y", 1, 3]],
                "activated": [["y", 1]],
                "unallocated": {"x": 1},
            }
        )
        assert alloc.flows == {("x", 0): 2, ("y", 1): 3}
        assert alloc.activated == {("y", 1)}
        assert alloc.unallocated == {"x": 1}
        assert alloc.total_unallocated == 1
        assert alloc.activation_count() == 1
        assert alloc.app_loads(2).tolist() == [2, 3]

    @pytest.mark.parametrize("app, amount, what", [
        ([1.7], [3.9], "flow app id"),
        ([True], [3], "flow app id"),
        ([1], [3.9], "flow amount"),
    ], ids=["float-app", "bool-app", "float-amount"])
    def test_non_integer_columns_rejected(self, app, amount, what):
        with pytest.raises(InstanceError, match="%s must be an integer" % what):
            Allocation(["a"], [0], app, amount, [], [])

    def test_int64_columns_kept_without_a_copy(self):
        column = np.array([0, 1], dtype=np.int64)
        alloc = Allocation(["a", "b"], column, column, column, column, column, column, column)
        for name in ("flow_user", "flow_app", "flow_amount", "act_user", "act_app",
                     "un_user", "un_amount"):
            assert getattr(alloc, name) is column

    def test_empty(self):
        alloc = Allocation.empty(["u"])
        assert alloc.flows == {}
        assert alloc.total_unallocated == 0
        assert alloc.app_loads(3).tolist() == [0, 0, 0]


class TestVerifyAllocation:
    def run(self, inst, raw):
        return verify_allocation(inst, allocation_from_dict(raw))

    def test_good(self):
        inst = simple_instance()
        rep = self.run(
            inst,
            {
                "flows": [["u0", 0, 1], ["u0", 1, 3], ["u1", 0, 1], ["u2", 0, 1]],
                "activated": [["u0", 1]],
                "unallocated": {},
            },
        )
        assert rep.ok and rep.violations == []

    def test_conservation_violation(self):
        rep = self.run(
            simple_instance(),
            {"flows": [["u0", 0, 1], ["u1", 0, 1], ["u2", 0, 1]], "activated": [], "unallocated": {}},
        )
        assert not rep.ok
        assert any("conservation" in v for v in rep.violations)

    def test_unallocated_counts_and_flags(self):
        rep = self.run(
            simple_instance(),
            {
                "flows": [["u0", 0, 1], ["u1", 0, 1], ["u2", 0, 1]],
                "activated": [],
                "unallocated": {"u0": 3},
            },
        )
        assert not rep.ok
        assert any("unallocated" in v for v in rep.violations)
        assert not any("conservation" in v for v in rep.violations)

    def test_capacity_violation(self):
        rep = self.run(
            simple_instance(),
            {
                "flows": [["u0", 0, 4], ["u1", 0, 1], ["u2", 0, 1]],
                "activated": [],
                "unallocated": {},
            },
        )
        assert any("capacity exceeded at app 0 by 3" in v for v in rep.violations)

    def test_unactivated_dashed_flow(self):
        rep = self.run(
            simple_instance(),
            {
                "flows": [["u0", 0, 1], ["u0", 1, 3], ["u1", 0, 1], ["u2", 0, 1]],
                "activated": [],
                "unallocated": {},
            },
        )
        assert any("unactivated dashed edge" in v for v in rep.violations)

    def test_activating_solid_edge_flagged(self):
        rep = self.run(
            simple_instance(),
            {
                "flows": [["u0", 0, 1], ["u0", 1, 3], ["u1", 0, 1], ["u2", 0, 1]],
                "activated": [["u0", 1], ["u1", 0]],
                "unallocated": {},
            },
        )
        assert any("preinstalled edge" in v for v in rep.violations)

    def test_repeated_activation_flagged(self):
        rep = self.run(
            simple_instance(),
            {
                "flows": [["u0", 0, 1], ["u0", 1, 3], ["u1", 0, 1], ["u2", 0, 1]],
                "activated": [["u0", 1], ["u0", 1]],
                "unallocated": {},
            },
        )
        assert not rep.ok
        assert rep.violations == ["activated pair ('u0', 1) is listed more than once"]

    def test_unknown_user(self):
        rep = self.run(
            simple_instance(),
            {"flows": [["ghost", 0, 1]], "activated": [], "unallocated": {}},
        )
        assert any("unknown user id" in v for v in rep.violations)

    def test_id_translation_paths_agree(self):
        # an allocation over the instance's own ids skips the id lookup;
        # the same allocation over its ids in another order takes it
        inst = meaf.generate(meaf.GenConfig(num_users=60, num_transactions=900,
                                            num_apps=4, alpha=0.26, seed=3))
        alloc = meaf.dtas(inst).allocation
        assert alloc.activation_count() > 0
        amounts = alloc.flow_amount.copy()
        amounts[0] += 10**6  # over the cap, and conservation broken
        same = Allocation(inst.user_ids, alloc.flow_user, alloc.flow_app, amounts,
                          alloc.act_user[1:], alloc.act_app[1:])  # one dashed edge unactivated
        n = inst.num_users
        flipped = Allocation(inst.user_ids[::-1], n - 1 - alloc.flow_user, alloc.flow_app,
                             amounts, n - 1 - alloc.act_user[1:], alloc.act_app[1:])
        assert same.user_ids == inst.user_ids and flipped.user_ids != inst.user_ids
        violations = verify_allocation(inst, same).violations
        assert any("capacity exceeded" in v for v in violations)
        assert any("unactivated dashed edge" in v for v in violations)
        assert verify_allocation(inst, flipped).violations == violations

        ghost = Allocation(inst.user_ids + ["ghost"], np.append(alloc.flow_user, n),
                           np.append(alloc.flow_app, 0), np.append(alloc.flow_amount, 1),
                           alloc.act_user, alloc.act_app)
        assert verify_allocation(inst, ghost).violations == ["unknown user id 'ghost'"]

    @given(st.lists(st.integers(-5, 40), max_size=30), st.lists(st.integers(-5, 40), max_size=30))
    def test_sorted_member_matches_isin(self, keys, haystack):
        keys = np.array(keys, dtype=np.int64)
        haystack = np.unique(np.array(haystack, dtype=np.int64))
        got = _sorted_member(keys, haystack)
        assert got.dtype == bool
        assert got.tolist() == np.isin(keys, haystack).tolist()

    def test_negative_flow(self):
        inst = simple_instance()
        alloc = Allocation(inst.user_ids, [0], [0], [-1], [], [], [], [])
        rep = verify_allocation(inst, alloc)
        assert any("negative" in v for v in rep.violations)

    def test_app_out_of_range(self):
        rep = self.run(
            simple_instance(),
            {"flows": [["u0", 5, 1]], "activated": [], "unallocated": {}},
        )
        assert not rep.ok


class TestSolveResultSerialization:
    def test_fraction_rendering(self):
        res = SolveResult(
            algorithm="lp",
            status="bound",
            optimal=False,
            activation_count=Fraction(3, 4),
            total_unallocated=0,
            wall_time=1.5,
            allocation=None,
        )
        d = res.to_json_dict()
        assert d["activation_count"] == "3/4"
        assert d["activation_count_approx"] == 0.75
        assert d["wall_time_s"] == 1.5

    def test_whole_fraction_rendered_as_int(self):
        res = SolveResult("lp", "bound", False, Fraction(2, 1), 0, 0.0, None)
        assert res.to_json_dict()["activation_count"] == 2

    def test_canonical_json_excludes_timing(self):
        res = SolveResult("dtas", "heuristic", False, 1, 0, 2.5, None)
        payload = json.loads(res.canonical_json())
        assert "wall_time_s" not in payload
        assert res.canonical_json().endswith("\n")

    def test_canonical_json_identical_across_timings(self):
        a = SolveResult("dtas", "heuristic", False, 1, 0, 2.5, None)
        b = SolveResult("dtas", "heuristic", False, 1, 0, 9.9, None)
        assert a.canonical_json() == b.canonical_json()


class TestFormatCount:
    def test_mixed_fraction(self):
        assert format_count(Fraction(859, 33)) == "26 1/33 ≈ 26.030"

    def test_proper_fraction(self):
        assert format_count(Fraction(3, 4)) == "3/4 ≈ 0.750"

    def test_integers(self):
        assert format_count(5) == "5"
        assert format_count(Fraction(4, 2)) == "2"
        assert format_count(None) == "n/a"


def test_canonical_dumps_sorted_compact():
    assert canonical_dumps({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}\n'
