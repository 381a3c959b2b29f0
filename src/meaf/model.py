"""Domain types for activation-minimizing transaction routing.

An instance is a set of users with integer transaction demands, a set of
apps with integer capacity caps, and per-user preinstalled app sets.  A
user/app pair that is not preinstalled is a "dashed" edge: routing flow
over it requires activating (installing) the app for that user, and the
number of such activations is the objective solvers minimise.

Instances are stored columnwise (numpy arrays) so that million-user
inputs stay cheap; :class:`UserRecord` views are materialised on demand.
Instances are immutable after validation.
"""

from __future__ import annotations

import gc
import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "InstanceError",
    "UserRecord",
    "Instance",
    "Allocation",
    "SolveResult",
    "VerificationReport",
    "validate_instance",
    "verify_allocation",
    "dashed_edges",
    "instance_to_dict",
    "instance_from_dict",
    "read_instance",
    "write_instance",
    "allocation_to_dict",
    "allocation_from_dict",
    "read_allocation",
    "write_allocation",
    "canonical_dumps",
    "format_count",
]


class InstanceError(ValueError):
    """Instance data violates a structural constraint."""


@dataclass(frozen=True)
class UserRecord:
    """One user: opaque id, positive demand, preinstalled app ids."""

    id: str
    demand: int
    preinstalled: frozenset[int] = field(default_factory=frozenset)


_INT64_MAX = 2**63 - 1


def _check_alpha(alpha, num_apps: int) -> float:
    """A uniform cap fraction as a float: a finite number, not a bool or a
    string, and at least 1/num_apps."""
    if isinstance(alpha, (bool, np.bool_)) or not isinstance(alpha, numbers.Real):
        raise InstanceError("alpha must be a number, got %r" % (alpha,))
    alpha = float(alpha)
    if not math.isfinite(alpha):
        raise InstanceError("alpha must be finite, got %r" % alpha)
    if alpha < 1.0 / num_apps:
        raise InstanceError("alpha below 1/num_apps: %g < 1/%d" % (alpha, num_apps))
    return alpha


def _int64_column(values, what: str) -> np.ndarray:
    """values as int64; InstanceError for a bool, a non-integer or a value
    outside int64, where a cast would truncate or wrap it."""
    if isinstance(values, (list, tuple)):
        for kind in set(map(type, values)):
            if kind is not int and not issubclass(kind, np.integer):
                bad = next(v for v in values if type(v) is kind)
                raise InstanceError("%s must be an integer, got %r" % (what, bad))
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            raise InstanceError("%s does not fit in int64" % what) from None
    column = np.asarray(values)
    if column.size and column.dtype.kind not in "iu":
        raise InstanceError("%s must be an integer, got %s values" % (what, column.dtype))
    if column.dtype.kind == "u" and column.size and int(column.max()) > _INT64_MAX:
        raise InstanceError("%s does not fit in int64" % what)
    return column.astype(np.int64, copy=False)


def _check_str_ids(ids: list) -> None:
    for kind in set(map(type, ids)):
        if not issubclass(kind, str):
            bad = next(uid for uid in ids if type(uid) is kind)
            raise InstanceError("user id must be a string, got %r" % (bad,))


def _sum_fits_int64(column: np.ndarray) -> bool:
    """Whether a column of non-negative int64 values sums within int64."""
    if not column.size or int(column.max()) * column.size <= _INT64_MAX:
        return True
    return sum(column.tolist()) <= _INT64_MAX


def canonical_dumps(obj) -> str:
    """Canonical JSON: sorted keys, compact separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


@contextmanager
def _gc_paused():
    """Pause the cyclic collector over bulk JSON work.

    json.load and the writers' dict builders create millions of lists and
    dicts, and each collector pass would rescan all of them.  Those trees
    hold no reference cycles, so reference counting still frees them; only
    cycle collection waits.  A caller that had the collector off keeps it off.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _load_json(fh):
    """json.load, with a document nested past the parser's recursion limit
    rejected like any other invalid document."""
    try:
        return json.load(fh)
    except RecursionError:
        raise InstanceError("JSON document is nested too deeply") from None


class Instance:
    """Validated, immutable problem instance.

    Parameters are columnar: ``demands`` (int64, one per user),
    ``pre_indptr``/``pre_indices`` in CSR layout with each user's
    preinstalled app ids sorted ascending.  Pass exactly one of
    ``capacities`` and ``alpha``: a uniform cap fraction gives every app
    alpha times the total demand, rounded up, and serialisation
    round-trips that form.
    """

    # what with_capacities shares with the instance it was called on
    _USER_SLOTS = (
        "num_apps",
        "user_ids",
        "demands",
        "pre_indptr",
        "pre_indices",
        "total_demand",
        "_id_index",
        "_users",
    )
    __slots__ = _USER_SLOTS + ("capacities", "alpha")

    def __init__(self, num_apps, capacities, user_ids, demands, pre_indptr, pre_indices, alpha=None):
        if not isinstance(num_apps, int) or isinstance(num_apps, bool) or num_apps < 1:
            raise InstanceError("num_apps must be a positive integer")

        ids = list(user_ids)
        n = len(ids)
        _check_str_ids(ids)
        unique = set(ids)
        if len(unique) != n:
            seen = set()
            for uid in ids:
                if uid in seen:
                    raise InstanceError("duplicate user id %r" % uid)
                seen.add(uid)
        if "" in unique:
            raise InstanceError("user id must not be empty")

        dem = _int64_column(demands, "demand")
        if dem.shape != (n,):
            raise InstanceError("demands length %d != number of users %d" % (dem.size, n))
        if n and int(dem.min()) < 1:
            bad = int(np.argmin(dem))
            raise InstanceError(
                "user %r has non-positive demand %d" % (ids[bad], int(dem[bad]))
            )
        if not _sum_fits_int64(dem):
            raise InstanceError("total demand does not fit in int64")

        indptr = _int64_column(pre_indptr, "preinstalled row pointer")
        indices = _int64_column(pre_indices, "preinstalled app id")
        if indptr.shape != (n + 1,) or indptr[0] != 0 or int(indptr[-1]) != indices.size:
            raise InstanceError("malformed preinstalled index arrays")
        if np.any(np.diff(indptr) < 0):
            raise InstanceError("malformed preinstalled index arrays")
        if indices.size:
            if int(indices.min()) < 0 or int(indices.max()) >= num_apps:
                bad = int(indices[(indices < 0) | (indices >= num_apps)][0])
                raise InstanceError("app id out of range: %d" % bad)
            # rows must be strictly increasing: sorted and duplicate-free
            boundary = np.zeros(indices.size, dtype=bool)
            starts = indptr[1:-1]
            boundary[starts[starts < indices.size]] = True
            step = np.diff(indices)
            bad = np.flatnonzero(~boundary[1:] & (step <= 0))
            if bad.size:
                pos = int(bad[0])
                uid = ids[int(np.searchsorted(indptr, pos, side="right")) - 1]
                if step[pos] == 0:
                    raise InstanceError(
                        "duplicate preinstalled app %d for user %r" % (int(indices[pos]), uid)
                    )
                raise InstanceError("unsorted preinstalled app ids for user %r" % (uid,))

        dem.setflags(write=False)
        indptr.setflags(write=False)
        indices.setflags(write=False)

        object.__setattr__(self, "num_apps", num_apps)
        object.__setattr__(self, "user_ids", ids)
        object.__setattr__(self, "demands", dem)
        object.__setattr__(self, "pre_indptr", indptr)
        object.__setattr__(self, "pre_indices", indices)
        object.__setattr__(self, "total_demand", int(dem.sum()))
        object.__setattr__(self, "_id_index", None)
        object.__setattr__(self, "_users", None)
        self._set_capacities(capacities, alpha)

    def _set_capacities(self, capacities, alpha) -> None:
        """The capacity part of the check, and the one place a uniform cap
        fraction becomes caps."""
        if capacities is None:
            alpha = _check_alpha(alpha, self.num_apps)
            cap = math.ceil(alpha * self.total_demand)
            try:
                capacities = np.full(self.num_apps, cap, dtype=np.int64)
            except (ValueError, OverflowError, MemoryError) as exc:
                raise InstanceError(
                    "cannot build caps of %d for %d apps: %s" % (cap, self.num_apps, exc)
                ) from None
        elif alpha is not None:
            raise InstanceError("pass exactly one of capacities / alpha")
        caps = _int64_column(capacities, "capacity")
        if caps.ndim != 1 or caps.shape[0] != self.num_apps:
            raise InstanceError(
                "capacity list length %d != num_apps %d" % (caps.size, self.num_apps)
            )
        if caps.size and int(caps.min()) < 0:
            raise InstanceError("negative capacity for app %d" % int(np.argmin(caps)))
        if not _sum_fits_int64(caps):
            raise InstanceError("total capacity does not fit in int64")
        caps.setflags(write=False)
        object.__setattr__(self, "capacities", caps)
        object.__setattr__(self, "alpha", alpha)

    def __setattr__(self, name, value):
        raise AttributeError("Instance is immutable")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_users(cls, num_apps, capacities, users, alpha=None):
        """Build from an iterable of UserRecord / mapping / (id, demand, preinstalled)."""
        return cls(num_apps, capacities, *_user_rows(map(_user_fields, users)), alpha=alpha)

    def with_capacities(self, capacities=None, alpha=None):
        """Same users, new caps (an explicit list or a uniform fraction alpha).

        The users were checked when this instance was built; the new one
        shares their columns and caches and checks only the caps."""
        scaled = object.__new__(Instance)
        for name in Instance._USER_SLOTS:
            object.__setattr__(scaled, name, getattr(self, name))
        scaled._set_capacities(capacities, alpha)
        return scaled

    # -- views ----------------------------------------------------------------

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_solid_edges(self) -> int:
        return int(self.pre_indices.size)

    @property
    def num_dashed_edges(self) -> int:
        return self.num_users * self.num_apps - self.num_solid_edges

    @property
    def users(self) -> list[UserRecord]:
        """Materialised user records (O(n); cached)."""
        if self._users is None:
            out = []
            for i, uid in enumerate(self.user_ids):
                lo, hi = int(self.pre_indptr[i]), int(self.pre_indptr[i + 1])
                out.append(
                    UserRecord(
                        uid,
                        int(self.demands[i]),
                        frozenset(int(a) for a in self.pre_indices[lo:hi]),
                    )
                )
            object.__setattr__(self, "_users", out)
        return self._users

    def preinstalled_of(self, user_index: int) -> np.ndarray:
        lo, hi = int(self.pre_indptr[user_index]), int(self.pre_indptr[user_index + 1])
        return self.pre_indices[lo:hi]

    def user_index(self, user) -> int:
        """Index of a user given its id (str) or an index (int)."""
        if isinstance(user, (int, np.integer)):
            i = int(user)
            if not 0 <= i < self.num_users:
                raise KeyError("user index out of range: %d" % i)
            return i
        if self._id_index is None:
            object.__setattr__(
                self, "_id_index", {uid: i for i, uid in enumerate(self.user_ids)}
            )
        try:
            return self._id_index[user]
        except KeyError:
            raise KeyError("unknown user id %r" % (user,)) from None

    def is_solid(self, user, app: int) -> bool:
        i = self.user_index(user)
        row = self.preinstalled_of(i)
        j = int(np.searchsorted(row, app))
        return j < row.size and int(row[j]) == app

    def solid_key_array(self) -> np.ndarray:
        """Sorted int64 keys u*num_apps+a over all solid edges."""
        if self.pre_indices.size == 0:
            return np.empty(0, dtype=np.int64)
        counts = np.diff(self.pre_indptr)
        rows = np.repeat(np.arange(self.num_users, dtype=np.int64), counts)
        return rows * self.num_apps + self.pre_indices

    def __repr__(self):
        return "Instance(users=%d, apps=%d, total_demand=%d)" % (
            self.num_users,
            self.num_apps,
            self.total_demand,
        )


def _unknown_keys(obj: Mapping, known: set) -> str:
    return ", ".join(sorted(map(repr, set(obj) - known)))


def _user_fields(rec) -> tuple:
    """(id, demand, preinstalled) of a UserRecord, a mapping or a triple."""
    if isinstance(rec, UserRecord):
        return rec.id, rec.demand, rec.preinstalled
    if isinstance(rec, Mapping):
        return rec["id"], rec["demand"], rec.get("preinstalled", ())
    return rec


def _user_rows(users) -> tuple[list, list, list, list]:
    """Columns (ids, demands, indptr, indices) of (id, demand, preinstalled)
    triples, each preinstalled row sorted; Instance checks the values."""
    ids = []
    demands = []
    indptr = [0]
    indices = []
    for uid, dem, pre in users:
        try:
            row = sorted(pre)
        except TypeError:
            raise InstanceError(
                "user %r preinstalled app id must be an integer, got %r" % (uid, pre)
            ) from None
        ids.append(uid)
        demands.append(dem)
        indices.extend(row)
        indptr.append(len(indices))
    return ids, demands, indptr, indices


def _json_users(users):
    """(id, demand, preinstalled) of each user object, checking only the
    JSON shape: an object with the required keys and no others."""
    for rec in users:
        # the type test spares each parsed object the ABC instance check
        if type(rec) is not dict and not isinstance(rec, Mapping):
            raise InstanceError("each user must be a JSON object")
        try:
            uid = rec["id"]
            dem = rec["demand"]
        except KeyError as exc:
            raise InstanceError("user missing field %s" % exc) from None
        pre = rec.get("preinstalled", [])
        if not isinstance(pre, (list, tuple)):
            raise InstanceError("user %r preinstalled must be an array" % (uid,))
        if len(rec) != 2 + ("preinstalled" in rec):
            unknown = _unknown_keys(rec, {"id", "demand", "preinstalled"})
            raise InstanceError("unknown keys in user %r: %s" % (uid, unknown))
        yield uid, dem, pre


def validate_instance(raw) -> Instance:
    """Parse and validate raw instance data (mapping or Instance) into an Instance."""
    if isinstance(raw, Instance):
        return raw
    if not isinstance(raw, Mapping):
        raise InstanceError("instance data must be a JSON object")
    try:
        num_apps = raw["num_apps"]
        cap_field = raw["capacities"]
        users = raw["users"]
    except KeyError as exc:
        raise InstanceError("missing required field %s" % exc) from None
    if len(raw) != 3:
        unknown = _unknown_keys(raw, {"num_apps", "capacities", "users"})
        raise InstanceError("unknown keys in instance: %s" % unknown)

    alpha = None
    if isinstance(cap_field, Mapping):
        if set(cap_field) != {"alpha"}:
            raise InstanceError("capacities object must have exactly the key 'alpha'")
        alpha = cap_field["alpha"]
        cap_field = None
    elif not isinstance(cap_field, (list, tuple)):
        raise InstanceError("capacities must be an array or an object with key 'alpha'")
    if not isinstance(users, (list, tuple)):
        raise InstanceError("users must be an array")

    return Instance(num_apps, cap_field, *_user_rows(_json_users(users)), alpha=alpha)


def dashed_edges(inst: Instance) -> Iterator[tuple[str, int]]:
    """Yield (user id, app id) for every non-preinstalled pair.

    Order: users in input order, apps ascending within a user.
    """
    for i, uid in enumerate(inst.user_ids):
        row = inst.preinstalled_of(i)
        pre = set(int(a) for a in row)
        for a in range(inst.num_apps):
            if a not in pre:
                yield (uid, a)


# -- allocations ---------------------------------------------------------------


class Allocation:
    """Sparse integral routing plus the set of activated (installed) edges.

    Stored columnwise; ``flows`` / ``activated`` / ``unallocated`` views are
    materialised lazily for small-scale convenience.
    """

    __slots__ = (
        "user_ids",
        "flow_user",
        "flow_app",
        "flow_amount",
        "act_user",
        "act_app",
        "un_user",
        "un_amount",
        "_flows",
        "_activated",
        "_unallocated",
    )

    def __init__(self, user_ids, flow_user, flow_app, flow_amount, act_user, act_app,
                 un_user=None, un_amount=None):
        self.user_ids = list(user_ids)
        self.flow_user = _int64_column(flow_user, "flow user index")
        self.flow_app = _int64_column(flow_app, "flow app id")
        self.flow_amount = _int64_column(flow_amount, "flow amount")
        self.act_user = _int64_column(act_user, "activated user index")
        self.act_app = _int64_column(act_app, "activated app id")
        self.un_user = _int64_column(
            un_user if un_user is not None else [], "unallocated user index"
        )
        self.un_amount = _int64_column(
            un_amount if un_amount is not None else [], "unallocated amount"
        )
        self._flows = None
        self._activated = None
        self._unallocated = None

    @classmethod
    def empty(cls, user_ids=()):
        return cls(user_ids, [], [], [], [], [])

    @property
    def flows(self) -> dict[tuple[str, int], int]:
        if self._flows is None:
            self._flows = {
                (self.user_ids[u], int(a)): int(x)
                for u, a, x in zip(
                    self.flow_user.tolist(), self.flow_app.tolist(), self.flow_amount.tolist()
                )
            }
        return self._flows

    @property
    def activated(self) -> set[tuple[str, int]]:
        if self._activated is None:
            self._activated = {
                (self.user_ids[u], int(a))
                for u, a in zip(self.act_user.tolist(), self.act_app.tolist())
            }
        return self._activated

    @property
    def unallocated(self) -> dict[str, int]:
        """Residual demand per user id; users not present implicitly have 0."""
        if self._unallocated is None:
            self._unallocated = {
                self.user_ids[u]: int(x)
                for u, x in zip(self.un_user.tolist(), self.un_amount.tolist())
            }
        return self._unallocated

    @property
    def total_unallocated(self) -> int:
        return int(self.un_amount.sum()) if self.un_amount.size else 0

    def activation_count(self) -> int:
        return int(self.act_user.size)

    def app_loads(self, num_apps: int) -> np.ndarray:
        """Handled transactions per app id over [0, num_apps)."""
        loads = np.zeros(num_apps, dtype=np.int64)
        np.add.at(loads, self.flow_app, self.flow_amount)
        return loads

    def __repr__(self):
        return "Allocation(flows=%d, activated=%d, unallocated=%d)" % (
            self.flow_user.size,
            self.act_user.size,
            self.total_unallocated,
        )


def allocation_to_dict(alloc: Allocation) -> dict:
    ids = alloc.user_ids
    order = np.lexsort((alloc.flow_app, alloc.flow_user))
    flows = [
        [ids[u], a, x]
        for u, a, x in zip(
            alloc.flow_user[order].tolist(),
            alloc.flow_app[order].tolist(),
            alloc.flow_amount[order].tolist(),
        )
    ]
    aorder = np.lexsort((alloc.act_app, alloc.act_user))
    activated = [
        [ids[u], a]
        for u, a in zip(alloc.act_user[aorder].tolist(), alloc.act_app[aorder].tolist())
    ]
    return {
        "flows": flows,
        "activated": activated,
        "unallocated": {k: v for k, v in sorted(alloc.unallocated.items())},
    }


def _json_rows(rows, width: int, what: str) -> list:
    """rows, checked to be an array of arrays of exactly width items."""
    if not isinstance(rows, (list, tuple)):
        raise InstanceError("%s must be an array" % what)
    for kind in set(map(type, rows)):
        if kind is not list and kind is not tuple:
            bad = next(r for r in rows if type(r) is kind)
            raise InstanceError("%s row must be an array, got %r" % (what, bad))
    if set(map(len, rows)) - {width}:
        bad = next(r for r in rows if len(r) != width)
        raise InstanceError("%s row must have %d items, got %r" % (what, width, bad))
    return rows


def allocation_from_dict(raw: Mapping) -> Allocation:
    """Parse an allocation document; InstanceError for every document that
    allocation.schema.json rejects, and for integers outside int64."""
    if not isinstance(raw, Mapping):
        raise InstanceError("allocation data must be a JSON object")
    try:
        flows = _json_rows(raw["flows"], 3, "flows")
        activated = _json_rows(raw["activated"], 2, "activated")
        unallocated = raw["unallocated"]
    except KeyError as exc:
        raise InstanceError("missing required field %s" % exc) from None
    if len(raw) != 3:
        unknown = _unknown_keys(raw, {"flows", "activated", "unallocated"})
        raise InstanceError("unknown keys in allocation: %s" % unknown)
    if not isinstance(unallocated, Mapping):
        raise InstanceError("unallocated must be an object")

    flow_ids = [r[0] for r in flows]
    act_ids = [r[0] for r in activated]
    un_ids = list(unallocated)
    all_ids = flow_ids + act_ids + un_ids
    _check_str_ids(all_ids)
    # users are numbered in order of first appearance
    ids = list(dict.fromkeys(all_ids))
    index = dict(zip(ids, range(len(ids))))
    fu, au, uu = ([index[uid] for uid in uids] for uids in (flow_ids, act_ids, un_ids))

    columns = []
    for values, low, what in (
        ([r[1] for r in flows], 0, "flow app id"),
        ([r[2] for r in flows], 1, "flow amount"),
        ([r[1] for r in activated], 0, "activated app id"),
        (list(unallocated.values()), 1, "unallocated amount"),
    ):
        column = _int64_column(values, what)
        if column.size and int(column.min()) < low:
            raise InstanceError("%s must be at least %d, got %d" % (what, low, int(column.min())))
        columns.append(column)
    fa, fx, aa, ux = columns
    return Allocation(ids, fu, fa, fx, au, aa, uu, ux)


def write_allocation(alloc: Allocation, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh, _gc_paused():
        fh.write(canonical_dumps(allocation_to_dict(alloc)))


def read_allocation(path) -> Allocation:
    with open(path, "r", encoding="utf-8") as fh, _gc_paused():
        return allocation_from_dict(_load_json(fh))


def instance_to_dict(inst: Instance) -> dict:
    if inst.alpha is not None:
        caps = {"alpha": inst.alpha}
    else:
        caps = inst.capacities.tolist()
    indptr = inst.pre_indptr.tolist()
    indices = inst.pre_indices.tolist()
    users = [
        {"id": uid, "demand": dem, "preinstalled": indices[lo:hi]}
        for uid, dem, lo, hi in zip(inst.user_ids, inst.demands.tolist(), indptr, indptr[1:])
    ]
    return {"num_apps": inst.num_apps, "capacities": caps, "users": users}


def instance_from_dict(raw: Mapping) -> Instance:
    return validate_instance(raw)


def write_instance(inst: Instance, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh, _gc_paused():
        fh.write(canonical_dumps(instance_to_dict(inst)))


def read_instance(path) -> Instance:
    with open(path, "r", encoding="utf-8") as fh, _gc_paused():
        return validate_instance(_load_json(fh))


# -- results -------------------------------------------------------------------


@dataclass
class SolveResult:
    """Outcome of one solver run.

    ``activation_count`` is an int for integral solvers and a Fraction for
    the relaxation bound; it is None when no solution was produced
    (budget exceeded, time limit).
    """

    algorithm: str
    status: str  # optimal | heuristic | bound | budget_exceeded | time_limit
    optimal: bool
    activation_count: "int | Fraction | None"
    total_unallocated: "int | None"
    wall_time: float
    allocation: "Allocation | None"

    def to_json_dict(self, include_timing: bool = True) -> dict:
        count = self.activation_count
        if isinstance(count, Fraction) and count.denominator == 1:
            count = int(count)
        if isinstance(count, Fraction):
            count_field = "%d/%d" % (count.numerator, count.denominator)
            approx = float(count)
        else:
            count_field = count
            approx = None if count is None else float(count)
        out = {
            "algorithm": self.algorithm,
            "status": self.status,
            "optimal": self.optimal,
            "activation_count": count_field,
            "activation_count_approx": approx,
            "total_unallocated": self.total_unallocated,
            "allocation": None if self.allocation is None else allocation_to_dict(self.allocation),
        }
        if include_timing:
            out["wall_time_s"] = self.wall_time
        return out

    def canonical_json(self) -> str:
        """Deterministic serialisation: timing excluded."""
        return canonical_dumps(self.to_json_dict(include_timing=False))


def format_count(value) -> str:
    """Human form of an activation count: '26 1/33 ≈ 26.030' for fractions."""
    if value is None:
        return "n/a"
    if isinstance(value, Fraction) and value.denominator != 1:
        whole, rem = divmod(value.numerator, value.denominator)
        if whole:
            exact = "%d %d/%d" % (whole, rem, value.denominator)
        else:
            exact = "%d/%d" % (rem, value.denominator)
        return "%s ≈ %.3f" % (exact, float(value))
    return str(int(value))


# -- verification --------------------------------------------------------------


@dataclass
class VerificationReport:
    ok: bool
    violations: list[str]


def _sorted_member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """np.isin(keys, sorted_keys) for an ascending sorted_keys, by binary search."""
    if not sorted_keys.size:
        return np.zeros(keys.shape, dtype=bool)
    pos = np.searchsorted(sorted_keys, keys).clip(max=sorted_keys.size - 1)
    return sorted_keys[pos] == keys


def verify_allocation(inst: Instance, alloc: Allocation) -> VerificationReport:
    """Check an allocation against an instance.

    ok is True only when every structural invariant holds AND unallocated
    demand is zero everywhere.  Violations are human-readable strings.
    """
    violations: list[str] = []
    m = inst.num_apps
    n = inst.num_users

    # translate the allocation's local user indices to instance indices;
    # a heuristic's allocation lists the instance's own ids, in order
    if alloc.user_ids == inst.user_ids:
        trans = np.arange(n, dtype=np.int64)
    else:
        trans = np.empty(len(alloc.user_ids), dtype=np.int64)
        for j, uid in enumerate(alloc.user_ids):
            try:
                trans[j] = inst.user_index(uid)
            except KeyError:
                trans[j] = -1
                if (
                    alloc.flow_user.size and np.any(alloc.flow_user == j)
                ) or (
                    alloc.act_user.size and np.any(alloc.act_user == j)
                ) or (
                    alloc.un_user.size and np.any(alloc.un_user == j)
                ):
                    violations.append("unknown user id %r" % (uid,))

    fu = trans[alloc.flow_user] if alloc.flow_user.size else np.empty(0, np.int64)
    fa = alloc.flow_app
    fx = alloc.flow_amount
    known = fu >= 0
    if fa.size and (np.any(fa < 0) or np.any(fa >= m)):
        for a in sorted(set(fa[(fa < 0) | (fa >= m)].tolist())):
            violations.append("flow references app id out of range: %d" % a)
        known &= (fa >= 0) & (fa < m)
    if fx.size and np.any(fx < 0):
        for i in np.nonzero(fx < 0)[0][:5]:
            violations.append(
                "negative flow on (%r, %d)" % (alloc.user_ids[int(alloc.flow_user[i])], int(fa[i]))
            )
    fu, fa, fx = fu[known], fa[known], fx[known]

    if fu.size:
        keys = fu * m + fa
        uniq, counts = np.unique(keys, return_counts=True)
        for key in uniq[counts > 1][:5].tolist():
            violations.append(
                "duplicate flow entry (%r, %d)" % (inst.user_ids[key // m], key % m)
            )

    # conservation: per-user flow + unallocated == demand
    flow_per_user = np.zeros(n, dtype=np.int64)
    if fu.size:
        np.add.at(flow_per_user, fu, fx)
    un_per_user = np.zeros(n, dtype=np.int64)
    if alloc.un_user.size:
        uu = trans[alloc.un_user]
        ok_un = uu >= 0
        if np.any(alloc.un_amount < 0):
            for i in np.nonzero(alloc.un_amount < 0)[0][:5]:
                violations.append(
                    "negative unallocated for user %r" % alloc.user_ids[int(alloc.un_user[i])]
                )
        np.add.at(un_per_user, uu[ok_un], alloc.un_amount[ok_un])
    bad_users = np.nonzero(flow_per_user + un_per_user != inst.demands)[0]
    for i in bad_users[:10]:
        violations.append(
            "flow conservation violated for user %r: flow %d + unallocated %d != demand %d"
            % (inst.user_ids[int(i)], int(flow_per_user[i]), int(un_per_user[i]), int(inst.demands[i]))
        )

    # caps
    load = np.zeros(m, dtype=np.int64)
    if fu.size:
        np.add.at(load, fa, fx)
    over = np.nonzero(load > inst.capacities)[0]
    for a in over:
        violations.append(
            "capacity exceeded at app %d by %d" % (int(a), int(load[a] - inst.capacities[a]))
        )

    # activations
    au = trans[alloc.act_user] if alloc.act_user.size else np.empty(0, np.int64)
    aa = alloc.act_app
    akn = au >= 0
    if aa.size and (np.any(aa < 0) or np.any(aa >= m)):
        for a in sorted(set(aa[(aa < 0) | (aa >= m)].tolist())):
            violations.append("activated pair references app id out of range: %d" % a)
        akn &= (aa >= 0) & (aa < m)
    au, aa = au[akn], aa[akn]
    act_keys = np.sort(au * m + aa) if au.size else np.empty(0, np.int64)
    solid_keys = inst.solid_key_array()

    repeated = np.unique(act_keys[1:][act_keys[1:] == act_keys[:-1]])
    for key in repeated[:10].tolist():
        violations.append(
            "activated pair (%r, %d) is listed more than once" % (inst.user_ids[key // m], key % m)
        )

    if act_keys.size:
        in_solid = _sorted_member(act_keys, solid_keys)
        for key in act_keys[in_solid][:10].tolist():
            violations.append(
                "activated pair (%r, %d) is a preinstalled edge" % (inst.user_ids[key // m], key % m)
            )

    # any positive flow on a dashed edge must be activated
    if fu.size:
        pos = fx > 0
        fkeys = (fu * m + fa)[pos]
        dashed = ~_sorted_member(fkeys, solid_keys)
        missing = dashed & ~_sorted_member(fkeys, act_keys)
        for key in fkeys[missing][:10].tolist():
            violations.append(
                "unactivated dashed edge (%r, %d)" % (inst.user_ids[key // m], key % m)
            )

    # full routing required for ok
    short = np.nonzero(un_per_user > 0)[0]
    for i in short[:10]:
        violations.append(
            "user %r has %d unallocated transactions" % (inst.user_ids[int(i)], int(un_per_user[i]))
        )

    return VerificationReport(ok=not violations, violations=violations)
