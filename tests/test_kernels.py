"""The CPython list kernels against the array bodies numba compiles.

Without numba the list twins are what carl, dtas and the tail-drop greedy
run; the array bodies, called here uncompiled, are their reference.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given

from meaf import GenConfig, Instance, _kernels, carl, dtas, generate
from meaf.heuristics import _carl_order

from conftest import tiny_instances


def _orders(inst):
    counts = np.diff(inst.pre_indptr)
    return [
        ("carl", _carl_order(inst, descending=False)),
        ("carl", _carl_order(inst, descending=True)),
        ("dtas", np.lexsort((counts, inst.demands)).astype(np.int64)),
    ]


def _assert_parity(inst):
    """Every kernel output of the list twins equals the array bodies',
    dtype included, with the debug checks off and on; returns the twins'
    outputs."""
    cols = (inst.demands, inst.capacities, inst.pre_indptr, inst.pre_indices)
    outputs = []
    for name, order in _orders(inst):
        for debug in (0, 1):
            got = _kernels.pure[name](*cols, order, debug)
            want = _kernels.arrays[name](*cols, order, debug)
            assert len(got) == len(want) == 7
            for g, w in zip(got, want):
                assert g.dtype == w.dtype
                assert np.array_equal(g, w)
        f_app, f_amt, handled = got[1], got[2], got[4]
        per_app = np.zeros(inst.num_apps, np.int64)
        np.add.at(per_app, f_app, f_amt)
        assert np.array_equal(handled, per_app)
        outputs.append(got)
    got = _kernels.pure["preonly"](*cols)
    want = _kernels.arrays["preonly"](*cols)
    assert all(type(v) is int for v in got)
    assert got == tuple(int(v) for v in want)
    return outputs


@given(tiny_instances())
def test_list_kernels_match_array_bodies(inst):
    _assert_parity(inst)


def _binding(seed):
    """A generated population made to reach every branch: two apps nobody
    has preinstalled (one with no capacity), a capacity-less preinstalled
    app, users with no preinstalled app, and caps too small for all."""
    base = generate(GenConfig(num_users=300, num_transactions=4000, num_apps=5,
                              alpha=0.25, seed=seed))
    rng = np.random.RandomState(seed)
    bare = rng.rand(base.num_users) < 0.15
    keep = np.repeat(~bare, np.diff(base.pre_indptr))
    indptr = np.concatenate(([0], np.cumsum(np.where(bare, 0, np.diff(base.pre_indptr)))))
    caps = [int(c) for c in base.capacities * 0.7] + [150, 0]
    caps[2] = 0
    return Instance(7, caps, base.user_ids, base.demands, indptr, base.pre_indices[keep])


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_list_kernels_match_array_bodies_at_binding_caps(seed):
    inst = _binding(seed)
    never_pre = ~np.isin(np.arange(inst.num_apps), inst.pre_indices)
    for f_user, f_app, f_amt, f_new, handled, rc, unalloc in _assert_parity(inst):
        activated = f_app[f_new == 1]
        assert np.any(~never_pre[activated])  # layer 2: an app others have
        assert np.any(never_pre[activated])  # layer 3: an app nobody had
        assert np.any(unalloc > 0)
    users_short, _ = _kernels.pure["preonly"](
        inst.demands, inst.capacities, inst.pre_indptr, inst.pre_indices)
    assert users_short > 0


def test_debug_check_rejects_broken_accounting():
    _kernels._check_accounting([1, 2], [2, 1], [3, 3])
    for rc, handled in (([1, 2], [1, 1]), ([-1, 2], [4, 1])):
        with pytest.raises(AssertionError, match="capacity accounting"):
            _kernels._check_accounting(rc, handled, [3, 3])


# canonical_json SHA-256 of each heuristic on one 10^4-user population
# at a binding cap, taken from the array bodies before the list twins
# existed.
PINNED = {
    "dtas": "13e186628f09afc4c8b408314ee0062603e764522301ef1a8689665b57629d82",
    "carl-asc": "8f4b0699a0efd3b2f9073cb48740dafa8c19f11dc66677cc37c0048e04e6a5f0",
    "carl-desc": "e71b60ad20e678ec66a28fd5354f1cb3a1c81ab42a8e58a6398a6ab7bc9a3a6e",
}


def test_pinned_heuristic_digests():
    inst = generate(GenConfig(num_users=10**4, num_transactions=2 * 10**5, num_apps=15,
                              alpha=0.08, seed=1))
    for res in (dtas(inst), carl(inst), carl(inst, order="descending")):
        digest = hashlib.sha256(res.canonical_json().encode()).hexdigest()
        assert digest == PINNED[res.algorithm], res.algorithm
