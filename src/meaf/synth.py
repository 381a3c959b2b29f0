"""Seeded instance generation and the 3-Partition reduction.

Randomness comes from numpy's legacy RandomState (MT19937), whose stream
is frozen across numpy versions and platforms; only its uniform doubles
are consumed, and every derived draw (inverse-CDF category picks,
weighted sampling) is built on top of them in this module, so a given
seed always produces byte-identical instances.

Demands follow a Zipf-like law over user rank: weight (rank+1)^-s for
skew exponent s, apportioned to the exact transaction total with a
largest-remainder pass on top of a guaranteed minimum of one transaction
per user.  Preinstalled sets draw k apps (k from a small distribution)
without replacement, weighted by per-app market shares, via the
exponential-race equivalence (smallest -log(u)/w keys).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Mapping

import numpy as np

from .model import Instance, _check_alpha

__all__ = [
    "GenConfig",
    "default_market_shares",
    "default_apps_per_user",
    "generate",
    "reduce_3partition",
    "genconfig_from_file",
]

_CHUNK = 65536


def default_market_shares() -> list[float]:
    """Editable default: two dominant apps and a 13-app tail (sums to 1)."""
    text = resources.files("meaf").joinpath("data/default_market_shares.json").read_text()
    return list(json.loads(text))


def default_apps_per_user() -> dict[int, float]:
    return {1: 0.35, 2: 0.40, 3: 0.20, 4: 0.05}


@dataclass
class GenConfig:
    num_users: int
    num_transactions: int
    num_apps: int = 15
    market_shares: "list[float] | None" = None
    apps_per_user: "dict[int, float] | None" = None
    skew_exponent: float = 1.0
    alpha: float = 0.30
    seed: int = 0

    def resolved_shares(self) -> np.ndarray:
        if self.market_shares is not None:
            shares = list(self.market_shares)
        elif self.num_apps == 15:
            shares = default_market_shares()
        else:
            shares = [1.0 / self.num_apps] * self.num_apps
        return np.asarray(shares, dtype=np.float64)

    def resolved_apps_per_user(self) -> "list[tuple[int, float]]":
        dist = self.apps_per_user if self.apps_per_user is not None else default_apps_per_user()
        items = sorted((int(k), float(v)) for k, v in dist.items())
        return [(k, v) for k, v in items if k <= self.num_apps]

    def validate(self) -> None:
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")
        if self.num_apps < 1:
            raise ValueError("num_apps must be >= 1")
        if self.num_transactions < self.num_users:
            raise ValueError(
                "num_transactions %d < num_users %d: every user needs at least one"
                % (self.num_transactions, self.num_users)
            )
        shares = self.resolved_shares()
        if shares.size != self.num_apps:
            raise ValueError(
                "market_shares length %d != num_apps %d" % (shares.size, self.num_apps)
            )
        if np.any(shares <= 0):
            raise ValueError("market_shares must all be positive (zero mass is illegal)")
        if abs(float(shares.sum()) - 1.0) > 1e-9:
            raise ValueError("market_shares must sum to 1 (got %.12f)" % float(shares.sum()))
        dist = self.apps_per_user if self.apps_per_user is not None else default_apps_per_user()
        kept = self.resolved_apps_per_user()
        if not kept:
            raise ValueError("apps_per_user has no category <= num_apps")
        for k, v in dist.items():
            if int(k) < 1:
                raise ValueError("apps_per_user categories must be >= 1")
            if float(v) < 0:
                raise ValueError("apps_per_user weights must be non-negative")
        if sum(v for _k, v in kept) <= 0:
            raise ValueError("apps_per_user weights must have positive mass")
        if self.skew_exponent < 0:
            raise ValueError("skew_exponent must be >= 0")
        _check_alpha(self.alpha, self.num_apps)
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _rng(seed: int) -> np.random.RandomState:
    s = int(seed)
    return np.random.RandomState(np.array([s & 0xFFFFFFFF, s >> 32], dtype=np.uint32))


def _largest_remainder(total: int, weights: np.ndarray) -> np.ndarray:
    """Integer apportionment of `total` proportional to weights (exact sum)."""
    n = weights.size
    if total == 0:
        return np.zeros(n, dtype=np.int64)
    shares = weights / weights.sum()
    ideal = shares * total
    base = np.floor(ideal).astype(np.int64)
    rem = int(total - base.sum())
    if rem > 0:
        frac = ideal - base
        order = np.lexsort((np.arange(n), -frac))
        base[order[:rem]] += 1
    return base


def _demands(cfg: GenConfig) -> np.ndarray:
    n = cfg.num_users
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-float(cfg.skew_exponent))
    extra = _largest_remainder(cfg.num_transactions - n, weights)
    return extra + 1


def generate(cfg: GenConfig) -> Instance:
    """Generate a validated instance; identical cfg -> identical instance."""
    cfg.validate()
    n = cfg.num_users
    m = cfg.num_apps
    rng = _rng(cfg.seed)

    demands = _demands(cfg)

    kept = cfg.resolved_apps_per_user()
    k_values = np.array([k for k, _v in kept], dtype=np.int64)
    k_weights = np.array([v for _k, v in kept], dtype=np.float64)
    cdf = np.cumsum(k_weights / k_weights.sum())

    shares = cfg.resolved_shares()

    counts = np.empty(n, dtype=np.int64)
    rows_indices = []
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        span = hi - lo
        # one flat user-major draw per chunk: user i consumes values
        # [i*(1+m), (i+1)*(1+m)), so the stream position of every draw is
        # independent of the chunk size
        block = rng.random_sample(span * (1 + m)).reshape(span, 1 + m)
        u_k = block[:, 0]
        ks = k_values[np.searchsorted(cdf, u_k, side="right").clip(max=k_values.size - 1)]
        counts[lo:hi] = ks
        u_keys = block[:, 1:]
        # exponential race: the k smallest -log(u)/w are a weighted sample
        # without replacement
        race = -np.log(u_keys) / shares[None, :]
        ranked = np.argsort(race, axis=1, kind="stable")
        # drop each user's ranks past k, sort the kept app ids, then read
        # the rows out user-major in one pass
        ranked[np.arange(m)[None, :] >= ks[:, None]] = m
        ranked.sort(axis=1)
        rows_indices.append(ranked[ranked < m])
    pre_indices = np.concatenate(rows_indices)
    pre_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=pre_indptr[1:])

    width = len(str(n - 1)) if n > 1 else 1
    user_ids = ["u%0*d" % (width, i) for i in range(n)]

    return Instance(
        m,
        None,
        user_ids,
        demands,
        pre_indptr,
        pre_indices,
        alpha=float(cfg.alpha),
    )


def reduce_3partition(items, B: int) -> tuple[Instance, int]:
    """Build the decision instance for a 3-Partition input.

    3m users (demand s_i, nothing preinstalled), m apps of capacity B.
    The items partition into triples summing to B exactly when the full
    demand routes with 3m activations, one per user; that budget is
    returned alongside the instance.
    """
    items = [int(s) for s in items]
    if len(items) == 0 or len(items) % 3 != 0:
        raise ValueError("item count must be a positive multiple of 3, got %d" % len(items))
    m = len(items) // 3
    B = int(B)
    if B < 1:
        raise ValueError("B must be a positive integer")
    total = sum(items)
    if total != m * B:
        raise ValueError(
            "items sum to %d but m*B = %d*%d = %d" % (total, m, B, m * B)
        )
    for s in items:
        if not (4 * s > B and 2 * s < B):
            raise ValueError(
                "item %d violates B/4 < s < B/2 for B=%d" % (s, B)
            )
    width = len(str(3 * m - 1)) if 3 * m > 1 else 1
    user_ids = ["u%0*d" % (width, i) for i in range(3 * m)]
    indptr = [0] * (3 * m + 1)
    inst = Instance(m, [B] * m, user_ids, items, indptr, [])
    return inst, 3 * m


def _config_data_from_file(path) -> Mapping:
    text = open(path, "rb").read()
    name = str(path)
    if name.endswith(".toml"):
        try:
            import tomllib  # py311+
        except ImportError:
            try:
                import tomli as tomllib
            except ImportError:
                raise RuntimeError(
                    "TOML configs need Python 3.11+ or the tomli package; use JSON instead"
                ) from None
        return tomllib.loads(text.decode("utf-8"))
    return json.loads(text.decode("utf-8"))


def genconfig_from_file(path) -> GenConfig:
    """Load a GenConfig from a JSON or TOML file."""
    data = dict(_config_data_from_file(path))
    known = {
        "num_users",
        "num_transactions",
        "num_apps",
        "market_shares",
        "apps_per_user",
        "skew_exponent",
        "alpha",
        "seed",
    }
    unknown = set(data) - known
    if unknown:
        raise ValueError("unknown generator config keys: %s" % ", ".join(sorted(unknown)))
    if "apps_per_user" in data and data["apps_per_user"] is not None:
        data["apps_per_user"] = {int(k): float(v) for k, v in data["apps_per_user"].items()}
    return GenConfig(**data)
