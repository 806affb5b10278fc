"""Deterministic derivation of independent RNG streams.

Every randomized stage (split, resampler, weight init, batch shuffle,
grid cell) gets its own generator derived from a stable hash of the
run seed plus a structural key, so no stage's draws depend on how many
draws another stage consumed.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["CELL_SEED", "derive_rng", "derive_seed"]

# Metadata of a spec's seed field that experiment.run_cell derives for each
# grid cell; config documents neither set nor echo such a field.
CELL_SEED = {"cell_seed": True}


def derive_seed(*parts: int | str) -> int:
    """Stable 64-bit seed from a sequence of ints and strings."""
    key = "/".join(_canonical(p) for p in parts)
    digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_rng(*parts: int | str) -> np.random.Generator:
    return np.random.default_rng(derive_seed(*parts))


def _canonical(part: int | str) -> str:
    if isinstance(part, bool) or not isinstance(part, (int, str)):
        raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
    return str(part)
