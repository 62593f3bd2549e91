"""Constant-size graph sketches from signed string hashes.

A hash family holds ``sketch_bits`` independent functions mapping a chunk
to +1 or -1. Each function is a multilinear form over random 64-bit
coefficients: for a chunk ``c`` of length n, coefficient 0 plus the sum of
coefficient i+1 times the ASCII code of character i, all in wrapping
64-bit arithmetic, reduced mod 2 and mapped to {-1, +1}. Wrapping is
exact here because 2**64 is even, so the parity of the wrapped sum equals
the parity of the true sum.

A graph's projection vector accumulates, per function, the signed count
of chunks hashed so far; its sketch is the sign pattern of the projection
with sign(0) = +1. Projections are additive, so the sketch of a union of
graphs is the sign of the sum of their projections. A ``SketchState`` is
a value: its projection is read-only, its sketch is computed once, and
``apply_delta`` returns a new state.

Coefficients are drawn from numpy's seeded default generator (PCG64),
which is a fixed, portable algorithm: a family is fully determined by
``(sketch_bits, max_chunk_len, seed)``.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

from .shingles import ChunkDelta

# Hash-value cache entries kept per family before the cache is reset.
_CACHE_LIMIT = 1 << 18


class HashFamily:
    """Immutable family of ±1-valued chunk hash functions."""

    __slots__ = ("coefficients", "sketch_bits", "max_chunk_len", "seed", "_cache")

    def __init__(self, coefficients: np.ndarray, seed: int):
        if coefficients.ndim != 2 or coefficients.shape[1] < 2:
            raise ValueError("coefficient table must be L x (max_chunk_len + 1)")
        self.coefficients = np.ascontiguousarray(coefficients, dtype=np.uint64)
        self.sketch_bits = int(coefficients.shape[0])
        self.max_chunk_len = int(coefficients.shape[1]) - 1
        self.seed = seed
        self._cache: dict[str, np.ndarray] = {}

    @classmethod
    def generate(cls, sketch_bits: int, max_chunk_len: int, seed: int) -> "HashFamily":
        if sketch_bits < 1:
            raise ValueError("sketch_bits must be at least 1")
        if max_chunk_len < 1:
            raise ValueError("max_chunk_len must be at least 1")
        rng = np.random.default_rng(seed)
        table = rng.integers(
            0, 2**64, size=(sketch_bits, max_chunk_len + 1), dtype=np.uint64
        )
        return cls(table, seed)

    def hash_chunk(self, function_index: int, chunk: str) -> int:
        """Evaluate one function on one chunk; reference scalar path."""
        if len(chunk) > self.max_chunk_len:
            raise ValueError(
                f"chunk of length {len(chunk)} exceeds max_chunk_len {self.max_chunk_len}"
            )
        if not chunk:
            raise ValueError("chunk must not be empty")
        row = self.coefficients[function_index]
        total = int(row[0])
        for i, char in enumerate(chunk):
            total += int(row[i + 1]) * ord(char)
        return 2 * (total % 2) - 1

    def hash_values(self, chunk: str) -> np.ndarray:
        """±1 values of every function on ``chunk`` (int8, cached, read-only)."""
        values = self._cache.get(chunk)
        if values is None:
            n = len(chunk)
            if n > self.max_chunk_len:
                raise ValueError(
                    f"chunk of length {n} exceeds max_chunk_len {self.max_chunk_len}"
                )
            if n == 0:
                raise ValueError("chunk must not be empty")
            codes = np.frombuffer(chunk.encode("ascii"), dtype=np.uint8).astype(np.uint64)
            totals = self.coefficients[:, 0] + self.coefficients[:, 1 : n + 1] @ codes
            values = 2 * (totals & np.uint64(1)).astype(np.int8) - 1
            values.flags.writeable = False
            if len(self._cache) >= _CACHE_LIMIT:
                self._cache.clear()
            self._cache[chunk] = values
        return values


def sign_bits(projection: np.ndarray) -> np.ndarray:
    """±1 sign pattern (int8) of a projection, with sign(0) = +1."""
    # A bool array viewed as int8 holds 0/1; this is 1.4-1.8x faster than
    # np.where(projection >= 0, 1, -1) at 100-1000 bits.
    return (projection >= 0).view(np.int8) * 2 - 1


class SketchState:
    """A graph's projection and its sign sketch; takes ``projection`` and makes it read-only."""

    __slots__ = ("projection", "sketch")

    def __init__(self, projection: np.ndarray):
        projection.setflags(write=False)
        self.projection = projection
        self.sketch = sign_bits(projection)

    @property
    def sketch_bits(self) -> int:
        return int(self.projection.shape[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SketchState):
            return NotImplemented
        return bool(np.array_equal(self.projection, other.projection))


def fresh_state(sketch_bits: int) -> SketchState:
    """State of an empty graph: zero projection, all-ones sketch."""
    return SketchState(np.zeros(sketch_bits, dtype=np.int64))


def _fold(
    projection: np.ndarray, family: HashFamily, counts: Mapping[str, int], op=np.add
) -> np.ndarray:
    """Add (or, with ``op=np.subtract``, remove) ``count`` hash values per chunk, in place."""
    for chunk, count in counts.items():
        values = family.hash_values(chunk)
        op(projection, values if count == 1 else values.astype(np.int64) * count, out=projection)
    return projection


def apply_delta(state: SketchState, family: HashFamily, delta: ChunkDelta) -> SketchState:
    """State after folding a chunk delta into ``state``, which is left unchanged."""
    projection = _fold(state.projection.copy(), family, delta.incoming)
    return SketchState(_fold(projection, family, delta.outgoing, np.subtract))


def batch_projection(counts: Mapping[str, int], family: HashFamily) -> SketchState:
    """Project a whole chunk-frequency vector at once; oracle for apply_delta."""
    return SketchState(_fold(np.zeros(family.sketch_bits, dtype=np.int64), family, counts))


def merge(a: SketchState, b: SketchState) -> SketchState:
    """State of the union of two graphs: projections add."""
    if a.sketch_bits != b.sketch_bits:
        raise ValueError("cannot merge sketches of different widths")
    return SketchState(a.projection + b.projection)


def _match_fraction(xa: np.ndarray, xb: np.ndarray) -> float:
    if xa.shape != xb.shape:
        raise ValueError("sketches have different widths")
    return float(np.count_nonzero(xa == xb)) / xa.shape[0]


def estimate_cosine(xa: np.ndarray, xb: np.ndarray) -> float:
    """Cosine similarity estimated from two sign sketches.

    With match fraction f over the sketch bits, the estimate is
    cos(pi * (1 - f)): identical sketches give 1.0, half-matching ones 0.
    """
    return math.cos(math.pi * (1.0 - _match_fraction(xa, xb)))


def cosine_distance(xa: np.ndarray, xb: np.ndarray) -> float:
    """1 - estimate_cosine; the distance used for clustering and scoring."""
    return 1.0 - estimate_cosine(xa, xb)
