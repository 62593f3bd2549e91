"""Constant-size graph sketches from signed string hashes.

A hash family holds ``sketch_bits`` independent functions mapping a chunk
to +1 or -1. Each function is a multilinear form over random 64-bit
coefficients: for a chunk ``c`` of length n, coefficient 0 plus the sum of
coefficient i+1 times the ASCII code of character i, all in wrapping
64-bit arithmetic, reduced mod 2 and mapped to {-1, +1}.
:meth:`HashFamily.hash_chunk` evaluates one function with Python integers
and is the reference.

:meth:`HashFamily.hash_rows` evaluates every function on a batch of
chunks with one float64 matrix product and gives exactly the reference
values. Each coefficient is split into a low and a high 32-bit half.
Every chunk becomes a row of codes: 1 for the constant coefficient, then
its characters, then 0 up to the batch's longest chunk. The rows are
multiplied by both halves at once. A character code is at most 127, so
each product is below 2**39, and a row of at most 2**14 characters sums
to less than 2**32 * (1 + 127 * 2**14) < 2**53. Below 2**53 float64
holds every integer exactly, in any summation order, so the family
refuses a ``max_chunk_len`` above 2**14. The two half sums are then added
back together in wrapping ``uint64`` arithmetic as low + (high << 32),
which is the multilinear sum mod 2**64.

Products are taken in blocks of rows sized from ``sketch_bits``, so that
each temporary stays within 128 KiB. A block so small that a BLAS call
would cost more than its arithmetic, such as one new chunk at L=100, is
multiplied in numpy's own ``uint64`` loop instead, which wraps mod 2**64
and needs no split. ``hash_rows`` caches each chunk's values as a
read-only array of its own and hashes only the chunks it has not seen;
``batch_projection`` hashes a whole vector block by block, without the
cache.

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
from typing import Collection, Mapping, Sequence

import numpy as np

from .shingles import ChunkDelta

# Hash-value cache entries kept per family before the cache is reset.
_CACHE_LIMIT = 1 << 18
# Longest chunk that the batched product hashes exactly (see the module doc).
MAX_EXACT_CHUNK_LEN = 1 << 14
# Size of the float64 half sums of one block of rows in a batched hash.
# Larger blocks run slower: their temporaries pass the allocator's 128 KiB
# mmap threshold and fault their pages in again on every batch.
_BLOCK_BYTES = 1 << 17
# Products of at most this many multiply-adds run in numpy's own uint64
# loop instead, which wraps mod 2**64 exactly and costs less than a BLAS
# call: a one-chunk batch at L=100 does, one at L=1000 does not.
_SMALL_PRODUCT = 1 << 13


class HashFamily:
    """Family of ±1-valued chunk hash functions: fixed coefficients, and a
    mutable cache of hashed chunks that every user of the family shares."""

    __slots__ = (
        "coefficients", "sketch_bits", "max_chunk_len", "seed", "_halves", "_block_rows", "_cache",
    )

    def __init__(self, coefficients: np.ndarray, seed: int):
        if coefficients.ndim != 2 or coefficients.shape[1] < 2:
            raise ValueError("coefficient table must be L x (max_chunk_len + 1)")
        _check_chunk_len(int(coefficients.shape[1]) - 1)
        self.coefficients = np.ascontiguousarray(coefficients, dtype=np.uint64)
        self.sketch_bits = int(coefficients.shape[0])
        self.max_chunk_len = int(coefficients.shape[1]) - 1
        self.seed = seed
        # Row i: the low then the high 32-bit halves of every function's
        # coefficient i, as exact float64 operands.
        table = self.coefficients.T
        self._halves = np.ascontiguousarray(
            np.concatenate((table & np.uint64(0xFFFFFFFF), table >> np.uint64(32)), axis=1),
            dtype=np.float64,
        )
        self._block_rows = max(1, _BLOCK_BYTES // (16 * self.sketch_bits))
        self._cache: dict[str, np.ndarray] = {}

    @classmethod
    def generate(cls, sketch_bits: int, max_chunk_len: int, seed: int) -> "HashFamily":
        if sketch_bits < 1:
            raise ValueError("sketch_bits must be at least 1")
        _check_chunk_len(max_chunk_len)
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
        """±1 values of every function on ``chunk``; the one-chunk :meth:`hash_rows`."""
        return self.hash_rows((chunk,))[0]

    def hash_rows(self, chunks: Collection[str]) -> list[np.ndarray]:
        """±1 values (int8, cached, read-only) of every function on each chunk.

        Chunks not in the cache are hashed together, one product per block
        of rows. A cache reset while they are stored does not lose the
        values of this call's other chunks.
        """
        cache = self._cache
        missing = [chunk for chunk in chunks if chunk not in cache]
        if not missing:
            return [cache[chunk] for chunk in chunks]
        rows = [cache.get(chunk) for chunk in chunks]
        hashed = {}
        step = self._block_rows
        for start in range(0, len(missing), step):
            block = missing[start : start + step]
            for chunk, totals in zip(block, self._sums(block)):
                values = _signs(totals)
                values.flags.writeable = False
                if len(cache) >= _CACHE_LIMIT:
                    cache.clear()
                cache[chunk] = hashed[chunk] = values
        return [hashed[c] if row is None else row for c, row in zip(chunks, rows)]

    def _sums(self, chunks: Sequence[str]) -> np.ndarray:
        """Multilinear sums mod 2**64 (uint64, n x L) of one block of chunks."""
        width = max(map(len, chunks), default=0)
        if width > self.max_chunk_len:
            raise ValueError(f"chunk of length {width} exceeds max_chunk_len {self.max_chunk_len}")
        if not all(chunks):
            raise ValueError("chunk must not be empty")
        # Code 1 picks up the constant coefficient; code 0 pads short
        # chunks and adds nothing.
        padded = "".join("\1" + chunk.ljust(width, "\0") for chunk in chunks).encode("ascii")
        codes = np.frombuffer(padded, dtype=np.uint8).reshape(len(chunks), width + 1)
        if codes.size * self.sketch_bits <= _SMALL_PRODUCT:
            return codes.astype(np.uint64) @ self.coefficients[:, : width + 1].T
        # Exact below 2**53; float64 -> int64 is faster than -> uint64.
        halves = codes.astype(np.float64) @ self._halves[: width + 1]
        halves = halves.astype(np.int64).view(np.uint64)
        bits = self.sketch_bits
        totals = halves[:, bits:] << np.uint64(32)
        totals += halves[:, :bits]
        return totals


def _signs(totals: np.ndarray) -> np.ndarray:
    """±1 hash values (int8, a new array) of multilinear sums, from bit 0 of each sum."""
    return (totals & np.uint64(1)).astype(np.int8) * 2 - 1


def _check_chunk_len(max_chunk_len: int) -> None:
    if not 1 <= max_chunk_len <= MAX_EXACT_CHUNK_LEN:
        raise ValueError(
            f"max_chunk_len must lie in [1, {MAX_EXACT_CHUNK_LEN}] for exact hashing, "
            f"got {max_chunk_len}"
        )


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


def apply_delta(state: SketchState, family: HashFamily, delta: ChunkDelta) -> SketchState:
    """State after folding a chunk delta into ``state``, which is left unchanged.

    All of the delta's chunks are hashed in one call, so its uncached
    ones share one product.
    """
    net = delta.net
    projection = state.projection.copy()
    for values, count in zip(family.hash_rows(net), net.values()):
        if count == 1:
            np.add(projection, values, out=projection)
        elif count == -1:
            np.subtract(projection, values, out=projection)
        else:
            np.add(projection, values.astype(np.int64) * count, out=projection)
    return SketchState(projection)


def batch_projection(counts: Mapping[str, int], family: HashFamily) -> SketchState:
    """Project a whole chunk-frequency vector at once; oracle for apply_delta.

    Hashes one block of rows at a time and leaves the family's cache alone.
    """
    chunks = list(counts)
    weights = np.fromiter(counts.values(), dtype=np.int64, count=len(chunks))
    projection = np.zeros(family.sketch_bits, dtype=np.int64)
    step = family._block_rows
    for start in range(0, len(chunks), step):
        values = _signs(family._sums(chunks[start : start + step]))
        projection += weights[start : start + step] @ values
    return SketchState(projection)


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
