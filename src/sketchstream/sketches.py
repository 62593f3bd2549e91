"""Constant-size graph sketches from signed string hashes.

A hash family holds ``sketch_bits`` independent functions mapping a chunk
to +1 or -1. Each function is a multilinear form over random 64-bit
coefficients: for a chunk ``c`` of length n, coefficient 0 plus the sum of
coefficient i+1 times the ASCII code of character i, all in wrapping
64-bit arithmetic, reduced mod 2 and mapped to {-1, +1}.
:meth:`HashFamily.hash_chunk` evaluates one function with Python integers
and is the reference.

:meth:`HashFamily._sums` evaluates every function on a block of chunks
and gives exactly the reference's 64-bit sums. Every chunk becomes a row of
byte codes: 1 for the constant coefficient, then its characters, then 0 up
to the block's longest chunk. A small block, such as one new chunk at
L=100, is multiplied in numpy's own ``uint64`` loop against the
coefficient table, held transposed so that the product reads it row by
row; that loop wraps mod 2**64 and costs less than a BLAS call. A larger
block goes through one float64 product, which is exact as well: each
coefficient is split into a low and a high 32-bit half, and the rows are
multiplied by both halves at once. A character code is at most 127, so
each product is below 2**39, and a row of at most 2**14 characters sums
to less than 2**32 * (1 + 127 * 2**14) < 2**53. Below 2**53 float64
holds every integer exactly, in any summation order, so the family
refuses a ``max_chunk_len`` above 2**14. The two half sums are then added
back together in wrapping ``uint64`` arithmetic as low + (high << 32).

:meth:`HashFamily._write_values` is the one hashing path: it takes the
sums of blocks of rows sized from ``sketch_bits``, so that each temporary
stays within 128 KiB, maps bit 0 of each sum to -1 or +1 and writes the
block into the int8 rows it is given: a fold's misses into their slab
rows, ``hash_values`` into an array of its own, and ``batch_projection``
into one reused block.

:meth:`HashFamily.fold` adds a map of signed chunk counts to a
projection, into a new array. It is the only reader of the family's
cache: one preallocated int8 slab, one row of ``sketch_bits`` bytes per
chunk, and a dict from chunk to row. One byte budget, ``_CACHE_BYTES``, covers the
slab, the dict and its keys. One dict lookup per chunk finds the cached
rows, and the missing chunks are hashed into the free rows after them.
When they do not fit, the cache is cleared all at once and refilled; it
only memoises, so no output depends on its size. A map of a few chunks is
folded with one ``np.add`` per chunk, a larger one as one float64 product
of its counts with its slab rows. A map with more distinct chunks than the
slab holds skips the slab and is folded by the uncached block product of
``batch_projection``. Each product is exact: every partial sum is an
integer no larger in magnitude than the map's total count, far below
2**53.

A graph's projection vector accumulates, per function, the signed count
of chunks hashed so far. It is held as float64, which adds the products
above with no cast; projections are exact integers while every entry
stays below 2**53 in magnitude. Its sketch is the bool pattern
``projection >= 0``: True stands for +1, so sign(0) = +1. Projections are
additive, so the sketch of a union of graphs is the sign of the sum of
their projections. A ``SketchState`` is a value: its projection is
read-only, its sketch is computed once, and ``apply_delta`` returns a new
state, whose projection the fold's first add allocates.

Coefficients are drawn from numpy's seeded default generator (PCG64),
which is a fixed, portable algorithm: a family is fully determined by
``(sketch_bits, max_chunk_len, seed)``.
"""

from __future__ import annotations

import math
from typing import Collection, Mapping, Sequence

import numpy as np

from .shingles import ChunkDelta

# Bytes of a family's whole hash-value cache. A cached chunk costs its slab
# row, ENTRY_BYTES and its characters, so the slab has
# _CACHE_BYTES // (sketch_bits + ENTRY_BYTES + max_chunk_len) rows: at C=16,
# 7,345 at L=1000 and 34,663 at L=100. A full cache is cleared at once.
_CACHE_BYTES = 1 << 23
# Bytes of the index per cached chunk besides its characters: the dict
# entry, the row int and the key string's header. Python 3.11's worst case,
# traced with tracemalloc just after the dict grows to 65,536 slots: 125.1.
ENTRY_BYTES = 126
# A delta with at most this many distinct chunks is folded one np.add per
# chunk; a larger one in one float64 product, which costs more to set up.
# The two cross between 5 and 6 rows at both L=100 and L=1000 (2-core
# Xeon, numpy 2.4 with one OpenBLAS thread).
_LOOP_ROWS = 5
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
    mutable slab of hashed chunks that every user of the family shares."""

    __slots__ = (
        "coefficients", "sketch_bits", "max_chunk_len", "seed", "_table", "_halves",
        "_block_rows", "_slab", "_index",
    )

    def __init__(self, coefficients: np.ndarray, seed: int):
        if coefficients.ndim != 2 or coefficients.shape[1] < 2:
            raise ValueError("coefficient table must be L x (max_chunk_len + 1)")
        _check_chunk_len(int(coefficients.shape[1]) - 1)
        # Row i: every function's coefficient i, the right operand of a product.
        table = self._table = np.ascontiguousarray(coefficients.T, dtype=np.uint64)
        self.coefficients = table.T
        self.sketch_bits = int(coefficients.shape[0])
        self.max_chunk_len = int(coefficients.shape[1]) - 1
        self.seed = seed
        # Row i: the low then the high 32-bit halves of every function's
        # coefficient i, as exact float64 operands.
        self._halves = np.ascontiguousarray(
            np.concatenate((table & np.uint64(0xFFFFFFFF), table >> np.uint64(32)), axis=1),
            dtype=np.float64,
        )
        self._block_rows = max(1, _BLOCK_BYTES // (16 * self.sketch_bits))
        # Cached values, one int8 row per chunk; pages are touched only as
        # rows are written. ``_index`` maps a chunk to its row, and rows
        # 0 .. len(_index) - 1 are in use.
        rows = _CACHE_BYTES // (self.sketch_bits + ENTRY_BYTES + self.max_chunk_len)
        self._slab = np.empty((max(1, rows), self.sketch_bits), np.int8)
        self._index: dict[str, int] = {}

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
        """±1 values (int8, an array of its own) of every function on ``chunk``.

        Hashes the chunk again on every call and leaves the slab alone.
        """
        values = np.empty((1, self.sketch_bits), np.int8)
        self._write_values((chunk,), values)
        return values[0]

    def fold(self, projection: np.ndarray, counts: Mapping[str, int]) -> np.ndarray:
        """A new array: ``projection`` (float64, left unchanged) plus the chunk counts ``counts``.

        The uncached chunks are hashed together into the slab. A map with
        more distinct chunks than the slab holds is projected without it.
        """
        if len(counts) > len(self._slab):
            return projection + _project(counts, self)
        rows = self._rows(counts)
        slab = self._slab
        if len(rows) > _LOOP_ROWS:
            weights = np.fromiter(counts.values(), dtype=np.float64, count=len(rows))
            return projection + _weighted_sum(weights, slab[rows])
        # The first add allocates the sum, and the others add into it.
        out = None
        for row, count in zip(rows, counts.values()):
            if count == 1:
                out = np.add(projection, slab[row], out=out)
            elif count == -1:
                out = np.subtract(projection, slab[row], out=out)
            else:
                out = np.add(projection, slab[row] * np.float64(count), out=out)
            projection = out
        return projection.copy() if out is None else out

    def _rows(self, chunks: Collection[str]) -> list[int]:
        """Slab rows that hold the values of distinct ``chunks``, no more than the slab holds.

        One lookup finds the cached chunks. The others are hashed straight
        into the free rows after them; when they do not fit, the slab is
        cleared first and every chunk is hashed again, so all the rows
        returned stay valid until the next call.
        """
        index = self._index
        rows = list(map(index.get, chunks))
        if None in rows:
            base = len(index)
            missing = [chunk for chunk, row in zip(chunks, rows) if row is None]
            if base + len(missing) > len(self._slab):
                index.clear()
                base, missing = 0, list(chunks)
            self._write_values(missing, self._slab[base : base + len(missing)])
            for row, chunk in enumerate(missing, base):
                index[chunk] = row
            rows = list(map(index.__getitem__, chunks))
        return rows

    def _write_values(self, chunks: Sequence[str], out: np.ndarray) -> None:
        """Write the ±1 values of ``chunks`` into the int8 rows of ``out``, a block at a time."""
        step = self._block_rows
        for start in range(0, len(chunks), step):
            sums = self._sums(chunks[start : start + step])
            # Bit 0 of each sum, 0 or 1, becomes -1 or +1 in place.
            block = out[start : start + step]
            np.bitwise_and(sums, 1, out=block, casting="unsafe")
            block += block
            block -= 1

    def _sums(self, chunks: Sequence[str]) -> np.ndarray:
        """Multilinear sums mod 2**64 (uint64, n x L) of one non-empty block of chunks."""
        width = max(map(len, chunks))
        if width > self.max_chunk_len:
            raise ValueError(f"chunk of length {width} exceeds max_chunk_len {self.max_chunk_len}")
        if not all(chunks):
            raise ValueError("chunk must not be empty")
        # Code 1 picks up the constant coefficient; code 0 pads short
        # chunks and adds nothing.
        padded = "".join(["\1" + chunk.ljust(width, "\0") for chunk in chunks]).encode("ascii")
        codes = np.frombuffer(padded, dtype=np.uint8).reshape(len(chunks), width + 1)
        if codes.size * self.sketch_bits <= _SMALL_PRODUCT:
            return codes.astype(np.uint64) @ self._table[: width + 1]
        # Exact below 2**53; float64 -> int64 is faster than -> uint64.
        halves = codes.astype(np.float64) @ self._halves[: width + 1]
        halves = halves.astype(np.int64).view(np.uint64)
        bits = self.sketch_bits
        totals = halves[:, bits:] << np.uint64(32)
        totals += halves[:, :bits]
        return totals


def _check_chunk_len(max_chunk_len: int) -> None:
    if not 1 <= max_chunk_len <= MAX_EXACT_CHUNK_LEN:
        raise ValueError(
            f"max_chunk_len must lie in [1, {MAX_EXACT_CHUNK_LEN}] for exact hashing, "
            f"got {max_chunk_len}"
        )


def sign_bits(projection: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sign pattern (bool, True for +1) of a projection, with sign(0) = +1."""
    return np.greater_equal(projection, 0, out=out)


class SketchState:
    """A graph's projection and its sign sketch; takes ``projection`` and makes it read-only."""

    __slots__ = ("projection", "sketch")

    def __init__(self, projection: np.ndarray):
        projection.setflags(write=False)
        self.projection = projection
        self.sketch = sign_bits(projection)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SketchState):
            return NotImplemented
        return bool(np.array_equal(self.projection, other.projection))


def fresh_state(sketch_bits: int) -> SketchState:
    """State of an empty graph: zero projection, all-True (+1) sketch."""
    return SketchState(np.zeros(sketch_bits))


def apply_delta(state: SketchState, family: HashFamily, delta: ChunkDelta) -> SketchState:
    """State after folding a chunk delta into ``state``, which is left unchanged."""
    return SketchState(family.fold(state.projection, delta.net))


def batch_projection(counts: Mapping[str, int], family: HashFamily) -> SketchState:
    """Project a whole chunk-frequency vector at once; oracle for apply_delta.

    Leaves the family's slab alone.
    """
    return SketchState(_project(counts, family))


def _project(counts: Mapping[str, int], family: HashFamily) -> np.ndarray:
    """Projection (float64) of signed chunk counts, hashed one block of rows at a time."""
    chunks = list(counts)
    weights = np.fromiter(counts.values(), dtype=np.float64, count=len(chunks))
    projection = np.zeros(family.sketch_bits)
    step = family._block_rows
    values = np.empty((min(step, len(chunks)), family.sketch_bits), np.int8)
    for start in range(0, len(chunks), step):
        block = values[: len(chunks) - start]
        family._write_values(chunks[start : start + step], block)
        projection += _weighted_sum(weights[start : start + step], block)
    return projection


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``weights @ values`` (float64) of float64 integer weights and ±1 int8 rows.

    One float64 product, exact while the sum of |weights| stays below 2**53.
    """
    return weights @ values.astype(np.float64)


def _match_fraction(xa: np.ndarray, xb: np.ndarray) -> float:
    if xa.shape != xb.shape:
        raise ValueError("sketches have different widths")
    if xa.dtype != xb.dtype:
        raise ValueError(f"sketches have different dtypes: {xa.dtype} and {xb.dtype}")
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
