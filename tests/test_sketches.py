import string
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sketchstream import (
    HashFamily,
    SketchState,
    apply_delta,
    batch_projection,
    cosine_distance,
    estimate_cosine,
    exact_cosine,
    fresh_state,
)
from sketchstream import sketches
from sketchstream.shingles import ChunkDelta
from sketchstream.sketches import MAX_EXACT_CHUNK_LEN, sign_bits


def fixed_family(rows):
    return HashFamily(np.array(rows, dtype=np.uint64), seed=0)


def test_family_generation_is_deterministic():
    a = HashFamily.generate(8, 4, seed=1)
    b = HashFamily.generate(8, 4, seed=1)
    assert np.array_equal(a.coefficients, b.coefficients)
    c = HashFamily.generate(8, 4, seed=2)
    assert not np.array_equal(a.coefficients, c.coefficients)


def test_family_rejects_bad_sizes():
    with pytest.raises(ValueError):
        HashFamily.generate(0, 4, seed=1)
    with pytest.raises(ValueError):
        HashFamily.generate(4, 0, seed=1)


def test_hash_chunk_direct_evaluations():
    # coefficients (3, 5): 3 + 5*65 = 328, even, so "A" maps to -1
    assert fixed_family([[3, 5]]).hash_chunk(0, "A") == -1
    # all-even coefficients force -1 for any single character
    family = fixed_family([[2, 4]])
    for char in string.ascii_letters:
        assert family.hash_chunk(0, char) == -1
    # (1, 1, 1) on "ab": 1 + 97 + 98 = 196, even, so -1
    assert fixed_family([[1, 1, 1]]).hash_chunk(0, "ab") == -1
    # odd constant with even multiplier stays odd: +1
    assert fixed_family([[1, 2]]).hash_chunk(0, "a") == 1


def test_hash_chunk_rejects_over_length():
    family = HashFamily.generate(4, 3, seed=1)
    with pytest.raises(ValueError):
        family.hash_chunk(0, "abcd")
    with pytest.raises(ValueError):
        family.hash_values("abcd")


def test_hash_values_matches_scalar_path():
    family = HashFamily.generate(32, 9, seed=77)
    rng = np.random.default_rng(0)
    letters = string.ascii_letters + string.digits + "+/!?"
    for _ in range(50):
        n = int(rng.integers(1, 10))
        chunk = "".join(letters[int(i)] for i in rng.integers(0, len(letters), n))
        expected = [family.hash_chunk(l, chunk) for l in range(32)]
        assert family.hash_values(chunk).tolist() == expected
    assert family._index == {}  # one-chunk hashing leaves the slab alone


def test_wrapping_matches_unbounded_parity():
    # the wrapped 64-bit sum and the exact big-integer sum share parity
    family = HashFamily.generate(16, 6, seed=5)
    chunk = "zzzzzz"
    exact = [
        2 * ((int(family.coefficients[l, 0]) + sum(
            int(family.coefficients[l, i + 1]) * ord(c) for i, c in enumerate(chunk)
        )) % 2) - 1
        for l in range(16)
    ]
    assert family.hash_values(chunk).tolist() == exact


def test_fresh_state_is_all_plus_one():
    state = fresh_state(16)
    assert state.projection.dtype == np.float64 and np.all(state.projection == 0)
    assert state.sketch.dtype == bool and np.all(state.sketch)  # sign(0) = +1


def test_apply_empty_delta_is_identity():
    family = HashFamily.generate(8, 4, seed=3)
    state = fresh_state(8)
    after = apply_delta(state, family, ChunkDelta.cancelled([], []))
    assert np.array_equal(after.projection, state.projection)


def test_apply_single_negative_chunk():
    family = fixed_family([[2, 4]] * 6)  # hashes every single char to -1
    state = apply_delta(fresh_state(6), family, ChunkDelta.cancelled(["q"], []))
    assert state.projection.tolist() == [-1] * 6
    assert state.sketch.tolist() == [False] * 6  # False stands for -1


def test_incoming_then_outgoing_cancels():
    family = HashFamily.generate(16, 4, seed=9)
    state = apply_delta(fresh_state(16), family, ChunkDelta.cancelled(["ab"], []))
    state = apply_delta(state, family, ChunkDelta.cancelled([], ["ab"]))
    assert np.all(state.projection == 0)
    assert np.all(state.sketch == 1)


def test_state_is_a_read_only_value():
    family = HashFamily.generate(8, 4, seed=3)
    state = batch_projection(Counter({"ab": 2}), family)
    before = state.projection.copy()
    with pytest.raises(ValueError):
        state.projection[0] = 5
    after = apply_delta(state, family, ChunkDelta.cancelled(["cd", "ab"], ["ab"]))
    assert np.array_equal(state.projection, before)
    assert np.array_equal(state.sketch, sign_bits(before))
    assert after is not state
    assert np.array_equal(after.projection, before + family.hash_values("cd"))
    assert np.array_equal(after.sketch, sign_bits(after.projection))


def test_batch_projection_cases():
    family = HashFamily.generate(8, 4, seed=11)
    empty = batch_projection(Counter(), family)
    assert np.all(empty.projection == 0) and np.all(empty.sketch == 1)

    plus_family = fixed_family([[1, 2]] * 5)  # +1 for every single char
    state = batch_projection(Counter({"c": 3}), plus_family)
    assert state.projection.tolist() == [3] * 5


def test_batch_projection_equals_folded_deltas(rng):
    family = HashFamily.generate(64, 5, seed=21)
    letters = "abcdefgh"
    state = fresh_state(64)
    counts = Counter()
    for _ in range(200):
        chunk = "".join(letters[int(i)] for i in rng.integers(0, 8, int(rng.integers(1, 6))))
        if rng.random() < 0.7 or counts[chunk] == 0:
            counts[chunk] += 1
            state = apply_delta(state, family, ChunkDelta.cancelled([chunk], []))
        else:
            counts[chunk] -= 1
            state = apply_delta(state, family, ChunkDelta.cancelled([], [chunk]))
    counts = +counts
    assert np.array_equal(state.projection, batch_projection(counts, family).projection)


def test_merge_identity_and_arithmetic():
    # two graphs' sketches merge by adding their projections
    family = HashFamily.generate(2, 4, seed=2)
    state = batch_projection(Counter({"ab": 2, "cd": 1}), family)
    assert np.array_equal(state.projection + fresh_state(2).projection, state.projection)

    out = SketchState(np.array([2.0, -1.0]) + np.array([-1.0, -1.0]))
    assert out.projection.tolist() == [1, -2]
    assert out.sketch.tolist() == [True, False]


def test_merge_equals_projection_of_counter_sum(rng):
    family = HashFamily.generate(128, 6, seed=31)
    letters = string.ascii_lowercase

    def random_counts():
        return Counter(
            {
                "".join(letters[int(i)] for i in rng.integers(0, 26, int(rng.integers(1, 7)))):
                int(rng.integers(1, 9))
                for _ in range(int(rng.integers(1, 30)))
            }
        )

    for _ in range(25):
        z1, z2 = random_counts(), random_counts()
        summed = batch_projection(z1, family).projection + batch_projection(z2, family).projection
        direct = batch_projection(z1 + z2, family)
        assert np.array_equal(summed, direct.projection)


def test_estimate_cosine_endpoints():
    ones = np.ones(10, dtype=np.int8)
    assert estimate_cosine(ones, ones) == 1.0
    half = ones.copy()
    half[:5] = -1
    assert estimate_cosine(ones, half) == pytest.approx(0.0, abs=1e-12)
    assert cosine_distance(ones, ones) == 0.0
    assert cosine_distance(ones, half) == pytest.approx(1.0, abs=1e-12)
    assert cosine_distance(ones, -ones) == pytest.approx(2.0)


def test_estimate_rejects_width_mismatch():
    with pytest.raises(ValueError):
        estimate_cosine(np.ones(4, dtype=np.int8), np.ones(5, dtype=np.int8))


def test_estimate_rejects_dtype_mismatch():
    # a bool sketch against a ±1 int8 one would match only where both are +1
    sketch = fresh_state(4).sketch
    for other in (np.ones(4, dtype=np.int8), np.ones(4)):
        with pytest.raises(ValueError, match="dtypes"):
            estimate_cosine(sketch, other)
        with pytest.raises(ValueError, match="dtypes"):
            cosine_distance(other, sketch)
    assert cosine_distance(sketch, sketch.copy()) == 0.0


def test_cosine_distance_strictly_grows_as_matches_drop():
    base = np.ones(64, dtype=np.int8)
    last = -1.0
    for flips in range(0, 65, 4):
        other = base.copy()
        other[:flips] = -1
        d = cosine_distance(base, other)
        assert d > last
        last = d


def test_estimate_tracks_exact_cosine(rng):
    # ~200 random non-negative vector pairs at 1000 bits stay within 0.1
    # of the exact cosine for 95%+ of pairs (standard error ~0.016 on the
    # match fraction).
    family = HashFamily.generate(1000, 12, seed=17)
    letters = string.ascii_lowercase

    def chunk():
        return "".join(letters[int(i)] for i in rng.integers(0, 26, 12))

    errors = []
    for _ in range(200):
        shared = [chunk() for _ in range(int(rng.integers(0, 25)))]
        a, b = Counter(), Counter()
        for c in shared:
            a[c] += int(rng.integers(1, 6))
            b[c] += int(rng.integers(1, 6))
        for _ in range(int(rng.integers(1, 15))):
            a[chunk()] += int(rng.integers(1, 6))
        for _ in range(int(rng.integers(1, 15))):
            b[chunk()] += int(rng.integers(1, 6))
        estimate = estimate_cosine(
            batch_projection(a, family).sketch, batch_projection(b, family).sketch
        )
        errors.append(abs(estimate - exact_cosine(a, b)))
    assert np.mean(np.asarray(errors) <= 0.1) >= 0.95


def test_every_function_is_balanced_over_random_chunks(rng):
    # each of 1000 functions maps ~half of 10^4 random full-length chunks
    # to +1 (binomial standard error 0.005)
    family = HashFamily.generate(1000, 25, seed=1)
    letters = string.ascii_letters
    chunks = set()
    while len(chunks) < 10_000:
        chunks.add("".join(letters[int(i)] for i in rng.integers(0, 52, 25)))
    values = np.stack([family.hash_values(c) for c in sorted(chunks)])
    deviation = np.abs((values == 1).mean(axis=0) - 0.5)
    assert float(deviation.max()) <= 0.02


def test_sign_bits_is_plus_one_at_zero():
    values = np.array([-2.0, -0.0, 0.0, 0.5], dtype=np.float64)
    assert sign_bits(values).tolist() == [False, True, True, True]
    assert sign_bits(values).dtype == bool


# -- batched hashing -------------------------------------------------------------


def _reference_rows(family, chunks):
    return [[family.hash_chunk(l, c) for l in range(family.sketch_bits)] for c in chunks]


def _random_chunks(rng, count, max_len, alphabet=string.printable[:95]):
    # printable ASCII from " " to "~" (0x20-0x7E)
    return [
        "".join(alphabet[int(i)] for i in rng.integers(0, len(alphabet), int(n)))
        for n in rng.integers(1, max_len + 1, count)
    ]


def _weights(chunks):
    """Counts of signed powers of two: a folded sum of ±1 values with these
    weights determines every chunk's values, so it is right only if each is."""
    return {chunk: (-2) ** i for i, chunk in enumerate(dict.fromkeys(chunks))}


def _folded(family, counts):
    return family.fold(np.zeros(family.sketch_bits), counts).tolist()


def _reference_fold(family, counts):
    total = np.zeros(family.sketch_bits, dtype=np.int64)
    for chunk, count in counts.items():
        total += count * np.array(_reference_rows(family, [chunk])[0])
    return total.tolist()


def test_fold_matches_scalar_path_on_mixed_lengths(rng):
    # more chunks than one block holds at L=1000, lengths 1..max_chunk_len
    family = HashFamily.generate(1000, 12, seed=21)
    chunks = _random_chunks(rng, 30, 12) + ["~" * 12, "~", "a" * 12]
    assert max(map(len, chunks)) == family.max_chunk_len
    counts = _weights(chunks)
    assert _folded(family, counts) == _reference_fold(family, counts)
    assert _folded(family, counts) == _reference_fold(family, counts)  # from the slab
    values = family.hash_values(chunks[0])
    assert values.dtype == np.int8 and values.shape == (1000,)
    values[:] = 0  # writing to them leaves the cached values alone
    assert _folded(family, counts) == _reference_fold(family, counts)


@pytest.mark.parametrize("rows", [1, 5, 6, 12], ids=["loop-1", "loop-5", "product-6", "product-12"])
def test_fold_is_exact_for_counts_up_to_2_pow_40(rng, rows):
    # a projection is float64 and exact while every entry stays below 2**53:
    # start at ±2**52 and fold counts up to ±2**40, against Python ints
    family = HashFamily.generate(64, 6, seed=40)
    chunks = list(dict.fromkeys(_random_chunks(rng, 40, 6)))[:rows]
    # the loop adds ±1 by itself and any other count as a product
    pattern = [2**40, -1, 1, -(2**40), 2**40 - 3, 7 - 2**40]
    counts = {chunk: pattern[i % 6] for i, chunk in enumerate(chunks)}
    start = [(-1) ** l * 2**52 for l in range(64)]
    expected = [
        start[l] + sum(count * family.hash_chunk(l, c) for c, count in counts.items())
        for l in range(64)
    ]
    assert max(map(abs, expected)) < 2**53
    for _ in range(2):  # hashed, then from the slab
        projection = family.fold(np.array(start, dtype=np.float64), counts)
        assert projection.tolist() == expected
    assert (batch_projection(counts, family).projection + start).tolist() == expected


def _reference_sums(family, chunks):
    table = [[int(c) for c in row] for row in family.coefficients]
    return [
        [
            (row[0] + sum(row[i + 1] * ord(ch) for i, ch in enumerate(chunk))) % 2**64
            for row in table
        ]
        for chunk in chunks
    ]


@pytest.mark.parametrize("small_product", [0, 1 << 62], ids=["float-halves", "uint64"])
def test_batched_sums_are_exact_across_the_32_bit_split(small_product, monkeypatch):
    # coefficients just below 2**64: both halves are all ones, so every
    # product and the wrapped total carry through the split
    monkeypatch.setattr(sketches, "_SMALL_PRODUCT", small_product)
    top = np.uint64(2**64 - 1)
    table = np.array([[top - np.uint64(k + j) for j in range(9)] for k in range(16)])
    chunks = ["~" * 8, "~", "}~|~{~z~", "\x7f" * 8, " !~"]
    for family in (HashFamily(table, seed=0), HashFamily.generate(16, 8, seed=3)):
        assert family._sums(chunks).tolist() == _reference_sums(family, chunks)
        assert [family.hash_values(c).tolist() for c in chunks] == _reference_rows(family, chunks)
        counts = _weights(chunks)
        assert _folded(family, counts) == _reference_fold(family, counts)


def _count_hashed(monkeypatch):
    """Record every chunk that a family hashes from here on."""
    hashed = []
    sums = HashFamily._sums

    def counted(family, chunks):
        hashed.extend(chunks)
        return sums(family, chunks)

    monkeypatch.setattr(HashFamily, "_sums", counted)
    return hashed


def _slab_family(monkeypatch, slab_rows, sketch_bits, max_chunk_len, seed):
    row_bytes = sketch_bits + sketches.ENTRY_BYTES + max_chunk_len
    monkeypatch.setattr(sketches, "_CACHE_BYTES", slab_rows * row_bytes)
    family = HashFamily.generate(sketch_bits, max_chunk_len, seed=seed)
    assert len(family._slab) == slab_rows
    return family


def test_fold_mixes_cached_and_uncached_chunks(rng, monkeypatch):
    family = HashFamily.generate(64, 6, seed=8)
    chunks = list(dict.fromkeys(_random_chunks(rng, 12, 6)))
    _folded(family, _weights(chunks[::2]))
    hashed = _count_hashed(monkeypatch)
    counts = _weights(chunks)
    assert _folded(family, counts) == _reference_fold(family, counts)
    assert hashed == chunks[1::2]  # the cached chunks are not hashed again
    assert _folded(family, counts) == _reference_fold(family, counts)
    assert hashed == chunks[1::2]


def test_cache_reset_inside_a_batch_keeps_every_value(rng, monkeypatch):
    family = _slab_family(monkeypatch, 3, 32, 5, seed=4)
    chunks = list(dict.fromkeys(_random_chunks(rng, 6, 5)))[:4]
    _folded(family, _weights(chunks[:2]))
    # one cached chunk, then two new ones that do not fit beside the two
    # cached: the slab is cleared and the cached one is hashed again
    hashed = _count_hashed(monkeypatch)
    counts = _weights(chunks[1:])
    assert _folded(family, counts) == _reference_fold(family, counts)
    assert hashed == chunks[1:]
    assert sorted(family._index) == sorted(chunks[1:])
    again = _weights(chunks[::-1])
    assert _folded(family, again) == _reference_fold(family, again)


@pytest.mark.parametrize("slab_rows", [3, 7])
def test_batch_larger_than_the_slab_keeps_every_value(rng, monkeypatch, slab_rows):
    family = _slab_family(monkeypatch, slab_rows, 32, 5, seed=4)
    chunks = _random_chunks(rng, 16, 5)
    _folded(family, _weights(chunks[:2]))
    cached = dict(family._index)
    # more distinct chunks than the slab holds: folded without the slab
    counts = _weights(chunks)
    assert len(counts) > slab_rows
    assert _folded(family, counts) == _reference_fold(family, counts)
    assert family._index == cached
    counts = _weights(chunks[::-1])
    assert _folded(family, counts) == _reference_fold(family, counts)
    net = dict(zip(dict.fromkeys(chunks), [1, -2, 3, -1, 2, -3] * 3))
    folded = apply_delta(fresh_state(32), family, ChunkDelta(net)).projection
    assert folded.tolist() == _reference_fold(family, net)
    # a map that fits still goes through the slab, which stays within its rows
    counts = _weights(chunks[-slab_rows:])
    assert _folded(family, counts) == _reference_fold(family, counts)
    assert set(counts) <= set(family._index) and len(family._index) <= slab_rows


def test_held_values_survive_a_slab_clear(rng, monkeypatch):
    family = _slab_family(monkeypatch, 3, 32, 5, seed=4)
    chunks = list(dict.fromkeys(_random_chunks(rng, 10, 5)))
    _folded(family, {chunks[0]: 1})
    held = family.hash_values(chunks[0])
    expected = held.copy()
    for start in range(1, len(chunks), 2):  # fills the slab and clears it again
        _folded(family, _weights(chunks[start : start + 2]))
    assert chunks[0] not in family._index
    assert np.array_equal(held, expected)
    assert held.tolist() == _reference_rows(family, chunks[:1])[0]


def test_a_one_chunk_miss_on_a_full_slab_clears_and_refills_it(rng, monkeypatch):
    family = _slab_family(monkeypatch, 3, 32, 5, seed=4)
    chunks = list(dict.fromkeys(_random_chunks(rng, 8, 5)))[:4]
    _folded(family, _weights(chunks[:3]))
    assert len(family._index) == len(family._slab)  # exactly full
    counts = {chunks[3]: -1}
    assert _folded(family, counts) == _reference_fold(family, counts)
    assert family._index == {chunks[3]: 0}
    assert np.array_equal(family._slab[0], family.hash_values(chunks[3]))


@pytest.mark.parametrize(
    "small_product", [None, 0, 1 << 62], ids=["default", "float-halves", "uint64"]
)
def test_misses_of_every_width_equal_the_scalar_path(rng, monkeypatch, small_product):
    # one chunk per width, each a miss of its own, then one block of all
    # the widths, padded to the longest; at L=100 the default threshold
    # takes the uint64 product for one chunk and float halves for the block
    if small_product is not None:
        monkeypatch.setattr(sketches, "_SMALL_PRODUCT", small_product)
    family = HashFamily.generate(100, 9, seed=12)
    alphabet = string.printable[:95]
    singles = ["".join(rng.choice(list(alphabet), width)) for width in range(1, 10)]
    block = ["".join(rng.choice(list(alphabet), width)) for width in range(9, 0, -1)]
    for chunk in singles:
        family.fold(np.zeros(100), {chunk: 1})
    family.fold(np.zeros(100), dict.fromkeys(block, 1))
    chunks = singles + block
    rows = [family._index[chunk] for chunk in chunks]
    assert family._slab[rows].tolist() == _reference_rows(family, chunks)
    assert [family.hash_values(c).tolist() for c in chunks] == _reference_rows(family, chunks)


@pytest.mark.parametrize("rows", [0, 2, 6], ids=["empty", "loop-2", "product-6"])
def test_fold_returns_a_new_array_and_leaves_its_input(rng, rows):
    family = HashFamily.generate(64, 6, seed=9)
    chunks = list(dict.fromkeys(_random_chunks(rng, 20, 6)))[:rows]
    counts = {chunk: (-3, 1, -1)[i % 3] for i, chunk in enumerate(chunks)}
    projection = np.arange(64, dtype=np.float64)
    folded = family.fold(projection, counts)
    assert folded is not projection
    assert projection.tolist() == list(range(64))
    assert (folded - projection).tolist() == _reference_fold(family, counts)


# 5,462 and 21,846 entries come just after the index dict grows to 16,384
# and 65,536 slots, where it holds the most bytes per entry.
@pytest.mark.parametrize("rows", [None, 5462, 21846], ids=["budget", "dict-16k", "dict-64k"])
@pytest.mark.parametrize("sketch_bits, max_chunk_len", [(100, 64), (1000, 16)])
def test_a_full_cache_stays_within_its_byte_budget(monkeypatch, sketch_bits, max_chunk_len, rows):
    row_bytes = sketch_bits + sketches.ENTRY_BYTES + max_chunk_len
    if rows is not None:
        monkeypatch.setattr(sketches, "_CACHE_BYTES", rows * row_bytes)
    budget = sketches._CACHE_BYTES
    family = HashFamily.generate(sketch_bits, max_chunk_len, seed=5)
    capacity = len(family._slab)
    assert capacity == budget // row_bytes
    projection = np.zeros(sketch_bits)
    tracemalloc.start()
    try:
        # one fold into a family of its own first fills numpy's small-buffer cache
        HashFamily.generate(sketch_bits, max_chunk_len, seed=6).fold(projection, _weights("ab"))
        before = tracemalloc.get_traced_memory()[0]
        for start in range(0, capacity, 64):
            chunks = [f"{i:0{max_chunk_len}d}" for i in range(start, min(start + 64, capacity))]
            family.fold(projection, dict.fromkeys(chunks, 1))
        del chunks  # the index holds the only references to its keys
        index_bytes = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(family._index) == capacity
    assert index_bytes + family._slab.nbytes <= budget
    # ENTRY_BYTES is a measured worst case, not a loose guess
    assert index_bytes + family._slab.nbytes >= 0.9 * budget


@pytest.fixture(scope="module")
def shared_families():
    # one family per width for every example, so later examples find
    # some of their chunks already in the slab
    return {bits: HashFamily.generate(bits, 6, seed=bits) for bits in (100, 1000)}


_CHUNKS = st.text(alphabet=string.ascii_letters[:6], min_size=1, max_size=6)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    sketch_bits=st.sampled_from([100, 1000]),
    base=st.dictionaries(_CHUNKS, st.integers(1, 3), max_size=20),
    net=st.dictionaries(_CHUNKS, st.sampled_from([-3, -2, -1, 1, 2, 3]), min_size=1, max_size=64),
)
def test_apply_delta_equals_the_loop_fold_and_the_batch_difference(
    shared_families, sketch_bits, base, net
):
    # 1..64 distinct chunks: both sides of the row count at which the fold
    # switches from one np.add per chunk to one product
    family = shared_families[sketch_bits]
    state = batch_projection(base, family)
    after = apply_delta(state, family, ChunkDelta(net)).projection
    looped = state.projection.copy()
    for chunk, count in net.items():
        looped += count * family.hash_values(chunk).astype(np.int64)
    assert after.tolist() == looped.tolist()
    combined = dict(base)
    for chunk, count in net.items():
        combined[chunk] = combined.get(chunk, 0) + count
    assert after.tolist() == batch_projection(combined, family).projection.tolist()


def test_batch_projection_matches_scalar_sum(rng):
    family = HashFamily.generate(1000, 7, seed=30)
    counts = Counter({c: int(rng.integers(1, 4)) for c in _random_chunks(rng, 40, 7)})
    expected = np.zeros(1000, dtype=np.int64)
    for chunk, count in counts.items():
        expected += count * np.array(_reference_rows(family, [chunk])[0])
    assert np.array_equal(batch_projection(counts, family).projection, expected)
    assert family._index == {}  # the batch path leaves the slab alone


def test_family_refuses_chunk_lengths_outside_the_exact_range():
    with pytest.raises(ValueError, match="exact"):
        HashFamily.generate(4, MAX_EXACT_CHUNK_LEN + 1, seed=1)
    with pytest.raises(ValueError, match="exact"):
        HashFamily(np.ones((2, MAX_EXACT_CHUNK_LEN + 2), dtype=np.uint64), seed=0)
    # the longest exact chunk, all "~", still matches the reference
    table = np.full((2, MAX_EXACT_CHUNK_LEN + 1), 2**64 - 1, dtype=np.uint64)
    table[1, ::3] = 2**63 + 12345
    family = HashFamily(table, seed=0)
    chunk = "~" * MAX_EXACT_CHUNK_LEN
    assert family._sums([chunk]).tolist() == _reference_sums(family, [chunk])
    assert family.hash_values(chunk).tolist() == _reference_rows(family, [chunk])[0]
    for bad in ("~" * (MAX_EXACT_CHUNK_LEN + 1), ""):
        with pytest.raises(ValueError):
            family.fold(np.zeros(2), {"ok": 1, bad: 1})
        with pytest.raises(ValueError):
            family.hash_values(bad)
