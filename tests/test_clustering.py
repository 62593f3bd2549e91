import itertools
import math
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from sketchstream import (
    ATTACK,
    UNASSIGNED,
    ClusterModel,
    GeneratorConfig,
    GraphStore,
    HashFamily,
    SketchState,
    bootstrap_model,
    exact_cosine_distance,
    fresh_state,
    generate_dataset,
    kmedoids,
    pairwise_entropy,
    pick_chunk_length,
    silhouette,
)
import sketchstream.clustering as clustering
from sketchstream.clustering import (
    anomaly_threshold,
    chunk_length_entropies,
    pairwise_distance_matrix,
)
from sketchstream.generator import LABEL_NORMAL
from sketchstream.shingles import _cosine, _dot, _squared_norm, node_shingle
from sketchstream.sketches import sign_bits


# -- entropy and chunk-length selection --------------------------------------


def test_entropy_of_identical_distances_is_zero():
    assert pairwise_entropy([0.4] * 20, bins=10) == 0.0


def test_entropy_of_uniform_bin_centers_is_log_bins():
    centers = [(i + 0.5) / 10 for i in range(10)]
    assert pairwise_entropy(centers, bins=10) == pytest.approx(math.log(10))


def test_entropy_of_two_equal_bins():
    assert pairwise_entropy([0.05, 0.55], bins=2) == pytest.approx(math.log(2))


def test_entropy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        pairwise_entropy([], bins=10)
    with pytest.raises(ValueError):
        pairwise_entropy([0.5], bins=1)
    with pytest.raises(ValueError):
        pairwise_entropy([1.5], bins=4)


def test_pick_chunk_length_takes_right_neighbor_of_argmax():
    assert pick_chunk_length({10: 1.1, 25: 2.0, 50: 1.7}) == 50


def test_pick_chunk_length_at_the_boundary():
    assert pick_chunk_length({10: 1.1, 25: 1.7, 50: 2.0}) == 50


def test_pick_chunk_length_breaks_entropy_ties_low():
    assert pick_chunk_length({10: 2.0, 25: 2.0, 50: 1.0}) == 25


def test_select_chunk_length_end_to_end():
    # two graph populations: tight at length 2, spread at length 1
    spiky = [Counter({"ab": 5, "cd": 5}), Counter({"ab": 5, "cd": 5})]
    vectors = {1: [Counter({"a": 3}), Counter({"b": 3})], 2: spiky}
    matrices = {length: pairwise_distance_matrix(v) for length, v in vectors.items()}
    choice = pick_chunk_length(chunk_length_entropies(matrices, bins=4))
    assert choice in vectors
    assert pick_chunk_length(chunk_length_entropies({1: matrices[2]}, bins=4)) == 1


def test_pick_chunk_length_takes_a_lone_candidate_and_needs_one():
    assert pick_chunk_length({16: 0.0}) == 16
    assert pick_chunk_length({16: 1.5}) == 16
    with pytest.raises(ValueError):
        pick_chunk_length({})


_COUNTERS = st.dictionaries(st.sampled_from("abcdef"), st.integers(1, 9), max_size=6).map(Counter)


@settings(max_examples=200, deadline=None)
@given(vectors=st.lists(_COUNTERS, max_size=5), copies=st.lists(st.integers(0, 9), max_size=3))
def test_distance_matrix_equals_the_per_pair_reference(vectors, copies):
    # An empty vector and copies of drawn ones reach the zero-norm and the
    # identical-vector cases of the cosine rule.
    vectors = vectors + [Counter()] + [Counter(vectors[i % len(vectors)]) for i in copies if vectors]
    matrix = pairwise_distance_matrix(vectors)
    reference = np.array([[exact_cosine_distance(a, b) for b in vectors] for a in vectors])
    assert np.array_equal(matrix, reference)
    assert np.array_equal(matrix, matrix.T)
    assert not np.diagonal(matrix).any()


def _distance_matrix_loop(vectors):
    # The per-pair loop that pairwise_distance_matrix replaced, kept as its reference.
    n = len(vectors)
    norms = [_squared_norm(v) for v in vectors]
    matrix = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = 1.0 - _cosine(_dot(vectors[i], vectors[j]), norms[i], norms[j])
            matrix[i, j] = d
            matrix[j, i] = d
    return matrix


@pytest.mark.parametrize("hops", [1, 2])
def test_distance_matrix_equals_the_loop_on_generated_stores(hops, monkeypatch):
    store, _ = _training_store(seed=13, per_class=12)
    shingle_lists = [
        [node_shingle(store, node, hops) for node in store.graph_nodes(g)]
        for g in store.graph_ids()
    ]
    # Narrow blocks, so that every length's product spans several of them.
    monkeypatch.setattr(clustering, "_GRAM_BLOCK", 7)
    for length in (1, 2, 3, 4, 8, 16, 64):
        vectors = clustering._chunk_vectors(shingle_lists, length)
        assert np.array_equal(pairwise_distance_matrix(vectors), _distance_matrix_loop(vectors))


# -- k-medoids ----------------------------------------------------------------


def _pair_distance_matrix():
    # points 0,1 close together; 2,3 close together; pairs far apart
    d = np.array(
        [
            [0.0, 0.1, 1.0, 0.9],
            [0.1, 0.0, 0.95, 1.0],
            [1.0, 0.95, 0.0, 0.1],
            [0.9, 1.0, 0.1, 0.0],
        ]
    )
    return d


def test_kmedoids_with_k_equal_n_is_free():
    d = _pair_distance_matrix()
    medoids, assignments = kmedoids(d, 4, seed=0)
    assert sorted(medoids) == [0, 1, 2, 3]
    assert d[np.arange(4), np.asarray(medoids)[assignments]].sum() == 0.0


def test_kmedoids_recovers_planted_pairs_and_matches_brute_force():
    d = _pair_distance_matrix()
    medoids, assignments = kmedoids(d, 2, seed=5)
    cost = d[:, medoids].min(axis=1).sum()
    best = min(
        d[:, list(pair)].min(axis=1).sum() for pair in itertools.combinations(range(4), 2)
    )
    assert cost == pytest.approx(best)
    assert assignments[0] == assignments[1]
    assert assignments[2] == assignments[3]
    assert assignments[0] != assignments[2]


def test_kmedoids_k1_is_row_sum_argmin():
    rng = np.random.default_rng(3)
    points = rng.random((7, 2))
    d = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
    medoids, assignments = kmedoids(d, 1, seed=1)
    assert medoids == [int(np.argmin(d.sum(axis=1)))]
    assert np.all(assignments == 0)


def test_kmedoids_rejects_bad_k():
    d = _pair_distance_matrix()
    with pytest.raises(ValueError):
        kmedoids(d, 0, seed=0)
    with pytest.raises(ValueError):
        kmedoids(d, 5, seed=0)


def test_kmedoids_is_deterministic():
    rng = np.random.default_rng(8)
    d = rng.random((12, 12))
    d = (d + d.T) / 2
    np.fill_diagonal(d, 0.0)
    first = kmedoids(d, 3, seed=42)
    second = kmedoids(d, 3, seed=42)
    assert first[0] == second[0]
    assert np.array_equal(first[1], second[1])


# -- silhouette ---------------------------------------------------------------


def test_silhouette_approaches_one_for_separated_clusters():
    gap = 100.0
    d = np.array(
        [
            [0.0, 0.1, gap, gap],
            [0.1, 0.0, gap, gap],
            [gap, gap, 0.0, 0.1],
            [gap, gap, 0.1, 0.0],
        ]
    )
    value = silhouette(d, np.array([0, 0, 1, 1]))
    assert value > 0.99


def test_silhouette_is_zero_when_all_distances_equal():
    d = np.ones((4, 4)) - np.eye(4)
    assert silhouette(d, np.array([0, 0, 1, 1])) == pytest.approx(0.0)


def test_silhouette_matches_hand_computation():
    # clusters {0,1} and {2,3}; per-point (b - a) / max(a, b) by hand
    d = np.array(
        [
            [0.0, 0.2, 0.9, 1.0],
            [0.2, 0.0, 0.8, 0.7],
            [0.9, 0.8, 0.0, 0.4],
            [1.0, 0.7, 0.4, 0.0],
        ]
    )
    expected = (0.75 / 0.95 + 0.55 / 0.75 + 0.45 / 0.85 + 0.45 / 0.85) / 4
    assert silhouette(d, np.array([0, 0, 1, 1])) == pytest.approx(expected)
    assert silhouette(d, np.array([0, 0, 1, 1])) == pytest.approx(0.6454076367389061)


def test_silhouette_requires_two_clusters():
    with pytest.raises(ValueError):
        silhouette(np.zeros((3, 3)), np.array([0, 0, 0]))


def test_silhouette_singletons_contribute_zero():
    d = _pair_distance_matrix()
    # {0}, {1}, {2,3}: singleton points add 0 to the mean
    value = silhouette(d, np.array([0, 1, 2, 2]))
    s2 = (min(d[2, 0], d[2, 1]) - d[2, 3]) / min(d[2, 0], d[2, 1])
    s3 = (min(d[3, 0], d[3, 1]) - d[2, 3]) / min(d[3, 0], d[3, 1])
    assert value == pytest.approx((s2 + s3) / 4)


# -- array forms against the per-candidate and per-point loops -----------------


def _reference_kmedoids(distances, n_clusters, seed):
    """PAM with one cost evaluation per trial swap."""
    n = distances.shape[0]
    rng = np.random.default_rng(seed)
    medoids = sorted(int(m) for m in rng.choice(n, size=n_clusters, replace=False))

    def cost_of(candidate):
        return float(distances[:, candidate].min(axis=1).sum())

    cost = cost_of(medoids)
    improved = True
    while improved:
        improved = False
        best_swap = None
        best_cost = cost
        medoid_set = set(medoids)
        for mi in range(len(medoids)):
            for other in range(n):
                if other in medoid_set:
                    continue
                trial = medoids.copy()
                trial[mi] = other
                trial_cost = cost_of(trial)
                if trial_cost < best_cost:
                    best_cost = trial_cost
                    best_swap = (mi, other)
        if best_swap is not None:
            medoids[best_swap[0]] = best_swap[1]
            medoids.sort()
            cost = best_cost
            improved = True
    return medoids, np.argmin(distances[:, medoids], axis=1)


def _reference_silhouette(distances, assignments):
    """Mean silhouette, one point at a time."""
    labels = np.unique(assignments)
    n = distances.shape[0]
    total = 0.0
    for i in range(n):
        own = assignments[i]
        own_mask = assignments == own
        own_size = int(own_mask.sum())
        if own_size == 1:
            continue
        a = distances[i, own_mask].sum() / (own_size - 1)
        b = min(
            float(distances[i, assignments == other].mean())
            for other in labels
            if other != own
        )
        denom = max(a, b)
        if denom > 0.0:
            total += (b - a) / denom
    return total / n


@st.composite
def _distance_matrices(draw):
    # Few distinct values, most of them inexact in binary, so cost ties
    # occur and a sum in another order can round differently. The lower
    # triangle is drawn apart from the upper one unless the matrix is
    # symmetric.
    n = draw(st.integers(2, 25))
    values = st.sampled_from([0.0, 0.1, 0.2, 0.3, 0.6, 0.7])
    d = np.array(draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
    if draw(st.booleans()):
        d = np.triu(d) + np.triu(d, 1).T
    np.fill_diagonal(d, 0.0)
    return d


# A failure hangs on last-bit rounding, which shrinking seldom keeps, and
# shrinking a 25 x 25 matrix runs into Hypothesis's five-minute limit, so
# the first failing example is reported as drawn.
_REFERENCE_SETTINGS = settings(
    max_examples=300, deadline=None, phases=[p for p in Phase if p is not Phase.shrink]
)


@_REFERENCE_SETTINGS
@given(d=_distance_matrices(), data=st.data())
def test_kmedoids_equals_the_loop_reference(d, data):
    k = data.draw(st.integers(1, d.shape[0]), label="k")
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    medoids, assignments = kmedoids(d, k, seed)
    expected_medoids, expected = _reference_kmedoids(d, k, seed)
    assert medoids == expected_medoids
    assert np.array_equal(assignments, expected)


@_REFERENCE_SETTINGS
@given(d=_distance_matrices(), data=st.data())
def test_silhouette_equals_the_loop_reference(d, data):
    n = d.shape[0]
    k = data.draw(st.integers(2, n), label="k")
    _, clustered = kmedoids(d, k, data.draw(st.integers(0, 2**32 - 1), label="seed"))
    drawn = np.array(data.draw(st.lists(st.sampled_from([0, 2, 5]), min_size=n, max_size=n)))
    for assignments in (clustered, drawn):
        if np.unique(assignments).shape[0] >= 2:
            assert silhouette(d, assignments) == _reference_silhouette(d, assignments)


# -- thresholds ---------------------------------------------------------------


def test_threshold_is_mean_plus_three_population_stds():
    assert anomaly_threshold([0.1, 0.2, 0.3]) == pytest.approx(0.4449489742783178)


def test_threshold_of_identical_members_is_zero():
    assert anomaly_threshold([0.0, 0.0, 0.0]) == 0.0


# -- streaming cluster maintenance --------------------------------------------


def plus_family(width):
    # hashes every chunk of length 1 to +1; only used to build states
    return HashFamily.generate(width, 2, seed=123)


def state_with(projection):
    return SketchState(np.array(projection, dtype=np.int64))


def single_cluster_model(width=4, size=3, centroid=6.0, threshold=2.5):
    family = HashFamily.generate(width, 4, seed=1)
    centroids = np.full((1, width), float(centroid))
    return ClusterModel(family, 1, 4, centroids, [size], [threshold])


def test_add_to_cluster_updates_running_mean():
    model = single_cluster_model(size=3, centroid=6.0)
    event = model.update_graph(7, state_with([2, 2, 2, 2]))
    assert not event.flagged and event.nearest == 0
    assert model.assignments[7] == 0
    assert model.sizes[0] == 4
    assert np.allclose(model.centroids[0], 5.0)  # (6*3 + 2) / 4


def test_update_within_cluster_shifts_mean_by_growth():
    model = single_cluster_model(size=4, centroid=6.0)
    model.assignments[7] = 0
    model.states[7] = state_with([2, 2, 2, 2])
    event = model.update_graph(7, state_with([6, 6, 6, 6]))
    assert not event.flagged
    assert model.sizes[0] == 4
    assert np.allclose(model.centroids[0], 7.0)  # 6 + (6-2)/4


def test_far_state_is_flagged_as_attack():
    model = single_cluster_model(size=3, centroid=6.0, threshold=0.0)
    event = model.update_graph(7, state_with([-5, 5, -5, 5]))
    assert event.flagged
    assert model.assignments[7] == ATTACK
    assert model.sizes[0] == 3  # was not a member; nothing removed


def test_attack_removal_from_current_cluster():
    model = single_cluster_model(size=3, centroid=6.0, threshold=0.0)
    model.assignments[7] = 0
    model.states[7] = state_with([3, 3, 3, 3])
    model.update_graph(7, state_with([-5, 5, -5, 5]))
    assert model.assignments[7] == ATTACK
    assert model.sizes[0] == 2
    assert np.allclose(model.centroids[0], (6.0 * 3 - 3.0) / 2)


def test_reassignment_moves_projection_mass_between_clusters():
    family = HashFamily.generate(4, 4, seed=1)
    centroids = np.array([[8.0, 8.0, -8.0, -8.0], [5.0, 5.0, 5.0, 5.0]])
    model = ClusterModel(family, 1, 4, centroids, [2, 3], [2.5, 2.5])
    model.assignments[9] = 0
    old = model.states[9] = state_with([4, 4, -4, -4])
    new = state_with([6, 6, 6, 6])  # now matches cluster 1's sign pattern
    event = model.update_graph(9, new)
    assert event.nearest == 1 and not event.flagged
    assert model.assignments[9] == 1
    assert model.sizes.tolist() == [1, 4]
    assert np.allclose(model.centroids[0], (centroids[0] * 2 - old.projection) / 1)
    assert np.allclose(model.centroids[1], (np.full(4, 5.0) * 3 + new.projection) / 4)


def test_a_cluster_size_below_one_is_refused():
    family = HashFamily.generate(4, 4, seed=1)
    centroids = np.array([[8.0, 8.0, -8.0, -8.0], [5.0, 5.0, 5.0, 5.0]])
    with pytest.raises(ValueError, match="size must be at least 1"):
        ClusterModel(family, 1, 4, centroids, [1, 0], [2.5, 2.5])


def test_attack_graph_can_rejoin_later():
    model = single_cluster_model(size=3, centroid=6.0, threshold=2.5)
    model.assignments[7] = ATTACK
    model.states[7] = fresh_state(4)
    event = model.update_graph(7, state_with([1, 1, 1, 1]))
    assert not event.flagged
    assert model.assignments[7] == 0
    assert model.sizes[0] == 4


def test_score_is_distance_after_centroid_update():
    model = single_cluster_model(size=1, centroid=1.0, threshold=2.5)
    new = state_with([-3, -3, -3, -3])
    event = model.update_graph(7, new)
    # after adding, centroid = (1*1 + (-3)) / 2 = -1 per lane; sketch all -1
    assert np.allclose(model.centroids[0], -1.0)
    assert event.score == pytest.approx(0.0, abs=1e-12)


def test_equal_distances_choose_the_lower_cluster():
    family = HashFamily.generate(4, 4, seed=1)
    centroids = np.array([[-8.0] * 4, [8.0, 8.0, -8.0, -8.0], [8.0, 8.0, -8.0, -8.0]])
    model = ClusterModel(family, 1, 4, centroids, [2, 2, 2], [2.5] * 3)
    # clusters 1 and 2 share a sign pattern; 0 is farther
    event = model.update_graph(9, state_with([5, 5, -5, -5]))
    assert event.nearest == 1 and model.assignments[9] == 1
    assert model.sizes.tolist() == [2, 3, 2]
    # three of four bits match every cluster
    event = model.update_graph(10, state_with([5, -5, -5, -5]))
    assert event.nearest == 0 and model.assignments[10] == 0


def test_thresholds_and_sizes_written_after_construction_take_effect():
    model = single_cluster_model(size=3, centroid=6.0, threshold=2.5)
    state = state_with([5, 5, 5, -5])  # three of four bits match: distance > 0
    model.thresholds[0] = 0.0
    assert model.update_graph(7, state).flagged
    model.thresholds[0] = 2.5
    assert not model.update_graph(7, state).flagged
    assert model.assignments[7] == 0 and model.sizes[0] == 4
    model.sizes[0] = 1
    model.update_graph(7, state_with([9, 9, 9, -1]))
    assert model.centroids[0].tolist() == [((6.0 * 3 + 5) / 4) + 4] * 3 + [(6.0 * 3 - 5) / 4 + 4]


def test_distance_table_equals_the_estimate_formula():
    # the table scores and ranks; cosine_distance is its formula on one count
    for bits in range(1, 1101):
        model = ClusterModel(plus_family(bits), 1, 1, np.zeros((1, bits)), [1], [0.5])
        formula = [1.0 - math.cos(math.pi * (1.0 - k / bits)) for k in range(bits + 1)]
        assert model._distance_of_matches == formula, f"{bits} bits"


def test_ranking_sorts_by_score_then_graph_id():
    model = single_cluster_model()
    model.scores.update({1: 0.2, 2: 0.5, 3: 0.2})
    assert model.ranking() == [(2, 0.5), (1, 0.2), (3, 0.2)]
    empty = single_cluster_model()
    assert empty.ranking() == []


def test_nearest_choice_matches_raw_match_fraction(rng):
    # the argmin under the cosine transform equals the argmin under the
    # plain mismatch count (strictly monotone transform)
    family = HashFamily.generate(64, 4, seed=2)
    centroids = rng.normal(size=(5, 64))
    model = ClusterModel(family, 1, 4, centroids, [2] * 5, [0.5] * 5)
    for _ in range(50):
        sketch = rng.random(64) < 0.5
        distances = model.distances_to(sketch)
        mismatches = (model.sketches != sketch).sum(axis=1)
        assert int(np.argmin(distances)) == int(np.argmin(mismatches))
        # the distances are exactly the estimate formula on the match fractions
        matches = (model.sketches == sketch).sum(axis=1) / 64
        assert np.array_equal(distances, 1.0 - np.cos(np.pi * (1.0 - matches)))


def test_flag_rule_is_monotone_in_distance():
    model = single_cluster_model(size=3, centroid=6.0, threshold=1.0)
    sketches = [
        state_with([6, 6, 6, -6]),   # 1 mismatching lane
        state_with([6, 6, -6, -6]),  # 2 mismatching lanes
    ]
    flags = []
    for s in sketches:
        distances = model.distances_to(s.sketch)
        flags.append(bool(distances[0] > model.thresholds[0]))
    assert flags == sorted(flags)  # closer is never more flagged


def test_centroid_tracks_member_mean_through_random_events(rng):
    family = HashFamily.generate(8, 4, seed=3)
    centroids = rng.normal(size=(3, 8)) * 4
    sizes = [4, 4, 4]
    model = ClusterModel(family, 1, 4, centroids, sizes, [0.8, 0.8, 0.8])
    # external bookkeeping: fixed pool of bootstrap mass per cluster
    base_mass = {q: centroids[q] * 4 for q in range(3)}
    members: dict[int, np.ndarray] = {}
    states = {g: fresh_state(8) for g in range(30)}
    for step in range(4000):
        g = int(rng.integers(0, 30))
        states[g] = SketchState(states[g].projection + rng.integers(-3, 4, size=8))
        model.update_graph(g, states[g])
        if model.assignments[g] == ATTACK:
            members.pop(g, None)
        else:
            members[g] = states[g].projection
        if step % 97 and step != 3999:
            continue
        for q in range(3):
            mass = base_mass[q].copy()
            count = 4
            for gid, proj in members.items():
                if model.assignments.get(gid) == q:
                    mass = mass + proj
                    count += 1
            assert model.sizes[q] == count
            np.testing.assert_allclose(model.centroids[q], mass / count, rtol=1e-9, atol=1e-9)


def test_add_then_remove_restores_centroid():
    model = single_cluster_model(size=5, centroid=3.0, threshold=2.5)
    before = model.centroids[0].copy()
    state = state_with([7, -1, 3, 5])
    model.update_graph(11, state)
    # force it out: threshold to -1 so any distance flags
    model.thresholds[0] = -1.0
    model.update_graph(11, state)
    assert model.sizes[0] == 5
    np.testing.assert_allclose(model.centroids[0], before, rtol=1e-9, atol=1e-9)


def test_model_keeps_states_by_recency_and_forgets_them():
    model = single_cluster_model(size=3, centroid=6.0, threshold=2.5)
    first, second = state_with([2, 2, 2, 2]), state_with([4, 4, 4, 4])
    model.update_graph(1, first)
    model.update_graph(2, second)
    model.update_graph(1, first)
    assert list(model.states) == [2, 1]  # least recently updated first
    assert model.states[1] is first
    model.forget_graph(1)
    assert list(model.states) == [2]
    assert 1 not in model.assignments and 1 not in model.scores
    assert model.sizes[0] == 4
    np.testing.assert_allclose(model.centroids[0], (6.0 * 3 + 4.0) / 4)


def test_sketches_and_scores_hold_through_random_events():
    rng = np.random.default_rng(17)
    bits, n_graphs = 16, 16
    prototypes = np.where(rng.random((4, bits)) < 0.5, -10.0, 10.0)
    homes = np.array([0, 1, 1, 2, 2, 2, 3, 3, 3, 3, 3, 3])
    members = prototypes[homes] + rng.integers(-3, 4, size=(homes.size, bits))
    centroids = np.stack([members[homes == q].mean(axis=0) for q in range(4)])
    loaded = np.bincount(homes)
    model = ClusterModel(HashFamily.generate(bits, 4, seed=1), 1, 4, centroids, loaded, [0.35] * 4)
    kinds = Counter()
    for _ in range(3000):
        g = int(rng.integers(0, n_graphs))
        old = model.states.get(g, fresh_state(bits)).projection
        jump = rng.random()
        if jump < 0.05:  # to a cluster's pattern
            projection = prototypes[rng.integers(0, 4)] + rng.integers(-3, 4, size=bits)
        elif jump < 0.08:  # to no cluster's
            projection = rng.integers(-10, 11, size=bits).astype(np.float64)
        else:
            projection = old + rng.integers(-2, 3, size=bits)
        previous = model.assignments.get(g, UNASSIGNED)
        state = SketchState(projection)
        event = model.update_graph(g, state)
        if event.flagged:
            kinds["flag"] += 1
        elif not isinstance(previous, int):
            kinds["join"] += 1
        elif previous == event.nearest:
            kinds["update"] += 1
        else:
            kinds["reassign"] += 1
        # each centroid's sketch is re-signed after every change to its mean
        assert model.sketches.dtype == bool
        assert np.array_equal(model.sketches, sign_bits(model.centroids))
        # The score equals a recount against the centroids as they now stand,
        # also where update_graph kept the distance it had.
        assert model.scores[g] == event.score == model.distances_to(state.sketch)[event.nearest]
        joined = [a for a in model.assignments.values() if isinstance(a, int)]
        assert model.sizes.tolist() == (loaded + np.bincount(joined, minlength=4)).tolist()
    assert min(kinds[k] for k in ("flag", "join", "update", "reassign")) >= 20, kinds


# -- bootstrap ----------------------------------------------------------------


def _training_store(seed=11, classes=2, per_class=8):
    config = GeneratorConfig(
        num_behavior_classes=classes,
        graphs_per_class=per_class,
        anomaly_fraction=0.0,
        avg_nodes=20,
        avg_edges=60,
        interleave_width=4,
        separation=1.0,
        seed=seed,
    )
    dataset = generate_dataset(config)
    store = GraphStore()
    for rec in dataset.test:
        store.insert(rec)
    return store, dataset


def test_bootstrap_recovers_planted_classes():
    store, dataset = _training_store()
    model, report = bootstrap_model(
        store,
        hops=1,
        candidate_chunk_lengths=(2, 4, 8),
        candidate_cluster_counts=(2, 3, 4),
        sketch_bits=256,
        cluster_seed=5,
        family_seed=6,
    )
    assert report.n_clusters == 2
    assert report.chunk_length in (2, 4, 8)
    assert sorted(report.cluster_sizes) == [8, 8]
    assert report.silhouette > 0.5
    assert model.n_clusters == 2
    assert all(t >= 0 for t in report.thresholds)
    assert report.entropy_by_chunk_length.keys() == {2, 4, 8}


def test_bootstrap_threshold_bounds_member_outliers():
    # by construction at most 10% of members sit beyond mean + 3 std
    store, _ = _training_store(seed=21, per_class=10)
    model, report = bootstrap_model(
        store,
        hops=1,
        candidate_chunk_lengths=(2, 4, 8),
        candidate_cluster_counts=(2, 3),
        sketch_bits=256,
        cluster_seed=5,
        family_seed=6,
    )
    # replay every training graph against its nearest centroid
    from sketchstream import shingle_vector, batch_projection

    ids = store.graph_ids()
    vectors = [shingle_vector(store, g, 1, model.chunk_length) for g in ids]
    projections = [batch_projection(v, model.family) for v in vectors]
    counts = np.zeros(model.n_clusters, dtype=int)
    beyond = np.zeros(model.n_clusters, dtype=int)
    for proj in projections:
        dists = model.distances_to(proj.sketch)
        q = int(np.argmin(dists))
        counts[q] += 1
        if dists[q] > model.thresholds[q]:
            beyond[q] += 1
    for q in range(model.n_clusters):
        assert beyond[q] <= math.ceil(0.1 * counts[q])


def test_bootstrap_requires_enough_graphs():
    store, _ = _training_store(classes=1, per_class=5)
    with pytest.raises(ValueError, match="training graphs"):
        bootstrap_model(
            store,
            hops=1,
            candidate_chunk_lengths=(2, 4),
            candidate_cluster_counts=(10,),
            sketch_bits=64,
            cluster_seed=0,
            family_seed=0,
        )


def test_bootstrap_frees_each_lengths_vectors_before_the_next(monkeypatch):
    # One candidate length's chunk vectors are alive at a time: each dies
    # with its distance matrix call, before the next length's are built.
    store, _ = _training_store()
    build_matrix = clustering.pairwise_distance_matrix
    held = []

    def traced(vectors):
        assert all(ref() is None for ref in held), "a previous length's vectors are alive"
        held.append(weakref.ref(vectors[0]))
        return build_matrix(vectors)

    monkeypatch.setattr(clustering, "pairwise_distance_matrix", traced)
    bootstrap_model(
        store,
        hops=1,
        candidate_chunk_lengths=(2, 4, 8, 8),
        candidate_cluster_counts=(2, 3),
        sketch_bits=64,
        cluster_seed=5,
        family_seed=6,
    )
    assert len(held) == 3
