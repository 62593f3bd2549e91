"""Shared helpers for building stores and folding streams in tests."""

from __future__ import annotations

import numpy as np
import pytest

from sketchstream import (
    EdgeRecord,
    GraphStore,
    apply_delta,
    edge_delta,
    fresh_state,
)


def edge(
    source_id: int,
    source_type: str,
    dest_id: int,
    dest_type: str,
    timestamp: int,
    edge_type: str = "X",
    graph_id: int = 0,
) -> EdgeRecord:
    return EdgeRecord(source_id, source_type, dest_id, dest_type, timestamp, edge_type, graph_id)


def build_store(records, capacity=None) -> GraphStore:
    store = GraphStore(capacity=capacity)
    for rec in records:
        store.insert(rec)
    return store


def fold_stream(records, hops, chunk_length, family, capacity=None):
    """Replay records through the delta pipeline; returns (store, states)."""
    store = GraphStore(capacity=capacity)
    states = {}
    for rec in records:
        delta = edge_delta(store, rec, hops, chunk_length)
        state = states.get(rec.graph_id)
        if state is None:
            state = fresh_state(family.sketch_bits)
        states[rec.graph_id] = apply_delta(state, family, delta)
    return store, states


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
