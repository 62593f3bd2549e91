"""Streaming anomaly detection for typed, timestamped edge streams.

Graphs arriving as interleaved edges are summarized by constant-size
sign sketches of their local-substructure frequencies, clustered online
against a bootstrapped model of normal behavior, and scored in real time
under a hard memory budget.
"""

from .clustering import (
    ATTACK,
    UNASSIGNED,
    AnomalyEvent,
    BootstrapReport,
    ClusterModel,
    bootstrap_model,
    kmedoids,
    pairwise_entropy,
    pick_chunk_length,
    silhouette,
)
from .engine import (
    RunConfig,
    SnapshotRecord,
    StreamResult,
    load_model,
    run_bootstrap,
    run_stream,
    save_model,
)
from .generator import (
    LABEL_ANOMALY,
    LABEL_NORMAL,
    GeneratedDataset,
    GeneratorConfig,
    generate_dataset,
    generate_stream,
)
from .metrics import average_precision, roc_auc
from .records import EdgeRecord, ParseError, format_edge, parse_edge, read_stream
from .shingles import (
    ChunkDelta,
    ChunkMemo,
    chunk_shingle,
    edge_delta,
    exact_cosine,
    exact_cosine_distance,
    node_shingle,
    shingle_vector,
)
from .sketches import (
    HashFamily,
    SketchState,
    apply_delta,
    batch_projection,
    cosine_distance,
    estimate_cosine,
    fresh_state,
    merge,
)
from .store import (
    GraphStore,
    NodeKey,
    NodeTypeConflictError,
    OutOfOrderEdgeError,
    StoredEdge,
)

__version__ = "0.1.0"
