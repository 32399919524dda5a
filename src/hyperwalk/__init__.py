"""Heterogeneous network embedding in hyperbolic space.

Self-guided (meta-path-free) random walks generate node contexts; exact
Riemannian SGD on the hyperboloid model learns the embedding; built-in
evaluation covers network reconstruction and link prediction.
"""

__version__ = "0.1.0"

from .corpus import SampleCorpus, build_corpus
from .evaluation import (
    auc,
    link_prediction_eval,
    make_link_split,
    reconstruct,
    region_stats,
)
from .graph import TypedGraph, load_graph
from .trainer import EmbeddingTable, TrainConfig, init_embeddings, train
from .walk import WalkConfig, Walks, generate_walks

__all__ = [
    "EmbeddingTable",
    "SampleCorpus",
    "TrainConfig",
    "TypedGraph",
    "WalkConfig",
    "Walks",
    "auc",
    "build_corpus",
    "generate_walks",
    "init_embeddings",
    "link_prediction_eval",
    "load_graph",
    "make_link_split",
    "reconstruct",
    "region_stats",
    "train",
]
