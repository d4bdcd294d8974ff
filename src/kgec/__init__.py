"""kgec: complex bilinear knowledge-graph embeddings with non-negativity and
approximate-entailment constraints, plus the matching evaluation, rule-mining,
and interpretability tooling."""

__version__ = "0.1.0"

from .data import build_known_index, load_dataset, load_entailments
from .trainer import TrainConfig, train
from .evaluation import evaluate
from .mining import mine_entailments

__all__ = [
    "load_dataset",
    "load_entailments",
    "build_known_index",
    "TrainConfig",
    "train",
    "evaluate",
    "mine_entailments",
]
