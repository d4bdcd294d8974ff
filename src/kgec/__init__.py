"""kgec: complex bilinear knowledge-graph embeddings with non-negativity and
approximate-entailment constraints, plus the matching evaluation, rule-mining,
and interpretability tooling."""

__version__ = "0.1.0"

from .data import (
    Dataset,
    Entailment,
    KnownIndex,
    Triple,
    Vocab,
    build_known_index,
    load_dataset,
    load_entailments,
    load_triples,
)
from .model import ModelParams, init_params, load_checkpoint, save_checkpoint
from .objective import LossBreakdown
from .trainer import TrainConfig, train
from .evaluation import EvalResult, evaluate, filtered_rank, paired_ttest
from .mining import MinedRule, mine_entailments

__all__ = [
    "Dataset",
    "Entailment",
    "EvalResult",
    "KnownIndex",
    "LossBreakdown",
    "MinedRule",
    "ModelParams",
    "TrainConfig",
    "Triple",
    "Vocab",
    "build_known_index",
    "evaluate",
    "filtered_rank",
    "init_params",
    "load_checkpoint",
    "load_dataset",
    "load_entailments",
    "load_triples",
    "mine_entailments",
    "paired_ttest",
    "save_checkpoint",
    "train",
]
