"""Mutation check: do the tests fail when an invariant of the code is broken?

Each mutant names a file, an exact text that occurs once in it, the text
that replaces it, and the tests to run. The script copies the repository to
a temporary directory, runs the tests of every selected mutant once on the
unchanged copy (they must pass), then applies one mutant at a time, runs its
tests, and restores the file. A mutant is killed when a test fails and
survives when all pass; one recorded as equivalent, with the reason no test
can tell it from the code, is reported as equivalent when it survives. The
working tree is never modified.

    python tests/mutate.py              # every mutant
    python tests/mutate.py NAME ...     # the named mutants
    python tests/mutate.py --list       # names and files

The exit status is 0 when every mutant is killed or equivalent, 1 when one
survives, and 2 when the unchanged copy fails its tests or a mutant's text
is not found exactly once. pytest does not collect this file: it has no ``test_`` prefix;
``tests/test_mutants.py`` checks at tier-1 that every mutant still applies.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str  # exact text; it must occur once in the file
    new: str
    tests: tuple[str, ...]  # pytest paths or node ids, relative to the root
    equivalent: str = ""  # why no test can kill it, if none can


ANALYSIS_TESTS = ("tests/test_analysis.py",)
CLI_TESTS = ("tests/test_cli.py",)
DATA_TESTS = ("tests/test_data.py",)
EVAL_TESTS = ("tests/test_evaluation.py",)
KERNEL_TESTS = ("tests/test_objective.py",)
MINING_TESTS = ("tests/test_mining.py",)
MODEL_TESTS = ("tests/test_model.py",)
TRAINER_TESTS = ("tests/test_trainer.py",)

MUTANTS = [
    Mutant(
        "read_lines-crlf-keeps-cr",
        "src/kgec/data.py",
        '.replace("\\r\\n", "\\n")',
        "",
        DATA_TESTS,
    ),
    Mutant(
        "read_lines-last-line-keeps-cr",
        "src/kgec/data.py",
        'lines[-1] = lines[-1].removesuffix("\\r")',
        "pass",
        DATA_TESTS,
    ),
    Mutant(
        "read_lines-keeps-trailing-empty-line",
        "src/kgec/data.py",
        "lines.pop()",
        "pass",
        DATA_TESTS,
    ),
    Mutant(
        "read_lines-keeps-a-leading-byte-order-mark",
        "src/kgec/data.py",
        "data = fh.read().removeprefix(codecs.BOM_UTF8)",
        "data = fh.read()",
        DATA_TESTS,
    ),
    Mutant(
        "read_lines-no-line-by-line-fallback",
        "src/kgec/data.py",
        "    except UnicodeDecodeError:\n",
        '    except UnicodeDecodeError as exc:\n        raise ValueError(f"{path}: {exc}") from None\n',
        DATA_TESTS,
    ),
    Mutant(
        "load_triples-tail-before-head",
        "src/kgec/data.py",
        "entity(head_name, len(entity_ids)),\n"
        "                relation(rel_name, len(relation_ids)),\n"
        "                entity(tail_name, len(entity_ids)),\n"
        "            ))",
        "*reversed((\n"
        "                entity(tail_name, len(entity_ids)),\n"
        "                relation(rel_name, len(relation_ids)),\n"
        "                entity(head_name, len(entity_ids)),\n"
        "            )),))",
        DATA_TESTS,
    ),
    Mutant(
        "load_triples-no-grow-error-names-tail-first",
        "src/kgec/data.py",
        "vocab.entities.id(head_name), vocab.relations.id(rel_name), vocab.entities.id(tail_name)",
        "vocab.entities.id(tail_name), vocab.relations.id(rel_name), vocab.entities.id(head_name)",
        DATA_TESTS,
    ),
    Mutant(
        "load_triples-no-grow-miss-grows",
        "src/kgec/data.py",
        "    if grow:\n",
        "    if True:\n",
        DATA_TESTS,
    ),
    Mutant(
        "IdMap.name-rebuilds-only-an-empty-tuple",
        "src/kgec/data.py",
        "if len(self._names) != len(self._name_to_id):",
        "if not self._names:",
        DATA_TESTS,
    ),
    Mutant(
        "IdMap-len-counts-the-name-tuple",
        "src/kgec/data.py",
        "return len(self._name_to_id)",
        "return len(self._names)",
        DATA_TESTS,
    ),
    Mutant(
        "IdMap.save-writes-the-name-tuple",
        "src/kgec/data.py",
        "for name in self._name_to_id))",
        "for name in self._names))",
        DATA_TESTS,
    ),
    Mutant(
        "write_tsv-cr-ending-line-ends-in-lf",
        "src/kgec/data.py",
        'line + ("\\r\\n" if line.endswith("\\r") else "\\n")',
        'line + "\\n"',
        DATA_TESTS + CLI_TESTS,
    ),
    Mutant(
        "write_tsv-no-mark-before-a-marked-first-line",
        "src/kgec/data.py",
        'fh.write("\\ufeff" + first if first.startswith("\\ufeff") else first)',
        "fh.write(first)",
        DATA_TESTS,
    ),
    Mutant(
        "load_dataset-no-valid-test-overlap",
        "src/kgec/data.py",
        "valid_set.isdisjoint(test_set) and ",
        "",
        DATA_TESTS,
    ),
    Mutant(
        "load_dataset-no-train-overlap",
        "src/kgec/data.py",
        "(valid_set | test_set).isdisjoint(train)",
        "True",
        DATA_TESTS,
    ),
    Mutant(
        "load_entailments-error-drops-line-number",
        "src/kgec/data.py",
        'raise type(exc)(f"{path}:{lineno}: {exc}")',
        'raise type(exc)(f"{path}: {exc}")',
        DATA_TESTS,
    ),
    Mutant(
        "load_entailments-accepts-a-repeated-rule",
        "src/kgec/data.py",
        "            if first != lineno:\n",
        "            if False:\n",
        DATA_TESTS,
    ),
    # The training kernel's row matrix q and its segment sum.
    Mutant(
        "kernel-negative-reads-other-partial",
        "src/kgec/objective.py",
        "np.where(corrupt_head, 0, 1)",
        "np.where(corrupt_head, 1, 0)",
        KERNEL_TESTS,
    ),
    Mutant(
        "kernel-rule-rows-one-block-early",
        "src/kgec/objective.py",
        "out=q[3 * b : own]",
        "out=q[2 * b : own - b]",
        KERNEL_TESTS,
    ),
    Mutant(
        "rule_penalty-no-premise-conjugation",
        "src/kgec/objective.py",
        "    np.conjugate(grad, out=grads[: len(grad)], where=rules.inverted[:, None])  # inverted premises\n",
        "",
        KERNEL_TESTS,
    ),
    Mutant(
        "rule_deltas-no-premise-conjugation",
        "src/kgec/objective.py",
        "    np.conjugate(delta, out=delta, where=rules.inverted[:, None])\n",
        "",
        KERNEL_TESTS,
    ),
    Mutant(
        "pair_residuals-pairs-drop-their-inversion-flag",
        "src/kgec/analysis.py",
        "inverted=np.concatenate([pair_inverted == 1,",
        "inverted=np.concatenate([pair_inverted == 2,",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "kernel-negative-weights-left-at-one",
        "src/kgec/objective.py",
        "wi = expit(neg_z, out=w[a:e])",
        "wi = expit(neg_z)",
        KERNEL_TESTS,
    ),
    Mutant(
        "grad_block-no-zeroing",
        "src/kgec/objective.py",
        "    out[:] = 0.0  # the product adds into its output, as scipy's own `@` does on zeros\n",
        "",
        KERNEL_TESTS,
    ),
    Mutant(
        "segment_sum-unstable-sort",
        "src/kgec/objective.py",
        ', kind="stable")',
        ")",
        KERNEL_TESTS,
    ),
    Mutant(
        "segment_sum-sorts-ids-as-uint8",
        "src/kgec/objective.py",
        "ids.astype(np.min_scalar_type(ids.max(initial=0)))",
        "ids.astype(np.uint8)",
        KERNEL_TESTS,
    ),
    Mutant(
        "rule_penalty-no-hinge",
        "src/kgec/objective.py",
        "np.maximum(delta.real, 0.0)",
        "delta.real",
        KERNEL_TESTS,
    ),
    Mutant(
        "rule_penalty-gradient-one-at-the-kink",
        "src/kgec/objective.py",
        "(delta.real > 0.0)",
        "(delta.real >= 0.0)",
        KERNEL_TESTS,
    ),
    # The block cuts and the L2 order of the gradient pass.
    Mutant(
        "_blocks-blocks-overlap-by-one-row",
        "src/kgec/objective.py",
        "min(a + step, hi)",
        "min(a + step + 1, hi)",
        KERNEL_TESTS + EVAL_TESTS,
    ),
    Mutant(
        "_per_block-parts-not-cut-at-block-edges",
        "src/kgec/objective.py",
        "per = -(-blocks // min(max(parts, 1), _WORKERS, blocks)) * step",
        "per = -(-blocks // min(max(parts, 1), _WORKERS, blocks)) * step - 1",
        KERNEL_TESTS + EVAL_TESTS,
    ),
    Mutant(
        "kernel-l2-block-sums-out-of-order",
        "src/kgec/objective.py",
        "for block_l2, _ in sums)",
        "for block_l2, _ in reversed(sums))",
        KERNEL_TESTS,
    ),
    Mutant(
        "grad_block-l2-term-before-product",
        "src/kgec/objective.py",
        "    _sparsetools.csr_matvecs(e - a, real.shape[0], real.shape[1], indptr[a : e + 1] - lo,\n"
        "                             columns[lo:hi], data[lo:hi], real.reshape(-1), out.reshape(-1))\n"
        "    rows = np.take(table, ids[a:e], axis=0, mode=\"wrap\")\n"
        "    sq = _sum_sq(rows)\n"
        "    if eta != 0.0:\n"
        "        rows *= 2.0 * eta\n"
        "        grad[a:e] += rows\n",
        "    rows = np.take(table, ids[a:e], axis=0, mode=\"wrap\")\n"
        "    sq = _sum_sq(rows)\n"
        "    if eta != 0.0:\n"
        "        rows *= 2.0 * eta\n"
        "        grad[a:e] += rows\n"
        "    _sparsetools.csr_matvecs(e - a, real.shape[0], real.shape[1], indptr[a : e + 1] - lo,\n"
        "                             columns[lo:hi], data[lo:hi], real.reshape(-1), out.reshape(-1))\n",
        KERNEL_TESTS,
    ),
    # AdaGrad.
    Mutant(
        "adagrad-no-epsilon",
        "src/kgec/trainer.py",
        "    step += _ADAGRAD_EPSILON\n",
        "",
        TRAINER_TESTS,
    ),
    Mutant(
        "adagrad-rate-ignored",
        "src/kgec/trainer.py",
        "    step *= lr\n",
        "",
        TRAINER_TESTS,
    ),
    Mutant(
        "adagrad-no-clamp",
        "src/kgec/trainer.py",
        "np.clip(rows, 0.0, 1.0, out=rows)",
        "pass",
        TRAINER_TESTS,
    ),
    Mutant(
        "adagrad-clamp-without-upper-bound",
        "src/kgec/trainer.py",
        "np.clip(rows, 0.0, 1.0, out=rows)",
        "np.clip(rows, 0.0, None, out=rows)",
        TRAINER_TESTS,
    ),
    # The filter and the ranks.
    Mutant(
        "known_index-head-side-key-swapped",
        "src/kgec/data.py",
        "((m + rels) * n + tails) * n + heads",
        "((m + rels) * n + heads) * n + tails",
        DATA_TESTS + EVAL_TESTS,
    ),
    Mutant(
        "known_index-out-of-range-query-not-masked",
        "src/kgec/data.py",
        "query[(e.view(np.uint64) >= self._n) | (r.view(np.uint64) >= self._m)] = -1",
        "pass",
        DATA_TESTS + EVAL_TESTS,
    ),
    Mutant(
        "rank_from_scores-gold-not-excluded",
        "src/kgec/evaluation.py",
        "    competing[rows, gold] = False\n",
        "",
        EVAL_TESTS,
        equivalent="`competing` holds the scores strictly above the gold's, which the gold's "
        "own score never is; the line is dead until ties are counted",
    ),
    # Each function checks the ids it indexes.
    Mutant(
        "_check_ids-signed-max",
        "src/kgec/model.py",
        "ids.view(np.uint64).max() >= count",
        "ids.max() >= count",
        MODEL_TESTS,
    ),
    Mutant(
        "rank_from_scores-ids-unchecked",
        "src/kgec/evaluation.py",
        '    _check_ids(np.concatenate([gold, cols]), scores.shape[1], "entity")\n',
        "",
        EVAL_TESTS,
    ),
    Mutant(
        "evaluate-relations-unchecked",
        "src/kgec/evaluation.py",
        '_check_ids(rels, params.n_relations, "relation")',
        "pass",
        EVAL_TESTS,
    ),
    Mutant(
        "evaluate-entities-unchecked",
        "src/kgec/evaluation.py",
        '_check_ids(triples[a:e, ::2], params.n_entities, "entity")',
        "pass",
        EVAL_TESTS,
    ),
    Mutant(
        "evaluate-entity-check-skips-tails",
        "src/kgec/evaluation.py",
        "_check_ids(triples[a:e, ::2],",
        "_check_ids(triples[a:e, 0],",
        EVAL_TESTS,
    ),
    Mutant(
        "activation_heatmap-ids-unchecked",
        "src/kgec/analysis.py",
        '    _check_ids(entity_ids, len(component), "entity")\n',
        "",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "purity_curve-ids-unchecked",
        "src/kgec/analysis.py",
        '    _check_ids(labels.entities, len(component), "entity")\n',
        "",
        ANALYSIS_TESTS,
    ),
    # Per-triple ranks: one (N, 2) array of head then tail ranks, which every
    # chunk writes in its own rows; MRR and HITS@k are means over its 2N ranks.
    Mutant(
        "evaluate-head-and-tail-columns-swapped",
        "src/kgec/evaluation.py",
        "    _per_block(rank_chunk, len(triples), per_chunk, parts=workers)\n",
        "    _per_block(rank_chunk, len(triples), per_chunk, parts=workers)\n    per_triple = per_triple[:, ::-1]\n",
        EVAL_TESTS,
    ),
    Mutant(
        "evaluate-chunk-writes-tail-ranks-in-the-head-column",
        "src/kgec/evaluation.py",
        "per_triple[a:e, 1] = rank_from_scores(",
        "per_triple[a:e, 0] = rank_from_scores(",
        EVAL_TESTS,
    ),
    Mutant(
        "evaluate-chunk-writes-at-the-wrong-row-offset",
        "src/kgec/evaluation.py",
        "per_triple[a:e, 0] = rank_from_scores(",
        "per_triple[: e - a, 0] = rank_from_scores(",
        EVAL_TESTS,
    ),
    Mutant(
        "rank_from_scores-counts-over-every-row",
        "src/kgec/evaluation.py",
        "1 + competing.sum(axis=1)",
        "1 + competing.sum()",
        EVAL_TESTS,
    ),
    Mutant(
        "mrr-divides-by-the-triple-count",
        "src/kgec/evaluation.py",
        "(1.0 / all_ranks).sum() / all_ranks.size",
        "(1.0 / all_ranks).sum() / len(per_triple)",
        EVAL_TESTS,
    ),
    Mutant(
        "hits-counts-ranks-below-k",
        "src/kgec/evaluation.py",
        "(all_ranks <= k).sum()",
        "(all_ranks < k).sum()",
        EVAL_TESTS,
    ),
    Mutant(
        "significance-pairs-row-by-row",
        "src/kgec/evaluation.py",
        "ranks.T.ravel().astype(float)",
        "ranks.ravel().astype(float)",
        EVAL_TESTS,
    ),
    Mutant(
        "rank_dump-ranks-before-the-triple",
        "src/kgec/evaluation.py",
        "np.column_stack([triple_array(test), result.per_triple])",
        "np.column_stack([result.per_triple, triple_array(test)])",
        EVAL_TESTS,
    ),
    # Mining.
    Mutant(
        "mine-support-threshold-strict",
        "src/kgec/mining.py",
        "support >= min_support",
        "support > min_support",
        MINING_TESTS,
    ),
    Mutant(
        "mine-confidence-threshold-inclusive",
        "src/kgec/mining.py",
        "confidence > min_conf",
        "confidence >= min_conf",
        MINING_TESTS,
    ),
    Mutant(
        "mine-pca-body-unweighted",
        "src/kgec/mining.py",
        "cells, weight)",
        "cells)",
        MINING_TESTS,
    ),
    # Outputs and the run directory.
    Mutant(
        "atomic_write-writes-in-place",
        "src/kgec/data.py",
        'tmp = path.with_name(path.name + ".tmp")',
        "tmp = path",
        CLI_TESTS,
    ),
    Mutant(
        "atomic_write-keeps-temp-on-error",
        "src/kgec/data.py",
        "tmp.unlink(missing_ok=True)",
        "pass",
        CLI_TESTS,
    ),
    Mutant(
        "read_json-repeated-key-takes-the-last",
        "src/kgec/data.py",
        "json.load(fh, object_pairs_hook=_unique_keys)",
        "json.load(fh)",
        DATA_TESTS,
    ),
    Mutant(
        "sidecar-vocab-read-at-stored-path",
        "src/kgec/cli.py",
        "directory / Path(dump).name",
        "Path(dump)",
        CLI_TESTS,
    ),
    Mutant(
        "grid-tie-takes-later-point",
        "src/kgec/cli.py",
        "if valid_mrr > best_mrr:",
        "if valid_mrr >= best_mrr:",
        CLI_TESTS,
    ),
    Mutant(
        "grid-resume-retrains-done-points",
        "src/kgec/cli.py",
        "        if key in state:\n            continue\n",
        "",
        CLI_TESTS,
    ),
    # Each manifest hashes its inputs as it is written, after the data is
    # loaded and the point trained.
    Mutant(
        "manifest-hashes-inputs-after-training",
        "src/kgec/cli.py",
        '"inputs": inputs,',
        '"inputs": {path: sha256_file(path) for path in inputs},',
        CLI_TESTS,
    ),
    Mutant(
        "grid-resume-inputs-unchecked",
        "src/kgec/cli.py",
        "    if differs:\n",
        "    if False:\n",
        CLI_TESTS,
    ),
    # The state records the inputs with every write, and a resume refuses a
    # state without that record.
    Mutant(
        "grid-state-records-no-inputs",
        "src/kgec/cli.py",
        'json.dump({**state, "inputs": inputs}, fh',
        "json.dump(state, fh",
        CLI_TESTS,
    ),
    Mutant(
        "grid-resume-accepts-a-state-without-inputs",
        "src/kgec/cli.py",
        'state.pop("inputs", None)',
        'state.pop("inputs", inputs)',
        CLI_TESTS,
    ),
    Mutant(
        "refuse_overwrite-is-a-no-op",
        "src/kgec/cli.py",
        "written = {Path(path).resolve() for path in outputs if path}",
        "written = set()",
        CLI_TESTS,
    ),
    Mutant(
        "eval-overwrites-its-checkpoint",
        "src/kgec/cli.py",
        '    _refuse_overwrite([out_dir / "metrics.csv", args.dump_ranks and out_dir / "ranks.csv"], [args.checkpoint])\n',
        "",
        CLI_TESTS,
    ),
    Mutant(
        "analyze-overwrites-its-inputs",
        "src/kgec/cli.py",
        "    _refuse_overwrite([out_dir / name for name in written], [args.checkpoint, args.types, args.ents])\n",
        "",
        CLI_TESTS,
    ),
    Mutant(
        "manifest-not-removed-first",
        "src/kgec/cli.py",
        '(out_dir / "manifest.json").unlink(missing_ok=True)',
        "pass",
        CLI_TESTS,
    ),
    Mutant(
        "manifest-written-in-place",
        "src/kgec/cli.py",
        'with atomic_write(out_dir / "manifest.json", encoding="utf-8") as fh:',
        'with open(out_dir / "manifest.json", "w", encoding="utf-8") as fh:',
        CLI_TESTS,
    ),
    Mutant(
        "save_checkpoint-writes-a-bytes-copy",
        "src/kgec/model.py",
        "fh.write(buf)",
        "fh.write(buf.tobytes())",
        MODEL_TESTS,
    ),
    # The piece loop of checkpoint reads, writes and init_params.
    Mutant(
        "load_checkpoint-imaginary-piece-into-real-view",
        "src/kgec/model.py",
        "params = ModelParams(np.empty((n, d), ctype), np.empty((m, d), ctype))\n"
        "        for piece, buf in _pieces((params.re_e, params.im_e,",
        "params = ModelParams(np.empty((n, d), ctype), np.empty((m, d), ctype))\n"
        "        for piece, buf in _pieces((params.re_e, params.re_e,",
        MODEL_TESTS,
    ),
    Mutant(
        "load_checkpoint-read-count-unchecked",
        "src/kgec/model.py",
        "if fh.readinto(buf) != buf.nbytes:",
        "if fh.readinto(buf) < 0:",
        MODEL_TESTS,
    ),
    Mutant(
        "load_checkpoint-finite-check-on-first-piece-only",
        "src/kgec/model.py",
        "if buf.size and not (math.isfinite",
        "if fh.tell() == len(CHECKPOINT_MAGIC) + _HEADER.size + buf.nbytes and not (math.isfinite",
        MODEL_TESTS,
    ),
    Mutant(
        "load_checkpoint-finite-check-on-full-pieces-only",
        "src/kgec/model.py",
        "if buf.size and not (math.isfinite",
        "if buf.size == buf.base.size and not (math.isfinite",
        MODEL_TESTS,
    ),
    # Type labels and the purity curve.
    Mutant(
        "load_type_labels-first-line-wins",
        "src/kgec/analysis.py",
        "labels[entity] = type_ids.setdefault(type_name, len(type_ids))",
        "labels.setdefault(entity, type_ids.setdefault(type_name, len(type_ids)))",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "load_type_labels-accepts-a-file-that-labels-no-entity",
        "src/kgec/analysis.py",
        "    if not labels:\n",
        "    if False:\n",
        ANALYSIS_TESTS + ("tests/test_cli.py::test_analyze_reads_every_input_before_writing",),
    ),
    # analyze reads its labels and rules before it makes --out.
    Mutant(
        "analyze-makes-out-before-reading-its-inputs",
        "src/kgec/cli.py",
        "    labels = load_type_labels(args.types, dataset.vocab) if args.types else None\n"
        "    ents = load_entailments(args.ents, dataset.vocab) if args.ents else None\n"
        "    out_dir.mkdir(parents=True, exist_ok=True)\n",
        "    out_dir.mkdir(parents=True, exist_ok=True)\n"
        "    labels = load_type_labels(args.types, dataset.vocab) if args.types else None\n"
        "    ents = load_entailments(args.ents, dataset.vocab) if args.ents else None\n",
        ("tests/test_cli.py::test_analyze_reads_every_input_before_writing",),
    ),
    Mutant(
        "load_type_labels-file-order",
        "src/kgec/analysis.py",
        "order = np.argsort(entities)",
        "order = np.arange(entities.size)",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "purity_curve-unstable-sort",
        "src/kgec/analysis.py",
        "        order.sort(axis=1)\n",
        "",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "purity_curve-run-splits-nans",
        "src/kgec/analysis.py",
        " & ~np.isnan(values[:, :-1])",
        "",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "purity_curve-float-k-count",
        "src/kgec/analysis.py",
        "math.ceil(k_percent * labels.entities.size / 100)",
        "math.ceil(k_percent / 100.0 * labels.entities.size)",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "write_entailments-forward-premise-suffix-unchecked",
        "src/kgec/data.py",
        "elif premise.endswith(_INVERSE_SUFFIX):",
        "elif False:",
        DATA_TESTS + CLI_TESTS,
    ),
    # Parse errors name the file and the line.
    Mutant(
        "read_tsv-error-drops-line-number",
        "src/kgec/data.py",
        'f"{path}:{lineno}: expected {n_fields} tab-separated fields, "',
        'f"{path}: expected {n_fields} tab-separated fields, "',
        DATA_TESTS,
    ),
    Mutant(
        "load_triples-vocabulary-error-drops-line-number",
        "src/kgec/data.py",
        'raise VocabularyError(f"{path}:{lineno}: {exc}")',
        'raise VocabularyError(f"{path}: {exc}")',
        DATA_TESTS,
    ),
    Mutant(
        "IdMap.load-error-drops-line-number",
        "src/kgec/data.py",
        'raise ValueError(f"{path}:{lineno}: name {name!r} repeats line {idx + 1}")',
        'raise ValueError(f"{path}: name {name!r} repeats line {idx + 1}")',
        DATA_TESTS,
    ),
    Mutant(
        "parse_config-unknown-key-drops-line-number",
        "src/kgec/trainer.py",
        'raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")',
        'raise ValueError(f"{path}: unknown config key {key!r}")',
        TRAINER_TESTS,
    ),
    Mutant(
        "parse_config-repeated-key-takes-the-last",
        "src/kgec/trainer.py",
        '        if key in values:\n            raise ValueError(f"{path}:{lineno}: repeated config key {key!r}")\n',
        "",
        TRAINER_TESTS,
    ),
    Mutant(
        "parse_config-cast-error-drops-line-number",
        "src/kgec/trainer.py",
        'raise ValueError(f"{path}:{lineno}: {exc}") from None',
        'raise ValueError(f"{path}: {exc}") from None',
        ("tests/test_cli.py::test_bad_input_fails_naming_the_file",),
    ),
    Mutant(
        "load_rank_dump-error-drops-line-number",
        "src/kgec/evaluation.py",
        'raise ValueError(f"{path}:{reader.line_num}: {exc}")',
        'raise ValueError(f"{path}: {exc}")',
        ("tests/test_cli.py::test_bad_input_fails_naming_the_file",),
    ),
    Mutant(
        "read_lines-fallback-error-drops-line-number",
        "src/kgec/data.py",
        'raise ValueError(f"{path}:{lineno}: {exc}")',
        'raise ValueError(f"{path}: {exc}")',
        DATA_TESTS,
    ),
    # Error paths: each mutant deletes one check.
    Mutant(
        "cli-unknown-config-not-rejected",
        "src/kgec/cli.py",
        'raise FileNotFoundError(f"config not found: {name_or_path}")',
        "return None",
        ("tests/test_cli.py::test_train_with_an_unknown_config_fails",),
    ),
    Mutant(
        "load_rank_dump-header-not-checked",
        "src/kgec/evaluation.py",
        "if header != _RANK_DUMP_HEADER:",
        "if False:",
        ("tests/test_evaluation.py::TestRankDumps",),
    ),
    Mutant(
        "load_checkpoint-precision-flag-not-checked",
        "src/kgec/model.py",
        'raise ValueError(f"{path}: unsupported precision flag {precision}")',
        "pass",
        MODEL_TESTS,
    ),
    Mutant(
        "save_checkpoint-dtype-not-checked",
        "src/kgec/model.py",
        'raise ValueError(f"unsupported parameter dtype {params.re_e.dtype}")',
        "pass",
        MODEL_TESTS,
    ),
    Mutant(
        "ModelParams-real-arrays-accepted",
        "src/kgec/model.py",
        'raise TypeError("entity and relation embeddings must be complex arrays")',
        "pass",
        MODEL_TESTS,
    ),
    Mutant(
        "parse_config-line-without-equals-accepted",
        "src/kgec/trainer.py",
        "raise ValueError(f\"{path}:{lineno}: expected 'key = value'\")",
        "pass",
        TRAINER_TESTS,
    ),
    Mutant(
        "TrainConfig-zero-n_batches-accepted",
        "src/kgec/trainer.py",
        "self.n_batches < 1 or ",
        "",
        TRAINER_TESTS,
    ),
    Mutant(
        "TrainConfig-zero-max_iters-accepted",
        "src/kgec/trainer.py",
        " or self.max_iters < 1:",
        ":",
        TRAINER_TESTS,
    ),
    Mutant(
        "TrainConfig-zero-eval_every-accepted",
        "src/kgec/trainer.py",
        "if self.eval_every < 1:",
        "if False:",
        TRAINER_TESTS,
    ),
    Mutant(
        "make_batches-zero-batches-accepted",
        "src/kgec/trainer.py",
        'raise ValueError("n_batches must be at least 1")',
        "pass",
        TRAINER_TESTS,
    ),
    Mutant(
        "make_batches-no-empty-batch-warning",
        "src/kgec/trainer.py",
        "if config.n_batches > train_arr.shape[0]:",
        "if False:",
        TRAINER_TESTS,
    ),
    Mutant(
        "train-one-entity-accepted",
        "src/kgec/trainer.py",
        'raise ValueError("training needs at least 2 entities")',
        "pass",
        TRAINER_TESTS,
    ),
    Mutant(
        "train-empty-split-accepted",
        "src/kgec/trainer.py",
        'raise ValueError("training split is empty")',
        "pass",
        TRAINER_TESTS,
    ),
    Mutant(
        "train-empty-batches-not-skipped",
        "src/kgec/trainer.py",
        "            if batch.shape[0] == 0:\n                continue\n",
        "",
        TRAINER_TESTS,
    ),
    Mutant(
        "train-valid-split-truth-test",
        "src/kgec/trainer.py",
        "validates = len(dataset.valid) > 0 and",
        "validates = dataset.valid and",
        TRAINER_TESTS,
    ),
]


def _copy_repo(dest: Path) -> Path:
    junk = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_*")
    return Path(shutil.copytree(ROOT, dest / "repo", ignore=junk))


def _run_tests(repo: Path, tests: tuple[str, ...]) -> tuple[bool, float]:
    """Whether ``tests`` pass in ``repo``, and the seconds they took."""
    env = dict(os.environ, PYTHONPATH=str(repo / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    done = subprocess.run(cmd, cwd=repo, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0, time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--list", action="store_true", help="print the mutants and exit")
    args = parser.parse_args(argv)
    by_name = {m.name: m for m in MUTANTS}
    if args.list:
        for m in MUTANTS:
            print(f"{m.name}\t{m.file}" + (f"\tequivalent: {m.equivalent}" if m.equivalent else ""))
        return 0
    unknown = [n for n in args.names if n not in by_name]
    if unknown:
        parser.error(f"unknown mutant(s): {', '.join(unknown)}")
    chosen = [by_name[n] for n in args.names] or MUTANTS

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="kgec-mutate-") as tmp:
        repo = _copy_repo(Path(tmp))
        for m in chosen:
            count = (repo / m.file).read_text(encoding="utf-8").count(m.old)
            if count != 1:
                print(f"error: {m.name}: its text occurs {count} times in {m.file}, not once")
                return 2
        tests = tuple(dict.fromkeys(t for m in chosen for t in m.tests))
        ok, seconds = _run_tests(repo, tests)
        print(f"{'baseline':11s}{'unchanged copy':45s}{seconds:7.1f} s")
        if not ok:
            print("error: the unchanged copy fails its tests")
            return 2
        survived, equivalent = [], []
        for m in chosen:
            path = repo / m.file
            original = path.read_text(encoding="utf-8")
            path.write_text(original.replace(m.old, m.new), encoding="utf-8")
            try:
                passed, seconds = _run_tests(repo, m.tests)
            finally:
                path.write_text(original, encoding="utf-8")
            if passed:
                (equivalent if m.equivalent else survived).append(m.name)
            verdict = "killed" if not passed else "equivalent" if m.equivalent else "SURVIVED"
            print(f"{verdict:11s}{m.name:45s}{seconds:7.1f} s")
    total = time.perf_counter() - start
    killed = len(chosen) - len(survived) - len(equivalent)
    print(f"{len(chosen)} mutants: {killed} killed, {len(equivalent)} equivalent, "
          f"{len(survived)} survived, {total:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
