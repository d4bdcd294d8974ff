"""Tests for embedding storage, the bilinear score, the box clamp, and checkpoints."""

import os
import re
import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import kgec.model
from kgec.data import Entailment
from kgec.model import (
    ModelParams,
    init_params,
    load_checkpoint,
    save_checkpoint,
    score_all_heads,
    score_all_tails,
)
from kgec.objective import pack_entailments, rule_penalty
from kgec.trainer import AdaGradState, adagrad_step

from conftest import sparse_grads, triple_scores
from oracles import oracle_score


def score(params: ModelParams, triple) -> float:
    """One triple's score, read off the candidate vector of its tail."""
    head, rel, tail = triple
    return float(score_all_tails(params, params.ent[head], params.rel[rel])[tail])


def clamp(params: ModelParams, rows) -> None:
    """The box clamp as training runs it: an AdaGrad step with ``project``,
    here with a zero gradient on the entity ``rows`` so only the clamp acts."""
    ids = np.asarray(rows)
    zeros = np.zeros((ids.size, params.d), complex)
    grads = sparse_grads(ids, zeros, np.empty(0, np.int64), np.empty((0, params.d), complex))
    adagrad_step(params, grads, AdaGradState.zeros_like(params), lr=1.0, project=True)


def params_d1(e_values, r_values) -> ModelParams:
    """d=1 parameters from lists of complex entity/relation values."""
    ent = np.array([[z] for z in e_values], dtype=complex)
    rel = np.array([[z] for z in r_values], dtype=complex)
    return ModelParams(ent, rel)


class TestScore:
    def test_all_zero_params(self):
        params = ModelParams(np.zeros((2, 3), complex), np.zeros((1, 3), complex))
        assert score(params, (0, 0, 1)) == 0.0

    def test_d1_hand_case(self):
        params = params_d1([0.5 + 0.5j, 1.0 + 0.0j], [0.3 + 0.2j])
        expected = oracle_score(params, 0, 0, 1)
        assert expected == pytest.approx(0.05, abs=1e-15)
        assert score(params, (0, 0, 1)) == pytest.approx(expected, abs=1e-15)

    def test_asymmetric_relation(self):
        # Purely imaginary relation between real and imaginary unit entities.
        params = params_d1([1.0 + 0.0j, 0.0 + 1.0j], [0.0 + 1.0j])
        assert score(params, (0, 0, 0)) == pytest.approx(0.0, abs=1e-15)
        assert score(params, (0, 0, 1)) == pytest.approx(
            oracle_score(params, 0, 0, 1), abs=1e-15
        )
        assert score(params, (0, 0, 1)) == pytest.approx(1.0, abs=1e-15)
        assert score(params, (1, 0, 0)) == pytest.approx(-1.0, abs=1e-15)

    def test_matches_oracle_on_random_params(self, rng):
        params = init_params(7, 3, 5, seed=11)
        params.re_r[:] = rng.normal(size=params.re_r.shape)
        params.im_r[:] = rng.normal(size=params.im_r.shape)
        for _ in range(200):
            h, t = rng.integers(0, 7, size=2)
            r = rng.integers(0, 3)
            assert score(params, (h, r, t)) == pytest.approx(
                oracle_score(params, h, r, t), abs=1e-12
            )

    def test_batch_and_candidate_scorers_agree(self, rng):
        params = init_params(9, 4, 6, seed=3)
        heads = rng.integers(0, 9, size=30)
        rels = rng.integers(0, 4, size=30)
        tails = rng.integers(0, 9, size=30)
        batch = [oracle_score(params, h, r, t) for h, r, t in zip(heads, rels, tails)]
        for i in range(30):
            single = score(params, (heads[i], rels[i], tails[i]))
            assert batch[i] == pytest.approx(single, abs=1e-12)
            h, r, t = params.ent[heads[i]], params.rel[rels[i]], params.ent[tails[i]]
            assert score_all_heads(params, r, t)[heads[i]] == pytest.approx(single, abs=1e-12)
            assert score_all_tails(params, h, r)[tails[i]] == pytest.approx(single, abs=1e-12)
        rows = np.arange(30)
        h, r, t = params.ent[heads], params.rel[rels], params.ent[tails]
        np.testing.assert_allclose(score_all_heads(params, r, t)[rows, heads], batch, atol=1e-12)
        np.testing.assert_allclose(score_all_tails(params, h, r)[rows, tails], batch, atol=1e-12)

    def test_score_is_affine_in_each_component_row(self, rng):
        params = init_params(5, 2, 4, seed=8)
        triple = (0, 1, 3)
        matrices = [params.re_e, params.im_e, params.re_r, params.im_r]
        rows = [0, 3, 1, 1]
        for matrix, row in zip(matrices, rows):
            base = matrix[row].copy()
            values = []
            for c in (0.5, 1.0, 2.0):
                matrix[row] = c * base
                values.append(score(params, triple))
            matrix[row] = base
            slope_a = (values[1] - values[0]) / 0.5
            slope_b = (values[2] - values[0]) / 1.5
            assert slope_a == pytest.approx(slope_b, abs=1e-10)


class TestCheckIds:
    @pytest.mark.parametrize(
        "ids",
        [2, np.empty(0, np.int64), [np.int32(0), np.int32(2)], np.array([[0, -1, 2], [1, 7, 0]])[:, ::2]],
        ids=["scalar", "empty", "int32-list", "strided-2d-view"],
    )
    def test_accepts_ids_in_range(self, ids):
        kgec.model._check_ids(ids, 3, "entity")

    @pytest.mark.parametrize(
        "ids, named",
        [
            (3, 3),
            (-1, -1),
            ([np.int32(3), np.int32(-2), np.int32(5), np.int32(-4)], -4),
            (np.array([5, 1, 3]), 5),
            (np.array([[0, -1, 2], [4, -1, 0]])[:, ::2], 4),  # the view hides the -1s
            (np.array([np.iinfo(np.int64).min, 2**63 - 1]), np.iinfo(np.int64).min),
        ],
        ids=["scalar-high", "scalar-negative", "mixed-int32", "high", "strided-2d-view", "int64-ends"],
    )
    def test_names_the_lowest_negative_else_the_highest(self, ids, named):
        with pytest.raises(IndexError, match=rf"^entity id {named} out of range \[0, 3\)$"):
            kgec.model._check_ids(ids, 3, "entity")


def inverted_penalty(params: ModelParams, premise: int, conclusion: int) -> float:
    """Penalty of the rule "premise, inverted, entails conclusion"."""
    rules = pack_entailments([Entailment(premise, True, conclusion, 1.0)])
    return rule_penalty(params.rel, rules)[0]


class TestInverseRelation:
    def test_conjugation(self):
        # An inverted premise r enters the penalty as conj(r) = 0.3 - 0.2j: it
        # entails that relation for free, and r itself at (2 * 0.2)**2.
        params = params_d1([1.0 + 0.0j], [0.3 + 0.2j, 0.3 - 0.2j])
        assert inverted_penalty(params, 0, 1) == 0.0
        assert inverted_penalty(params, 0, 0) == pytest.approx(0.16)

    def test_real_relation_is_fixed_point(self):
        params = params_d1([1.0 + 0.0j], [0.7 + 0.0j])
        assert inverted_penalty(params, 0, 0) == 0.0

    def test_identity_on_hand_case(self):
        # Scoring with the conjugate relation and swapped entities matches.
        params = params_d1([0.5 + 0.5j, 1.0 + 0.0j], [0.3 + 0.2j])
        forward = score(params, (0, 0, 1))
        swapped = ModelParams(params.ent, np.conj(params.rel))
        backward = score(swapped, (1, 0, 0))
        assert forward == pytest.approx(0.05, abs=1e-15)
        assert backward == pytest.approx(forward, abs=1e-15)

    def test_conjugate_inverse_identity_randomized(self):
        # 1000 random draws: score(h, r, t) == score(t, conj(r), h) to 1e-12.
        rng = np.random.default_rng(77)
        params = init_params(20, 6, 8, seed=5)
        params.re_r[:] = rng.normal(size=params.re_r.shape)
        params.im_r[:] = rng.normal(size=params.im_r.shape)
        conj = ModelParams(params.ent, params.re_r - 1j * params.im_r)
        heads = rng.integers(0, 20, size=1000)
        rels = rng.integers(0, 6, size=1000)
        tails = rng.integers(0, 20, size=1000)
        forward = triple_scores(params, heads, rels, tails)
        backward = score_all_heads(conj, conj.rel[rels], conj.ent[heads])[np.arange(1000), tails]
        np.testing.assert_allclose(forward, backward, atol=1e-12, rtol=0)


class TestProjection:
    def test_clamps(self):
        params = init_params(2, 1, 3, seed=0)
        params.re_e[0, 0] = 1.3
        params.im_e[1, 2] = -0.2
        params.re_e[1, 1] = 0.42
        params.re_r[0, 0] = 5.0
        clamp(params, [0, 1])
        assert params.re_e[0, 0] == 1.0
        assert params.im_e[1, 2] == 0.0
        assert params.re_e[1, 1] == 0.42
        assert params.re_r[0, 0] == 5.0  # relations untouched

    def test_idempotent(self, rng):
        params = init_params(6, 2, 5, seed=1)
        params.re_e[:] = rng.normal(scale=3.0, size=params.re_e.shape)
        params.im_e[:] = rng.normal(scale=3.0, size=params.im_e.shape)
        clamp(params, range(6))
        once = params.copy()
        clamp(params, range(6))
        np.testing.assert_array_equal(params.re_e, once.re_e)
        np.testing.assert_array_equal(params.im_e, once.im_e)

    def test_row_subset(self):
        params = init_params(3, 1, 2, seed=0)
        params.re_e[:] = 2.0
        clamp(params, [1])
        assert params.re_e[1, 0] == 1.0
        assert params.re_e[0, 0] == 2.0


class TestSufficiency:
    def test_ordered_real_parts_imply_ordered_scores(self):
        # Entities in the box and Re(r_p) <= Re(r_q), Im equal -> scores ordered.
        rng = np.random.default_rng(9)
        n, d = 40, 6
        for _ in range(50):
            re_e = rng.uniform(0, 1, (n, d))
            im_e = rng.uniform(0, 1, (n, d))
            re_q = rng.normal(size=d)
            re_p = re_q - rng.uniform(0, 1, size=d)
            im = rng.normal(size=d)
            params = ModelParams(re_e + 1j * im_e, np.vstack([re_p, re_q]) + 1j * np.vstack([im, im]))
            heads = rng.integers(0, n, size=100)
            tails = rng.integers(0, n, size=100)
            lo = triple_scores(params, heads, np.zeros(100, int), tails)
            hi = triple_scores(params, heads, np.ones(100, int), tails)
            assert np.all(lo <= hi + 1e-12)


class TestInit:
    def test_deterministic(self):
        a = init_params(5, 3, 7, seed=42)
        b = init_params(5, 3, 7, seed=42)
        for x, y in ((a.re_e, b.re_e), (a.im_e, b.im_e), (a.re_r, b.re_r), (a.im_r, b.im_r)):
            np.testing.assert_array_equal(x, y)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_draws_are_uniform_then_normal_in_order(self, seed):
        # Entity real, entity imaginary, relation real, relation imaginary,
        # each the exact draws of the named distribution from one generator.
        n, m, d = 9, 4, 6
        rng = np.random.default_rng(seed)
        want = [rng.uniform(0.0, 1.0, size=(n, d)) for _ in range(2)]
        want += [rng.normal(0.0, 1.0 / np.sqrt(d), size=(m, d)) for _ in range(2)]
        params = init_params(n, m, d, seed=seed)
        for got, expected in zip((params.re_e, params.im_e, params.re_r, params.im_r), want):
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n, m, d, seed", [(7, 2, 3, 0), (8, 3, 3, 4), (1, 1, 1, 2), (5, 1, 8, 9)])
    def test_draws_in_pieces_are_one_draw(self, monkeypatch, n, m, d, seed):
        # Three rows of d = 3 a piece: n = 7 ends on a short piece, n = 8 on
        # a two-row one; at d = 8 a piece is one row, less than its budget.
        monkeypatch.setattr(kgec.model, "_PIECE_BYTES", 3 * 3 * 8)
        rng = np.random.default_rng(seed)
        want = [rng.uniform(0.0, 1.0, size=(n, d)) for _ in range(2)]
        want += [rng.normal(0.0, 1.0 / np.sqrt(d), size=(m, d)) for _ in range(2)]
        params = init_params(n, m, d, seed=seed)
        for got, expected in zip((params.re_e, params.im_e, params.re_r, params.im_r), want):
            np.testing.assert_array_equal(got, expected)

    def test_holds_one_entity_table(self):
        # The entity table is filled in place, one piece at a time; two whole
        # draws beside it would make the peak about twice the table.
        n, m, d = 4_000, 2, 50
        table = n * d * np.dtype(np.complex128).itemsize
        init_params(n, m, d, seed=1)  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            init_params(n, m, d, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * table, (peak, table)

    def test_entities_in_box(self):
        params = init_params(50, 5, 20, seed=7)
        assert np.all(params.re_e >= 0) and np.all(params.re_e <= 1)
        assert np.all(params.im_e >= 0) and np.all(params.im_e <= 1)

    def test_shapes(self):
        params = init_params(2, 1, 4, seed=0)
        assert params.re_e.shape == (2, 4)
        assert params.im_e.shape == (2, 4)
        assert params.re_r.shape == (1, 4)
        assert params.im_r.shape == (1, 4)

    def test_rejects_zero_sizes(self):
        for n, m, d in ((0, 1, 1), (1, 0, 1), (1, 1, 0)):
            with pytest.raises(ValueError):
                init_params(n, m, d, seed=0)


class TestParams:
    @pytest.mark.parametrize("real", ["ent", "rel", "both"])
    def test_real_arrays_are_rejected(self, real):
        ent, rel = np.zeros((2, 3), complex), np.zeros((1, 3), complex)
        if real in ("ent", "both"):
            ent = ent.real.copy()
        if real in ("rel", "both"):
            rel = rel.real.copy()
        with pytest.raises(TypeError, match="^entity and relation embeddings must be complex arrays$"):
            ModelParams(ent, rel)


class TestCheckpoint:
    def test_float64_round_trip(self, tmp_path):
        params = init_params(4, 2, 3, seed=1)
        path = tmp_path / "model.kgec"
        save_checkpoint(params, path, "ent.txt", "rel.txt")
        loaded, sidecar = load_checkpoint(path)
        np.testing.assert_array_equal(loaded.re_e, params.re_e)
        np.testing.assert_array_equal(loaded.im_r, params.im_r)
        assert loaded.re_e.dtype == np.float64
        assert sidecar["precision"] == 64
        assert sidecar["entity_vocab"] == "ent.txt"

    def test_float32_round_trip(self, tmp_path):
        params = init_params(4, 2, 3, seed=1).astype(np.float32)
        path = tmp_path / "model.kgec"
        save_checkpoint(params, path)
        loaded, sidecar = load_checkpoint(path)
        assert loaded.re_e.dtype == np.float32
        assert sidecar["precision"] == 32
        np.testing.assert_array_equal(loaded.re_r, params.re_r)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_save_holds_one_piece(self, tmp_path, dtype):
        # Each embedding block is written through one reused piece buffer; a
        # contiguous copy of a block, or a bytes copy of a piece, would not fit.
        params = init_params(4_000, 2, 50, seed=1).astype(dtype)
        block = params.re_e.size * np.dtype(dtype).itemsize
        bound = kgec.model._PIECE_BYTES + 2**16
        assert block > 2 * bound
        save_checkpoint(params, tmp_path / "warm.kgec")  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            save_checkpoint(params, tmp_path / "model.kgec")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (peak, block)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_load_holds_one_copy_of_the_tables(self, tmp_path, dtype):
        # Blocks are read straight into the final tables through one piece
        # buffer (about 1.1 times the tables at float64); a second copy of
        # the tables would double the peak.
        path = tmp_path / "model.kgec"
        save_checkpoint(init_params(4_000, 2, 50, seed=1).astype(dtype), path)
        tables = (4_000 + 2) * 50 * 2 * np.dtype(dtype).itemsize
        load_checkpoint(path)  # warm-up: lazy imports and caches
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < tables + kgec.model._PIECE_BYTES + 2**16, (peak, tables)

    @pytest.mark.parametrize("bits, dtype", [(64, "<f8"), (32, "<f4")])
    @pytest.mark.parametrize("n", [6, 7])
    def test_blocks_of_several_pieces_round_trip_byte_for_byte(self, tmp_path, monkeypatch, bits, dtype, n):
        # Two rows a piece: the entity blocks end on a full or a one-row piece.
        m, d = 3, 4
        monkeypatch.setattr(kgec.model, "_PIECE_BYTES", 2 * d * np.dtype(dtype).itemsize)
        rng = np.random.default_rng(3)
        blocks = [rng.normal(size=(rows, d)).astype(dtype) for rows in (n, n, m, m)]
        raw = b"KGEC1" + struct.pack("<4I", n, m, d, bits) + b"".join(b.tobytes() for b in blocks)
        path = tmp_path / "golden.kgec"
        path.write_bytes(raw)
        loaded, _ = load_checkpoint(path)
        for got, want in zip((loaded.re_e, loaded.im_e, loaded.re_r, loaded.im_r), blocks):
            np.testing.assert_array_equal(got, want)
        save_checkpoint(loaded, tmp_path / "resaved.kgec")
        assert (tmp_path / "resaved.kgec").read_bytes() == raw

    @pytest.mark.parametrize("keep", [0, 8, 3 * 3 * 8, 3 * 3 * 8 + 8, 2 * 7 * 3 * 8 + 8])
    def test_file_cut_after_its_size_check_names_it(self, tmp_path, monkeypatch, keep):
        # The file loses its tail between the size check and the reads: the
        # read of the piece it cuts comes up short. Cuts fall in the first
        # piece, at the end of one, in the second, and in the relation blocks.
        monkeypatch.setattr(kgec.model, "_PIECE_BYTES", 3 * 3 * 8)  # three rows a piece
        path = tmp_path / "model.kgec"
        save_checkpoint(init_params(7, 2, 3, seed=1), path)
        data, header = path.read_bytes(), len(b"KGEC1") + 4 * 4
        path.write_bytes(data[: header + keep])
        monkeypatch.setattr(os, "fstat", lambda fd: SimpleNamespace(st_size=len(data)))
        message = f"{path}: checkpoint truncated: read {header + keep} bytes, header implies {len(data)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("block", ["re_e", "im_e", "re_r", "im_r"])
    @pytest.mark.parametrize("row", [0, -1])
    def test_non_finite_value_in_any_piece_is_rejected(self, tmp_path, monkeypatch, value, block, row):
        # Three rows a piece: the entity blocks are three pieces, the last
        # one row; the relation blocks are one piece of two rows.
        monkeypatch.setattr(kgec.model, "_PIECE_BYTES", 3 * 3 * 8)
        params = init_params(7, 2, 3, seed=1)
        getattr(params, block)[row, 1] = value
        path = tmp_path / "model.kgec"
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match="model.kgec.*NaN or infinite"):
            load_checkpoint(path)

    def test_magic_is_checked(self, tmp_path):
        path = tmp_path / "bad.kgec"
        path.write_bytes(b"NOTKG" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_unknown_precision_flag_is_rejected(self, tmp_path):
        path = tmp_path / "half.kgec"
        path.write_bytes(b"KGEC1" + struct.pack("<4I", 1, 1, 1, 16) + b"\x00" * 8)
        with pytest.raises(ValueError) as exc:
            load_checkpoint(path)
        assert str(exc.value) == f"{path}: unsupported precision flag 16"

    @pytest.mark.skipif(np.dtype(np.longdouble).itemsize == 8, reason="longdouble is float64 here")
    def test_unsupported_parameter_dtype_is_rejected(self, tmp_path):
        params = init_params(2, 1, 2, seed=1)
        wide = ModelParams(params.ent.astype(np.clongdouble), params.rel.astype(np.clongdouble))
        path = tmp_path / "wide.kgec"
        with pytest.raises(ValueError) as exc:
            save_checkpoint(wide, path)
        assert str(exc.value) == f"unsupported parameter dtype {np.dtype(np.longdouble)}"
        assert not path.exists()

    def test_truncation_is_detected(self, tmp_path):
        params = init_params(4, 2, 3, seed=1)
        path = tmp_path / "model.kgec"
        save_checkpoint(params, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", [1, 36 * 8 + 10])
    def test_truncated_file_names_it(self, tmp_path, cut):
        # Cut one byte, or all 36 values and part of the header.
        path = tmp_path / "model.kgec"
        save_checkpoint(init_params(4, 2, 3, seed=1), path)
        path.write_bytes(path.read_bytes()[:-cut])
        with pytest.raises(ValueError, match="model.kgec.*truncated"):
            load_checkpoint(path)

    def test_trailing_byte_is_rejected(self, tmp_path):
        path = tmp_path / "model.kgec"
        save_checkpoint(init_params(4, 2, 3, seed=1), path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="model.kgec.*trailing"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_is_rejected(self, tmp_path, value):
        params = init_params(4, 2, 3, seed=1)
        params.im_r[1, 2] = value
        path = tmp_path / "model.kgec"
        save_checkpoint(params, path)
        with pytest.raises(ValueError, match="model.kgec.*NaN or infinite"):
            load_checkpoint(path)

    @pytest.mark.parametrize("bits, dtype", [(64, "<f8"), (32, "<f4")])
    def test_golden_layout(self, tmp_path, bits, dtype):
        # KGEC1 built by hand: magic, n/m/d/bits as <u4, then entity real,
        # entity imaginary, relation real, relation imaginary, row-major.
        n, m, d = 3, 2, 4
        rng = np.random.default_rng(5)
        blocks = [rng.normal(size=(rows, d)).astype(dtype) for rows in (n, n, m, m)]
        raw = b"KGEC1" + struct.pack("<4I", n, m, d, bits) + b"".join(b.tobytes() for b in blocks)
        path = tmp_path / "golden.kgec"
        path.write_bytes(raw)
        loaded, sidecar = load_checkpoint(path)
        assert sidecar == {}
        for got, want in zip((loaded.re_e, loaded.im_e, loaded.re_r, loaded.im_r), blocks):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        resaved = tmp_path / "resaved.kgec"
        save_checkpoint(loaded, resaved)
        assert resaved.read_bytes() == raw
