"""Complex-valued entity/relation embeddings: storage, the ComplEx score and
its partials, and the binary checkpoint format.

Entities and relations are complex arrays ``ent`` (n, d) and ``rel`` (m, d).
The score of (h, r, t) is phi = Re(sum(h * r * conj(t))). It is linear in
each slot, and equals the real dot product (real parts times real parts plus
imaginary parts times imaginary parts) of any slot with that slot's partial:

    head: conj(r) * t        tail: h * r        relation: conj(h) * t

The candidate scorers here (``score_all_heads``/``score_all_tails``) take
gathered rows and, like the training gradient, are built from these three
expressions. AdaGrad and its box clamp act entrywise on the (rows, 2d) real
view of the arrays, which interleaves real and imaginary parts.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .data import atomic_write, read_json, write_json

CHECKPOINT_MAGIC = b"KGEC1"
_HEADER = struct.Struct("<4I")  # n, m, d, precision bits


@dataclass
class ModelParams:
    """Complex entity and relation embeddings.

    ``ent`` is (n, d); training with projection keeps the real and imaginary
    parts of its entries in [0, 1]. ``rel`` is (m, d) and unconstrained. The
    ``re_e``/``im_e``/``re_r``/``im_r`` properties are writable views of the
    real and imaginary components.
    """

    ent: np.ndarray
    rel: np.ndarray

    def __post_init__(self) -> None:
        if not (np.iscomplexobj(self.ent) and np.iscomplexobj(self.rel)):
            raise TypeError("entity and relation embeddings must be complex arrays")

    @property
    def re_e(self) -> np.ndarray:
        return self.ent.real

    @property
    def im_e(self) -> np.ndarray:
        return self.ent.imag

    @property
    def re_r(self) -> np.ndarray:
        return self.rel.real

    @property
    def im_r(self) -> np.ndarray:
        return self.rel.imag

    @property
    def n_entities(self) -> int:
        return self.ent.shape[0]

    @property
    def n_relations(self) -> int:
        return self.rel.shape[0]

    @property
    def d(self) -> int:
        return self.ent.shape[1]

    def copy(self) -> "ModelParams":
        return ModelParams(self.ent.copy(), self.rel.copy())

    def astype(self, dtype) -> "ModelParams":
        """Cast to the complex type whose components have real ``dtype``
        (float32 gives complex64)."""
        ctype = np.result_type(dtype, np.complex64)
        return ModelParams(self.ent.astype(ctype), self.rel.astype(ctype))


def real_view(z: np.ndarray) -> np.ndarray:
    """A C-contiguous (..., d) complex array as a (..., 2d) real array sharing
    its memory, real and imaginary parts interleaved."""
    return z.view(z.real.dtype)


_PIECE_BYTES = 1 << 18  # one piece of the checkpoint and init loops, 256 KB


def _pieces(blocks: tuple[np.ndarray, ...], dtype: np.dtype) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Walk (rows, d) real arrays (the components of the tables) in order,
    in pieces of whole rows of about ``_PIECE_BYTES`` of ``dtype``. Yields
    ``(piece, buf)``: a view of the piece's rows, and a C-contiguous
    ``dtype`` array of its shape, one buffer reused for every piece."""
    d = blocks[0].shape[1]
    rows = max(1, _PIECE_BYTES // max(1, d * dtype.itemsize))
    buf = np.empty((rows, d), dtype)
    for block in blocks:
        for a in range(0, len(block), rows):
            piece = block[a : a + rows]
            yield piece, buf[: len(piece)]


def init_params(n: int, m: int, d: int, seed: int) -> ModelParams:
    """Draw initial embeddings deterministically from ``seed``.

    Entity components are uniform in [0, 1], so the box constraint holds from
    the first step. Relation components are zero-mean normal with scale
    1/sqrt(d), keeping initial scores O(1). Components are drawn in the order
    entity real, entity imaginary, relation real, relation imaginary.
    """
    if n < 1 or m < 1 or d < 1:
        raise ValueError(f"sizes must be at least 1, got n={n}, m={m}, d={d}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(d)
    # random() draws the bits of uniform(0, 1) without its scaling pass; drawn
    # piece by piece, the stream and every bit are those of one (n, d) draw.
    ent = np.empty((n, d), np.complex128)
    for piece, buf in _pieces((ent.real, ent.imag), np.dtype(np.float64)):
        piece[...] = rng.random(out=buf)
    rel = np.empty((m, d), np.complex128)
    rel.real = rng.normal(0.0, scale, size=(m, d))
    rel.imag = rng.normal(0.0, scale, size=(m, d))
    return ModelParams(ent, rel)


def head_partial(r: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Partial of the score with respect to the head: conj(r) * t."""
    return np.multiply(np.conj(r), t, out=out)


def tail_partial(h: np.ndarray, r: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Partial of the score with respect to the tail: h * r."""
    return np.multiply(h, r, out=out)


def rel_partial(h: np.ndarray, t: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Partial of the score with respect to the relation: conj(h) * t."""
    return np.multiply(np.conj(h), t, out=out)


def real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real inner product over the last axis: sum(Re a Re b + Im a Im b)."""
    return np.einsum("...k,...k->...", real_view(a), real_view(b))


def _check_ids(ids, count: int, kind: str) -> None:
    """Raise IndexError unless every id in the scalar or array is in [0, count),
    from one max over the ids read as uint64, where a negative id exceeds 2**63.
    The message names the lowest id if it is negative, else the highest."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and ids.view(np.uint64).max() >= count:
        lo = ids.min()
        raise IndexError(f"{kind} id {lo if lo < 0 else ids.max()} out of range [0, {count})")


def score_all_heads(params: ModelParams, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Scores of (e, r, t) for every entity e, given the relation and tail rows,
    from one matrix product: (n,) for (d,) rows, (B, n) for (B, d) rows."""
    return real_view(head_partial(r, t)) @ real_view(params.ent).T


def score_all_tails(params: ModelParams, h: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Scores of (h, r, e) for every entity e, given the head and relation rows,
    from one matrix product: (n,) for (d,) rows, (B, n) for (B, d) rows."""
    return real_view(tail_partial(h, r)) @ real_view(params.ent).T


_PRECISION_DTYPES = {64: np.dtype("<f8"), 32: np.dtype("<f4")}


def save_checkpoint(
    params: ModelParams,
    path: str | Path,
    entity_vocab_path: str | None = None,
    relation_vocab_path: str | None = None,
) -> None:
    """Write a binary checkpoint plus a JSON sidecar manifest.

    Layout: magic ``KGEC1``, then n, m, d and the precision in bits as
    little-endian uint32, then the four embedding blocks (entity real,
    entity imaginary, relation real, relation imaginary) row-major in
    little-endian floats of the stored precision, written one piece at a
    time, so a save holds no copy of a block. Vocabulary dumps are
    referenced by path in ``<path>.manifest.json``, not embedded.
    """
    itemsize = params.re_e.dtype.itemsize
    precision = itemsize * 8
    if precision not in _PRECISION_DTYPES:
        raise ValueError(f"unsupported parameter dtype {params.re_e.dtype}")
    dtype = _PRECISION_DTYPES[precision]
    path = Path(path)
    with atomic_write(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(_HEADER.pack(params.n_entities, params.n_relations, params.d, precision))
        for piece, buf in _pieces((params.re_e, params.im_e, params.re_r, params.im_r), dtype):
            buf[...] = piece
            fh.write(buf)  # its buffer, not a bytes copy
    sidecar = {
        "checkpoint": path.name,
        "precision": precision,
        "entity_vocab": entity_vocab_path,
        "relation_vocab": relation_vocab_path,
    }
    write_json(str(path) + ".manifest.json", sidecar)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns the parameters in their stored precision (complex64 for float32
    blocks, complex128 for float64) and the sidecar manifest (an empty dict
    when the sidecar is missing). Each block is read piece by piece straight
    into its component of the final tables. A file whose size differs from
    the one its header implies, that ends before its last piece, or that
    holds NaN or Inf raises ValueError naming it.
    """
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a kgec checkpoint (bad magic {magic!r})")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(f"{path}: truncated checkpoint header")
        n, m, d, precision = _HEADER.unpack(header)
        if precision not in _PRECISION_DTYPES:
            raise ValueError(f"{path}: unsupported precision flag {precision}")
        dtype = _PRECISION_DTYPES[precision]
        size = os.fstat(fh.fileno()).st_size
        expected = fh.tell() + 2 * (n + m) * d * dtype.itemsize
        if size != expected:
            problem = "truncated" if size < expected else "has trailing bytes"
            raise ValueError(f"{path}: checkpoint {problem}: {size} bytes, header implies {expected}")
        ctype = np.result_type(dtype, np.complex64)
        params = ModelParams(np.empty((n, d), ctype), np.empty((m, d), ctype))
        for piece, buf in _pieces((params.re_e, params.im_e, params.re_r, params.im_r), dtype):
            if fh.readinto(buf) != buf.nbytes:  # the file shrank after its size was read
                raise ValueError(f"{path}: checkpoint truncated: read {fh.tell()} bytes, header implies {expected}")
            # min and max propagate NaN, and need no temporary array.
            if buf.size and not (math.isfinite(buf.min()) and math.isfinite(buf.max())):
                raise ValueError(f"{path}: checkpoint holds NaN or infinite values")
            piece[...] = buf
    sidecar = Path(str(path) + ".manifest.json")
    return params, (read_json(sidecar) if sidecar.exists() else {})
