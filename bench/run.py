"""Benchmark of the kgec mine -> train -> eval -> analyze loop.

Usage (from the repository root)::

    python3 bench/run.py --workload wn18 --seed 1 --seconds 30 --trace 0

Each run generates its inputs from ``--seed`` with ``bench/gen.py`` in a
child process, then drives kgec through those files only, as a user would:
set-up (``load_dataset``, ``build_known_index``, ``load_checkpoint``), rule
mining, training, filtered evaluation and the ``analyze`` computations.
Correctness checks run outside the timed regions and count into ``failed``.
With ``--trace 0`` the last stdout line is a JSON object with the gated
end-to-end metrics; with ``--trace 1`` public kgec functions are wrapped with
timing spans (see ``spans.py``) and the line holds the per-layer metrics.
Details, environment and spans go to ``.bench_out/``. See ``bench/README.md``
for the workloads, the metrics and why they are computed as they are.
"""

from __future__ import annotations

import argparse
import bisect
import ctypes
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
if not (ROOT / "src" / "kgec").is_dir():
    sys.exit(f"kgec sources not found under {ROOT / 'src'}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import kgec  # noqa: E402
from kgec import analysis, data, evaluation, mining, model, trainer  # noqa: E402

import gen  # noqa: E402
from spans import Tracer  # noqa: E402

perf_counter = time.perf_counter

# End-to-end metrics (--trace 0): name -> (unit, better). Times are scaled
# to the reference speed (see Speedometer and README).
E2E = {
    "setup_s": ("s", "lower"),
    "mine_triples_per_s": ("1/s", "higher"),
    "train_triples_per_s": ("1/s", "higher"),
    "train_step_ms_p50": ("ms", "lower"),
    "train_step_ms_p90": ("ms", "lower"),
    "eval_queries_per_s": ("1/s", "higher"),
    "analyze_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# Printed with every untraced run but not in the JSON line: model quality is
# guarded by checks, and failed_frac is 0 by design, which no bound relative
# to the parent's median can express.
REPORTED = {
    "test_mrr": "1",
    "test_mrr_plain": "1",
    "failed_frac": "1",
}

# The machine's speed is gauged with a fixed reference kernel before and
# after the timed operations, at most REF_EVERY_S apart; each time is scaled
# by REF_NOMINAL_S over the median reference time within REF_WINDOW_S of it.
REF_NOMINAL_S = 0.00075
REF_EVERY_S = 0.25
REF_WINDOW_S = 1.0
# Samples left unscaled: WN18-shaped scoring is a 41k x 200 matrix-vector
# product on two BLAS threads, bound by memory bandwidth, which the
# single-threaded reference does not use; scaling it adds noise.
UNSCALED = {("wn18", "eval_query_s")}
_REF_ARRAY = np.ones((136, 50))

# Per-layer metrics (--trace 1): name -> (unit, better). Times are totals
# over the run; counts are totals unless named per call.
LAYERS = {
    "data.load_dataset_s": ("s", "lower"),
    "data.build_known_index_s": ("s", "lower"),
    "model.load_checkpoint_s": ("s", "lower"),
    "model.checkpoint_bytes": ("bytes", "lower"),
    "data.filter_lookups": ("count", "lower"),
    "data.filter_s": ("s", "lower"),
    "model.score_all_calls": ("count", "lower"),
    "model.score_all_s": ("s", "lower"),
    "model.score_all_gbps": ("GB/s", "higher"),
    "evaluation.rank_s": ("s", "lower"),
    "evaluation.self_s": ("s", "lower"),
    "objective.loss_grad_calls": ("count", "lower"),
    "objective.loss_grad_s": ("s", "lower"),
    "objective.rows_per_call": ("count", "higher"),
    "objective.touched_entity_ratio": ("ratio", "higher"),
    "objective.clip_s": ("s", "lower"),
    "objective.clipped_frac": ("ratio", "lower"),
    "trainer.corrupt_batch_s": ("s", "lower"),
    "trainer.make_batches_s": ("s", "lower"),
    "trainer.adagrad_step_s": ("s", "lower"),
    "model.project_entities_s": ("s", "lower"),
    "trainer.self_s": ("s", "lower"),
    "mining.mine_s": ("s", "lower"),
    "mining.rules_found": ("count", "higher"),
    "analysis.heatmap_s": ("s", "lower"),
    "analysis.purity_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_est_frac": ("ratio", "lower"),
}

# Work per run at --seconds 30; other values scale the counts. Each count is
# spread evenly over the rounds, so every phase samples the whole run, and
# the training runs sit between rounds. On a shared machine this is what
# keeps one slow stretch from setting a phase's figures. At 30 s a run
# measures 20-45 s on a 2-core x86 VM.
PLANS = {
    "wn18": dict(rounds=8, setup=4, mine=16, analyze=8, eval_triples=600,
                 train_steps=8, train_repeats=3),
    "planted": dict(rounds=20, setup=200, mine=300, analyze=200, eval_reps=100,
                    train_steps=None, train_repeats=1),
}
NOMINAL_SECONDS = 30
MINE_SETTINGS = {"wn18": (0.8, 10), "planted": (0.3, 10)}  # (min_conf, min_support)
# A workload that trains once repeats its first DIGEST_STEP steps to check
# determinism; one that repeats a training compares the runs' digests.
DIGEST_STEP = 40
RANK_SAMPLE = 20  # evaluated test triples whose ranks are recomputed independently
EVAL_CHUNK = 20  # test triples per evaluate() call


def _checkpoint_bytes(c, args, kwargs, result):
    params = result[0]
    c["checkpoint_bytes"] += sum(a.nbytes for a in (params.re_e, params.im_e, params.re_r, params.im_r))


def _score_bytes(c, args, kwargs, result):
    params = args[0]
    c["score_bytes"] += params.re_e.nbytes + params.im_e.nbytes


def _loss_rows(c, args, kwargs, result):
    c["loss_rows"] += args[1].size
    c["touched_entities"] += result[1].ent_ids.size


def _clipped(c, args, kwargs, result):
    cap = args[1] if len(args) > 1 else kwargs["cap"]
    c["clipped"] += result > cap


def _rules(c, args, kwargs, result):
    c["rules"] += len(result)


# Where each traced function is looked up by its callers, and its span name.
TARGETS = (
    ("kgec.data:load_dataset", "data.load_dataset", None),
    ("kgec.data:build_known_index", "data.build_known_index", None),
    ("kgec.data:load_entailments", "data.load_entailments", None),
    ("kgec.model:load_checkpoint", "model.load_checkpoint", _checkpoint_bytes),
    ("kgec.data:KnownIndex.heads", "data.filter", None),
    ("kgec.data:KnownIndex.tails", "data.filter", None),
    ("kgec.evaluation:evaluate", "evaluation.evaluate", None),
    ("kgec.evaluation:filtered_rank", "evaluation.filtered_rank", None),
    ("kgec.evaluation:score_all_heads", "model.score_all", _score_bytes),
    ("kgec.evaluation:score_all_tails", "model.score_all", _score_bytes),
    ("kgec.evaluation:rank_from_scores", "evaluation.rank", None),
    ("kgec.trainer:train", "trainer.train", None),
    ("kgec.trainer:make_batches", "trainer.make_batches", None),
    ("kgec.trainer:_corrupt_batch", "trainer.corrupt_batch", None),
    ("kgec.trainer:loss_and_gradient_arrays", "objective.loss_grad", _loss_rows),
    ("kgec.objective:SparseGrads.clip_global_norm_", "objective.clip", _clipped),
    ("kgec.trainer:adagrad_step", "trainer.adagrad_step", None),
    ("kgec.trainer:project_entities", "model.project_entities", None),
    ("kgec.mining:mine_entailments", "mining.mine", _rules),
    ("kgec.analysis:load_type_labels", "analysis.load_type_labels", None),
    ("kgec.analysis:activation_heatmap", "analysis.heatmap", None),
    ("kgec.analysis:purity_curve", "analysis.purity", None),
)


def plan_for(workload: str, seconds: int) -> dict:
    """Work for a run of ``seconds``; every count is at least 1."""
    scale = seconds / NOMINAL_SECONDS
    plan = dict(PLANS[workload])
    for key in ("setup", "mine", "analyze", "eval_triples", "eval_reps"):
        if key in plan:
            plan[key] = max(1, round(plan[key] * scale))
    if plan["train_steps"] is not None:
        plan["train_steps"] = max(3, round(plan["train_steps"] * scale))
    return plan


def share(total: int, rounds: int, r: int) -> int:
    """Round ``r``'s part of ``total`` when it is spread evenly over ``rounds``."""
    return total * (r + 1) // rounds - total * r // rounds


def reference_kernel() -> None:
    """Fixed interpreter, allocator and small-array work, like kgec's own mix."""
    table = {}
    for i in range(4000):
        table[(i, i & 7)] = i
    a = _REF_ARRAY
    for _ in range(40):
        a = a * 1.0000001 + 1e-9


class Speedometer:
    """Reference-kernel times, to scale measured times to a nominal speed.

    A shared machine runs the same code at different speeds from one second
    to the next, as its neighbours come and go. A time scaled by the ratio
    of the nominal to the measured reference time around it is far steadier
    from run to run than the raw time, and a change to kgec moves both alike.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.ends: list[float] = []
        self.seconds: list[float] = []

    def measure(self) -> None:
        """Keep the fastest of three kernel runs, so a momentary stall is ignored."""
        best = math.inf
        with self.tracer.span("bench.speed"):
            for _ in range(3):
                t0 = perf_counter()
                reference_kernel()
                best = min(best, perf_counter() - t0)
        self.ends.append(perf_counter())
        self.seconds.append(best)

    def maybe(self) -> None:
        """Measure unless the last reference is under REF_EVERY_S old."""
        if not self.ends or perf_counter() - self.ends[-1] > REF_EVERY_S:
            self.measure()

    def scale(self, start: float, end: float) -> float:
        """Nominal over the median reference time within REF_WINDOW_S of
        [start, end] (or the nearest one)."""
        lo = bisect.bisect_left(self.ends, start - REF_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + REF_WINDOW_S)
        near = self.seconds[lo:hi] or [self.seconds[min(lo, len(self.seconds) - 1)]]
        return REF_NOMINAL_S / statistics.median(near)


def params_digest(params) -> str:
    """SHA-256 over the four parameter blocks in float64."""
    h = hashlib.sha256()
    for block in (params.re_e, params.im_e, params.re_r, params.im_r):
        h.update(np.ascontiguousarray(block, dtype=np.float64).tobytes())
    return h.hexdigest()


def percentile_report(samples) -> dict:
    """p10, median, p90 and the highest percentile with at least 10 samples above."""
    xs = np.asarray(samples, dtype=float)
    n = xs.size
    top = math.floor(1000 * (1 - 10 / n)) / 10 if n >= 20 else 50.0
    return {
        "n": int(n),
        "p10": float(np.percentile(xs, 10)),
        "p50": float(np.percentile(xs, 50)),
        "p90": float(np.percentile(xs, 90)),
        "top_pct": top,
        "top": float(np.percentile(xs, top)),
    }


def oracle_rank(params, triple, side: str, known_rows: np.ndarray) -> tuple[int, int]:
    """Range of optimistic filtered ranks from complex arithmetic and a sort.

    Independent of kgec's scorer and KnownIndex: entities and relations are
    complex vectors, scores are Re(<h, r, conj(t)>), known triples are found
    by scanning the raw id array. The range allows for rounding in the
    parameter precision: rivals within ``tol`` of the gold score may fall on
    either side.
    """
    def ent(rows):
        return params.re_e[rows].astype(np.float64) + 1j * params.im_e[rows].astype(np.float64)

    head, r, tail = triple
    rel = params.re_r[r].astype(np.float64) + 1j * params.im_r[r].astype(np.float64)
    n = params.n_entities
    chunks = [slice(lo, min(lo + 4096, n)) for lo in range(0, n, 4096)]
    if side == "head":
        query = rel * np.conj(ent(tail))
        scores = np.concatenate([(ent(c) @ query).real for c in chunks])
        gold = head
        known = known_rows[(known_rows[:, 1] == r) & (known_rows[:, 2] == tail), 0]
    else:
        query = ent(head) * rel
        scores = np.concatenate([(np.conj(ent(c)) @ query).real for c in chunks])
        gold = tail
        known = known_rows[(known_rows[:, 0] == head) & (known_rows[:, 1] == r), 2]
    keep = np.ones(n, dtype=bool)
    keep[known] = False
    keep[gold] = False
    rivals = np.sort(scores[keep])
    eps = np.finfo(params.re_e.dtype).eps
    tol = 8 * eps * math.sqrt(params.d) * (1.0 + float(np.abs(scores).max()))
    g = scores[gold]
    lo = rivals.size - int(np.searchsorted(rivals, g + tol, side="right"))
    hi = rivals.size - int(np.searchsorted(rivals, g - tol, side="right"))
    return 1 + lo, 1 + hi


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS bundled with numpy, if any."""
    libs = sorted((Path(np.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(str(path))  # already loaded by numpy: returns that copy
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    """SHA-256 over kgec's source files, identifying the code measured."""
    h = hashlib.sha256()
    src = ROOT / "src" / "kgec"
    for path in sorted(src.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".cfg"):
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": __import__("scipy").__version__,
        "kgec": kgec.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": blas_threads(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "KGEC_WORKERS")},
        "workers": 1,
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "seeds": {"inputs": args.seed, "train": args.seed},
        "seconds": args.seconds,
        "trace": args.trace,
    }


class StepClock:
    """``on_step`` callback: step timestamps, reference timings and a digest
    at one step.

    Gaps run from the end of one callback to the start of the next, so the
    callback's own work is not charged to training.
    """

    def __init__(self, digest_step: int, speed: Speedometer):
        self.digest_step = digest_step
        self.speed = speed
        self.enter: list[float] = []
        self.exit: list[float] = []
        self.digest: str | None = None

    def __call__(self, params, epoch, batch) -> None:
        self.enter.append(perf_counter())
        if len(self.enter) == self.digest_step:
            self.digest = params_digest(params)
        self.speed.maybe()
        self.exit.append(perf_counter())

    def gaps(self) -> list[tuple[float, float, float]]:
        """(start, end, seconds) of each step after the first."""
        return [(b, a, a - b) for a, b in zip(self.enter[1:], self.exit[:-1])]


class Bench:
    """One run of one workload: phases, checks and metrics."""

    def __init__(self, args, workdir: Path):
        self.args = args
        self.workload = args.workload
        self.dir = workdir
        self.plan = plan_for(args.workload, args.seconds)
        self.tracer = Tracer()
        self.speed = Speedometer(self.tracer)
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.errors: list[str] = []
        self.broken: set[str] = set()
        # Timed operations as (start, end, seconds), scaled when metrics are made.
        self.samples: dict[str, list[tuple[float, float, float]]] = {}
        self.info: dict = {"train_positives": 0, "train_steps": 0}
        self.state: dict = {}

    # -- bookkeeping -----------------------------------------------------------
    @contextmanager
    def checking(self):
        """Span for check work; kgec calls inside it are not traced."""
        with self.tracer.span("bench.check"), self.tracer.paused():
            yield

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        with self.checking():
            self.attempted += 1
            self.failed += not ok
            self.checks.append({"name": name, "ok": bool(ok), "detail": detail})

    def timed(self, phase: str, fn, sample: str | None = None, per: int = 1):
        """Run one operation of ``phase`` in a span; returns (result, seconds).

        With ``sample``, the time divided by ``per`` is kept under that name.
        """
        self.attempted += 1
        self.speed.maybe()
        with self.tracer.span(f"bench.{phase}"):
            t0 = perf_counter()
            out = fn()
            t1 = perf_counter()
        self.speed.maybe()
        if sample is not None:
            self.samples.setdefault(sample, []).append((t0, t1, (t1 - t0) / per))
        return out, t1 - t0

    def phase(self, name: str, fn) -> None:
        """Run a phase unless it failed before; a failure does not stop the run."""
        if name in self.broken:
            return
        try:
            fn()
        except Exception as exc:  # reported as a failed operation; later phases still run
            self.failed += 1
            self.broken.add(name)
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}")

    # -- phases ----------------------------------------------------------------
    def setup(self, count: int) -> None:
        def load():
            dataset = data.load_dataset(self.dir)
            known = data.build_known_index(dataset)
            params, _ = model.load_checkpoint(self.dir / "checkpoint.kgec")
            return dataset, known, params

        for _ in range(count):
            loaded, _ = self.timed("setup", load, sample="setup_s")
            if "dataset" in self.state:
                continue  # later copies are only timed, then freed
            dataset, known, params = loaded
            self.state.update(dataset=dataset, known=known, checkpoint=params)
            shapes = (dataset.n_entities, dataset.n_relations)
            ok = (params.n_entities, params.n_relations) == shapes
            if self.workload == "wn18":
                ok &= shapes == (gen.WN18_ENTITIES, 2 * gen.WN18_PAIRS)
                ok &= tuple(map(len, (dataset.train, dataset.valid, dataset.test))) == gen.WN18_SPLITS
            self.check("setup.shapes", ok, f"dataset {shapes}, checkpoint "
                       f"({params.n_entities}, {params.n_relations})")
            self.check("setup.checkpoint_in_box", _in_box(params))

    def mine(self, count: int) -> None:
        dataset = self.state["dataset"]
        min_conf, min_support = MINE_SETTINGS[self.workload]
        for _ in range(count):
            rules, _ = self.timed(
                "mine", lambda: mining.mine_entailments(dataset.train, min_conf, min_support),
                sample="mine_s")
        if "rules" in self.state or not count:
            return
        self.state["rules"] = [r.entailment for r in rules]
        self.info["rules_mined"] = len(rules)
        rel = dataset.vocab.relations
        found = {(rel.name(e.premise_rel), e.premise_inverted, rel.name(e.conclusion_rel))
                 for e in self.state["rules"]}
        if self.workload == "wn18":
            wanted = {(f"r{a}", True, f"r{b}") for k in range(gen.WN18_PAIRS)
                      for a, b in ((2 * k, 2 * k + 1), (2 * k + 1, 2 * k))}
        else:
            wanted = {(f"r{p}", False, f"r{q}") for p, q in gen.PLANTED_PAIRS}
        missing = sorted(wanted - found)
        self.check("mine.planted_rules_found", not missing, f"missing {missing}" if missing else "")

    def _train(self, config, ents, steps):
        """Train with a step clock and check the result; returns the parameters."""
        dataset = dataclasses.replace(self.state["dataset"], valid=[])  # validation off
        clock = StepClock(DIGEST_STEP, self.speed)
        callback = self.tracer.wrap(clock, "bench.on_step") if self.args.trace else clock

        def run():
            if steps is None:
                return trainer.train(dataset, ents, config, on_step=callback)[0]
            return gen.train_steps(dataset, ents, config, steps, on_step=callback)

        self.speed.maybe()
        t0 = perf_counter()
        params, dt = self.timed("train", run)
        t1 = t0 + dt
        n_steps = len(clock.enter)
        if steps is None:
            positives = config.max_iters * len(dataset.train)
        else:
            sizes = [len(b) for b in np.array_split(np.arange(len(dataset.train)), config.n_batches)]
            positives = sum(sizes[:n_steps])
        self.samples.setdefault("train_step_s", []).extend(clock.gaps())
        # The run's wall time outside callbacks, in pieces so each is scaled locally.
        pieces = [(t0, clock.enter[0]), *[(a, b) for a, b, _ in clock.gaps()], (clock.exit[-1], t1)]
        self.samples.setdefault("train_run_s", []).extend((a, b, b - a) for a, b in pieces)
        self.info["train_positives"] += positives
        self.info["train_steps"] += n_steps

        tag = f"mu={config.mu:g},project={config.project}"
        blocks = (params.re_e, params.im_e, params.re_r, params.im_r)
        self.check(f"train.finite[{tag}]", all(np.isfinite(b).all() for b in blocks))
        if config.project:
            self.check(f"train.entities_in_box[{tag}]", _in_box(params))
        # Same config and seed: the parameters must be bit-identical.
        with self.checking():
            digest = params_digest(params)
        runs = self.state.setdefault("digests", {}).setdefault(tag, [])
        runs.append(digest)
        self.info.setdefault("params_digest", {})[tag] = digest
        if len(runs) > 1:
            self.check(f"train.deterministic[{tag}]", digest == runs[0], f"run {len(runs)}: {digest[:16]}")
        elif self.plan["train_repeats"] == 1:
            with self.checking():
                again = params_digest(gen.train_steps(dataset, ents, config, DIGEST_STEP))
            self.check(f"train.deterministic[{tag}]", again == clock.digest,
                       f"step {DIGEST_STEP} digest {again[:16]}")
        return params

    def train_jobs(self) -> list:
        """The training runs of this workload, in order."""
        if self.workload == "wn18":
            # Identical runs at different times: their steps sample the whole
            # run, and their digests must agree.
            return [lambda: self._train(gen.wn18_config(self.args.seed), self.state["rules"],
                                        self.plan["train_steps"])] * self.plan["train_repeats"]

        def plain():
            self.state["plain"] = self._train(gen.planted_config(self.args.seed, False), [], None)

        def aer():
            # The planted rules are given at confidence 0.9, as in acceptance test C06.
            vocab = self.state["dataset"].vocab
            ents, _ = self.timed("train", lambda: data.load_entailments(self.dir / "rules.tsv", vocab))
            self.state["aer"] = self._train(gen.planted_config(self.args.seed, True), ents, None)

        return [plain, aer]

    def _eval_models(self) -> dict:
        """The loaded checkpoint and the trained models kept so far."""
        return {name: self.state[name] for name in ("checkpoint", "aer", "plain") if name in self.state}

    def evaluate(self, count: int) -> None:
        """Rank ``count`` test triples (wn18) or ``count`` passes over the test split."""
        known, test = self.state["known"], self.state["dataset"].test
        ranks = self.state.setdefault("ranks", {})
        if self.workload == "wn18":
            # Successive rounds rank successive slices of the test split.
            done = len(ranks.get("checkpoint", []))
            test, reps = test[done : done + count], 1
        else:
            reps = count
        chunks = [test[i : i + EVAL_CHUNK] for i in range(0, len(test), EVAL_CHUNK)]
        for _ in range(reps):
            for name, params in self._eval_models().items():
                keep = self.workload == "wn18" or name not in ranks
                for chunk in chunks:
                    result, _ = self.timed(
                        "eval", lambda: evaluation.evaluate(params, chunk, known, workers=1),
                        sample="eval_query_s", per=2 * len(chunk))
                    if keep:
                        ranks.setdefault(name, []).extend(result.per_triple)

    def verify_eval(self) -> None:
        """Checks on the collected ranks: an independent oracle, MRR range, C06."""
        dataset, ranks = self.state["dataset"], self.state["ranks"]
        mrr = {name: float(np.mean(1.0 / np.asarray(r, dtype=float))) for name, r in ranks.items()}
        self.info["test_mrr"] = mrr
        self.info["eval_triples"] = {name: len(r) for name, r in ranks.items()}
        rows = np.asarray(dataset.train + dataset.valid + dataset.test, dtype=np.int64)
        n_ranked = min(len(r) for r in ranks.values())
        rng = np.random.default_rng([self.args.seed, 2])
        sample = sorted(set(range(min(10, n_ranked))) | set(
            rng.choice(n_ranked, size=min(RANK_SAMPLE - 10, n_ranked), replace=False).tolist()))
        bad = []
        with self.checking():
            for name, params in self._eval_models().items():
                for i in sample:
                    for side, got in zip(("head", "tail"), ranks[name][i]):
                        lo, hi = oracle_rank(params, dataset.test[i], side, rows)
                        if not lo <= got <= hi:
                            bad.append(f"{name}:{i}:{side} got {got}, oracle {lo}..{hi}")
        self.check("eval.ranks_match_oracle", not bad, "; ".join(bad[:5]))
        self.check("eval.mrr_in_range", all(0.0 < v <= 1.0 for v in mrr.values()))
        if self.workload == "planted":
            aer, plain = mrr["aer"], mrr["plain"]
            self.check("eval.constraints_lift_mrr", aer > plain, f"aer {aer:.4f} plain {plain:.4f}")

    def analyze(self, count: int) -> None:
        dataset, params = self.state["dataset"], self.state["checkpoint"]

        def run():
            labels = analysis.load_type_labels(self.dir / "types.tsv", dataset.vocab)
            out = []
            for component in (params.re_e, params.im_e):
                normalized = analysis.activation_heatmap(component, range(params.n_entities))
                out.append((normalized, analysis.purity_curve(normalized, labels)))
            return labels, out

        for _ in range(count):
            (labels, out), _ = self.timed("analyze", run, sample="analyze_s")
        if self.state.get("analyzed") or not count:
            return
        self.state["analyzed"] = True
        with self.checking():
            limit = math.log(labels.n_types) + 1e-9
            ok = all(float(m.min()) >= 0.0 and float(m.max()) <= 1.0
                     and all(0.0 <= e <= limit for _, e in curve.points) for m, curve in out)
        self.check("analyze.ranges", ok)

    # -- results ---------------------------------------------------------------
    def e2e_metrics(self) -> tuple[dict, dict]:
        """(metrics for the JSON line, printed-only metrics) from the samples."""
        scaled = {k: [sec if (self.workload, k) in UNSCALED else sec * self.speed.scale(t0, t1)
                      for t0, t1, sec in v]
                  for k, v in self.samples.items() if v}
        info = self.info
        info["samples"] = {k: percentile_report(v) for k, v in scaled.items()}
        info["samples_unscaled"] = {k: percentile_report([sec for _, _, sec in v])
                                    for k, v in self.samples.items() if v}
        info["reference_s"] = percentile_report(self.speed.seconds)
        gated, reported = {}, {}
        if "setup_s" in scaled:
            gated["setup_s"] = statistics.median(scaled["setup_s"])
        if "mine_s" in scaled:
            gated["mine_triples_per_s"] = len(self.state["dataset"].train) / statistics.median(scaled["mine_s"])
        if "train_run_s" in scaled:
            gated["train_triples_per_s"] = info["train_positives"] / sum(scaled["train_run_s"])
            info["samples"]["train_run_s"] = {"total": sum(scaled["train_run_s"])}
            info["samples_unscaled"]["train_run_s"] = {"total": sum(x for _, _, x in self.samples["train_run_s"])}
        if len(scaled.get("train_step_s", [])) >= 2:
            steps = info["samples"]["train_step_s"]
            gated["train_step_ms_p50"] = 1e3 * steps["p50"]
            gated["train_step_ms_p90"] = 1e3 * steps["p90"]
        if "eval_query_s" in scaled:
            gated["eval_queries_per_s"] = 1.0 / statistics.median(scaled["eval_query_s"])
        if "analyze_s" in scaled:
            gated["analyze_s"] = statistics.median(scaled["analyze_s"])
        gated["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        mrr = info.get("test_mrr", {})
        if "aer" in mrr:
            reported["test_mrr"], reported["test_mrr_plain"] = mrr["aer"], mrr["plain"]
        elif "checkpoint" in mrr:
            reported["test_mrr"] = mrr["checkpoint"]
        reported["failed_frac"] = self.failed / max(self.attempted, 1)
        return gated, reported

    def layer_metrics(self, summary: dict, overhead_s: float, wall: float) -> dict:
        def get(name, key="total_s"):
            return summary.get(name, {}).get(key, 0)

        def ratio(num, den):
            return num / den if den else 0

        c = self.tracer.counters
        score_s = get("model.score_all")
        return {
            "data.load_dataset_s": get("data.load_dataset"),
            "data.build_known_index_s": get("data.build_known_index"),
            "model.load_checkpoint_s": get("model.load_checkpoint"),
            "model.checkpoint_bytes": ratio(c["checkpoint_bytes"], get("model.load_checkpoint", "calls")),
            "data.filter_lookups": get("data.filter", "calls"),
            "data.filter_s": get("data.filter"),
            "model.score_all_calls": get("model.score_all", "calls"),
            "model.score_all_s": score_s,
            "model.score_all_gbps": ratio(c["score_bytes"], score_s) / 1e9,
            "evaluation.rank_s": get("evaluation.rank"),
            "evaluation.self_s": get("evaluation.evaluate", "self_s") + get("evaluation.filtered_rank", "self_s"),
            "objective.loss_grad_calls": get("objective.loss_grad", "calls"),
            "objective.loss_grad_s": get("objective.loss_grad"),
            "objective.rows_per_call": ratio(c["loss_rows"], get("objective.loss_grad", "calls")),
            "objective.touched_entity_ratio": ratio(c["touched_entities"], 2 * c["loss_rows"]),
            "objective.clip_s": get("objective.clip"),
            "objective.clipped_frac": ratio(c["clipped"], get("objective.clip", "calls")),
            "trainer.corrupt_batch_s": get("trainer.corrupt_batch"),
            "trainer.make_batches_s": get("trainer.make_batches"),
            "trainer.adagrad_step_s": get("trainer.adagrad_step"),
            "model.project_entities_s": get("model.project_entities"),
            "trainer.self_s": get("trainer.train", "self_s"),
            "mining.mine_s": get("mining.mine"),
            "mining.rules_found": ratio(c["rules"], get("mining.mine", "calls")),
            "analysis.heatmap_s": get("analysis.heatmap"),
            "analysis.purity_s": get("analysis.purity"),
            "trace.spans": len(self.tracer),
            "trace.overhead_est_frac": ratio(overhead_s, wall),
        }


def _in_box(params) -> bool:
    return bool(np.all((params.re_e >= 0) & (params.re_e <= 1) & (params.im_e >= 0) & (params.im_e <= 1)))


def span_cost(calls: int = 20000) -> float:
    """Seconds one traced call adds over a plain call, measured here."""
    def noop(*args):
        return None

    wrapped = Tracer().wrap(noop, "noop")
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(calls):
            noop(1)
        plain = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            wrapped(1)
        best = min(best, (perf_counter() - t0 - plain) / calls)
    return max(best, 0.0)


def measure(bench: Bench) -> float:
    """Run every phase inside one root span; returns the wall time.

    The short phases run a share of their count in every round; training
    jobs sit at evenly spaced rounds. Evaluation ranks the loaded checkpoint
    from the first round and each trained model from the round it appears.
    """
    plan, rounds = bench.plan, bench.plan["rounds"]
    jobs = bench.train_jobs()
    at = {(i + 1) * rounds // (len(jobs) + 1): job for i, job in enumerate(jobs)}
    eval_key = "eval_triples" if bench.workload == "wn18" else "eval_reps"

    def count(key, r):  # the first round sets up and mines at least once
        n = share(plan[key], rounds, r)
        return max(n, 1) if r == 0 else n

    t0 = perf_counter()
    with bench.tracer.span("bench.run"):
        for r in range(rounds):
            bench.phase("setup", lambda: bench.setup(count("setup", r)))
            if "dataset" not in bench.state:
                break
            bench.phase("mine", lambda: bench.mine(count("mine", r)))
            if r in at:
                bench.phase("train", at[r])
            bench.phase("eval", lambda: bench.evaluate(share(plan[eval_key], rounds, r)))
            bench.phase("analyze", lambda: bench.analyze(count("analyze", r)))
        if bench.state.get("ranks"):
            bench.phase("verify_eval", bench.verify_eval)
    return perf_counter() - t0


def generate(workload: str, seed: int, workdir: Path) -> None:
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
         "--seed", str(seed), "--out", str(workdir)],
        check=True, timeout=170,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        t_gen = perf_counter()
        generate(args.workload, args.seed, workdir)
        t_gen = perf_counter() - t_gen
        bench = Bench(args, workdir)
        if args.trace:
            for target, name, counter in TARGETS:
                bench.tracer.patch(target, name, counter)
        try:
            wall = measure(bench)
        finally:
            bench.tracer.restore()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if work_root.exists() and not any(work_root.iterdir()):
            work_root.rmdir()

    summary = bench.tracer.summary()
    phases = {k[len("bench."):]: v["total_s"] for k, v in summary.items()
              if k.startswith("bench.") and k not in ("bench.run", "bench.on_step")}
    reported = {}
    if args.trace:
        self_sum = sum(v["self_s"] for v in summary.values())
        bench.check("trace.self_times_add_up", abs(self_sum - wall) <= 1e-4 * wall + 1e-3,
                    f"self times {self_sum:.6f} s, wall {wall:.6f} s")
        metrics = bench.layer_metrics(summary, span_cost() * len(bench.tracer), wall)
        units = {k: u for k, (u, _) in LAYERS.items()}
    else:
        metrics, reported = bench.e2e_metrics()
        units = {k: u for k, (u, _) in E2E.items()}

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment(args)
    detail = {
        "workload": args.workload,
        "env": env,
        "plan": bench.plan,
        "generate_s": t_gen,
        "measured_wall_s": wall,
        "phase_wall_s": phases,
        "metrics": metrics,
        "reported": reported,
        "info": bench.info,
        "checks": bench.checks,
        "errors": bench.errors,
        "absent": bench.tracer.absent,
        "layers": summary if args.trace else None,
        "attempted": bench.attempted,
        "failed": bench.failed,
    }
    with open(out_dir / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=2, default=str)
    if args.trace:
        bench.tracer.save(out_dir / f"{tag}.spans.npz")

    print(f"# {tag}: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas={env['blas'].get('name')} {env['blas'].get('version')} "
          f"blas_threads={env['blas_threads']} workers=1 git={env['git_sha']} "
          f"src={env['src_sha256'][:12]} seed={args.seed}")
    print(f"# generate {t_gen:.2f} s, measured {wall:.2f} s: "
          + ", ".join(f"{k} {v:.2f} s" for k, v in phases.items()))
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, value in reported.items():
        print(f"{name} = {value:.6g} {REPORTED[name]} (not gated)")
    for name, st in bench.info.get("samples", {}).items():
        if "n" in st:
            print(f"# {name} (scaled): n={st['n']} p50={st['p50']:.4g} "
                  f"p{st['top_pct']:g}={st['top']:.4g}")
    if "reference_s" in bench.info:
        ref = bench.info["reference_s"]
        print(f"# reference kernel: n={ref['n']} p10={1e3 * ref['p10']:.3g} ms "
              f"p50={1e3 * ref['p50']:.3g} ms p90={1e3 * ref['p90']:.3g} ms "
              f"(nominal {1e3 * REF_NOMINAL_S:g} ms)")
    for name, digest in bench.info.get("params_digest", {}).items():
        print(f"# params_digest[{name}] {digest}")
    if bench.tracer.absent:
        print("# absent spans: " + ", ".join(bench.tracer.absent))
    for c in bench.checks:
        if not c["ok"]:
            print(f"# FAILED check {c['name']}: {c['detail']}")
    for err in bench.errors:
        print(f"# FAILED phase {err}")
    print(f"# checks passed {sum(c['ok'] for c in bench.checks)}/{len(bench.checks)}; "
          f"failed {bench.failed} of {bench.attempted} operations and checks")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
