"""Batch solving and the Gap / Score quality metrics.

Gap is the mean, over instances, of ``length / reference - 1``; averaging
per instance (rather than dividing summed lengths) is deliberate and the
summed-ratio variant is reported alongside it for comparison.  Score is
``gap_reference_solver / gap_search``: how close the search gets to a strong
reference solver's excess over the optimum.
"""

from __future__ import annotations

import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from hashlib import blake2b
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .fileio import parse_heatmap
from .geometry import TspInstance
from .heatmap import softdist, validate_heatmap, zeros_heatmap
from .mcts import MctsParams, mcts_solve

_MASK64 = (1 << 64) - 1

SCORE_SENTINEL = "≥100%"  # rendered when the search matches the optimum

_METHODS = ("softdist", "zeros", "external")


class UndefinedScoreError(ValueError):
    """Score is unbounded because the search gap is zero or negative."""


@dataclass(frozen=True)
class MctsRunSpec:
    """What to run over a batch: heatmap source plus search parameters.

    ``heatmap_path`` for the external method may be a single heatmap file
    (one-instance batches, see :meth:`check_batch`) or a directory holding
    ``<instance_id>.hmap``.
    """

    method: str
    params: MctsParams
    tau: float | None = None
    heatmap_path: str | None = None

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if self.method == "softdist":
            if self.tau is None or self.tau <= 0.0:
                raise ValueError("softdist runs need a positive tau")
        elif self.tau is not None:
            raise ValueError(f"tau is only meaningful for softdist, not {self.method!r}")
        if self.method == "external" and not self.heatmap_path:
            raise ValueError("external runs need a heatmap path")
        if self.method != "external" and self.heatmap_path:
            raise ValueError("heatmap_path is only meaningful for the external method")

    def check_batch(self, count: int) -> None:
        """Refuse a single external heatmap file for a batch of ``count`` > 1
        instances, which would solve every instance with the same map."""
        if count > 1 and self.method == "external" and not Path(self.heatmap_path).is_dir():
            raise ValueError(
                f"heatmap path {self.heatmap_path} is not a directory; a batch of {count} "
                "instances needs a directory of <instance_id>.hmap files"
            )

    def label(self) -> str:
        if self.method == "softdist":
            return f"softdist(tau={self.tau:g})"
        if self.method == "external":
            return f"external({self.heatmap_path})"
        return self.method


@dataclass
class RunRecord:
    """One solve: which instance, what came out, and the seed that drove it."""

    instance_id: str
    method: str
    length: float
    elapsed: float
    seed: int
    heatmap_seconds: float = 0.0
    trace: list[tuple[float, float]] | None = None

    def __post_init__(self) -> None:
        if not self.length > 0.0:
            raise ValueError("record length must be positive")
        if self.elapsed < 0.0:
            raise ValueError("record elapsed time must be nonnegative")


@dataclass
class BenchReport:
    method: str
    count: int
    length_mean: float
    gap: float | None
    gap_ratio_of_means: float | None
    gap_reference: float | None
    score: float | None
    score_display: str | None
    solve_seconds: float
    heatmap_seconds: float
    records: list[RunRecord]

    def to_dict(self) -> dict:
        recs = []
        for r in self.records:
            rec = {
                "instance_id": r.instance_id,
                "method": r.method,
                "length": r.length,
                "elapsed_seconds": r.elapsed,
                "heatmap_seconds": r.heatmap_seconds,
                "seed": r.seed,
            }
            if r.trace is not None:
                rec["trace"] = [[t, v] for t, v in r.trace]
            recs.append(rec)
        return {
            "method": self.method,
            "count": self.count,
            "length_mean": self.length_mean,
            "gap": self.gap,
            "gap_ratio_of_means": self.gap_ratio_of_means,
            "gap_reference": self.gap_reference,
            "score": self.score,
            "score_display": self.score_display,
            "solve_seconds": self.solve_seconds,
            "heatmap_seconds": self.heatmap_seconds,
            "records": recs,
        }


def compute_gap(lengths, refs) -> float:
    """Mean per-instance excess ratio: ``mean(length / ref - 1)``."""
    l = np.asarray(lengths, dtype=np.float64)
    r = np.asarray(refs, dtype=np.float64)
    if l.ndim != 1 or l.shape != r.shape or l.size == 0:
        raise ValueError("lengths and refs must be equal-length non-empty 1-d sequences")
    if not (np.all(np.isfinite(l)) and np.all(np.isfinite(r))):
        raise ValueError("lengths and refs must be finite")
    if np.any(r <= 0.0):
        raise ValueError("reference lengths must be positive")
    return float(np.mean(l / r - 1.0))


def compute_score(gap_reference: float, gap_search: float) -> float:
    """Reference-solver gap over search gap; errors when the latter is <= 0."""
    if not (np.isfinite(gap_reference) and np.isfinite(gap_search)):
        raise ValueError("gaps must be finite")
    if gap_search <= 0.0:
        raise UndefinedScoreError(
            f"search gap {gap_search:g} is not positive; score is unbounded "
            f"(render as {SCORE_SENTINEL!r})"
        )
    return gap_reference / gap_search


def score_display(gap_reference: float, gap_search: float) -> tuple[float | None, str]:
    """Score and its rendering; ``(None, SCORE_SENTINEL)`` when the search
    gap is not positive."""
    try:
        score = compute_score(gap_reference, gap_search)
    except UndefinedScoreError:
        return None, SCORE_SENTINEL
    return score, f"{score * 100:.2f}%"


class Gaps(NamedTuple):
    """The gap and score rows of one table of lengths."""

    gap: float
    gap_ratio_of_means: float
    gap_reference: float | None = None
    score: float | None = None
    score_display: str | None = None


def gap_rows(
    ids: Sequence[str],
    lengths: Sequence[float],
    refs: Mapping[str, float],
    reference_lengths: Mapping[str, float] | None = None,
) -> Gaps:
    """Gap of ``lengths`` (one per id) against ``refs``; with
    ``reference_lengths`` also the reference-solver gap and the Score.

    Raises ``ValueError`` naming any id that ``refs`` or
    ``reference_lengths`` lacks.
    """
    missing = sorted({i for i in ids if i not in refs})
    if missing:
        raise ValueError(f"missing reference lengths for instance ids: {missing}")
    if reference_lengths is not None:
        missing = sorted({i for i in ids if i not in reference_lengths})
        if missing:
            raise ValueError(f"missing reference-solver lengths for instance ids: {missing}")
    searched = np.array(lengths, dtype=np.float64)
    ref_arr = np.array([refs[i] for i in ids])
    gap = compute_gap(searched, ref_arr)
    gap_rom = float(searched.sum() / ref_arr.sum() - 1.0)
    if reference_lengths is None:
        return Gaps(gap, gap_rom)
    gap_reference = compute_gap([reference_lengths[i] for i in ids], ref_arr)
    return Gaps(gap, gap_rom, gap_reference, *score_display(gap_reference, gap))


def instance_seed(base_seed: int, instance: TspInstance) -> int:
    """Per-instance solve seed derived from the instance's content.

    Identical instances get identical seeds under the same base seed, no
    matter where they sit in a batch.
    """
    digest = blake2b(
        struct.pack("<QQ", int(base_seed) & _MASK64, instance.content_key()), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") & ((1 << 63) - 1)


def _heatmap_for(instance: TspInstance, spec: MctsRunSpec, instance_id: str):
    t0 = time.perf_counter()
    if spec.method == "softdist":
        h = softdist(instance, spec.tau)
    elif spec.method == "zeros":
        h = zeros_heatmap(instance.n)
    else:
        path = Path(spec.heatmap_path)
        if path.is_dir():
            path = path / f"{instance_id}.hmap"
        h = parse_heatmap(path)
        validate_heatmap(h, instance.n)
    return h, time.perf_counter() - t0


def run_single(
    instance: TspInstance,
    spec: MctsRunSpec,
    instance_id: str = "0",
    checkpoints: list[float] | None = None,
) -> RunRecord:
    """Solve one instance under a run spec; run_bench solves each instance here."""
    h, h_seconds = _heatmap_for(instance, spec, instance_id)
    seed = instance_seed(spec.params.seed, instance)
    result = mcts_solve(instance, h, replace(spec.params, seed=seed), checkpoints=checkpoints)
    return RunRecord(
        instance_id=instance_id,
        method=spec.method,
        length=result.best_length,
        elapsed=result.elapsed,
        seed=seed,
        heatmap_seconds=h_seconds,
        trace=result.trace,
    )


def run_bench(
    instances: list[TspInstance],
    spec: MctsRunSpec,
    workers: int = 1,
    checkpoints: list[float] | None = None,
) -> list[RunRecord]:
    """Solve every instance under ``spec``; records come back in input order.

    Instance ids are the 0-based batch positions as strings.  Each solve is
    single-threaded and seeded from the instance content, so results do not
    depend on ``workers``.
    """
    if not instances:
        raise ValueError("instance list must be non-empty")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n = len(instances)
    spec.check_batch(n)
    args = (instances, [spec] * n, [str(i) for i in range(n)], [checkpoints] * n)
    if workers == 1 or n == 1:
        return list(map(run_single, *args))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_single, *args))


def aggregate(
    records: list[RunRecord],
    refs: Mapping[str, float],
    reference_lengths: Mapping[str, float] | None = None,
) -> BenchReport:
    """Fold run records against per-instance optima into a report.

    ``refs`` maps instance id to the (near-)optimal length used as the gap
    denominator.  ``reference_lengths``, when given, holds a strong
    reference solver's lengths on the same instances and enables the Score
    row; a non-positive search gap renders as the sentinel instead of a
    number.
    """
    if not records:
        raise ValueError("no records to aggregate")
    lengths = [r.length for r in records]
    gaps = gap_rows([r.instance_id for r in records], lengths, refs, reference_lengths)
    methods = sorted({r.method for r in records})
    return BenchReport(
        method=methods[0] if len(methods) == 1 else "+".join(methods),
        count=len(records),
        length_mean=float(np.mean(lengths)),
        **gaps._asdict(),
        solve_seconds=float(sum(r.elapsed for r in records)),
        heatmap_seconds=float(sum(r.heatmap_seconds for r in records)),
        records=list(records),
    )
