"""Batch solving and the Gap / Score quality metrics.

Gap is the mean, over instances, of ``length / reference - 1``; averaging
per instance (rather than dividing summed lengths) is deliberate and the
summed-ratio variant is reported alongside it for comparison.  Score is
``gap_reference_solver / gap_search``: how close the search gets to a strong
reference solver's excess over the optimum.
"""

from __future__ import annotations

import json
import struct
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from hashlib import blake2b
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from . import _kopt
from .fileio import heatmap_file, parse_heatmap
from .geometry import TspInstance
from .heatmap import softdist, zeros_heatmap
from .mcts import MctsParams, mcts_solve

_MASK64 = (1 << 64) - 1

SCORE_SENTINEL = "≥100%"  # rendered when the search matches the optimum

METHODS = ("softdist", "zeros", "external")


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
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.method == "softdist":
            # a bool is not a temperature; written so that NaN fails too
            if self.tau is None or isinstance(self.tau, bool) or not 0.0 < self.tau < np.inf:
                raise ValueError("softdist runs need a positive finite tau")
        elif self.tau is not None:
            raise ValueError(f"tau is only meaningful for softdist, not {self.method!r}")
        if self.heatmap_path is not None and not isinstance(self.heatmap_path, str):
            raise ValueError(f"heatmap_path must be a string, got {self.heatmap_path!r}")
        if self.method == "external" and not self.heatmap_path:
            raise ValueError("external runs need a heatmap path")
        if self.method != "external" and self.heatmap_path:
            raise ValueError("heatmap_path is only meaningful for the external method")

    def check_batch(self, instances: Sequence[TspInstance]) -> None:
        """Fail before any solve if an external map of the batch would fail
        its solve: every map is loaded through :func:`make_heatmap` and
        dropped.  A single heatmap file is refused for a batch of more than
        one instance, which would solve every instance with the same map.
        Other methods need no check."""
        if self.method != "external":
            return
        path = self.heatmap_path
        ids = instance_ids(len(instances))
        if len(ids) > 1 and heatmap_file(path, ids[0]) == Path(path):
            raise ValueError(
                f"heatmap path {path} is not a directory; a batch of {len(ids)} "
                "instances needs a directory of <instance_id>.hmap files"
            )
        for instance, instance_id in zip(instances, ids):
            make_heatmap(instance, self.method, self.tau, path, instance_id)

    def label(self) -> str:
        if self.method == "softdist":
            return f"softdist(tau={self.tau:g})"
        if self.method == "external":
            return f"external({self.heatmap_path})"
        return self.method


def load_run_spec(path) -> tuple[MctsRunSpec, dict]:
    """Read a JSON run spec: an object with the :class:`MctsRunSpec` fields,
    ``params`` holding the :class:`MctsParams` fields.  Returns the spec and
    the object as read.

    A spec that is not such an object, has an unknown key, or holds a value
    either class refuses raises ``ValueError("<path>: bad run spec: ...")``.
    """
    try:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, dict):
            raise ValueError("expected a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(MctsRunSpec)})
        if unknown:
            raise ValueError(f"unknown keys {unknown}")
        spec = MctsRunSpec(**(data | {"params": MctsParams(**data["params"])}))
    except KeyError as e:
        raise ValueError(f"{path}: bad run spec: missing key {e}") from None
    except (TypeError, ValueError) as e:
        raise ValueError(f"{path}: bad run spec: {e}") from None
    return spec, data


def instance_ids(count: int) -> list[str]:
    """Ids of a batch of ``count`` instances: their 0-based positions as strings."""
    return [str(i) for i in range(count)]


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

    def to_dict(self) -> dict:
        out = {
            "instance_id": self.instance_id,
            "method": self.method,
            "length": self.length,
            "elapsed_seconds": self.elapsed,
            "heatmap_seconds": self.heatmap_seconds,
            "seed": self.seed,
        }
        if self.trace is not None:
            out["trace"] = [[t, v] for t, v in self.trace]
        return out


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
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return out | {"records": [r.to_dict() for r in self.records]}


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


def check_ids(
    ids: Sequence[str],
    refs: Mapping[str, float],
    reference_lengths: Mapping[str, float] | None = None,
) -> None:
    """Raise ``ValueError`` naming any id that ``refs`` or
    ``reference_lengths`` lacks."""
    missing = sorted({i for i in ids if i not in refs})
    if missing:
        raise ValueError(f"missing reference lengths for instance ids: {missing}")
    if reference_lengths is not None:
        missing = sorted({i for i in ids if i not in reference_lengths})
        if missing:
            raise ValueError(f"missing reference-solver lengths for instance ids: {missing}")


def gap_rows(
    ids: Sequence[str],
    lengths: Sequence[float],
    refs: Mapping[str, float],
    reference_lengths: Mapping[str, float] | None = None,
) -> Gaps:
    """Gap of ``lengths`` (one per id) against ``refs``; with
    ``reference_lengths`` also the reference-solver gap and the Score.

    Raises ``ValueError`` as :func:`check_ids` does.
    """
    check_ids(ids, refs, reference_lengths)
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


def make_heatmap(
    instance: TspInstance,
    method: str,
    tau: float | None = None,
    heatmap_path: str | None = None,
    instance_id: str | None = None,
) -> np.ndarray:
    """The heatmap ``method`` gives ``instance``: softdist at ``tau``, the
    zeros baseline, or the external file of ``instance_id`` (one of
    :func:`instance_ids`) under ``heatmap_path``."""
    if method == "softdist":
        return softdist(instance, tau)
    if method == "zeros":
        return zeros_heatmap(instance.n)
    if instance_id is None:
        raise ValueError("an external heatmap needs the instance id")
    path = heatmap_file(heatmap_path, instance_id)
    h = parse_heatmap(path)
    if h.shape[0] != instance.n:
        raise ValueError(
            f"{path}: heatmap size {h.shape[0]} does not match instance size {instance.n}"
        )
    return h


def run_single(
    instance: TspInstance,
    spec: MctsRunSpec,
    instance_id: str,
    checkpoints: list[float] | None = None,
) -> RunRecord:
    """Solve one instance, whose id is one of :func:`instance_ids`, under a
    run spec; run_bench solves each instance here."""
    t0 = time.perf_counter()
    h = make_heatmap(instance, spec.method, spec.tau, spec.heatmap_path, instance_id)
    h_seconds = time.perf_counter() - t0
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

    Instance ids come from :func:`instance_ids`.  Each solve is
    single-threaded and seeded from the instance content, so results do not
    depend on ``workers``.
    """
    if not instances:
        raise ValueError("instance list must be non-empty")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n = len(instances)
    spec.check_batch(instances)
    args = (instances, [spec] * n, instance_ids(n), [checkpoints] * n)
    if workers == 1 or n == 1:
        return list(map(run_single, *args))
    # forked workers inherit what is loaded here instead of each loading it on
    # its first solve: the sampler kernel, and numpy.random, which numpy
    # imports only on first use
    _kopt.load()
    import numpy.random  # noqa: F401
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
