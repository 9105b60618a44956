"""The visited set of the exhaustive model checker.

:class:`VisitedSet`
    The deduplication set over signature keys, batch-first: a whole
    frontier is deduplicated per round (``np.unique`` + one
    ``searchsorted`` sweep per layer) instead of per-key probes.  A key is
    the signature itself when it fits one ``uint64`` word and a fixed-width
    void record of its ``k`` words otherwise
    (:func:`repro.kernels.vector.row_keys`); the same numpy calls serve
    both.  Layers, cheapest first:

    * ``_segments`` — sorted key arrays, merged when they pile up;
    * ``_runs`` — on-disk sorted runs written whenever the in-memory layer
      reaches ``spill_threshold``.  Every run is the raw sorted fixed-width
      keys (``uint64`` or void records), memmapped and probed with one
      ``searchsorted`` per batch.  Runs are compacted into one whenever
      more than ``max_runs`` accumulate, keeping membership
      ``O(log runs · log n)`` worst case and ``O(1)`` amortised per batched
      key.

    Layers are mutually disjoint by construction — a key is only ever
    inserted after missing every layer — so :meth:`__len__` stays exact.

The signature kernels that produce the keys live in
:mod:`repro.kernels.signature` and :mod:`repro.kernels.vector`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Optional

import numpy as np

from repro.kernels.vector import key_rows, row_ints

__all__ = ["VisitedSet"]

#: Batch-inserted segments are merged into one once this many accumulate, so
#: a membership probe never scans more than a handful of sorted arrays.
_MAX_SEGMENTS = 8


# ----------------------------------------------------------------------
# on-disk sorted runs
# ----------------------------------------------------------------------
class _RecordRun:
    """One immutable sorted run of fixed-width keys, ``uint64`` or void.

    The file is the raw sorted keys, mapped read-only; a batch probe is one
    ``searchsorted`` over the map.
    """

    __slots__ = ("path", "count", "_keys")

    @classmethod
    def write(cls, path: Path, values: "np.ndarray") -> "_RecordRun":
        """Write sorted unique ``values`` as a new run file."""
        values.tofile(path)
        return cls(path, values.dtype, int(values.size))

    def __init__(self, path: Path, dtype, count: int):
        self.path = path
        self.count = count
        self._keys = np.memmap(path, dtype=dtype, mode="r", shape=(count,))

    def contains_many(self, queries: "np.ndarray") -> "np.ndarray":
        """Membership of sorted unique ``queries``, vectorised."""
        slot = np.searchsorted(self._keys, queries)
        return self._keys.take(slot, mode="clip") == queries

    def iter_chunks(self, chunk: int = 1 << 16) -> Iterator["np.ndarray"]:
        """The run's keys as bounded chunks (streaming iteration)."""
        for first in range(0, self.count, chunk):
            yield np.array(self._keys[first:first + chunk])

    def close(self) -> None:
        mapped = getattr(self._keys, "_mmap", None)
        if mapped is not None:
            mapped.close()
        try:
            self.path.unlink()
        except OSError:  # pragma: no cover - best-effort scratch cleanup
            pass


# ----------------------------------------------------------------------
# visited set with optional disk spill
# ----------------------------------------------------------------------
class VisitedSet:
    """Signature-key deduplication set, batch-first, with optional disk spill.

    Keys are 1-D arrays of ``uint64`` words or of fixed-width void records
    (:func:`repro.kernels.vector.row_keys`); one set holds one kind.
    Without a ``spill_threshold`` this is a list of sorted in-memory
    segments.  With one, the segments are flushed to a sorted run file every
    time they reach the threshold, and runs are compacted into one once
    more than ``max_runs`` accumulate.  See the module docstring for the
    layer/probe design.
    """

    def __init__(
        self,
        spill_threshold: Optional[int] = None,
        spill_dir: Optional[str] = None,
        max_runs: Optional[int] = 8,
    ):
        if spill_threshold is not None and spill_threshold < 1:
            raise ValueError("spill_threshold must be positive")
        if max_runs is not None and max_runs < 1:
            raise ValueError("max_runs must be positive")
        self._segments: List = []  # sorted unique key arrays
        self._segment_total = 0
        self._threshold = spill_threshold
        self._max_runs = max_runs
        self._spill_dir = Path(spill_dir) if spill_dir is not None else None
        self._created_dir: Optional[Path] = None  # auto temp dir, removed on close
        self._runs: List[_RecordRun] = []
        self._spilled_total = 0
        self._run_seq = 0
        self.spill_count = 0
        self.compaction_count = 0

    def __len__(self) -> int:
        return self._segment_total + self._spilled_total

    def __iter__(self) -> Iterator[int]:
        """Every member as a Python int signature."""
        for segment in self._segments:
            yield from row_ints(key_rows(segment))
        for run in self._runs:
            for chunk in run.iter_chunks():
                yield from row_ints(key_rows(chunk))

    # -- batch membership -----------------------------------------------
    def contains_many(self, values: "np.ndarray") -> "np.ndarray":
        """Membership mask of **sorted unique** keys ``values``."""
        hit = np.zeros(values.size, dtype=bool)
        if values.size == 0:
            return hit
        for segment in self._segments:
            slot = np.searchsorted(segment, values)
            hit |= segment.take(slot, mode="clip") == values
        for run in self._runs:
            unresolved = ~hit
            if not unresolved.any():
                break
            hit[unresolved] = run.contains_many(values[unresolved])
        return hit

    def update_sorted(self, values: "np.ndarray") -> None:
        """Insert sorted unique keys ``values`` known to be absent."""
        if values.size == 0:
            return
        self._segments.append(values)
        self._segment_total += int(values.size)
        if len(self._segments) >= _MAX_SEGMENTS:
            merged = np.sort(np.concatenate(self._segments))
            self._segments = [merged]
        self._maybe_spill()

    def add_many(self, values: "np.ndarray") -> "np.ndarray":
        """Deduplicate and insert a batch; mask of first-time-new positions.

        The returned bool array is aligned with ``values``: ``True`` exactly
        at the *first* occurrence of each key not previously present.
        Integer input is taken as one-word keys.
        """
        values = np.asarray(values)
        if values.dtype.kind != "V":
            values = np.ascontiguousarray(values, dtype=np.uint64)
        unique, first_index, inverse = np.unique(
            values, return_index=True, return_inverse=True
        )
        known = self.contains_many(unique)
        self.update_sorted(unique[~known])
        first = np.zeros(values.size, dtype=bool)
        first[first_index] = True
        return (~known)[inverse] & first

    # -- spill plumbing -------------------------------------------------
    @property
    def spilled_runs(self) -> int:
        """Number of on-disk runs currently live."""
        return len(self._runs)

    @property
    def stats(self) -> dict:
        """Lifetime spill/compaction counters (telemetry surface)."""
        return {
            "spills": self.spill_count,
            "compactions": self.compaction_count,
            "runs": len(self._runs),
            "spilled_signatures": self._spilled_total,
        }

    def _maybe_spill(self) -> None:
        if self._threshold is not None and self._segment_total >= self._threshold:
            self._spill()

    def _next_run_path(self) -> Path:
        if self._spill_dir is None:
            import tempfile

            self._spill_dir = Path(tempfile.mkdtemp(prefix="repro-visited-"))
            self._created_dir = self._spill_dir
        self._spill_dir.mkdir(parents=True, exist_ok=True)
        path = self._spill_dir / f"run-{self._run_seq:05d}.bin"
        self._run_seq += 1
        return path

    def _spill(self) -> None:
        parts = self._segments
        values = np.sort(np.concatenate(parts)) if len(parts) > 1 else parts[0]
        self._runs.append(_RecordRun.write(self._next_run_path(), values))
        self._spilled_total += int(values.size)
        self.spill_count += 1
        self._segments = []
        self._segment_total = 0
        if self._max_runs is not None and len(self._runs) > self._max_runs:
            self._compact()

    def _compact(self) -> None:
        """Merge every run into one (runs are disjoint, so concat+sort)."""
        chunks = [chunk for run in self._runs for chunk in run.iter_chunks()]
        merged = _RecordRun.write(self._next_run_path(), np.sort(np.concatenate(chunks)))
        for run in self._runs:
            run.close()
        self._runs = [merged]
        self.compaction_count += 1

    def close(self) -> None:
        """Drop every layer and delete the scratch run files.

        The runs are useless without the live maps, so they are removed; an
        auto-created temp directory is removed with them (a caller-chosen
        ``spill_dir`` itself is left in place).  After ``close()`` the set is
        empty — ``len()`` is 0 and iteration yields nothing — rather than
        reporting a stale in-memory residue.
        """
        for run in self._runs:
            run.close()
        self._runs.clear()
        self._spilled_total = 0
        self._segments = []
        self._segment_total = 0
        if self._created_dir is not None:
            import shutil

            shutil.rmtree(self._created_dir, ignore_errors=True)
            self._created_dir = None
