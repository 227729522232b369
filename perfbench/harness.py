"""Measurement helpers shared by every workload: percentiles with an
honest tail, the windowed open-loop tail, process-tree CPU and peak RSS
from ``/proc``, the span recorder of the traced run, and the host
fingerprint.

Only :func:`fingerprint` touches :mod:`repro`, and it imports it
lazily.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import statistics
import subprocess
import threading
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Tail candidates, highest first.  The reported tail is the first one
#: with at least ``MIN_BEYOND`` samples above it, so no tail is ever
#: printed from a handful of observations.  Twenty rather than ten: a
#: host stall of a second or so delays 5-16 consecutive open-loop
#: frames, and with only ten to sixteen samples beyond it such a stall
#: alone set the tail (two of ten runs read 2-2.4x the usual p95).
TAIL_PERCENTILES = (99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 20

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (``pct`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, pct: float) -> int:
    """Samples above the ``pct`` percentile of ``n`` (exact for the
    candidate percentiles, which are whole numbers)."""
    return int(n * (100.0 - pct) // 100)


def tail(values: list[float]) -> tuple[float, float]:
    """``(pct, value)`` of the highest candidate percentile with at
    least ``MIN_BEYOND`` samples beyond it.

    Raises:
        ValueError: fewer than ``4 * MIN_BEYOND`` samples, so not
            even p75 has enough samples beyond it.
    """
    for pct in TAIL_PERCENTILES:
        if samples_beyond(len(values), pct) >= MIN_BEYOND:
            return pct, percentile(values, pct)
    raise ValueError(
        f"{len(values)} samples leave no percentile with "
        f"{MIN_BEYOND} samples beyond it"
    )


#: Windows of the open-loop tail (see :func:`window_tail`).
TAIL_WINDOWS = 20


def window_tail(values: list[float]) -> tuple[int, float]:
    """``(frames per window, value)``: the median, over ``TAIL_WINDOWS``
    equal runs of consecutive frames, of the slowest frame of each.

    Used for the open-loop workloads.  Another tenant's CPU burst on a
    shared host backs frames up for a second or two; that sets the
    slowest frame of one or two windows but moves a median of twenty by
    a rank or two, where a few of them alone set a p90 of the whole
    run.  On a
    quiet host it reads near the whole run's p95.  At least half the
    windows have a slowest frame beyond the value, so at least
    ``TAIL_WINDOWS // 2`` frames lie beyond it.

    Raises:
        ValueError: fewer than two frames per window.
    """
    size = len(values) // TAIL_WINDOWS
    if size < 2:
        raise ValueError(
            f"{len(values)} samples are too few for {TAIL_WINDOWS} "
            "windows of at least 2"
        )
    return size, statistics.median(
        max(values[i * size:(i + 1) * size]) for i in range(TAIL_WINDOWS)
    )


def median(values: list[float]) -> float:
    """Median, or 0.0 for no samples (a layer that did no work)."""
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# Process tree accounting (Linux /proc)
# --------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="ascii", errors="replace") as handle:
            return handle.read()
    except OSError:  # the process exited between listing and reading
        return None


def descendants(pid: int | None = None) -> list[int]:
    """Every live descendant process of ``pid`` (default: this one)."""
    root = os.getpid() if pid is None else pid
    parents: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        stat = _read(f"/proc/{entry}/stat")
        if stat is None:
            continue
        # Field 4 (ppid) follows the parenthesised command name, which
        # may itself contain spaces.
        fields = stat[stat.rfind(")") + 2:].split()
        parents.setdefault(int(fields[1]), []).append(int(entry))
    found: list[int] = []
    frontier = [root]
    while frontier:
        children = parents.get(frontier.pop(), [])
        found.extend(children)
        frontier.extend(children)
    return found


def _proc_cpu_s(pid: int) -> float:
    stat = _read(f"/proc/{pid}/stat")
    if stat is None:
        return 0.0
    fields = stat[stat.rfind(")") + 2:].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def _proc_hwm_kb(pid: int) -> int:
    status = _read(f"/proc/{pid}/status") or ""
    for line in status.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    return 0


def tree_cpu_s() -> dict[int, float]:
    """User+sys CPU seconds of this process and each live descendant."""
    times = os.times()
    usage = {os.getpid(): times.user + times.system}
    for pid in descendants():
        usage[pid] = _proc_cpu_s(pid)
    return usage


def cpu_between(before: dict[int, float], after: dict[int, float]) -> float:
    """CPU seconds the process tree spent between two snapshots.

    A process born in between counts from zero; one that died in
    between is missing from ``after`` and contributes what it had.
    """
    total = 0.0
    for pid, spent in after.items():
        total += spent - before.get(pid, 0.0)
    return total


def tree_peak_rss_mb() -> float:
    """Peak RSS of this process plus each live descendant, in MB."""
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own_kb + sum(_proc_hwm_kb(pid) for pid in descendants())) / 1024


# --------------------------------------------------------------------------
# Spans of the traced run
# --------------------------------------------------------------------------


class SpanRecorder:
    """In-memory span log: name, start, end, parent, frame id.

    Spans are recorded by the benchmark around calls into the program
    (never inside it).  A disabled recorder hands out one shared null
    context, so untraced runs pay a method call per span at most.
    Spans nest per thread; :meth:`add` records a span measured
    elsewhere (for example, a frame finished on an engine thread).
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._null = nullcontext()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(
        self,
        name: str,
        start: float,
        end: float,
        frame: int | None = None,
        parent: int | None = None,
    ) -> int:
        """Record a finished span; returns its id."""
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({
                "id": span_id, "name": name, "start": start, "end": end,
                "parent": parent, "frame": frame,
            })
        return span_id

    @contextmanager
    def _span(self, name: str, frame: int | None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = len(self.spans)
            record = {
                "id": span_id, "name": name, "start": time.perf_counter(),
                "end": None, "parent": parent, "frame": frame,
            }
            self.spans.append(record)
        stack.append(span_id)
        try:
            yield record
        finally:
            stack.pop()
            record["end"] = time.perf_counter()

    def span(self, name: str, frame: int | None = None):
        """Context manager timing one call (no-op when disabled)."""
        return self._span(name, frame) if self.enabled else self._null

    def durations(self, name: str) -> list[float]:
        """Durations in seconds of every span called ``name``."""
        return [span["end"] - span["start"] for span in self.spans
                if span["name"] == name and span["end"] is not None]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the part of
        its interval that child spans cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children.setdefault(span["parent"], []).append(
                    (span["start"], span["end"])
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            covered = 0.0
            cursor = span["start"]
            for start, end in sorted(children.get(span["id"], [])):
                start = max(start, cursor)
                if end > start:
                    covered += end - start
                    cursor = end
            own = span["end"] - span["start"] - covered
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals


# --------------------------------------------------------------------------
# Host fingerprint
# --------------------------------------------------------------------------


def _source_digest() -> str:
    """Content hash of the program sources (the checkout has no git)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def fingerprint() -> dict:
    """Host and build identity recorded with every result."""
    import ctypes

    import numpy as np

    from repro.backend import default_backend_name
    from repro.backend.cnative.build import find_compiler
    from repro.backend.cnative.lib import load_kernels

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    blas_path = next(
        (str(path) for path in sorted(libs.glob("libscipy_openblas*.so*"))),
        None,
    )
    blas_threads = None
    if blas_path is not None:
        handle = ctypes.CDLL(blas_path, mode=ctypes.RTLD_LOCAL)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                blas_threads = int(getter())
                break
    compiler = find_compiler()
    version = subprocess.run(
        [compiler, "--version"], capture_output=True, text=True,
        timeout=10, check=False,
    ).stdout.splitlines()
    return {
        "affinity_cores": sorted(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_library": Path(blas_path).name if blas_path else None,
        "blas_threads": blas_threads,
        "cnative_threads": load_kernels().threads,
        "default_backend": default_backend_name(),
        "compiler": version[0] if version else compiler,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": _commit(),
        "source_digest": _source_digest(),
    }
