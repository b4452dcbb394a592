"""Per-process resource telemetry (the ``resource.*`` gauge family).

A :class:`ResourceSampler` publishes point-in-time gauges into an
observer — resident set size read from ``/proc/self/statm``, the
kernel-tracked peak RSS (``getrusage().ru_maxrss``), and cumulative GC
collections — cheap enough to sample at stage boundaries and per pool
region.  Each process (main and every forked worker) samples its own
numbers; worker gauges travel back with region results and merge into
the parent by maximum (``Observer.merge_worker_metrics``), so the
reported peak covers the whole process tree.

Benchmarks record :func:`peak_rss_bytes` into the ``resources`` section
of their persisted ``BENCH_*.json`` runs; the regression gate reports
that section but never fails on it (memory is machine-dependent).
"""

from __future__ import annotations

import gc
import os
import sys

try:
    import resource as _rusage
except ImportError:  # pragma: no cover - non-POSIX platforms
    _rusage = None

try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (AttributeError, ValueError, OSError):  # pragma: no cover
    _PAGE_SIZE = 4096

#: ``ru_maxrss`` unit: kilobytes on Linux, bytes on macOS.
_RU_MAXRSS_SCALE = 1 if sys.platform == "darwin" else 1024


def rss_bytes() -> int:
    """Current resident set size of this process, in bytes.

    Reads ``/proc/self/statm`` (field 2, resident pages); falls back to
    the kernel peak where procfs is unavailable, and to 0 where neither
    source exists.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    return peak_rss_bytes()


def peak_rss_bytes() -> int:
    """Kernel-tracked peak resident set size of this process, in bytes
    (``getrusage().ru_maxrss``); 0 where unavailable."""
    if _rusage is None:
        return 0
    try:
        usage = _rusage.getrusage(_rusage.RUSAGE_SELF)
    except OSError:  # pragma: no cover - degenerate platforms
        return 0
    return int(usage.ru_maxrss) * _RU_MAXRSS_SCALE


def gc_collections() -> int:
    """Total garbage collections across all generations so far."""
    return sum(int(stat.get("collections", 0)) for stat in gc.get_stats())


class ResourceSampler:
    """Publishes ``resource.*`` gauges into an observer on demand.

    One sampler per process; :meth:`sample` is a handful of syscalls
    and three gauge writes, so calling it at stage boundaries and per
    pool region costs nothing measurable.  Gauges are only published
    while the observer is enabled; the sampled RSS is returned either
    way, and the per-sampler peak is tracked across calls.
    """

    __slots__ = ("observer", "peak_rss")

    def __init__(self, observer=None) -> None:
        if observer is None:
            from repro.obs import OBS

            observer = OBS
        self.observer = observer
        self.peak_rss = 0

    def sample(self) -> int:
        """Sample now; returns the current RSS in bytes."""
        rss = rss_bytes()
        if rss > self.peak_rss:
            self.peak_rss = rss
        observer = self.observer
        if observer.enabled:
            observer.gauge("resource.rss_bytes", rss)
            observer.gauge(
                "resource.rss_peak_bytes",
                max(self.peak_rss, peak_rss_bytes()),
            )
            observer.gauge("resource.gc_collections", gc_collections())
        return rss
