"""Shared helpers for the benchmark harness.

Every benchmark prints the paper-style table/series it regenerates (run
pytest with ``-s`` to see them inline; they are also appended to
``bench_report.txt`` in the repo root so plain runs keep the evidence).
"""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any, Dict, Iterable, List, Optional, Sequence

_ROOT = os.path.dirname(os.path.dirname(__file__))
_REPORT_PATH = os.path.join(_ROOT, "bench_report.txt")


def emit(lines: Iterable[str]) -> None:
    text = "\n".join(lines)
    print("\n" + text)
    with open(_REPORT_PATH, "a", encoding="utf-8") as fh:
        fh.write(text + "\n\n")


def git_commit() -> Optional[str]:
    """The commit checked out in this tree's own ``.git`` (None outside
    a git work tree; uncommitted edits on top of it are not recorded)."""
    git_dir = os.path.join(_ROOT, ".git")
    try:
        done = subprocess.run(["git", "--git-dir", git_dir, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> Dict[str, Any]:
    """Where a benchmark ran, for its JSON artifact."""
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def format_table(title: str, headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> List[str]:
    """Fixed-width table matching the paper's layout."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in str_rows)) if str_rows
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [f"== {title} =="]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return lines


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:,.0f}"
        if cell >= 10:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def format_metrics(title: str, registry, prefix: str = "") -> List[str]:
    """Render a :class:`MetricsRegistry` snapshot as a report section.

    Counters print their value; histograms print count/mean/p99 (ms).
    """
    lines = [f"== {title} =="]
    for name, value in registry.snapshot(prefix=prefix).items():
        if isinstance(value, dict):
            rendered = (
                f"count={value['count']} mean={value['mean'] * 1000:.3f}ms "
                f"p99={value['p99'] * 1000:.3f}ms"
            )
        else:
            rendered = str(value)
        lines.append(f"{name:<40} {rendered}")
    return lines


def drain_probe(queue) -> list:
    """Pop-and-ack everything from a probe queue."""
    out = []
    while True:
        message = queue.pop()
        if message is None:
            return out
        queue.ack(message)
        out.append(message)
