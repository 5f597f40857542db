"""Batch analysis of graph6 streams: group graphs by visibility polynomial.

Records are processed independently (optionally by a worker pool) and merged
into per-order reports. Grouping keys are canonical polynomial strings, so
the outcome does not depend on input order or worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .enumeration import polynomial_pruned
from .errors import FormatError
from .graph6 import iter_graph6_lines, parse_graph6


@dataclass
class BatchReport:
    """Polynomial-collision summary for all processed graphs of one order."""

    order: int
    total_graphs: int
    group_count: int
    max_group_size: int
    max_group_polynomials: List[str]
    histogram: Optional[Dict[str, int]] = field(default=None)

    def to_json_dict(self) -> dict:
        out = {
            "order": self.order,
            "total_graphs": self.total_graphs,
            "group_count": self.group_count,
            "max_group_size": self.max_group_size,
            "max_group_polynomials": list(self.max_group_polynomials),
        }
        if self.histogram is not None:
            out["histogram"] = [[poly, count] for poly, count in sorted(self.histogram.items())]
        return out


def effective_workers(requested: Optional[int] = None) -> int:
    """Worker count after applying the VISIPOLY_THREADS cap."""
    workers = requested if requested and requested > 0 else (os.cpu_count() or 1)
    cap = os.environ.get("VISIPOLY_THREADS")
    if cap:
        try:
            cap_value = int(cap)
        except ValueError:
            raise FormatError(f"VISIPOLY_THREADS must be an integer, got {cap!r}") from None
        if cap_value > 0:
            workers = min(workers, cap_value)
    return max(workers, 1)


def _analyse_record(task: Tuple[int, str]) -> Tuple[str, int, str]:
    """Tagged result so one bad record cannot poison a whole worker chunk."""
    lineno, record = task
    try:
        graph = parse_graph6(record)
    except FormatError as exc:
        return ("error", lineno, str(exc))
    return ("ok", graph.n, polynomial_pruned(graph).to_canonical_string())


def _analysed_records(tasks, workers: int, skip_bad: bool):
    if workers <= 1:
        results = map(_analyse_record, tasks)
    else:
        from multiprocessing import Pool

        from . import _native

        # Built and loaded once here, so the workers inherit the native walk.
        _native.load()
        # imap keeps input order, so the first malformed record aborts first
        pool = Pool(processes=workers)
        results = pool.imap(_analyse_record, tasks, chunksize=64)
    try:
        for tag, a, b in results:
            if tag == "error":
                if skip_bad:
                    continue
                raise FormatError(b, line=a)
            yield a, b
    finally:
        if workers > 1:
            pool.terminate()
            pool.join()


def run_batch(
    lines: Iterable[str],
    workers: Optional[int] = None,
    skip_bad: bool = False,
    keep_histogram: bool = False,
) -> List[BatchReport]:
    """Group a graph6 stream by visibility polynomial, one report per order.

    Malformed records abort with the offending line number unless skip_bad
    is set. Reports come back sorted by order.
    """
    tasks = list(iter_graph6_lines(lines))
    counters: Dict[int, Dict[str, int]] = {}
    for order, key in _analysed_records(tasks, effective_workers(workers), skip_bad):
        groups = counters.setdefault(order, {})
        groups[key] = groups.get(key, 0) + 1
    reports = []
    for order in sorted(counters):
        groups = counters[order]
        max_size = max(groups.values())
        modal = sorted(key for key, count in groups.items() if count == max_size)
        reports.append(
            BatchReport(
                order=order,
                total_graphs=sum(groups.values()),
                group_count=len(groups),
                max_group_size=max_size,
                max_group_polynomials=modal,
                histogram=dict(groups) if keep_histogram else None,
            )
        )
    return reports


def run_batch_file(path, **kwargs) -> List[BatchReport]:
    with open(path, "r", encoding="ascii") as handle:
        return run_batch(handle, **kwargs)
