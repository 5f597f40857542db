"""Batch analysis of graph6 streams: group graphs by visibility polynomial.

The input is read in chunks of ``CHUNK_RECORDS`` records. With the native
walk, one call decodes and counts the short-form records of a chunk that it
can decode in full: order at most 62, every byte in 63..126, the exact length
and zero padding bits. Every other record takes the fallback: long-form and
malformed records, non-ASCII ones, and all records when there is no
compiler. The fallback parses each of them with ``parse_graph6``, which
names a malformed record's fault, and counts it with one call of the
counting walk. Chunks run in this process until the input ends or
``SERIAL_SLICE_S`` seconds have passed; only then, only with more than one
worker, and only once the records so far took ``POOL_MIN_RECORD_S`` each,
does a worker pool take the chunks that are left. On corpus-like records the
pool would cost more than the walks it hands out, so the choice rests on the
time the batch has taken, not on a record count. Chunks are
merged in input order, so the first bad record decides the error. Chunks
return count vectors, and ``run_batch`` builds one polynomial and canonical
string per distinct vector; grouping keys are those strings, so the reports
do not depend on input order or worker count.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, islice
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .enumeration import _count_sets
from .errors import FormatError, GuardrailError
from .graph6 import iter_graph6_lines, parse_graph6
from .polynomial import Polynomial

CHUNK_RECORDS = 64
# On a 2-vCPU machine two workers forced from the start never paid on corpus
# records (about 4 us each): from 996 to 127,488 of them they ran 1.8-3.6x
# slower than one process, as handing out a chunk costs more than counting it,
# and the pool takes about 0.012 s to start. So the batch stays in this process
# for its first SERIAL_SLICE_S, and after that for as long as its records took
# under POOL_MIN_RECORD_S each. Past the slice, G(n, .5) records broke even
# at 10-20 us each (G(9, .5): pool 1.02x the serial time, G(10, .5): 0.95x,
# G(11, .5) at 33 us: 0.81x; 15,000-40,000 records, median of 3).
SERIAL_SLICE_S = 0.25
POOL_MIN_RECORD_S = 2e-5
# Chunks a pool holds per worker; enough that no worker waits while this
# process merges results, few enough that the input is read as it is used.
POOL_CHUNKS_PER_WORKER = 8

# ("ok", line, counts by size with entry 0 = 1), or ("format" | "guardrail", line, message)
Result = Tuple[str, int, Union[Tuple[int, ...], str]]


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


def _analyse_chunk(chunk: List[Tuple[int, str]]) -> List[Result]:
    """Tagged results of (line, record) pairs, in input order.

    With the native walk, one call decodes and counts every ASCII record that
    is a short-form record in full. Every other record is parsed by
    ``parse_graph6`` and counted by its own ``_count_sets`` call, which
    applies the guardrail, so its error keeps its text. Format errors and
    guardrail refusals are tagged per record, so one bad record cannot poison
    the chunk and every path reports the same record.
    """
    from . import _native  # not at package import, as in _count_sets

    results: List[Optional[Result]] = [None] * len(chunk)
    walk = _native.load()
    if walk is not None:
        # A non-ASCII record must reach parse_graph6, which refuses it.
        native = [i for i, (_, record) in enumerate(chunk) if record.isascii()]
        for i, counts in zip(native, walk.graph6([chunk[i][1].encode("ascii") for i in native])):
            if counts is not None:
                results[i] = ("ok", chunk[i][0], (1, *counts[1:]))
    for i, (lineno, record) in enumerate(chunk):
        if results[i] is not None:
            continue
        try:
            counts = _count_sets(parse_graph6(record), theta=False)
        except FormatError as exc:
            results[i] = ("format", lineno, str(exc))
        except GuardrailError as exc:
            results[i] = ("guardrail", lineno, str(exc))
        else:
            results[i] = ("ok", lineno, (1, *counts[1:]))
    return results


def _analysed_chunks(records: Iterator[Tuple[int, str]], workers: int) -> Iterator[List[Result]]:
    """Chunk results in input order: in-process until the slice runs out, then pooled.

    Past the slice the pool starts only once the records so far took at least
    POOL_MIN_RECORD_S each; with none done yet, as with a zero slice, it starts at once.
    """
    chunks = iter(lambda: list(islice(records, CHUNK_RECORDS)), [])
    start, done = perf_counter(), 0
    for chunk in chunks:
        if workers > 1:
            elapsed = perf_counter() - start
            if elapsed >= SERIAL_SLICE_S and elapsed >= POOL_MIN_RECORD_S * done:
                yield from _pooled(chain([chunk], chunks), workers)
                return
        yield _analyse_chunk(chunk)
        done += len(chunk)


def _pooled(chunks: Iterator[List[Tuple[int, str]]], workers: int) -> Iterator[List[Result]]:
    """Chunk results from a pool, reading at most POOL_CHUNKS_PER_WORKER chunks per worker ahead."""
    from multiprocessing import Pool

    from . import _native

    # Built and loaded once here, so the workers inherit the native walk.
    _native.load()
    pool = Pool(processes=workers)
    try:
        pending: deque = deque()
        for chunk in chunks:
            pending.append(pool.apply_async(_analyse_chunk, (chunk,)))
            if len(pending) > POOL_CHUNKS_PER_WORKER * workers:
                yield pending.popleft().get()
        while pending:
            yield pending.popleft().get()
    finally:
        pool.terminate()
        pool.join()


def run_batch(
    lines: Iterable[str],
    workers: Optional[int] = None,
    skip_bad: bool = False,
    keep_histogram: bool = False,
) -> List[BatchReport]:
    """Group a graph6 stream by visibility polynomial, one report per order.

    Lines are read as the chunks need them. A malformed record aborts with
    a FormatError naming its line unless skip_bad is set; a record over the
    enumeration guardrail always aborts, with a GuardrailError naming its
    line. Reports come back sorted by order.
    """
    tallies: Dict[Tuple[int, ...], int] = {}
    records = iter_graph6_lines(lines)
    for results in _analysed_chunks(records, effective_workers(workers)):
        for tag, lineno, value in results:
            if tag == "ok":
                tallies[value] = tallies.get(value, 0) + 1
            elif tag == "format":
                if not skip_bad:
                    raise FormatError(value, line=lineno)
            else:
                raise GuardrailError(f"line {lineno}: {value}")
    # One polynomial and canonical string per distinct count vector.
    counters: Dict[int, Dict[str, int]] = {}
    for counts, tally in tallies.items():
        groups = counters.setdefault(len(counts) - 1, {})
        key = Polynomial(counts).to_canonical_string()
        groups[key] = groups.get(key, 0) + tally
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
    # A non-ASCII byte reaches parse_graph6 as a surrogate, which refuses its record by line.
    with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
        return run_batch(handle, **kwargs)
