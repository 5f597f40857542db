"""Batch analysis of graph6 streams: group graphs by visibility polynomial.

The input is read in chunks of ``CHUNK_RECORDS`` lines. With the native
walk, one call takes a chunk's stripped lines joined by line breaks and
gives back one key line per line: the canonical string, of which
``polynomial._canonical_text`` is the reference, of each short-form record
it decodes in full (order at most 62, every byte in 63..126, the exact
length and zero padding bits), and an empty line for any other. Those take
the fallback: blank and header lines, long-form, malformed and non-ASCII
records; all lines of a chunk in which a line holds a line break of its own,
which would shift the keys after it; and all lines when there is no
compiler. The fallback reads a line by ``iter_graph6_lines``'s rule, parses
its record with ``parse_graph6``, which names a malformed record's fault,
counts it with one call of the counting walk and keys it with
``_canonical_text``. Chunks run in this process until the input ends or
``SERIAL_SLICE_S`` seconds have passed; only then, only with more than one
worker, and only once the records so far took ``POOL_MIN_RECORD_S`` each,
does a worker pool take the chunks that are left. On corpus-like records the
pool would cost more than the walks it hands out, so the choice rests on the
time the batch has taken, not on a record count. Chunks return the key of
each counted record and their refusals, merged in input order, so the first
bad record decides the error. ``run_batch`` tallies the keys and reads each
key's order from its entry 1, r_1 = n, so reports do not depend on input
order or worker count.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict, deque
from itertools import chain, islice
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from .enumeration import _count_sets
from .errors import FormatError, GuardrailError, _Record
from .graph6 import iter_graph6_lines, parse_graph6
from .polynomial import _canonical_text

CHUNK_RECORDS = 64
# On a 2-vCPU machine two workers forced from the start never paid on corpus
# records (about 4 us each): from 996 to 127,488 of them they ran 1.8-3.6x
# slower than one process, as handing out a chunk costs more than counting it,
# and the pool takes about 0.012 s to start. So the batch stays in this process
# for its first SERIAL_SLICE_S, and after that for as long as its records took
# under POOL_MIN_RECORD_S each. Past the slice, G(n, .5) records break even
# at 15-25 us each (pool / serial time: G(10, .5) at 9 us 1.20-1.57x, G(11, .5)
# at 15 us 0.98-1.45x, G(12, .5) at 26-28 us 0.80-0.91x; 10,000-20,000 records).
SERIAL_SLICE_S = 0.25
POOL_MIN_RECORD_S = 2e-5
# Chunks a pool holds per worker; enough that no worker waits while this
# process merges results, few enough that the input is read as it is used.
POOL_CHUNKS_PER_WORKER = 8

# A chunk: its first line's number and its lines
Chunk = Tuple[int, List[str]]
# A chunk's keys, and its refusals: (line, the error its record raised)
Analysed = Tuple[List[str], List[Tuple[int, Union[FormatError, GuardrailError]]]]


class BatchReport(_Record):
    """Polynomial-collision summary for all processed graphs of one order."""

    __slots__ = ("order", "total_graphs", "group_count", "max_group_size",
                 "max_group_polynomials", "histogram")
    __hash__ = None  # a list and a dict

    def __init__(self, order: int, total_graphs: int, group_count: int, max_group_size: int,
                 max_group_polynomials: List[str], histogram: Optional[Dict[str, int]] = None):
        self._set(order, total_graphs, group_count, max_group_size, max_group_polynomials,
                  histogram)

    def to_json_dict(self) -> dict:
        """The fields in their order, the histogram as sorted [key, count] pairs if kept."""
        out = {name: getattr(self, name) for name in self._fields}
        out["max_group_polynomials"] = list(self.max_group_polynomials)
        if out.pop("histogram") is not None:
            out["histogram"] = [[poly, count] for poly, count in sorted(self.histogram.items())]
        return out


def effective_workers(requested: Optional[int] = None) -> int:
    """The requested worker count; by default, the CPUs this process may use."""
    if requested and requested > 0:
        return requested
    affinity = getattr(os, "sched_getaffinity", None)  # narrowed by containers and taskset
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _analyse_chunk(chunk: Chunk) -> Analysed:
    """The keys of a chunk's records and their refusals, each in input order.

    The fallback's ``_count_sets`` applies the guardrail, so a refusal keeps
    its text. Each refusal comes back with its line, so one bad record cannot
    poison the chunk and every path reports the same record; a pool pickles
    the error with its attributes, a format error's byte offset among them.
    """
    from . import _native  # not at package import, as in _count_sets

    first, lines = chunk
    keys = [""] * len(lines)
    walk = _native.load()
    if walk is not None:
        # One encode per chunk; its bytes over 127 make the decoder decline a non-ASCII record.
        text = "\n".join([line.strip() for line in lines]).encode("utf-8", "surrogatepass")
        if text.count(b"\n") < len(lines):
            keys = walk.graph6(text)
            if "" not in keys:
                return keys, []
    refusals: list = []
    for i, line in enumerate(lines):
        if not keys[i]:
            for _, record in iter_graph6_lines((line,)):  # none for a blank or header-only line
                try:
                    keys[i] = _canonical_text(tuple(_count_sets(parse_graph6(record), theta=False)))
                except (FormatError, GuardrailError) as exc:
                    refusals.append((first + i, exc))
    return [key for key in keys if key], refusals


def _chunks(lines: Iterable[str]) -> Iterator[Chunk]:
    lines, first = iter(lines), 1
    while chunk := list(islice(lines, CHUNK_RECORDS)):
        yield first, chunk
        first += len(chunk)


def _analysed_chunks(lines: Iterable[str], workers: int) -> Iterator[Analysed]:
    """Chunk results in input order: in-process until the slice runs out, then pooled.

    Past the slice the pool starts only once the records so far took at least
    POOL_MIN_RECORD_S each; with none done yet, as with a zero slice, it starts at once.
    """
    chunks = _chunks(lines)
    start, done = perf_counter(), 0
    for chunk in chunks:
        if workers > 1:
            elapsed = perf_counter() - start
            if elapsed >= SERIAL_SLICE_S and elapsed >= POOL_MIN_RECORD_S * done:
                yield from _pooled(chain([chunk], chunks), workers)
                return
        yield _analyse_chunk(chunk)
        done += len(chunk[1])


def _pooled(chunks: Iterator[Chunk], workers: int) -> Iterator[Analysed]:
    """Chunk results from a pool, reading at most POOL_CHUNKS_PER_WORKER chunks per worker ahead."""
    from multiprocessing import Pool

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
    tallies: Counter = Counter()
    for keys, refusals in _analysed_chunks(lines, effective_workers(workers)):
        for lineno, exc in refusals:
            if isinstance(exc, GuardrailError):
                raise GuardrailError(f"line {lineno}: {exc}")
            if not skip_bad:
                raise exc.at_line(lineno)
        tallies.update(keys)
    # Every vertex is a mutual-visibility set, so r_1 = n: a key reads "[1,n,...]" or "[1,n]",
    # n running from index 3 to the next comma or the "]", and "[1]" gives "", order 0.
    by_order: Dict[str, Dict[str, int]] = defaultdict(dict)
    for key, tally in tallies.items():
        by_order[key[3:key.find(",", 3)]][key] = tally
    counters = {int(n or 0): groups for n, groups in by_order.items()}
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
