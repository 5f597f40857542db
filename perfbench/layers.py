"""Traced run: per-layer times and counts, taken from outside the program.

Every layer is reached through visipoly's public calls. Each call is wrapped
in a span (name, tag, start, end, parent) that is kept in memory and written
out when the run ends. A round runs the inputs of every kind of pass stage
by stage, so every per-layer metric is reported whichever workload is traced;
rounds repeat for half of the run and each time is the median of its samples.
The other half alternates the traced workload's pass with and without spans,
which gives the tracing overhead. The end-to-end metrics come from untraced
runs, not from here.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from time import perf_counter

from common import SINGLE_CALLS, SINGLE_GRAPHS, poly_problems, stats_problems

SINGLE_SPANS = {"single_poly": "enumeration.walk", "single_stats": "visibility.stats"}
MIN_OVERHEAD_PAIRS = 3
CHEAP_STAGE_REPEATS = 3


class Tracer:
    """In-memory spans of one thread; ``span`` nests by call order."""

    def __init__(self):
        self.spans: list = []  # [name, tag, start, end, parent index or -1]
        self._open: list = []

    def span(self, name: str, tag: str = "") -> "_Span":
        return _Span(self, name, tag)

    def mark(self) -> int:
        return len(self.spans)

    def total(self, name: str, since: int, tag: str | None = None) -> float:
        """Summed duration of the spans called ``name`` recorded after ``since``."""
        return sum(
            s[3] - s[2]
            for s in self.spans[since:]
            if s[0] == name and (tag is None or s[1] == tag)
        )

    def dump(self, path) -> None:
        """Write every span with its duration and self time (duration minus children)."""
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        rows = [
            {"name": name, "tag": tag, "start": start, "end": end, "parent": parent,
             "self": end - start - child_time[i]}
            for i, (name, tag, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n", "ascii")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, tag: str):
        self.tracer = tracer
        self.record = [name, tag, 0.0, 0.0, tracer._open[-1] if tracer._open else -1]

    def __enter__(self):
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[2] = perf_counter()

    def __exit__(self, *exc):
        self.record[3] = perf_counter()
        self.tracer._open.pop()


class Tally:
    """Checked operations of the traced run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, problems) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("; ".join(problems))

    def add(self, attempted: int, failures: list) -> None:
        self.attempted += attempted
        self.failures += failures


def extension_calls(vp, g) -> list:
    """Every membership test the pruned walk makes on g, as (mask, members).

    The root (the empty set) and each mutual-visibility set are extended by
    every vertex above their largest member, which is the seed engine's
    rule; the counts are exact for a given labelling.
    """
    calls = [(1 << v, (v,)) for v in range(g.n)]
    for members, _ in vp.iter_mv_sets(g):
        mask = 0
        for u in members:
            mask |= 1 << u
        calls.extend((mask | 1 << v, members + (v,)) for v in range(members[-1] + 1, g.n))
    return calls


def replay(ctx, calls) -> int:
    is_mv = ctx.is_mv
    passed = 0
    for mask, members in calls:
        if is_mv(mask, members):
            passed += 1
    return passed


def staged_corpus(tr, vp, records, expected_report, tally) -> list:
    """The calls the serial batch makes per record, one span each; returns the graphs."""
    graphs = []
    groups: dict = {}
    with tr.span("batch.staged_pass"):
        for record in records:
            with tr.span("graph6.parse"):
                g = vp.parse_graph6(record)
            with tr.span("enumeration.walk"):
                poly = vp.polynomial_pruned(g)
            with tr.span("polynomial.canonical"):
                key = poly.to_canonical_string()
            graphs.append(g)
            groups.setdefault(g.n, Counter())[key] += 1
    expected = {
        r["order"]: dict((k, c) for k, c in r["histogram"])
        for r in json.loads(expected_report)["reports"]
    }
    tally.check([] if groups == expected else ["staged corpus groups differ from the stored report"])
    return graphs


def staged_verify(tr, vp, specs, tally) -> None:
    """The calls run_verify makes per instance, one span each."""
    with tr.span("verify.staged_pass"):
        for spec in specs:
            with tr.span("closed_forms.poly_for_class"):
                closed = vp.poly_for_class(spec)
            with tr.span("classes.build_class"):
                g = vp.build_class(spec)
            with tr.span("enumeration.pruned"):
                pruned = vp.polynomial_pruned(g)
            with tr.span("enumeration.bruteforce"):
                brute = vp.polynomial_bruteforce(g)
            tally.check([] if closed == pruned == brute else [vp.spec_label(spec) + " failed"])


def staged_single(tr, vp, workload, graphs, expected_polys, tally) -> None:
    function, check = SINGLE_CALLS[workload]
    call = getattr(vp, function)
    for name in SINGLE_GRAPHS:
        with tr.span(SINGLE_SPANS[workload], name):
            result = call(graphs[name])
        tally.check(check(name, result, expected_polys[name]))


def untraced_wall_s(untraced_pass, vp, inputs, ctx, clock, tally) -> float:
    """Wall time of one untraced pass, whose checked operations go to ``tally``."""
    timings, ops, failures = untraced_pass(vp, inputs, ctx, clock)
    tally.add(ops, failures)
    return sum(wall for _, wall, _ in timings)


def corpus_round(tr, vp, records, ctx, untraced_pass, clock, tally) -> dict:
    serial = untraced_wall_s(untraced_pass, vp, records, {**ctx, "nproc": 1}, clock, tally)
    parallel = untraced_wall_s(untraced_pass, vp, records, ctx, clock, tally)
    mark = tr.mark()
    for g in staged_corpus(tr, vp, records, ctx["report"], tally):
        with tr.span("graph.validate"):
            vp.Graph(g.n, g.adj)
        with tr.span("visibility.context"):
            vp.VisibilityContext(g)
    parse = tr.total("graph6.parse", mark)
    walk = tr.total("enumeration.walk", mark)
    canonical = tr.total("polynomial.canonical", mark)
    return {
        "graph6.parse_s": parse,
        "graph.validate_s": tr.total("graph.validate", mark),
        "polynomial.canonical_s": canonical,
        "visibility.context_s": tr.total("visibility.context", mark),
        "batch.serial_s": serial,
        "batch.parallel_s": parallel,
        "batch.parallel_speedup": serial / parallel,
        "batch.overhead_s": serial - parse - walk - canonical,
    }


def single_round(tr, vp, graphs, expected_polys, calls_by_graph, tally) -> dict:
    mark = tr.mark()
    out = {}
    walk_self = theta_extra = 0.0
    for name in SINGLE_GRAPHS:
        g = graphs[name]
        with tr.span("visibility.context", name):
            ctx = vp.VisibilityContext(g)
        # The walk and stats calls run back to back, since their
        # difference is reported.
        with tr.span("enumeration.walk", name):
            poly = vp.polynomial_pruned(g)
        with tr.span("visibility.stats", name):
            stats = vp.compute_stats(g)
        with tr.span("visibility.cliques", name):
            vp.clique_count(g, g.n)
        tally.check(poly_problems(name, poly, expected_polys[name]))
        tally.check(stats_problems(name, stats, expected_polys[name]))
        calls = calls_by_graph[name]
        with tr.span("visibility.is_mv", name):
            passed = replay(ctx, calls)
        mv_sets = sum(poly.coeffs) - 1
        tally.check([] if passed == mv_sets else [f"{name}: replay passed {passed} of {len(calls)}"])

        walk = tr.total("enumeration.walk", mark, name)
        is_mv = tr.total("visibility.is_mv", mark, name)
        walk_self += walk - tr.total("visibility.context", mark, name) - is_mv
        theta_extra += (
            tr.total("visibility.stats", mark, name) - walk - tr.total("visibility.cliques", mark, name)
        )
        out[f"enumeration.walk_s.{name}"] = walk
        out[f"enumeration.mv_sets.{name}"] = mv_sets
        out[f"enumeration.us_per_mv_set.{name}"] = walk / mv_sets * 1e6
        out[f"visibility.is_mv_s.{name}"] = is_mv
        out[f"visibility.is_mv_calls.{name}"] = len(calls)
        out[f"visibility.is_mv_pass_ratio.{name}"] = passed / len(calls)
    out["visibility.is_mv_s"] = tr.total("visibility.is_mv", mark)
    out["visibility.cliques_s"] = tr.total("visibility.cliques", mark)
    out["visibility.theta_extra_s"] = theta_extra
    out["enumeration.walk_self_s"] = walk_self
    return out


def verify_round(tr, vp, specs, tally) -> dict:
    mark = tr.mark()
    staged_verify(tr, vp, specs, tally)
    return {
        "closed_forms.poly_for_class_s": tr.total("closed_forms.poly_for_class", mark),
        "classes.build_class_s": tr.total("classes.build_class", mark),
        "enumeration.pruned_s": tr.total("enumeration.pruned", mark),
        "enumeration.bruteforce_s": tr.total("enumeration.bruteforce", mark),
    }


def traced_pass(tr, vp, workload, inputs, ctx, tally) -> float:
    """One pass of the workload with a span around every visipoly call."""
    start = perf_counter()
    if workload == "corpus_batch":
        staged_corpus(tr, vp, inputs[workload], ctx["report"], tally)
    elif workload == "verify_suite":
        staged_verify(tr, vp, inputs[workload], tally)
    else:
        staged_single(tr, vp, workload, inputs[workload], ctx["polys"], tally)
    return perf_counter() - start


def traced_run(vp, workload, inputs, ctx, seconds, tr, untraced_passes, clock):
    """Per-layer metrics and the tally of checked operations.

    ``inputs`` maps every workload to its seeded inputs, and
    ``untraced_passes`` maps it to its timed pass, which returns (timings,
    attempted, failures). Per-layer times are wall times; ``clock`` only
    serves the untraced passes.
    """
    tally = Tally()
    graphs = inputs["single_poly"]
    calls_by_graph = {name: extension_calls(vp, graphs[name]) for name in SINGLE_GRAPHS}
    start = perf_counter()
    samples: dict = {}
    rounds = 0
    while not rounds or perf_counter() - start < seconds / 2:
        with tr.span("round"):
            rows = [single_round(tr, vp, graphs, ctx["polys"], calls_by_graph, tally)]
            # The corpus and verify stages are cheap, so each round samples them more often.
            for _ in range(CHEAP_STAGE_REPEATS):
                rows.append(
                    corpus_round(
                        tr, vp, inputs["corpus_batch"], ctx, untraced_passes["corpus_batch"], clock, tally
                    )
                )
                rows.append(verify_round(tr, vp, inputs["verify_suite"], tally))
        rounds += 1
        for row in rows:
            for key, value in row.items():
                samples.setdefault(key, []).append(value)
    # Counts are exact and equal in every round; times are medians.
    metrics = {
        key: values[0] if isinstance(values[0], int) else statistics.median(values)
        for key, values in samples.items()
    }

    # The corpus pass is compared with the serial batch: spans are recorded
    # in this process only, so the traced pass cannot use the worker pool.
    untraced_pass = untraced_passes[workload]
    untraced_ctx = {**ctx, "nproc": 1}
    traced, untraced = [], []
    while len(traced) < MIN_OVERHEAD_PAIRS or perf_counter() - start < seconds:
        # Alternate which side runs first.
        for side in ((0, 1) if len(traced) % 2 == 0 else (1, 0)):
            if side == 0:
                with tr.span("overhead.traced_pass"):
                    traced.append(traced_pass(tr, vp, workload, inputs, ctx, tally))
            else:
                untraced.append(
                    untraced_wall_s(untraced_pass, vp, inputs[workload], untraced_ctx, clock, tally)
                )
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    return metrics, tally, {"rounds": rounds, "overhead_pairs": len(traced)}
