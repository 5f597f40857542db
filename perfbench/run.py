#!/usr/bin/env python3
"""Seeded benchmark of visipoly with checked outputs.

Run from the repository root:

    python3 perfbench/run.py --workload corpus_batch --seed 1 --seconds 20 --trace 0

Each workload is a closed loop with one caller: a pass starts when the
previous one returns, and passes repeat until ``--seconds`` have passed; the
calibration loop (below) runs between timed calls, outside their times. The
package is called in-process through its public functions; only
``corpus_batch`` starts a worker pool, of at most ``nproc`` workers.

  corpus_batch  run_batch over all records of data/connected_n1..n7.g6, in an
                order shuffled by the seed, with workers = nproc. Per-record
                fixed costs (parse, validation, context, canonical string,
                grouping, pool dispatch) are a real share of its time.
  single_poly   polynomial_pruned on the 4x5 grid, Q4, G(16, 0.5), C_40, P_64
                and K_16, with vertex labels permuted by the seed. The walk
                and the membership test take almost all of the time.
  single_stats  compute_stats on the same six graphs: the same walk plus
                diameters, Theta and cliques, so a gain on the count-only path
                that costs Theta shows here.
  verify_suite  run_verify(paper_suite()): the only workload that runs the
                brute-force engine, the closed-form dispatch and build_class.

Every result is checked against values stored in this directory, which
``make_expected.py`` derives from independent references. A wrong result or
an exception counts as a failed operation.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics, the same on every workload. Times are in reference seconds: the
wall time of a timed call scaled by the host's speed during it, which a fixed
calibration loop (``common.ReferenceClock``) measures just before and just
after the call. On a shared host the wall time of identical work moves by tens
of percent from minute to minute, and the calibration loop moves with it.

  setup_s        median time to import visipoly and build the inputs, sampled
                 at the start and at the end of the run
  pass_s         time of one pass: the median of its timed calls, summed
                 over the calls of a pass (one per single graph; the whole
                 pass for corpus_batch and verify_suite)
  records_per_s  inputs (corpus records, graphs or verify instances) of one
                 pass divided by pass_s
  peak_rss_mb    peak resident memory of this process plus the largest peak
                 of its children

The metadata line holds the same times in wall seconds (``wall_pass_s``,
``wall_setup_s``) and the calibration loop's times.

With ``--trace 1`` it holds the per-layer metrics of ``layers.py`` and the
spans are written to ``perfbench/out/``. The line before the result holds
the run's metadata, including the pass count and the failed share of the
checked operations. Exit code 2 means the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

from common import (
    BENCH_DIR,
    REFERENCE_CALIBRATION_S,
    ROOT,
    SINGLE_CALLS,
    SINGLE_GRAPHS,
    SRC,
    MissingProgram,
    ReferenceClock,
    corpus_problems,
    corpus_records,
    forget_visipoly,
    import_visipoly,
    load_expected,
    single_graphs,
)

SETUP_REPEATS = 21


def timed_call(clock, key, call):
    """Time ``call()``; returns ((key, wall s, reference s), result, exception or None)."""
    start = perf_counter()
    try:
        result, error = call(), None
    except Exception as exc:  # a failed operation, counted and reported
        result, error = None, exc
    seconds = perf_counter() - start
    return (key, seconds, seconds * clock.scale()), result, error


def corpus_pass(vp, records, ctx, clock):
    """One run_batch over the corpus: (timings, attempted, failures)."""
    timing, reports, error = timed_call(
        clock, "pass", lambda: vp.run_batch(records, workers=ctx["nproc"], keep_histogram=True)
    )
    if error:
        return [timing], 1, [repr(error)]
    problems = corpus_problems(reports, ctx["report"])
    return [timing], 1, ["; ".join(problems)] if problems else []


def single_pass(workload):
    function, check = SINGLE_CALLS[workload]

    def run(vp, graphs, ctx, clock):
        """One call per graph, each timed on its own and keyed by the graph."""
        call = getattr(vp, function)
        timings, failures = [], []
        for name in SINGLE_GRAPHS:
            timing, result, error = timed_call(clock, name, lambda: call(graphs[name]))
            timings.append(timing)
            problems = [f"{name}: {error!r}"] if error else check(name, result, ctx["polys"][name])
            if problems:
                failures.append("; ".join(problems))
        return timings, len(SINGLE_GRAPHS), failures

    return run


def verify_pass(vp, specs, ctx, clock):
    timing, results, error = timed_call(clock, "pass", lambda: vp.run_verify(specs))
    if error:
        return [timing], len(specs), [repr(error)] * len(specs)
    failures = [f"{r.label} failed" for r in results if not r.passed]
    failures += ["missing result"] * (len(specs) - len(results))
    return [timing], len(specs), failures


def verify_specs(seed):
    """The paper's fixed suite; the seed does not change it."""
    from visipoly import paper_suite

    return paper_suite()


# name -> (inputs from the seed, one pass over them)
WORKLOADS = {
    "corpus_batch": (corpus_records, corpus_pass),
    "single_poly": (single_graphs, single_pass("single_poly")),
    "single_stats": (single_graphs, single_pass("single_stats")),
    "verify_suite": (verify_specs, verify_pass),
}


def setup(workload: str, seed: int, repeats: int, clock):
    """Import visipoly and build the inputs ``repeats`` times.

    Returns the module, the inputs and a (wall s, reference s) pair per set-up.
    """
    times = []
    for _ in range(repeats):
        forget_visipoly()
        start = perf_counter()
        vp = import_visipoly()
        if workload == "trace":
            inputs = {name: make_inputs(seed) for name, (make_inputs, _) in WORKLOADS.items()}
        else:
            inputs = WORKLOADS[workload][0](seed)
        seconds = perf_counter() - start
        times.append((seconds, seconds * clock.scale()))
    return vp, inputs, times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_commit() -> str:
    """HEAD of the checkout's git directory, or "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text("ascii").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text("ascii").strip()
        for line in (git / "packed-refs").read_text("ascii").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    return sum(len(p.read_text("utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))


def tail_percentile(times: list) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    if len(times) < 11:
        return None
    ordered = sorted(times)
    index = len(ordered) - 11
    return {"percentile": 100 * (index + 1) / len(ordered), "value": ordered[index]}


def timed_run(workload, vp, inputs, ctx, seconds, clock):
    """Passes for ``seconds``; the metrics and the per-pass reference times.

    A pass times its calls by key (the whole pass, or one call per single
    graph), and ``pass_s`` sums the median reference time of each key.
    """
    run_pass = WORKLOADS[workload][1]
    by_key: dict = {}
    pass_ref_s, attempted, failures = [], 0, []
    start = perf_counter()
    while not pass_ref_s or perf_counter() - start < seconds:
        timings, ops, fails = run_pass(vp, inputs, ctx, clock)
        for key, wall, ref in timings:
            by_key.setdefault(key, []).append((wall, ref))
        pass_ref_s.append(sum(ref for _, _, ref in timings))
        attempted += ops
        failures += fails
    if workload == "corpus_batch":
        # Results must not depend on the worker count.
        _, ops, fails = corpus_pass(vp, inputs, {**ctx, "nproc": 1}, clock)
        attempted += ops
        failures += ["workers=1: " + line for line in fails]
    pass_s = sum(statistics.median(ref for _, ref in samples) for samples in by_key.values())
    metrics = {
        "pass_s": pass_s,
        "records_per_s": len(inputs) / pass_s,
        "peak_rss_mb": peak_rss_mb(),
    }
    wall_pass_s = sum(statistics.median(wall for wall, _ in samples) for samples in by_key.values())
    return metrics, pass_ref_s, wall_pass_s, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    clock = ReferenceClock()
    try:
        vp, inputs, setup_times = setup(
            "trace" if args.trace else args.workload, args.seed, SETUP_REPEATS // 2 + 1, clock
        )
        polys, report = load_expected()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("ascii"))
    except (MissingProgram, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    from visipoly.batch import effective_workers

    nproc = len(os.sched_getaffinity(0))
    ctx = {"nproc": nproc, "polys": polys, "report": report}
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": nproc,
        "workers": effective_workers(nproc),
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "commit": git_commit(),
        "src_lines": src_lines(),
    }

    if args.trace:
        from layers import Tracer, traced_run

        tracer = Tracer()
        values, tally, counts = traced_run(
            vp, args.workload, inputs, ctx, args.seconds, tracer,
            {name: passes for name, (_, passes) in WORKLOADS.items()}, clock,
        )
        tracer.dump(BENCH_DIR / "out" / f"trace-{args.workload}-{args.seed}.json")
        attempted, failures = tally.attempted, tally.failures
        meta.update(counts)
    else:
        values, times, wall_pass_s, attempted, failures = timed_run(
            args.workload, vp, inputs, ctx, args.seconds, clock
        )
        # Half of the set-ups come after the passes, so that setup_s samples
        # the machine at both ends of the run.
        setup_times += setup(args.workload, args.seed, SETUP_REPEATS // 2, clock)[2]
        values["setup_s"] = statistics.median(ref for _, ref in setup_times)
        meta["passes"] = len(times)
        meta["pass_s_quartiles"] = statistics.quantiles(times, n=4) if len(times) > 1 else times
        meta["pass_s_tail"] = tail_percentile(times)
        meta["wall_pass_s"] = wall_pass_s
        meta["wall_setup_s"] = statistics.median(wall for wall, _ in setup_times)
    loop_s = clock.loop_s
    meta["calibration_s"] = {
        "reference": REFERENCE_CALIBRATION_S,
        "median": statistics.median(loop_s),
        "quartiles": statistics.quantiles(loop_s, n=4) if len(loop_s) > 1 else loop_s,
        "samples": len(loop_s),
    }
    # Exactly the metrics BENCHMARK.json declares, with its units.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    meta["fail_ratio"] = len(failures) / attempted
    for line in failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
