"""Command-line interface.

Subcommands: ``poly`` (single-graph polynomial), ``stats`` (mu, r_mu, theta
and clique tables), ``verify`` (closed forms against enumeration), ``batch``
(group a graph6 stream by polynomial), and ``join`` (composition law, with
optional enumeration cross-check). Exit codes: 0 success, 2 format or
parameter error, 3 verification failure, 4 guardrail refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from itertools import islice
from typing import Callable, Optional

from . import _native
from .batch import run_batch_file
from .classes import DisjointUnion, Join, Raw, build_class, parse_class_spec, spec_label
from .closed_forms import poly_for_class
from .enumeration import polynomial_bruteforce, polynomial_pruned
from .errors import FormatError, GuardrailError, ParameterError
from .graph import Graph, parse_edge_list
from .graph6 import iter_graph6_lines, parse_graph6
from .polynomial import Polynomial
from .verify import paper_suite, run_verify
from .visibility import compute_stats

EXIT_OK = 0
EXIT_FORMAT = 2
EXIT_VERIFY = 3
EXIT_GUARDRAIL = 4


def _add_graph_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--g6", metavar="LINE", help="one graph6 record")
    source.add_argument("--input", metavar="FILE", help="read the graph from a file")
    source.add_argument(
        "--class",
        dest="class_spec",
        metavar="NAME:ARGS",
        help="a graph class, e.g. cycle:7, bipartite:3,4, paw",
    )
    parser.add_argument(
        "--format",
        choices=("graph6", "edgelist"),
        help="file format for --input (default graph6)",
    )


def _load_graph(args) -> tuple[Graph, Optional[object]]:
    """Build the requested graph; returns (graph, class spec or None)."""
    if args.format is not None and args.input is None:
        raise ParameterError("--format applies only to --input")
    if args.g6 is not None:
        return parse_graph6(args.g6), None
    if args.class_spec is not None:
        spec = parse_class_spec(args.class_spec)
        return build_class(spec), spec
    # A non-ASCII byte reaches the parser as a surrogate, which refuses its line.
    with open(args.input, "r", encoding="ascii", errors="surrogateescape") as handle:
        if args.format == "edgelist":
            return parse_edge_list(handle.read()), None
        records = list(islice(iter_graph6_lines(handle), 2))  # a second one is refused
    if not records:
        raise FormatError(f"no graph6 record in {args.input}")
    if len(records) > 1:
        raise FormatError(
            f"{args.input} holds more than one graph6 record; use batch for several",
            line=records[1][0],
        )
    lineno, record = records[0]
    try:
        return parse_graph6(record), None
    except FormatError as exc:
        raise exc.at_line(lineno) from exc


def _polynomial_for(graph: Graph, spec, args) -> tuple[Callable[[], Polynomial], str]:
    """The call that counts the polynomial, and the name of its engine."""
    # A bare raw spec (paw, diamond, empty:N) has no closed form; the pruned engine counts it.
    closed = spec is not None and not isinstance(spec, Raw)
    if args.engine == "closed-form":
        if spec is None:
            raise ParameterError("--engine closed-form needs --class")
        if not closed:
            raise ParameterError(f"class {args.class_spec!r} has no closed form; use --engine pruned")
        return lambda: poly_for_class(spec), "closed-form"
    if args.engine == "bruteforce":
        return lambda: polynomial_bruteforce(graph), "bruteforce"
    if closed and args.engine == "auto":
        return lambda: poly_for_class(spec), "closed-form"
    return lambda: polynomial_pruned(graph), "pruned"


def _walk_name() -> str:
    """The counting walk the pruned engine runs: "native" (C) or "python"."""
    return "python" if _native.load() is None else "native"


def _holds_raw(spec) -> bool:
    """True for a raw graph, or a union holding one at any depth: the closed form walks it."""
    if isinstance(spec, DisjointUnion):
        return any(_holds_raw(part) for part in spec.parts)
    return isinstance(spec, Raw)


def _cmd_poly(args) -> int:
    graph, spec = _load_graph(args)
    count, engine = _polynomial_for(graph, spec, args)
    # Loaded before the clock whenever the count walks, so a cold cache's build is not timed.
    walks = engine == "pruned" or (engine == "closed-form" and _holds_raw(spec))
    walk = _walk_name() if walks else None
    start = time.perf_counter()
    poly = count()
    elapsed = time.perf_counter() - start
    mu = poly.degree
    r_mu = poly.coefficient(mu)
    if args.json:
        print(
            json.dumps(
                {
                    "order": graph.n,
                    "edges": graph.edge_count,
                    "polynomial": poly.to_canonical_string(),
                    "pretty": poly.pretty(),
                    "mu": mu,
                    "r_mu": r_mu,
                    "engine": engine,
                    "walk": walk,
                    "seconds": elapsed,
                }
            )
        )
    else:
        label = spec_label(spec) if spec is not None else f"n={graph.n} m={graph.edge_count}"
        print(f"graph: {label}")
        print(f"polynomial: {poly.to_canonical_string()}")
        print(f"pretty: {poly.pretty()}")
        print(f"mu: {mu}  r_mu: {r_mu}")
        print(f"engine: {engine}  time: {elapsed:.3f}s")
    return EXIT_OK


def _cmd_stats(args) -> int:
    graph, _ = _load_graph(args)
    k_max = args.kmax if args.kmax is not None else graph.n
    stats = compute_stats(graph, k_max=k_max)
    payload = {"order": graph.n, "edges": graph.edge_count}
    payload.update(stats.to_json_dict())
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.spec:
        specs = [parse_class_spec(text) for text in args.spec]
    else:
        specs = paper_suite()
    results = run_verify(specs)
    failures = 0
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        line = f"{status} {result.label}: {result.closed_form.to_canonical_string()}"
        if not result.passed:
            failures += 1
            line += (
                f" (pruned {result.pruned.to_canonical_string()},"
                f" brute {result.bruteforce.to_canonical_string()})"
            )
        print(line)
    print(f"{len(results) - failures}/{len(results)} instances passed")
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_batch(args) -> int:
    if args.workers is not None and args.workers < 1:
        raise ParameterError(f"--workers must be at least 1, got {args.workers}")
    created = False
    if args.json and args.json != "-":
        # OUT is opened for append before counting, so an unwritable OUT exits 2
        # before any work, and an existing OUT keeps its bytes until the batch
        # succeeds. A FIFO is not probed: its reader would see the probe's EOF.
        try:
            fifo = stat.S_ISFIFO(os.stat(args.json).st_mode)
        except FileNotFoundError:
            fifo, created = False, True
        if not fifo:
            open(args.json, "a").close()
    try:
        reports = run_batch_file(
            args.input,
            workers=args.workers,
            skip_bad=args.skip_bad,
            keep_histogram=args.histogram,
        )
    except BaseException:
        if created:  # the file the probe made, through a dangling symlink too
            os.unlink(os.path.realpath(args.json))
        raise
    payload = {"reports": [report.to_json_dict() for report in reports]}
    if args.json == "-":
        print(json.dumps(payload, indent=2))
        return EXIT_OK
    for report in reports:
        print(
            f"order {report.order}: graphs={report.total_graphs} "
            f"groups={report.group_count} max_group={report.max_group_size}"
        )
        for poly in report.max_group_polynomials:
            print(f"  modal polynomial: {poly}")
    if args.json:
        with open(args.json, "w", encoding="ascii") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    return EXIT_OK


def _cmd_join(args) -> int:
    spec = Join(parse_class_spec(args.left), parse_class_spec(args.right))
    poly = poly_for_class(spec)
    enumerated = polynomial_pruned(build_class(spec)) if args.check else None
    print(spec_label(spec))
    print(f"polynomial: {poly.to_canonical_string()}")
    print(f"pretty: {poly.pretty()}")
    if enumerated is None:
        return EXIT_OK
    if enumerated != poly:
        print(f"check: FAIL (enumeration gives {enumerated.to_canonical_string()})")
        return EXIT_VERIFY
    print("check: PASS (matches enumeration)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="visipoly",
        description="Visibility polynomials of simple undirected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly = sub.add_parser("poly", help="polynomial of a single graph")
    _add_graph_source(poly)
    poly.add_argument(
        "--engine",
        choices=("auto", "bruteforce", "pruned", "closed-form"),
        default="auto",
    )
    poly.add_argument("--json", action="store_true", help="machine-readable output")
    poly.set_defaults(func=_cmd_poly)

    stats = sub.add_parser("stats", help="mu, r_mu, theta and clique tables")
    _add_graph_source(stats)
    stats.add_argument("--kmax", type=int, default=None, help="largest set size tabulated")
    stats.set_defaults(func=_cmd_stats)

    verify = sub.add_parser("verify", help="closed forms vs enumeration")
    verify.add_argument(
        "--spec",
        action="append",
        metavar="NAME:ARGS",
        help="verify these class specs instead of the standard suite",
    )
    verify.set_defaults(func=_cmd_verify)

    batch = sub.add_parser("batch", help="group a graph6 stream by polynomial")
    batch.add_argument("--input", required=True, metavar="FILE.g6")
    batch.add_argument(
        "--json", metavar="OUT", help="write the JSON report ('-': stdout, with no summary lines)"
    )
    batch.add_argument("--skip-bad", action="store_true", help="skip malformed records")
    batch.add_argument("--workers", type=int, default=None,
                       help="worker processes, at least 1 (default: one per CPU)")
    batch.add_argument("--histogram", action="store_true", help="keep per-group counts")
    batch.set_defaults(func=_cmd_batch)

    join = sub.add_parser("join", help="composition law for a join of two graphs")
    join.add_argument("--left", required=True, metavar="NAME:ARGS")
    join.add_argument("--right", required=True, metavar="NAME:ARGS")
    join.add_argument("--check", action="store_true", help="cross-validate by enumeration")
    join.set_defaults(func=_cmd_join)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except GuardrailError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARDRAIL


if __name__ == "__main__":
    sys.exit(main())
