"""Command-line interface.

Subcommands: ``poly`` (single-graph polynomial), ``stats`` (mu, r_mu, theta
and clique tables), ``verify`` (closed forms against enumeration) and
``batch`` (group a graph6 stream by polynomial). ``poly`` and ``stats`` read
one class spec (``--g6`` and ``--input`` give a ``Raw`` one); ``poly`` builds
no graph for a closed form, and no command builds one that a guardrail refuses
by the spec's order. Exit codes: 0 success, 2 format or parameter error,
3 verification failure, 4 guardrail refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import time
from itertools import islice
from typing import Callable

from . import enumeration
from .batch import run_batch_file
from .classes import Raw, build_class, parse_class_spec, spec_label, spec_size
from .closed_forms import poly_for_class
from .enumeration import (_check_bruteforce_guardrail, _check_pruned_guardrail,
                          polynomial_bruteforce, polynomial_pruned)
from .errors import FormatError, GuardrailError, ParameterError
from .graph import parse_edge_list
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


def _load_graph(args):
    """The requested input as one class spec: ``Raw`` for ``--g6`` and ``--input``."""
    if args.format is not None and args.input is None:
        raise ParameterError("--format applies only to --input")
    if args.g6 is not None:
        return Raw(parse_graph6(args.g6))
    if args.class_spec is not None:
        return parse_class_spec(args.class_spec)
    # A non-ASCII byte reaches the parser as a surrogate, which refuses its line.
    with open(args.input, "r", encoding="ascii", errors="surrogateescape") as handle:
        if args.format == "edgelist":
            return Raw(parse_edge_list(handle.read()))
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
        return Raw(parse_graph6(record))
    except FormatError as exc:
        raise exc.at_line(lineno) from exc


def _polynomial_for(spec, args) -> tuple[Callable[[], Polynomial], str]:
    """The call that counts the polynomial, and the name of its engine."""
    # A bare raw spec (paw, diamond, empty:N, --g6, --input) has no closed form.
    if args.engine in ("auto", "closed-form") and not isinstance(spec, Raw):
        return lambda: poly_for_class(spec), "closed-form"
    if args.engine == "closed-form":
        if args.class_spec is None:
            raise ParameterError("--engine closed-form needs --class")
        raise ParameterError(f"class {args.class_spec!r} has no closed form; use --engine pruned")
    bruteforce = args.engine == "bruteforce"
    # The engine's guardrail refuses from the spec's order, before a build it would waste.
    (_check_bruteforce_guardrail if bruteforce else _check_pruned_guardrail)(spec_size(spec)[0])
    graph = build_class(spec)  # only the enumeration engines build it, before the clock
    if bruteforce:
        return lambda: polynomial_bruteforce(graph), "bruteforce"
    return lambda: polynomial_pruned(graph), "pruned"


def _cmd_poly(args) -> int:
    spec = _load_graph(args)
    count, engine = _polynomial_for(spec, args)
    # The count names its walk, if any, and the seconds spent loading it, a build included.
    enumeration._recorder = recorder = {"walk": None, "load_s": 0.0}
    try:
        start = time.perf_counter()
        poly = count()
        elapsed = time.perf_counter() - start - recorder["load_s"]
    finally:
        enumeration._recorder = None
    order, edges = spec_size(spec)
    mu = poly.degree
    r_mu = poly.coefficient(mu)
    if args.json:
        print(
            json.dumps(
                {
                    "order": order,
                    "edges": edges,
                    "polynomial": poly.to_canonical_string(),
                    "pretty": poly.pretty(),
                    "mu": mu,
                    "r_mu": r_mu,
                    "engine": engine,
                    "walk": recorder["walk"],
                    "seconds": elapsed,
                }
            )
        )
    else:
        label = spec_label(spec) if args.class_spec is not None else f"n={order} m={edges}"
        print(f"graph: {label}")
        print(f"polynomial: {poly.to_canonical_string()}")
        print(f"pretty: {poly.pretty()}")
        print(f"mu: {mu}  r_mu: {r_mu}")
        print(f"engine: {engine}  time: {elapsed:.3f}s")
    return EXIT_OK


def _cmd_stats(args) -> int:
    spec = _load_graph(args)
    order, edges = spec_size(spec)
    _check_pruned_guardrail(order)  # the walk's own refusal, before a build it would waste
    stats = compute_stats(build_class(spec), k_max=args.kmax)
    payload = {"order": order, "edges": edges, **stats.to_json_dict()}
    print(json.dumps(payload))
    return EXIT_OK


def _cmd_verify(args) -> int:
    specs = [parse_class_spec(text) for text in args.spec] if args.spec else paper_suite()
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
