"""Command-line interface.

Subcommands: gen-type, check-friendly, solve, obstructions, lemma,
construct-obstruction, reduce, prob, experiment.  Reports are flat
key=value lines, byte-deterministic for fixed inputs and seeds.  Exit
status: 0 success, 1 property-failed, 2 input error, 3 limit exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import constructions, randtypes, solver, textio
from .model import (
    COLOR_NAMES,
    PATTERNS,
    SimpleGraph,
    block_row_distinctness,
    find_subtype_copy,
    is_embedding,
    is_friendly,
    pattern_by_token,
    type_from_matrix,
    type_is_friendly,
)

def _emit(lines: list[str]) -> None:
    sys.stdout.write("".join(f"{line}\n" for line in lines))


def _read(path: str) -> str:
    # undecodable bytes become U+FFFD, so the parser names the line and column
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        return handle.read()


def _format_graph(g: SimpleGraph) -> str:
    edges = ",".join(f"{u}-{v}" for u, v in g.sorted_edges())
    return f"order:{g.n};edges:{edges}"


def _cmd_gen_type(args: argparse.Namespace) -> int:
    tau = randtypes.sample_type(randtypes.RandomSpec(args.n, args.model, args.seed))
    planted_at = ""
    if args.plant:
        tau, copy = constructions.plant_pattern(tau, args.plant, args.seed)
        planted_at = " ".join(str(v) for v in copy.image)
    with open(args.out, "w", encoding="ascii") as handle:
        handle.write(textio.serialize_type(tau))
    lines = [
        "command=gen-type",
        f"n={args.n}",
        f"model={args.model}",
        f"seed={args.seed}",
        f"planted={args.plant or 'none'}",
    ]
    if planted_at:
        lines.append(f"planted_at={planted_at}")
    lines.append(f"out={args.out}")
    lines.append(f"friendly={str(type_is_friendly(tau)).lower()}")
    _emit(lines)
    return 0


def _cmd_check_friendly(args: argparse.Namespace) -> int:
    mat = textio.parse_matrix(_read(args.matrix))
    rep = block_row_distinctness(mat)
    _emit(
        [
            "command=check-friendly",
            f"matrix={args.matrix}",
            f"m={mat.m}",
            f"friendly={str(is_friendly(mat)).lower()}",
            f"a_rows_distinct={str(rep.a_rows_distinct).lower()}",
            f"b_rows_distinct={str(rep.b_rows_distinct).lower()}",
            f"no_three_rows_equal_a={str(rep.no_three_rows_equal_a).lower()}",
            f"no_three_rows_equal_b={str(rep.no_three_rows_equal_b).lower()}",
        ]
    )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    g = textio.parse_graph(_read(args.graph))
    tau = textio.parse_type(_read(args.type))
    cfg = solver.SolverConfig(node_limit=args.node_limit)
    result = solver.find_embedding(g, tau, cfg)
    status = {solver.SAT: "found", solver.UNSAT: "none", solver.UNKNOWN: "limit"}[
        result.status
    ]
    lines = [
        "command=solve",
        f"graph={args.graph}",
        f"type={args.type}",
        f"status={status}",
        f"nodes={result.nodes}",
        f"depth={result.depth}",
    ]
    if result.map is not None:
        lines.append("map=" + " ".join(str(t) for t in result.map))
    _emit(lines)
    return 3 if result.status == solver.UNKNOWN else 0


def _cmd_obstructions(args: argparse.Namespace) -> int:
    mat = textio.parse_matrix(_read(args.matrix))
    tau = type_from_matrix(mat)
    graphs = solver.enumerate_minimal_obstructions(tau, args.max_n)
    lines = [
        "command=obstructions",
        f"matrix={args.matrix}",
        f"max_n={args.max_n}",
        f"count={len(graphs)}",
    ]
    lines.extend(
        f"graph_{k}={_format_graph(g)}" for k, g in enumerate(graphs, start=1)
    )
    _emit(lines)
    return 0


def _lemma_report_lines(report: randtypes.LemmaReport) -> list[str]:
    return [
        f"lemma={report.lemma_id}",
        f"n={report.scale}",
        f"vertices={report.vertex_count}",
        f"mode={report.mode}",
        f"samples={report.samples}",
        f"part_i={str(report.part_i_holds).lower()}",
        f"part_i_worst_size={report.worst_i_size}",
        "part_i_worst=" + " ".join(str(v) for v in report.worst_i),
        f"part_i_threshold={report.threshold_i}",
        f"part_ii={str(report.part_ii_holds).lower()}",
        f"part_ii_worst_size={report.worst_ii_size}",
        "part_ii_worst=" + " ".join(str(v) for v in report.worst_ii),
        f"part_ii_threshold={report.threshold_ii}",
    ]


def _cmd_lemma(args: argparse.Namespace) -> int:
    if (args.type_file is None) == (args.sample is None):
        raise ValueError("provide exactly one of --type-file or --sample")
    if args.type_file is not None:
        tau = textio.parse_type(_read(args.type_file))
        space = randtypes.exhaustive_tuple_space(tau, args.which)
        mode = "exhaustive" if space <= randtypes.EXHAUSTIVE_TUPLE_LIMIT else "sampled"
        report = randtypes.check_neighborhood_lemma(tau, args.which, mode=mode)
        _emit(["command=lemma", f"source={args.type_file}"] + _lemma_report_lines(report))
        return 0
    if args.seeds is None:
        raise ValueError("--sample requires --seeds")
    model = "general" if args.which == "nsize3" else "friendly"
    prop = randtypes.MCProperty(kind="lemma", model=model, lemma_id=args.which, part="both")
    (summary,) = randtypes.monte_carlo(prop, [args.sample], range(args.seeds))
    _emit(
        [
            "command=lemma",
            f"lemma={args.which}",
            f"model={model}",
            f"mode={prop.lemma_mode}:{prop.tuple_samples}",
            f"n={summary.n}",
            f"trials={summary.trials}",
            f"successes={summary.successes}",
            f"fraction={summary.fraction:.6f}",
            f"mean={summary.mean:.6f}",
            f"stddev={summary.stddev:.6f}",
        ]
    )
    return 0


def _cmd_construct_obstruction(args: argparse.Namespace) -> int:
    instance = constructions.build_planted_obstruction(args.n, args.m, args.seed)
    lines = [
        "command=construct-obstruction",
        f"n={args.n}",
        f"m={args.m}",
        f"seed={args.seed}",
        f"sigma_size={len(instance.sigma)}",
        f"graph_order={instance.graph.n}",
        f"graph_edges={len(instance.graph.edges)}",
    ]
    failed = False
    if args.check:
        embeddings_ok = True
        for i in range(1, instance.m + 1):
            psi = constructions.broken_path_embedding(instance, i)
            reduced = instance.graph.delete_vertex(instance.x_index(i))
            if not is_embedding(reduced, instance.tau, psi):
                embeddings_ok = False
        unsat = constructions.restricted_placement_unsat(instance)
        lines.append(f"check_deleted_link_embeddings={str(embeddings_ok).lower()}")
        lines.append(f"check_restricted_unsat={str(unsat).lower()}")
        failed = not (embeddings_ok and unsat)
    lines.append("instance:")
    _emit(lines)
    sys.stdout.write(textio.serialize_obstruction_instance(instance))
    return 1 if failed else 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    g = textio.parse_graph(_read(args.graph))
    tau = textio.parse_type(_read(args.type))
    pattern = pattern_by_token(args.rho)
    copy = find_subtype_copy(tau, pattern)
    if copy is None:
        raise ValueError(f"type contains no copy of pattern {args.rho!r}")
    instance = constructions.reduction_graph(g, tau, copy)
    lines = [
        "command=reduce",
        f"graph={args.graph}",
        f"type={args.type}",
        f"rho={args.rho}",
        "copy=" + " ".join(str(v) for v in copy.image),
        f"input_order={g.n}",
        f"sigma_size={len(instance.sigma)}",
        f"output_order={instance.output_graph.n}",
    ]
    failed = False
    if args.verify:
        found = solver.find_embedding(g, pattern)
        if not found.found:
            lines.append("verified=false")
            lines.append("verify_reason=input-graph-not-embeddable-into-pattern")
            failed = True
        else:
            extended = constructions.extend_embedding(found.map, instance)
            ok = is_embedding(instance.output_graph, tau, extended)
            lines.append(f"verified={str(ok).lower()}")
            failed = not ok
    lines.append("instance:")
    _emit(lines)
    sys.stdout.write(textio.serialize_reduction_instance(instance))
    return 1 if failed else 0


def _cmd_prob(args: argparse.Namespace) -> int:
    scenario = textio.parse_scenario(_read(args.scenario))
    result = randtypes.exact_membership_probability(scenario)
    _emit(
        [
            "command=prob",
            f"scenario={args.scenario}",
            f"model={scenario.model}",
            f"candidate={COLOR_NAMES[scenario.candidate_color]}",
            f"sets={len(scenario.sets)}",
            f"value={result.value}",
            f"decimal={float(result.value):.6f}",
        ]
    )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    spec = textio.parse_experiment_spec(_read(args.spec))
    summaries = randtypes.monte_carlo(spec.prop, spec.n_values, spec.seeds)
    lines = ["command=experiment", f"spec={args.spec}"]
    all_met = True
    for s in summaries:
        lines.extend(
            [
                f"property={s.property_label}",
                f"model={s.model}",
                f"n={s.n}",
                f"trials={s.trials}",
                f"successes={s.successes}",
                f"fraction={s.fraction:.6f}",
                f"mean={s.mean:.6f}",
                f"stddev={s.stddev:.6f}",
            ]
        )
        if spec.threshold is not None:
            met = s.fraction >= spec.threshold
            all_met = all_met and met
            lines.append(f"threshold={spec.threshold:.6f}")
            lines.append(f"threshold_met={str(met).lower()}")
    _emit(lines)
    return 0 if all_met else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matpart",
        description="Matrix partition problems: solvers, obstructions, "
        "random types, and reduction gadgets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-type", help="sample a random type and write it to a file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--model", choices=("friendly", "general"), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--plant", choices=tuple(PATTERNS))
    p.add_argument("--out", required=True)
    p.set_defaults(handler=_cmd_gen_type)

    p = sub.add_parser("check-friendly", help="friendliness and row-block report")
    p.add_argument("--matrix", required=True)
    p.set_defaults(handler=_cmd_check_friendly)

    p = sub.add_parser("solve", help="search for an embedding of a graph into a type")
    p.add_argument("--graph", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--node-limit", type=int)
    p.set_defaults(handler=_cmd_solve)

    p = sub.add_parser("obstructions", help="enumerate minimal obstructions")
    p.add_argument("--matrix", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.set_defaults(handler=_cmd_obstructions)

    p = sub.add_parser("lemma", help="neighborhood-bound checks")
    p.add_argument("--which", choices=("nsize", "nsize2", "nsize3"), required=True)
    p.add_argument("--type-file")
    p.add_argument("--sample", type=int)
    p.add_argument("--seeds", type=int)
    p.set_defaults(handler=_cmd_lemma)

    p = sub.add_parser(
        "construct-obstruction", help="build a planted path-gadget instance"
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.set_defaults(handler=_cmd_construct_obstruction)

    p = sub.add_parser("reduce", help="build the reduction graph for a type")
    p.add_argument("--graph", required=True)
    p.add_argument("--type", required=True)
    p.add_argument("--rho", choices=tuple(PATTERNS), default="thm3")
    p.add_argument("--verify", action="store_true")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("prob", help="exact membership probability for a scenario")
    p.add_argument("--scenario", required=True)
    p.set_defaults(handler=_cmd_prob)

    p = sub.add_parser("experiment", help="run a Monte Carlo experiment spec")
    p.add_argument("--spec", required=True)
    p.set_defaults(handler=_cmd_experiment)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError, MemoryError) as exc:  # ParseError is a ValueError
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
