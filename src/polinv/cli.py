"""Command-line front end: argument handling and output formatting.

Output contract: one summary line (suppressed by --quiet) followed by
listing lines, all in canonical order, byte-identical across runs.
Exit codes: 0 success, 2 parse or argument error, 3 resource bound hit.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Sequence

from .clones import clone_closure, essential_variables, graph_relation
from .core import Domain, Operation, Relation, RelationSet, _check_count
from .errors import ResourceBoundError
from .galois import galois_check, inv, pol
from .limits import Limits
from .partitions import diagonal_relation, format_partition, ideal_downset, parse_partition
from .pp import eval_pp, pp_closure_of
from .workspace import load_workspace


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of writing to the process streams so run() stays pure
    def error(self, message: str) -> None:
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _format_op(name: str, op: Operation) -> str:
    return f"op {name} {op.arity} : " + " ".join(str(v) for v in op.table)


def _format_rel(name: str, rel: Relation) -> str:
    cells = " ; ".join(",".join(str(v) for v in t) for t in rel.tuples)
    head = f"rel {name} {rel.arity} :"
    return head + (" " + cells if cells else "")


def _named(items: Sequence, prefix: str) -> list[tuple[str, object]]:
    """Pair each item with its name, inventing prefix0, prefix1, ... for
    unnamed ones (skipping any name already taken)."""
    used = {item.name for item in items if item.name}
    out: list[tuple[str, object]] = []
    counter = 0
    for item in items:
        if item.name:
            out.append((item.name, item))
            continue
        while f"{prefix}{counter}" in used:
            counter += 1
        out.append((f"{prefix}{counter}", item))
        counter += 1
    return out


def _require_enum_arity(arity: int, flag: str, limits: Limits) -> None:
    _check_count(arity, "arity", 1)
    limits.check("max_enum_arity", arity, flag)


def _cmd_clone_gen(args: argparse.Namespace, limits: Limits) -> tuple[str, list[str]]:
    ws = load_workspace(args.ops, limits=limits)
    _require_enum_arity(args.max_arity, "clone-gen --max-arity", limits)
    closure = clone_closure(ws.operations, args.max_arity, limits=limits)
    lines = [_format_op(name, op) for name, op in _named(closure.ops, "f")]
    summary = f"clone-gen domain={ws.domain.size} max-arity={args.max_arity} count={len(closure)}"
    return summary, lines


def _cmd_pol(args: argparse.Namespace, limits: Limits) -> tuple[str, list[str]]:
    ws = load_workspace(args.rels, limits=limits)
    _require_enum_arity(args.arity, "pol --arity", limits)
    ops = pol(ws.relations, args.arity, limits=limits)
    lines = [_format_op(name, op) for name, op in _named(ops.ops, "f")]
    summary = f"pol domain={ws.domain.size} arity={args.arity} count={len(ops)}"
    return summary, lines


def _cmd_inv(args: argparse.Namespace, limits: Limits) -> tuple[str, list[str]]:
    ws = load_workspace(args.ops, limits=limits)
    # data files cannot hold arity-0 relations, and both would print as "rel rN 0 :"
    _check_count(args.arity, "arity", 1)
    rels = inv(ws.operations, args.arity, limits=limits)
    lines = [_format_rel(name, rel) for name, rel in _named(rels.rels, "r")]
    summary = f"inv domain={ws.domain.size} arity={args.arity} count={len(rels)}"
    return summary, lines


def _cmd_gamma(args: argparse.Namespace, limits: Limits) -> tuple[str, list[str]]:
    ws = load_workspace(args.ops, limits=limits)
    _require_enum_arity(args.arity, "gamma --arity", limits)
    rel = graph_relation(ws.operations, args.arity, limits=limits)
    lines = [_format_rel(f"gamma_{args.arity}", rel)]
    summary = f"gamma domain={ws.domain.size} arity={args.arity} count={len(rel)}"
    return summary, lines


def _cmd_ppeval(args: argparse.Namespace, limits: Limits) -> tuple[str, list[str]]:
    ws = load_workspace(args.rels + args.formula, limits=limits)
    phi = ws.formulas_by_name.get(args.name)
    if phi is None:
        raise ValueError(f"no formula named {args.name!r} in the loaded files")
    result = eval_pp(phi, ws.rels_by_name.values(), ws.domain)
    lines = [_format_rel(phi.name, result)]
    summary = f"ppeval domain={ws.domain.size} name={phi.name} arity={result.arity} count={len(result)}"
    return summary, lines


def _cmd_ppdef(args: argparse.Namespace, limits: Limits) -> tuple[str, list[str]]:
    ws = load_workspace(args.rels, limits=limits)
    target = ws.rels_by_name.get(args.target)
    if target is None:
        raise ValueError(f"no relation named {args.target!r} in the loaded files")
    others = RelationSet(ws.domain, tuple(r for n, r in ws.rels_by_name.items() if n != args.target))
    closure = pp_closure_of(target, others, limits=limits)
    if closure == target:
        lines = ["definable : yes"]
    else:
        lines = ["definable : no", _format_rel("closure", closure)]
    summary = f"ppdef domain={ws.domain.size} target={args.target} count={len(target)}"
    return summary, lines


def _cmd_diag(args: argparse.Namespace, limits: Limits) -> tuple[str, list[str]]:
    domain = Domain(args.domain)
    # diag loads no workspace, so the domain cap is checked here
    limits.check("max_domain", args.domain, "diag --domain")
    texts = [part.strip() for part in args.generators.split(";") if part.strip()]
    generators = tuple(parse_partition(text, args.kappa) for text in texts)
    ideal = ideal_downset(generators, args.kappa, limits=limits)
    rel = diagonal_relation(ideal, domain, limits=limits)
    lines = [f"partition : {format_partition(p)}" for p in ideal]
    lines.append(_format_rel("diag", rel))
    summary = f"diag domain={args.domain} kappa={args.kappa} ideal={len(ideal)} count={len(rel)}"
    return summary, lines


def _cmd_essential(args: argparse.Namespace, limits: Limits) -> tuple[str, list[str]]:
    ws = load_workspace(args.ops, limits=limits)
    op = ws.ops_by_name.get(args.name)
    if op is None:
        raise ValueError(f"no operation named {args.name!r} in the loaded files")
    ess = essential_variables(op)
    body = " ".join(str(i) for i in ess.indices)
    lines = ["indices :" + (" " + body if body else "")]
    summary = (
        f"essential domain={ws.domain.size} name={args.name} "
        f"arity={op.arity} count={len(ess.indices)}"
    )
    return summary, lines


def _cmd_check(args: argparse.Namespace, limits: Limits) -> tuple[str, list[str]]:
    ws = load_workspace(args.ops, limits=limits)
    _require_enum_arity(args.arity, "check --arity", limits)
    report = galois_check(ws.operations, args.arity, max_k=args.max_k, limits=limits)
    lines = [
        f"clone : {len(report.clone_ops)}",
        f"invariants : {report.invariant_count}",
        f"recovered : {len(report.recovered_ops)}",
        "PASS" if report.passed else "FAIL",
    ]
    for name, op in _named(report.witnesses, "w"):
        lines.append("witness " + _format_op(name, op))
    summary = f"check domain={ws.domain.size} arity={args.arity} max-k={report.max_k}"
    return summary, lines


@functools.cache  # built on the first run, then reused: parsing leaves it unchanged
def _build_parser() -> _Parser:
    parser = _Parser(
        prog="polinv",
        description="Clone and relational-clone computations on finite domains.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name: str, handler, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--quiet", action="store_true", help="suppress the summary line")
        p.set_defaults(handler=handler)
        return p

    p = command("clone-gen", _cmd_clone_gen, "close operations under composition up to an arity bound")
    p.add_argument("--ops", action="append", required=True, metavar="FILE")
    p.add_argument("--max-arity", type=int, required=True, metavar="N")

    p = command("pol", _cmd_pol, "enumerate the polymorphisms of the given relations")
    p.add_argument("--rels", action="append", required=True, metavar="FILE")
    p.add_argument("--arity", type=int, required=True, metavar="N")

    p = command("inv", _cmd_inv, "enumerate the invariant relations of the given operations")
    p.add_argument("--ops", action="append", required=True, metavar="FILE")
    p.add_argument("--arity", type=int, required=True, metavar="K")

    p = command("gamma", _cmd_gamma, "build the graph relation of the generated clone")
    p.add_argument("--ops", action="append", required=True, metavar="FILE")
    p.add_argument("--arity", type=int, required=True, metavar="N")

    p = command("ppeval", _cmd_ppeval, "evaluate a pp formula against the given relations")
    p.add_argument("--rels", action="append", required=True, metavar="FILE")
    p.add_argument("--formula", action="append", required=True, metavar="FILE")
    p.add_argument("--name", required=True, metavar="NAME")

    p = command("ppdef", _cmd_ppdef, "decide pp-definability of one relation from the others")
    p.add_argument("--rels", action="append", required=True, metavar="FILE")
    p.add_argument("--target", required=True, metavar="NAME")

    p = command("diag", _cmd_diag, "build a generalized diagonal relation from ideal generators")
    p.add_argument("--kappa", type=int, required=True, metavar="K")
    p.add_argument("--generators", required=True, metavar="PARTITIONS")
    p.add_argument("--domain", type=int, required=True, metavar="D")

    p = command("essential", _cmd_essential, "list the essential variable positions of an operation")
    p.add_argument("--ops", action="append", required=True, metavar="FILE")
    p.add_argument("--name", required=True, metavar="NAME")

    p = command("check", _cmd_check, "verify the bounded Pol-Inv correspondence for a generated clone")
    p.add_argument("--ops", action="append", required=True, metavar="FILE")
    p.add_argument("--arity", type=int, required=True, metavar="N")
    p.add_argument("--max-k", type=int, default=None, metavar="K")

    return parser


def run(argv: Sequence[str]) -> tuple[int, str, str]:
    """Execute one invocation; returns (exit code, stdout text, stderr text)."""
    try:
        args = _build_parser().parse_args(list(argv))
    except _UsageError as exc:
        return 2, "", str(exc).rstrip() + "\n"
    except SystemExit as exc:  # --help prints directly and exits 0
        code = exc.code if isinstance(exc.code, int) else 0
        return code, "", ""
    try:
        limits = Limits.from_env()
        summary, lines = args.handler(args, limits)
    except ResourceBoundError as exc:
        return 3, "", f"error: {exc}\n"
    except (ValueError, OSError) as exc:
        return 2, "", f"error: {exc}\n"
    shown = lines if args.quiet else [summary, *lines]
    return 0, "".join(line + "\n" for line in shown), ""


def main(argv: Sequence[str] | None = None) -> int:
    code, out, err = run(sys.argv[1:] if argv is None else argv)
    sys.stdout.write(out)
    sys.stderr.write(err)
    return code
