"""Loading operation, relation, and formula files into a workspace.

Data file format, line oriented:

    domain 2
    op AND 2
    0 0 0 1
    rel leq 2
    0 0
    0 1
    1 1
    end

One "domain d" header per file; "op NAME ARITY" is followed by d^ARITY
whitespace-separated table entries (line breaks free), "rel NAME ARITY"
by one tuple per line until "end".  A file whose first word is "def" is
a formula file in the pp grammar instead.  Names are unique per kind
across all loaded files and every file must declare the same domain.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .core import Domain, Operation, OperationSet, Relation, RelationSet
from .errors import ParseError, ResourceBoundError
from .limits import DEFAULT_LIMITS, Limits
from .pp import PPFormula, parse_pp_file

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class Workspace:
    domain: Domain
    operations: OperationSet
    relations: RelationSet
    formulas: tuple[PPFormula, ...]
    ops_by_name: dict[str, Operation] = field(compare=False)
    rels_by_name: dict[str, Relation] = field(compare=False)
    formulas_by_name: dict[str, PPFormula] = field(compare=False)


def _parse_int(token: str, what: str, path: str, line: int) -> int:
    if not re.fullmatch(r"\d+", token):
        raise ParseError(f"{what} must be a nonnegative integer, got {token!r}", source=path, line=line)
    return int(token)


class _DataFileParser:
    def __init__(self, path: str, text: str) -> None:
        self.path = path
        self.lines = text.splitlines()
        self.pos = 0
        self.domain: Domain | None = None
        self.ops: list[tuple[str, Operation, int]] = []  # name, op, line
        self.rels: list[tuple[str, Relation, int]] = []

    def _next_line(self) -> tuple[int, str] | None:
        while self.pos < len(self.lines):
            self.pos += 1
            stripped = self.lines[self.pos - 1].strip()
            if stripped:
                return self.pos, stripped
        return None

    def run(self) -> None:
        first = self._next_line()
        if first is None:
            raise ParseError("empty file", source=self.path, line=1)
        lineno, text = first
        parts = text.split()
        if parts[0] != "domain" or len(parts) != 2:
            raise ParseError("expected 'domain N' header", source=self.path, line=lineno)
        size = _parse_int(parts[1], "domain size", self.path, lineno)
        self.domain = Domain(size)
        while (entry := self._next_line()) is not None:
            lineno, text = entry
            parts = text.split()
            if parts[0] == "op":
                self._parse_op(parts, lineno)
            elif parts[0] == "rel":
                self._parse_rel(parts, lineno)
            elif parts[0] == "domain":
                raise ParseError("duplicate 'domain' header", source=self.path, line=lineno)
            else:
                raise ParseError(f"unknown directive {parts[0]!r}", source=self.path, line=lineno)

    def _require_name(self, token: str, lineno: int) -> str:
        if not _NAME_RE.match(token):
            raise ParseError(f"bad name {token!r}", source=self.path, line=lineno)
        return token

    def _parse_op(self, parts: list[str], lineno: int) -> None:
        if len(parts) != 3:
            raise ParseError("expected 'op NAME ARITY'", source=self.path, line=lineno)
        name = self._require_name(parts[1], lineno)
        arity = _parse_int(parts[2], "arity", self.path, lineno)
        need = self.domain.size**arity
        entries: list[int] = []
        while len(entries) < need:
            entry = self._next_line()
            if entry is None:
                raise ParseError(
                    f"table for {name} needs {need} entries, file ended after {len(entries)}",
                    source=self.path,
                    line=len(self.lines),
                )
            elineno, text = entry
            for token in text.split():
                entries.append(_parse_int(token, "table entry", self.path, elineno))
            if len(entries) > need:
                raise ParseError(
                    f"table for {name} needs {need} entries, got {len(entries)}",
                    source=self.path,
                    line=elineno,
                )
        try:
            op = Operation(self.domain, arity, tuple(entries), name=name)
        except ValueError as exc:
            raise ParseError(str(exc), source=self.path, line=lineno) from exc
        self.ops.append((name, op, lineno))

    def _parse_rel(self, parts: list[str], lineno: int) -> None:
        if len(parts) != 3:
            raise ParseError("expected 'rel NAME ARITY'", source=self.path, line=lineno)
        name = self._require_name(parts[1], lineno)
        arity = _parse_int(parts[2], "arity", self.path, lineno)
        if arity < 1:
            raise ParseError("relation arity in files must be at least 1", source=self.path, line=lineno)
        tuples: list[tuple[int, ...]] = []
        while True:
            entry = self._next_line()
            if entry is None:
                raise ParseError(
                    f"relation {name} not terminated by 'end'", source=self.path, line=len(self.lines)
                )
            elineno, text = entry
            if text.strip() == "end":
                break
            tokens = text.split()
            if len(tokens) != arity:
                raise ParseError(
                    f"tuple has {len(tokens)} entries, relation {name} has arity {arity}",
                    source=self.path,
                    line=elineno,
                )
            tuples.append(tuple(_parse_int(t, "tuple entry", self.path, elineno) for t in tokens))
        try:
            rel = Relation(self.domain, arity, tuple(tuples), name=name)
        except ValueError as exc:
            raise ParseError(str(exc), source=self.path, line=lineno) from exc
        self.rels.append((name, rel, lineno))


def _is_formula_file(text: str) -> bool:
    for line in text.splitlines():
        stripped = line.strip()
        if stripped:
            return stripped.split()[0] == "def" or stripped.startswith("def(")
    return False


def load_workspace(paths: Sequence[str], *, limits: Limits = DEFAULT_LIMITS) -> Workspace:
    """Parse and merge the given files; order-independent by construction
    (files are processed in sorted path order and names must not clash)."""
    ops_by_name: dict[str, Operation] = {}
    rels_by_name: dict[str, Relation] = {}
    formulas_by_name: dict[str, PPFormula] = {}
    domain: Domain | None = None
    domain_source: str | None = None
    for path in sorted(str(p) for p in paths):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if _is_formula_file(text):
            try:
                formulas = parse_pp_file(text)
            except ParseError as exc:
                raise ParseError(exc.message, source=path, line=exc.line, column=exc.column) from exc
            for phi in formulas:
                if phi.name in formulas_by_name:
                    raise ParseError(f"duplicate formula name {phi.name!r}", source=path)
                formulas_by_name[phi.name] = phi
            continue
        parser = _DataFileParser(path, text)
        parser.run()
        if domain is None:
            domain = parser.domain
            domain_source = path
        elif parser.domain != domain:
            raise ParseError(
                f"domain {parser.domain.size} conflicts with domain {domain.size} from {domain_source}",
                source=path,
            )
        for name, op, lineno in parser.ops:
            if name in ops_by_name:
                raise ParseError(f"duplicate operation name {name!r}", source=path, line=lineno)
            ops_by_name[name] = op
        for name, rel, lineno in parser.rels:
            if name in rels_by_name:
                raise ParseError(f"duplicate relation name {name!r}", source=path, line=lineno)
            rels_by_name[name] = rel
    if domain is None:
        raise ParseError("no data file declared a domain")
    if domain.size > limits.max_domain:
        raise ResourceBoundError(f"domain size {domain.size} exceeds cap {limits.max_domain}")
    return Workspace(
        domain=domain,
        operations=OperationSet(domain, tuple(ops_by_name.values())),
        relations=RelationSet(domain, tuple(rels_by_name.values())),
        formulas=tuple(formulas_by_name.values()),
        ops_by_name=ops_by_name,
        rels_by_name=rels_by_name,
        formulas_by_name=formulas_by_name,
    )
