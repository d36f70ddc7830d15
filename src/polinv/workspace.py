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
across all loaded files, and every file must declare the same domain.

Each file is read in one walk over its nonblank lines and turned into
(kind, name, value, line) items; one check then refuses a name defined
twice, naming the file and the line of the second definition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence, Union

from .core import Domain, Operation, OperationSet, Relation, RelationSet
from .errors import ParseError
from .limits import DEFAULT_LIMITS, Limits, _power
from .pp import _NAME, PPFormula, _Parser

_NAME_RE = re.compile(rf"{_NAME}\Z")
_KINDS = {"op": "operation", "rel": "relation"}

# kind ("operation", "relation" or "formula"), name, value, line
_Item = tuple[str, str, Union[Operation, Relation, PPFormula], int]


@dataclass(frozen=True)
class Workspace:
    domain: Domain
    operations: OperationSet
    relations: RelationSet
    formulas: tuple[PPFormula, ...]
    ops_by_name: dict[str, Operation] = field(compare=False)
    rels_by_name: dict[str, Relation] = field(compare=False)
    formulas_by_name: dict[str, PPFormula] = field(compare=False)


def _nonblank(lines: list[str]) -> Iterator[tuple[int, list[str]]]:
    """(line number from 1, words) for each line holding a word."""
    for number, line in enumerate(lines, 1):
        words = line.split()
        if words:
            yield number, words


def _parse_data_file(path: str, text: str, limits: Limits) -> tuple[Domain, list[_Item]]:
    """The domain of one data file and its operations and relations, in
    file order.  A block cut short by the end of the file is reported at
    the file's last line, blank lines counted; a table or tuple longer
    than the materialization cap is refused at its header."""
    lines = text.splitlines()
    rows = _nonblank(lines)

    def fail(message: str, line: int = len(lines)) -> ParseError:
        return ParseError(message, source=path, line=line)

    def number(word: str, what: str, line: int) -> int:
        if not re.fullmatch(r"\d+", word):
            raise fail(f"{what} must be a nonnegative integer, got {word!r}", line)
        return int(word)

    def build(make: Callable, line: int, *args, **kwargs):
        try:
            return make(*args, **kwargs)
        except ValueError as exc:
            raise fail(str(exc), line) from exc

    line, words = next(rows, (1, None))
    if words is None:
        raise fail("empty file", line)
    if words[0] != "domain" or len(words) != 2:
        raise fail("expected 'domain N' header", line)
    domain = build(Domain, line, number(words[1], "domain size", line))
    items: list[_Item] = []
    for line, (kind, *header) in rows:
        if kind not in _KINDS:
            raise fail("duplicate 'domain' header" if kind == "domain" else f"unknown directive {kind!r}", line)
        if len(header) != 2:
            raise fail(f"expected '{kind} NAME ARITY'", line)
        name = header[0]
        if not _NAME_RE.match(name):
            raise fail(f"bad name {name!r}", line)
        arity = number(header[1], "arity", line)
        if kind == "rel" and arity < 1:
            raise fail("relation arity in files must be at least 1", line)
        # an op's table holds d^arity entries (exact within the cap, see
        # _power), each of a rel's tuples arity entries
        cap = limits.max_materialize
        if kind == "op":
            need, shown = _power(domain.size, arity, cap)
            what = f"table for {name}"
        else:
            need, what, shown = arity, f"tuple for {name}", arity
        if need > cap:
            raise fail(f"{what} needs {shown} entries, more than max_materialize ({cap})", line)
        body: list = []
        if kind == "op":
            while len(body) < need:
                at, words = next(rows, (None, None))
                if words is None:
                    raise fail(f"table for {name} needs {need} entries, file ended after {len(body)}")
                body += (number(w, "table entry", at) for w in words)
                if len(body) > need:
                    raise fail(f"table for {name} needs {need} entries, got {len(body)}", at)
        else:
            for at, words in rows:
                if words == ["end"]:
                    break
                if len(words) != arity:
                    raise fail(f"tuple has {len(words)} entries, relation {name} has arity {arity}", at)
                body.append(tuple(number(w, "tuple entry", at) for w in words))
            else:
                raise fail(f"relation {name} not terminated by 'end'")
        value = build(Operation if kind == "op" else Relation, line, domain, arity, tuple(body), name=name)
        items.append((_KINDS[kind], name, value, line))
    return domain, items


def _parse_formula_file(path: str, text: str) -> list[_Item]:
    """The formulas of one file, each at the line of its "def"."""
    try:
        return [("formula", phi.name, phi, line) for line, phi in _Parser(text).formulas()]
    except ParseError as exc:
        raise ParseError(exc.message, source=path, line=exc.line, column=exc.column) from exc


def load_workspace(paths: Sequence[str], *, limits: Limits = DEFAULT_LIMITS) -> Workspace:
    """Parse and merge the given files; order-independent by construction
    (files are processed in sorted path order and names must not clash).
    A malformed file, a domain conflict or a name defined twice raises
    ParseError naming the file and, where there is one, the line."""
    by_name: dict[str, dict] = {"operation": {}, "relation": {}, "formula": {}}
    domain: Domain | None = None
    domain_source: str | None = None
    for path in sorted(str(p) for p in paths):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        first = (text.split(None, 1) or [""])[0]
        if first == "def" or first.startswith("def("):
            items = _parse_formula_file(path, text)
        else:
            file_domain, items = _parse_data_file(path, text, limits)
            if domain is None:
                domain, domain_source = file_domain, path
            elif file_domain != domain:
                raise ParseError(
                    f"domain {file_domain.size} conflicts with domain {domain.size} from {domain_source}",
                    source=path,
                )
        for kind, name, value, line in items:
            if name in by_name[kind]:
                raise ParseError(f"duplicate {kind} name {name!r}", source=path, line=line)
            by_name[kind][name] = value
    if domain is None:
        raise ParseError("no data file declared a domain")
    limits.check("max_domain", domain.size, "workspace domain")
    ops_by_name, rels_by_name, formulas_by_name = by_name.values()
    return Workspace(
        domain=domain,
        operations=OperationSet(domain, tuple(ops_by_name.values())),
        relations=RelationSet(domain, tuple(rels_by_name.values())),
        formulas=tuple(formulas_by_name.values()),
        ops_by_name=ops_by_name,
        rels_by_name=rels_by_name,
        formulas_by_name=formulas_by_name,
    )
