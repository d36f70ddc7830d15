"""Primitive positive formulas: parsing, evaluation, definability.

Grammar (whitespace-insensitive between tokens):

    formula := "def" NAME "(" varlist ")" ":=" body
    body    := "true" | [ "exists" varlist "." ] atom { "&" atom }
    atom    := NAME "(" varlist ")" | VAR "=" VAR
    varlist := VAR { "," VAR }
    NAME, VAR := [A-Za-z_][A-Za-z0-9_]*

"def", "exists" and "true" are reserved words.  A body of "true" is the
empty conjunction, so the formula defines the full relation on its free
variables.

Parsing is one regex pass that cuts the text into tokens, then recursive
descent over them.  Every malformed text raises ParseError with the line
and column of the first offending token.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Union

from .core import Domain, Operation, Relation, RelationSet, row_images
from .errors import ParseError
from .galois import _table_search
from .limits import DEFAULT_LIMITS, Limits

_KEYWORDS = frozenset({"def", "exists", "true"})


@dataclass(frozen=True)
class RelationAtom:
    relation: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("relation atom needs at least one variable")

    def to_text(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


@dataclass(frozen=True)
class EqualityAtom:
    left: str
    right: str

    def to_text(self) -> str:
        return f"{self.left} = {self.right}"


Atom = Union[RelationAtom, EqualityAtom]


def _atom_variables(atom: Atom) -> tuple[str, ...]:
    if isinstance(atom, RelationAtom):
        return atom.variables
    return (atom.left, atom.right)


@dataclass(frozen=True)
class PPFormula:
    """A named pp formula: free variables, existential variables, atoms."""

    name: str
    free_vars: tuple[str, ...]
    exist_vars: tuple[str, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "free_vars", tuple(self.free_vars))
        object.__setattr__(self, "exist_vars", tuple(self.exist_vars))
        object.__setattr__(self, "atoms", tuple(self.atoms))
        if not self.free_vars:
            raise ValueError("a formula needs at least one free variable")
        declared: set[str] = set()
        for v in self.free_vars + self.exist_vars:
            if v in declared:
                raise ValueError(f"duplicate variable declaration: {v}")
            declared.add(v)
        for atom in self.atoms:
            for v in _atom_variables(atom):
                if v not in declared:
                    raise ValueError(f"undeclared variable: {v}")

    @property
    def arity(self) -> int:
        return len(self.free_vars)

    def to_text(self) -> str:
        """Canonical one-line form; parsing it back reproduces the formula.

        The one degenerate case, existential variables with no atoms, has
        no grammar spelling and canonicalizes to the equivalent "true".
        """
        head = f"def {self.name}({', '.join(self.free_vars)}) := "
        if not self.atoms:
            return head + "true"
        body = ""
        if self.exist_vars:
            body += f"exists {', '.join(self.exist_vars)} . "
        body += " & ".join(a.to_text() for a in self.atoms)
        return head + body


# One pattern scans the whole text: the group that matches says whether a
# piece is a name, punctuation, whitespace or a stray character.
_TOKEN_RE = re.compile(r"(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>:=|[(),.&=])|(?P<space>\s+)|(?P<stray>.)")

# (text, line, column, is_name), line and column counted from 1
_Tok = tuple[str, int, int, bool]


def _error(message: str, tok: _Tok) -> ParseError:
    return ParseError(message, line=tok[1], column=tok[2])


def _tokenize(text: str) -> list[_Tok]:
    """Every token of text in one pass; a stray character is an error."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "space":
            newlines = m.group().count("\n")
            if newlines:
                line += newlines
                line_start = m.start() + m.group().rfind("\n") + 1
            continue
        tok = (m.group(), line, m.start() - line_start + 1, kind == "name")
        if kind == "stray":
            raise _error(f"unexpected character {m.group()!r}", tok)
        tokens.append(tok)
    return tokens


def _declare(toks: list[_Tok], declared: set[str]) -> tuple[str, ...]:
    """Add the variables of a head or exists list, refusing a repeat."""
    for tok in toks:
        if tok[0] in declared:
            raise _error(f"duplicate variable declaration: {tok[0]}", tok)
        declared.add(tok[0])
    return tuple(tok[0] for tok in toks)


def _use(toks: list[_Tok], declared: set[str]) -> tuple[str, ...]:
    """The variables of an atom, each of which must be declared."""
    for tok in toks:
        if tok[0] not in declared:
            raise _error(f"undeclared variable: {tok[0]}", tok)
    return tuple(tok[0] for tok in toks)


class _Parser:
    """Recursive descent over the tokens of one text, one formula at a time.

    Each rule reports the first error it meets at the offending token; a
    text that ends early is reported just past its last token, or at 1:1
    when it has none.
    """

    def __init__(self, text: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> str | None:
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def take(self, expected: str | None = None) -> _Tok:
        if self.pos == len(self.tokens):
            text, line, column, _ = self.tokens[-1] if self.tokens else ("", 1, 1, False)
            suffix = f", expected {expected!r}" if expected else ""
            raise ParseError("unexpected end of input" + suffix, line=line, column=column + len(text))
        tok = self.tokens[self.pos]
        if expected is not None and tok[0] != expected:
            raise _error(f"expected {expected!r}, found {tok[0]!r}", tok)
        self.pos += 1
        return tok

    def name(self, what: str) -> _Tok:
        tok = self.take()
        if not tok[3]:
            raise _error(f"expected {what}, found {tok[0]!r}", tok)
        if tok[0] in _KEYWORDS:
            raise _error(f"reserved word {tok[0]!r} cannot be used as {what}", tok)
        return tok

    def names(self) -> list[_Tok]:
        """varlist := VAR { "," VAR }"""
        out = [self.name("a variable")]
        while self.peek() == ",":
            self.pos += 1
            out.append(self.name("a variable"))
        return out

    def formula(self) -> PPFormula:
        self.take("def")
        name = self.name("a formula name")[0]
        self.take("(")
        free = self.names()
        self.take(")")
        self.take(":=")
        declared: set[str] = set()
        free_vars = _declare(free, declared)
        if self.peek() == "true":
            self.pos += 1
            return PPFormula(name, free_vars, (), ())
        exist_vars: tuple[str, ...] = ()
        if self.peek() == "exists":
            self.pos += 1
            exist = self.names()
            self.take(".")
            exist_vars = _declare(exist, declared)
        atoms: list[Atom] = []
        while True:
            head = self.name("a relation name or variable")
            follow = self.peek()
            if follow == "(":
                self.pos += 1
                args = self.names()
                self.take(")")
                atoms.append(RelationAtom(head[0], _use(args, declared)))
            elif follow == "=":
                self.pos += 1
                atoms.append(EqualityAtom(*_use([head, self.name("a variable")], declared)))
            else:
                where = head if follow is None else self.tokens[self.pos]
                raise _error("expected '(' or '=' after name in atom", where)
            if self.peek() != "&":
                return PPFormula(name, free_vars, exist_vars, tuple(atoms))
            self.pos += 1

    def formulas(self) -> Iterator[tuple[int, PPFormula]]:
        """Each formula to the end of the text, with the line of its "def"."""
        while self.pos < len(self.tokens):
            yield self.tokens[self.pos][1], self.formula()


def parse_pp(text: str) -> PPFormula:
    """Parse exactly one formula."""
    parser = _Parser(text)
    formula = parser.formula()
    if parser.peek() is not None:
        trailing = parser.tokens[parser.pos]
        raise _error(f"unexpected trailing input {trailing[0]!r}", trailing)
    return formula


def parse_pp_file(text: str) -> tuple[PPFormula, ...]:
    """Parse a sequence of formulas (each starting with "def")."""
    return tuple(phi for _, phi in _Parser(text).formulas())


def _atom_table(
    atom: Atom, env: dict[str, Relation], domain: Domain
) -> tuple[list[str], set[tuple[int, ...]]]:
    """Variables (first occurrence order, deduplicated) and satisfying rows.

    An equality atom x = y is the rows (a, a) over (x, y).  A variable
    repeated in an atom, x = x included, keeps the rows that agree at its
    positions, projected onto its first one."""
    if isinstance(atom, EqualityAtom):
        variables, tuples = _atom_variables(atom), [(a, a) for a in domain.elements()]
    else:
        rel = env.get(atom.relation)
        if rel is None:
            raise ValueError(f"unbound relation name: {atom.relation}")
        if rel.arity != len(atom.variables):
            raise ValueError(
                f"relation {atom.relation} has arity {rel.arity}, "
                f"atom supplies {len(atom.variables)} variables"
            )
        variables, tuples = atom.variables, rel.tuples
    first_at: dict[str, int] = {}
    for j, v in enumerate(variables):
        first_at.setdefault(v, j)
    repeats = [(j, first_at[v]) for j, v in enumerate(variables) if first_at[v] != j]
    if not repeats:
        return list(first_at), set(tuples)
    keep = list(first_at.values())
    rows = {tuple(t[j] for j in keep) for t in tuples if all(t[j] == t[i] for j, i in repeats)}
    return list(first_at), rows


def _join(
    left: tuple[list[str], set[tuple[int, ...]]],
    right: tuple[list[str], set[tuple[int, ...]]],
) -> tuple[list[str], set[tuple[int, ...]]]:
    lvars, lrows = left
    rvars, rrows = right
    common = [v for v in rvars if v in lvars]
    lpos = [lvars.index(v) for v in common]
    rpos = [rvars.index(v) for v in common]
    extra = [j for j, v in enumerate(rvars) if v not in lvars]
    index: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for row in rrows:
        index.setdefault(tuple(row[j] for j in rpos), []).append(tuple(row[j] for j in extra))
    out = set()
    for row in lrows:
        for tail in index.get(tuple(row[j] for j in lpos), ()):
            out.add(row + tail)
    return lvars + [rvars[j] for j in extra], out


def eval_pp(formula: PPFormula, env: Iterable[Relation], domain: Domain) -> Relation:
    """Evaluate by joining atoms left to right, then projecting onto the
    free variables.  Free variables constrained by no atom range over the
    whole domain.  env is any iterable of relations, a RelationSet among
    them; atoms look its members up by name."""
    named: dict[str, Relation] = {}
    for r in env:
        if r.domain != domain:
            raise ValueError("environment relation over a different domain")
        if r.name in named:
            raise ValueError(f"environment holds two relations named {r.name!r}")
        if r.name:
            named[r.name] = r
    vars_cur: list[str] = []
    rows_cur: set[tuple[int, ...]] = {()}
    for atom in formula.atoms:
        vars_cur, rows_cur = _join((vars_cur, rows_cur), _atom_table(atom, named, domain))
    for v in formula.free_vars:
        if v not in vars_cur:
            vars_cur = vars_cur + [v]
            rows_cur = {row + (a,) for row in rows_cur for a in domain.elements()}
    positions = [vars_cur.index(v) for v in formula.free_vars]
    tuples = {tuple(row[p] for p in positions) for row in rows_cur}
    return Relation(domain, formula.arity, tuple(tuples), name=formula.name)


def _reachable(
    r: Relation, rels: RelationSet, limits: Limits
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each tuple x outside r that some len(r)-ary polymorphism of rels
    maps r's columns to, with the first such table found.

    One pinned, first-solution run of pol's backtracker per x: the cells
    indexed by r's columns are pinned to the entries of x (for an empty r
    the one nullary cell is pinned, so x ranges over the constant tuples).
    """
    if r.domain != rels.domain:
        raise ValueError("relation and environment over different domains")
    d = r.domain.size
    t = len(r)
    search = _table_search(rels, t, limits)
    (cells,) = row_images(range(d**t), d, r.arity, [(row,) for row in r.tuples])
    # x is fixed by its values on the distinct cells, so equal columns
    # take one value and no x with conflicting pins is ever tried
    pinned = sorted(set(cells))
    members = set(r.tuples)
    for values in product(range(d), repeat=len(pinned)):
        pins = dict(zip(pinned, values))
        x = tuple(pins[c] for c in cells)
        if x not in members:
            for table in search(pins, True):
                yield x, table


def pp_closure_of(r: Relation, rels: RelationSet, *, limits: Limits = DEFAULT_LIMITS) -> Relation:
    """Least relation of r's arity containing r and invariant under every
    operation preserving all of rels.

    The t-ary polymorphisms (t = len(r)) applied coordinatewise to r's t
    rows yield exactly this superset, so a tuple x outside r belongs to it
    iff some polymorphism maps r's columns to x.  Each x is decided by one
    early-exit search of pol's backtracker with r's column cells pinned to
    x, rather than by listing all of pol(rels, t).  An empty r uses the
    arity-0 polymorphisms, whose constant tuples are forced into any
    invariant superset.
    """
    out = set(r.tuples)
    out.update(x for x, _ in _reachable(r, rels, limits))
    return Relation(r.domain, r.arity, tuple(out), name=r.name)


def pp_witness(r: Relation, rels: RelationSet, *, limits: Limits = DEFAULT_LIMITS) -> Operation | None:
    """A len(r)-ary polymorphism of rels that does not preserve r, or None
    when r is pp-definable from rels.  It maps r's rows to a tuple outside
    r, so preserves() confirms it; for an empty r it is a nullary constant.
    The search stops at the first tuple outside r that any polymorphism
    reaches."""
    for _, table in _reachable(r, rels, limits):
        return Operation(r.domain, len(r), table)
    return None


def is_pp_definable(r: Relation, rels: RelationSet, *, limits: Limits = DEFAULT_LIMITS) -> bool:
    """True iff r equals its own invariant closure over rels, that is, iff
    pp_witness finds no polymorphism of rels that breaks r."""
    return pp_witness(r, rels, limits=limits) is None
