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

Parsing is one findall of a token pattern, which cuts the text into token
strings, then recursive descent over them.  Every malformed text raises
ParseError at the line and column of its first stray character, or else of
its first offending token.  Positions are computed only for that error and
for the line of each "def" in a file, by rescanning with the same pattern.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import reduce
from itertools import chain, filterfalse, islice, product
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Union

from .core import Domain, Operation, Relation, RelationSet, _built, _row_key, row_images
from .errors import ParseError
from .galois import _constraints, _tables
from .limits import DEFAULT_LIMITS, Limits

_KEYWORDS = frozenset({"def", "exists", "true"})
_NAME = "[A-Za-z_][A-Za-z0-9_]*"
_SPELLABLE = re.compile(rf"(?!(?:{'|'.join(_KEYWORDS)})\Z){_NAME}\Z").match


def _check_names(names: tuple[str, ...], what: str) -> None:
    """Refuse a reserved word or a non-NAME, which the grammar cannot spell,
    in the parser's words; one match per name, since every parse runs this."""
    for bad in filterfalse(_SPELLABLE, names):
        raise ValueError(f"reserved word {bad!r} cannot be used as {what}" if bad in _KEYWORDS
                         else f"expected {what}, found {bad!r}")


@dataclass(frozen=True)
class RelationAtom:
    relation: str
    variables: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        if not self.variables:
            raise ValueError("relation atom needs at least one variable")
        _check_names((self.relation,), "a relation name")
        _check_names(self.variables, "a variable")

    def to_text(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"


@dataclass(frozen=True)
class EqualityAtom:
    left: str
    right: str

    def __post_init__(self) -> None:
        _check_names(self.variables, "a variable")

    @property
    def variables(self) -> tuple[str, str]:
        return (self.left, self.right)

    def to_text(self) -> str:
        return f"{self.left} = {self.right}"


Atom = Union[RelationAtom, EqualityAtom]


@dataclass(frozen=True)
class PPFormula:
    """A named pp formula: free variables, existential variables, atoms;
    every name one the grammar can spell, so to_text parses back."""

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
        declared = self.free_vars + self.exist_vars
        _check_names((self.name,), "a formula name")
        _check_names(declared, "a variable")
        if len(set(declared)) < len(declared):
            repeat = next(v for i, v in enumerate(declared) if v in declared[:i])
            raise ValueError(f"duplicate variable declaration: {repeat}")
        used = list(chain.from_iterable(atom.variables for atom in self.atoms))
        if not set(declared).issuperset(used):
            raise ValueError(f"undeclared variable: {next(v for v in used if v not in declared)}")

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
        exists = f"exists {', '.join(self.exist_vars)} . " if self.exist_vars else ""
        return head + exists + " & ".join([a.to_text() for a in self.atoms])


# A token is a name, a piece of punctuation or, failing both, one stray
# non-whitespace character; the whitespace between tokens matches nothing.
_TOKEN_RE = re.compile(rf"{_NAME}|:=|[(),.&=]|\S")
_NAME_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_PUNCT = frozenset({":=", "(", ")", ",", ".", "&", "="})


class _Parser:
    """Recursive descent over the token strings of one text, one formula at
    a time.  Each rule reports the first error it meets at the offending
    token; a text that ends early is reported just past its last token, or
    at 1:1 when it has none.  A stray character outranks them all (see fail).
    """

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = _TOKEN_RE.findall(text)
        self.pos = 0

    def fail(self, message: str, at: int) -> ParseError:
        """The error for message at token number at or, if the text holds a
        stray character, for the first one.  A parse that succeeds has matched
        every token as a name or punctuation, so strays are sought only here."""
        for i, tok in enumerate(self.tokens):
            if tok[0] not in _NAME_START and tok not in _PUNCT:
                message, at = f"unexpected character {tok!r}", i
                break
        offset = 0
        if self.tokens:
            match = next(islice(_TOKEN_RE.finditer(self.text), min(at, len(self.tokens) - 1), None))
            offset = match.start() if at < len(self.tokens) else match.end()
        column = offset - self.text.rfind("\n", 0, offset)
        return ParseError(message, line=self.text.count("\n", 0, offset) + 1, column=column)

    def accept(self, text: str) -> bool:
        """Take the next token if it is text."""
        if self.pos < len(self.tokens) and self.tokens[self.pos] == text:
            self.pos += 1
            return True
        return False

    def take(self, expected: str | None = None) -> str:
        if self.pos == len(self.tokens):
            raise self.fail("unexpected end of input" + (f", expected {expected!r}" if expected else ""), self.pos)
        tok = self.tokens[self.pos]
        if expected is not None and tok != expected:
            raise self.fail(f"expected {expected!r}, found {tok!r}", self.pos)
        self.pos += 1
        return tok

    def name(self, what: str) -> str:
        tok = self.take()
        if tok[0] not in _NAME_START:
            raise self.fail(f"expected {what}, found {tok!r}", self.pos - 1)
        if tok in _KEYWORDS:
            raise self.fail(f"reserved word {tok!r} cannot be used as {what}", self.pos - 1)
        return tok

    def names(self) -> tuple[str, ...]:
        """varlist := VAR { "," VAR }, whose names are every other token"""
        start = self.pos
        self.name("a variable")
        while self.accept(","):
            self.name("a variable")
        return tuple(self.tokens[start : self.pos : 2])

    def vet(self, names: tuple[str, ...], at: int, declared: set[str], new: bool) -> tuple[str, ...]:
        """names, at every other token from token at.  New ones (a head or
        exists list) must be missing from declared and join it; an atom's must be in it."""
        for i, v in enumerate(names):
            if (v in declared) == new:
                message = "duplicate variable declaration" if new else "undeclared variable"
                raise self.fail(f"{message}: {v}", at + 2 * i)
            declared.add(v)
        return names

    def formula(self) -> PPFormula:
        """One formula.  name and vet have checked every name and
        declaration the constructors check, so the atoms and the formula
        are built without checking them again."""
        self.take("def")
        name = self.name("a formula name")
        self.take("(")
        at = self.pos
        free_vars = self.names()
        self.take(")")
        self.take(":=")
        declared: set[str] = set()
        self.vet(free_vars, at, declared, True)
        if self.accept("true"):
            return _built(PPFormula, name=name, free_vars=free_vars, exist_vars=(), atoms=())
        exist_vars: tuple[str, ...] = ()
        if self.accept("exists"):
            at = self.pos
            exist_vars = self.names()
            self.take(".")
            self.vet(exist_vars, at, declared, True)
        atoms: list[Atom] = []
        while True:
            at = self.pos
            head = self.name("a relation name or variable")
            if self.accept("("):
                args = self.names()
                self.take(")")
                atoms.append(_built(RelationAtom, relation=head, variables=self.vet(args, at + 2, declared, False)))
            elif self.accept("="):
                left, right = self.vet((head, self.name("a variable")), at, declared, False)
                atoms.append(_built(EqualityAtom, left=left, right=right))
            else:  # at the name itself when the text ends there
                where = at if self.pos == len(self.tokens) else self.pos
                raise self.fail("expected '(' or '=' after name in atom", where)
            if not self.accept("&"):
                return _built(PPFormula, name=name, free_vars=free_vars, exist_vars=exist_vars, atoms=tuple(atoms))

    def formulas(self) -> Iterator[tuple[int, PPFormula]]:
        """Each formula to the end of the text, with the line of its "def"."""
        starts = map(re.Match.start, _TOKEN_RE.finditer(self.text))
        line, offset, scanned = 1, 0, 0
        while self.pos < len(self.tokens):
            start = next(islice(starts, self.pos - scanned, None))
            line += self.text.count("\n", offset, start)
            offset, scanned = start, self.pos + 1
            yield line, self.formula()


def parse_pp(text: str) -> PPFormula:
    """Parse exactly one formula."""
    parser = _Parser(text)
    formula = parser.formula()
    if parser.pos < len(parser.tokens):
        raise parser.fail(f"unexpected trailing input {parser.tokens[parser.pos]!r}", parser.pos)
    return formula


def parse_pp_file(text: str) -> tuple[PPFormula, ...]:
    """Parse a sequence of formulas (each starting with "def")."""
    return tuple(phi for _, phi in _Parser(text).formulas())


def _getter(positions: list[int]) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """row -> the tuple of row's entries at positions, taken at C level; a
    slice stands in where itemgetter gives a bare entry or takes no position."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions) if positions else itemgetter(slice(0))


# variables, each once, and the rows of their values
_Table = tuple[list[str], set[tuple[int, ...]]]


def _atom_table(atom: Atom, env: dict[str, Relation], domain: Domain) -> _Table:
    """Variables (first occurrence order, deduplicated) and satisfying rows.

    An equality atom x = y is the rows (a, a) over (x, y).  A variable
    repeated in an atom, x = x included, keeps the rows that agree at its
    positions, projected onto its first one."""
    if isinstance(atom, EqualityAtom):
        variables, tuples = atom.variables, [(a, a) for a in domain.elements()]
    else:
        rel = env.get(atom.relation)
        if rel is None:
            raise ValueError(f"unbound relation name: {atom.relation}")
        if rel.arity != len(atom.variables):
            raise ValueError(f"relation {atom.relation} has arity {rel.arity}, "
                             f"atom supplies {len(atom.variables)} variables")
        variables, tuples = atom.variables, rel.tuples
    distinct = list(dict.fromkeys(variables))
    if len(distinct) == len(variables):
        return distinct, set(tuples)
    repeats = [j for j, v in enumerate(variables) if variables.index(v) != j]
    repeated, first = _getter(repeats), _getter([variables.index(variables[j]) for j in repeats])
    keep = _getter([variables.index(v) for v in distinct])
    return distinct, {keep(t) for t in tuples if repeated(t) == first(t)}


def _join(left: _Table, right: _Table) -> _Table:
    lvars, lrows = left
    rvars, rrows = right
    common = [v for v in rvars if v in lvars]
    extra = [j for j, v in enumerate(rvars) if v not in lvars]
    lkey, rkey = _getter([lvars.index(v) for v in common]), _getter([rvars.index(v) for v in common])
    tail = _getter(extra)
    index: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for row in rrows:
        index.setdefault(rkey(row), []).append(tail(row))
    rows = {row + t for row in lrows for t in index.get(lkey(row), ())}
    return lvars + [rvars[j] for j in extra], rows


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
    tables = [_atom_table(atom, named, domain) for atom in formula.atoms]
    # with no atoms every free variable (one at least) is unconstrained, so tables is never empty
    bound = set(chain.from_iterable(variables for variables, _ in tables))
    unconstrained = [v for v in formula.free_vars if v not in bound]
    if unconstrained:
        tables.append((unconstrained, set(product(domain.elements(), repeat=len(unconstrained)))))
    variables, rows = reduce(_join, tables)
    project = _getter([variables.index(v) for v in formula.free_vars])
    # the projection can repeat a row
    tuples = tuple(sorted(set(map(project, rows))))
    return _built(Relation, domain=domain, arity=formula.arity, tuples=tuples, name=formula.name)


def _reachable(
    r: Relation, rels: RelationSet, limits: Limits
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Each tuple x outside r that some len(r)-ary polymorphism of rels
    maps r's columns to, with the first such table found.

    The constraints of rels are built once (see galois._constraints), and
    each x takes the first table galois._tables yields with the cells
    indexed by r's columns pinned to the entries of x (for an empty r the
    one nullary cell is pinned, so x ranges over the constant tuples).
    """
    if r.domain != rels.domain:
        raise ValueError("relation and environment over different domains")
    d = r.domain.size
    t = len(r)
    checks = _constraints(rels, t, limits)
    (cells,) = row_images(range(d**t), d, r.arity, [(_row_key(d)(row),) for row in r.tuples])
    # x is fixed by its values on the distinct cells, so equal columns
    # take one value and no x with conflicting pins is ever tried
    pinned = sorted(set(cells))
    members = set(r.tuples)
    for values in product(range(d), repeat=len(pinned)):
        pins = dict(zip(pinned, values))
        x = tuple(pins[c] for c in cells)
        if x not in members:
            choices = [(pins[c],) if c in pins else range(d) for c in range(len(checks))]
            table = next(_tables(checks, choices), None)
            if table is not None:
                yield x, table


def pp_closure_of(r: Relation, rels: RelationSet, *, limits: Limits = DEFAULT_LIMITS) -> Relation:
    """Least relation of r's arity containing r and invariant under every
    operation preserving all of rels.

    The t-ary polymorphisms (t = len(r)) applied coordinatewise to r's t
    rows yield exactly this superset, so a tuple x outside r belongs to it
    iff some polymorphism maps r's columns to x.  Each x is decided by the
    first table of pol's search with r's column cells pinned to x, rather
    than by listing all of pol(rels, t).  An empty r uses the arity-0
    polymorphisms, whose constant tuples are forced into any invariant
    superset.
    """
    out = set(r.tuples)
    out.update(x for x, _ in _reachable(r, rels, limits))
    return _built(Relation, domain=r.domain, arity=r.arity, tuples=tuple(sorted(out)), name=r.name)


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
