"""Shared fixtures and independent oracles for the test suite.

Every oracle here recomputes its answer from the definitions with the
most naive strategy available (pointwise evaluation, full sweeps), so
tests compare two genuinely different computations.  Where an oracle
does call an optimized path of the package for a step it does not test,
its docstring names the path and the test that holds it to its own
oracle.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields, is_dataclass, replace
from itertools import combinations, product

from polinv import (
    DEFAULT_LIMITS,
    Domain,
    Operation,
    OperationSet,
    ParseError,
    Partition,
    PPFormula,
    Relation,
    RelationSet,
    ResourceBoundError,
    Workspace,
    EqualityAtom,
    RelationAtom,
    all_partitions,
    kernel_partition,
    pol,
)
from polinv.galois import _invariant_masks, _relations

BOOL = Domain(2)
THREE = Domain(3)


def op(table, arity=None, domain=BOOL, name=""):
    if arity is None:
        size = len(table)
        arity = 0
        while domain.size**arity < size:
            arity += 1
    return Operation(domain, arity, tuple(table), name=name)


def rel(tuples, arity, domain=BOOL, name=""):
    return Relation(domain, arity, tuple(tuples), name=name)


def full_relation(domain, arity):
    return Relation(domain, arity, tuple(domain.tuples(arity)))


def empty_relation(domain, arity):
    return Relation(domain, arity, ())


def renamed(member, name):
    """An Operation or Relation under another name, which equality ignores."""
    return replace(member, name=name)


def rebuilt(value):
    """value rebuilt through the public constructors, its parts first: a
    dataclass from its init fields, a list or tuple entry by entry, in
    its own type.  So each part is canonicalized and checked again."""
    if is_dataclass(value):
        return type(value)(**{f.name: rebuilt(getattr(value, f.name)) for f in fields(value) if f.init})
    if isinstance(value, (list, tuple)):
        return type(value)(map(rebuilt, value))
    return value


def shape(value):
    """Every field of value, nested, with the type of each part: unlike
    ==, it sees fields that do not compare (a name, an ideal's finest
    member), a list where a tuple belongs and bytes for a tuple."""
    if is_dataclass(value):
        return type(value), tuple((f.name, shape(getattr(value, f.name))) for f in fields(value))
    if isinstance(value, (list, tuple)):
        return type(value), tuple(map(shape, value))
    return type(value), value


def assert_rebuilds(value):
    """The trust test of core._built: a value the package built without
    checks equals its rebuild through the public constructors, with the
    same fields in the same order and of the same types."""
    again = rebuilt(value)
    assert value == again
    assert shape(value) == shape(again), value


def arity_members(members, arity):
    """The members of one arity of an OperationSet or RelationSet, in its order."""
    return tuple(m for m in members if m.arity == arity)


AND = op((0, 0, 0, 1), name="AND")
OR = op((0, 1, 1, 1), name="OR")
XOR = op((0, 1, 1, 0), name="XOR")
NOT = op((1, 0), name="NOT")
IDENT = op((0, 1), name="id")
MAJ = op([int(a + b + c >= 2) for a in range(2) for b in range(2) for c in range(2)], name="MAJ")
MINORITY = op([a ^ b ^ c for a in range(2) for b in range(2) for c in range(2)], name="minority")

LEQ = rel([(0, 0), (0, 1), (1, 1)], 2, name="leq")
NEQ = rel([(0, 1), (1, 0)], 2, name="neq")
EQ = rel([(0, 0), (1, 1)], 2, name="eq")


def oracle_compose(f, gs, arity):
    """Pointwise composition via apply, no table index arithmetic."""
    domain = f.domain
    table = []
    for args in domain.tuples(arity):
        inner = [g.apply(args) for g in gs]
        table.append(f.apply(inner))
    return Operation(domain, arity, tuple(table))


def oracle_row_images(table, d, width, row_lists):
    """The coordinatewise image of each combination in product(*row_lists)
    under table, keyed by argument tuple: the dict-keyed kernel that
    core.row_images replaced.  Each combination's columns are zipped and
    each column tuple is looked up; a nullary table maps its one (empty)
    combination to the constant tuple of its value."""
    lookup = dict(zip(product(range(d), repeat=len(row_lists)), table))
    combos = product(*row_lists)
    if () in lookup:
        const = (lookup[()],) * width
        return [const for _ in combos]
    return [tuple(lookup[col] for col in zip(*rows)) for rows in combos]


def oracle_clone_closure(generators, max_arity, domain):
    """The clone closure by the naive fixpoint, as {(arity, table): name}:
    seeded with the projections (named pr<i>_<n>), then the generators,
    the first name of a table winning; each round composes every member
    with every same-arity tuple of members by oracle_compose, until a
    round adds nothing.  Composed members have no name."""
    members = {}
    for n in range(1, max_arity + 1):
        for i in range(n):
            members[n, tuple(t[i] for t in domain.tuples(n))] = f"pr{i}_{n}"
    for g in generators:
        members.setdefault((g.arity, g.table), g.name)
    while True:
        ops = [Operation(domain, arity, table) for arity, table in members]
        made = {
            (n, oracle_compose(f, gs, n).table)
            for f in ops
            for n in range(max_arity + 1)
            for gs in product([g for g in ops if g.arity == n], repeat=f.arity)
        }
        if made <= members.keys():
            return members
        for key in made:
            members.setdefault(key, "")


def oracle_preserves(f, r):
    """Preservation unrolled directly from the definition."""
    tset = set(r.tuples)
    if f.arity == 0:
        return tuple(f.apply(()) for _ in range(r.arity)) in tset
    for rows in product(r.tuples, repeat=f.arity):
        image = tuple(f.apply([row[j] for row in rows]) for j in range(r.arity))
        if image not in tset:
            return False
    return True


def oracle_invariant_closure(ops, seeds, arity, domain):
    """Least superset of the seeds closed under every op, by the naive
    fixpoint: each round applies every op pointwise to every combination
    of the current tuples, until a round adds nothing.  Each coordinate's
    arguments are looked up in the op's table by their lexicographic rank,
    with no validation per call."""
    current = {tuple(t) for t in seeds}
    while True:
        fresh = set()
        for f in ops:
            if not f.arity:
                fresh.add((f.table[0],) * arity)
                continue
            cell = {x: i for i, x in enumerate(product(range(domain.size), repeat=f.arity))}
            for rows in product(sorted(current), repeat=f.arity):
                fresh.add(tuple(map(f.table.__getitem__, map(cell.__getitem__, zip(*rows)))))
        if fresh <= current:
            return Relation(domain, arity, tuple(current))
        current |= fresh


def oracle_pol(rels, arity, domain):
    """All preserving tables by filtering the full enumeration."""
    found = []
    for table in product(range(domain.size), repeat=domain.size**arity):
        f = Operation(domain, arity, table)
        if all(oracle_preserves(f, r) for r in rels):
            found.append(f)
    return found


def oracle_inv(ops, arity, domain):
    """All invariant relations by filtering every subset of A^arity."""
    universe = list(domain.tuples(arity))
    found = []
    for mask in range(2 ** len(universe)):
        r = Relation(domain, arity, tuple(t for i, t in enumerate(universe) if mask >> i & 1))
        if all(oracle_preserves(f, r) for f in ops):
            found.append(r)
    return found


def oracle_image_table(ops, arity):
    """(root, lane, wide) as galois._image_table files them, by pointwise
    evaluation: each member is applied by Operation.apply to every
    combination in product(range(size), repeat=m) of its m rows, and the
    rank (Domain.tuple_index) of the image is filed by the set S of row
    ranks used, t its highest: root when S is empty, field t of
    lane[min S] when S has one or two ranks, wide[t][S - {t}, ascending]
    otherwise."""
    domain = ops.domain
    rows = list(domain.tuples(arity))
    size = len(rows)
    root, lane, wide = 0, [0] * size, [{} for _ in range(size)]
    for f in ops:
        for combo in product(range(size), repeat=f.arity):
            if f.arity:
                image = tuple(f.apply(col) for col in zip(*(rows[r] for r in combo)))
            else:
                image = (f.apply(()),) * arity
            bit = 1 << domain.tuple_index(image)
            s = sorted(set(combo))
            if not s:
                root |= bit
            elif len(s) <= 2:
                lane[s[0]] |= bit << s[-1] * size
            else:
                key = tuple(s[:-1])
                wide[s[-1]][key] = wide[s[-1]].get(key, 0) | bit
    return root, lane, wide


def oracle_maximal_invariants(masks, size):
    """The invariants of one arity, as bitmasks over the size tuple ranks,
    that are maximal among those avoiding some tuple x, for every x in
    turn: no orbit under coordinate permutations is skipped."""
    largest_first = sorted(masks, key=int.bit_count, reverse=True)
    kept = set()
    for x in range(size):
        maximal = []
        for mask in largest_first:
            if not mask >> x & 1:
                # every larger avoider came earlier and sits under a kept one
                for m in maximal:
                    if mask & m == mask:
                        break
                else:
                    maximal.append(mask)
        kept.update(maximal)
    return sorted(kept)


def oracle_kept_invariants(generators, max_k):
    """The number of invariants of arities 1..max_k, and the maximal ones
    of every such arity, avoiding every tuple (see
    oracle_maximal_invariants): the relations of a bounded correspondence
    check that takes every arity and every x.  The invariants themselves
    come from _invariant_masks, which test_inv_matches_filtering_oracle
    holds to oracle_inv."""
    domain = generators.domain
    by_arity = [_invariant_masks(generators, k, DEFAULT_LIMITS) for k in range(1, max_k + 1)]
    kept = []
    for k, masks in enumerate(by_arity, 1):
        kept += _relations(domain, k, oracle_maximal_invariants(masks, domain.size**k))
    return sum(map(len, by_arity)), kept


def oracle_core(r):
    """The core the way pol first built it: distinct columns, then a
    rank for every tuple and one zeroed-coordinate projection per column,
    with no count to skip any of them."""
    d, n = r.domain.size, len(r)
    cols = list(dict.fromkeys(zip(*r.tuples)))  # each distinct column once, in order
    if n % d == 0:  # else no coordinate is a cylinder one, as |p × A| = |p| * d
        ranks = [0] * n  # each tuple's rank, read over the distinct columns
        for col in cols:
            ranks = [x * d + a for x, a in zip(ranks, col)]
        # x - a * w is rank x with one coordinate (value a, weight w) zeroed:
        # the projection dropping it.  A cylinder coordinate leaves |r| / d.
        weights = [d**e for e in reversed(range(len(cols)))]
        cols = [c for c, w in zip(cols, weights) if len({x - a * w for x, a in zip(ranks, c)}) * d != n]
    if len(cols) == r.arity:  # nothing merged or dropped
        return r
    if not cols:
        return Relation(r.domain, 0, ((),) if n else ())
    return Relation(r.domain, len(cols), tuple(zip(*cols)))


def naive_eval_pp(formula, rels_by_name, domain):
    """Sweep every assignment to free + existential variables."""
    free = list(formula.free_vars)
    exist = list(formula.exist_vars)
    names = free + exist
    out = set()
    for values in product(range(domain.size), repeat=len(names)):
        env = dict(zip(names, values))
        ok = True
        for atom in formula.atoms:
            if isinstance(atom, EqualityAtom):
                if env[atom.left] != env[atom.right]:
                    ok = False
                    break
            else:
                r = rels_by_name[atom.relation]
                if tuple(env[v] for v in atom.variables) not in set(r.tuples):
                    ok = False
                    break
        if ok:
            out.add(tuple(env[v] for v in free))
    return Relation(domain, len(free), tuple(out), name=formula.name)


# -- the pp parser before its rewrite as one pass over token tuples -------
# A separate skip regex, a token class and a stream class, with every
# declaration and use check written inline; kept as the oracle that
# parse_pp and parse_pp_file must agree with on outcome and position.

_ORACLE_KEYWORDS = frozenset({"def", "exists", "true"})
_ORACLE_TOKEN_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|:=|[(),.&=]")
_ORACLE_SKIP_RE = re.compile(r"\s+")


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _oracle_tokenize(text):
    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        ws = _ORACLE_SKIP_RE.match(text, pos)
        if ws:
            chunk = ws.group()
            newlines = chunk.count("\n")
            if newlines:
                line += newlines
                line_start = ws.start() + chunk.rfind("\n") + 1
            pos = ws.end()
            continue
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line=line, column=pos - line_start + 1
            )
        tokens.append(_Token(m.group(), line, pos - line_start + 1))
        pos = m.end()
    return tokens


class _TokenStream:
    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0

    def peek(self):
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self, expected=None):
        tok = self.peek()
        if tok is None:
            last = self._tokens[-1] if self._tokens else None
            raise ParseError(
                f"unexpected end of input" + (f", expected {expected!r}" if expected else ""),
                line=last.line if last else 1,
                column=last.column + len(last.text) if last else 1,
            )
        if expected is not None and tok.text != expected:
            raise ParseError(
                f"expected {expected!r}, found {tok.text!r}", line=tok.line, column=tok.column
            )
        self._pos += 1
        return tok


def _expect_name(stream, what):
    tok = stream.next(None)
    if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok.text):
        raise ParseError(f"expected {what}, found {tok.text!r}", line=tok.line, column=tok.column)
    if tok.text in _ORACLE_KEYWORDS:
        raise ParseError(
            f"reserved word {tok.text!r} cannot be used as {what}", line=tok.line, column=tok.column
        )
    return tok


def _parse_varlist(stream):
    out = [_expect_name(stream, "a variable")]
    while stream.peek() is not None and stream.peek().text == ",":
        stream.next(",")
        out.append(_expect_name(stream, "a variable"))
    return out


def _oracle_parse_formula(stream):
    stream.next("def")
    name = _expect_name(stream, "a formula name")
    stream.next("(")
    free = _parse_varlist(stream)
    stream.next(")")
    stream.next(":=")

    declared = {}
    for tok in free:
        if tok.text in declared:
            raise ParseError(
                f"duplicate variable declaration: {tok.text}", line=tok.line, column=tok.column
            )
        declared[tok.text] = tok

    nxt = stream.peek()
    if nxt is not None and nxt.text == "true":
        stream.next("true")
        return PPFormula(name.text, tuple(t.text for t in free), (), ())

    exist = []
    if nxt is not None and nxt.text == "exists":
        stream.next("exists")
        exist = _parse_varlist(stream)
        stream.next(".")
        for tok in exist:
            if tok.text in declared:
                raise ParseError(
                    f"duplicate variable declaration: {tok.text}", line=tok.line, column=tok.column
                )
            declared[tok.text] = tok

    atoms = []
    while True:
        head = _expect_name(stream, "a relation name or variable")
        nxt = stream.peek()
        if nxt is not None and nxt.text == "(":
            stream.next("(")
            args = _parse_varlist(stream)
            stream.next(")")
            for tok in args:
                if tok.text not in declared:
                    raise ParseError(
                        f"undeclared variable: {tok.text}", line=tok.line, column=tok.column
                    )
            atoms.append(RelationAtom(head.text, tuple(t.text for t in args)))
        elif nxt is not None and nxt.text == "=":
            stream.next("=")
            rhs = _expect_name(stream, "a variable")
            for tok in (head, rhs):
                if tok.text not in declared:
                    raise ParseError(
                        f"undeclared variable: {tok.text}", line=tok.line, column=tok.column
                    )
            atoms.append(EqualityAtom(head.text, rhs.text))
        else:
            where = nxt if nxt is not None else head
            raise ParseError(
                "expected '(' or '=' after name in atom", line=where.line, column=where.column
            )
        nxt = stream.peek()
        if nxt is not None and nxt.text == "&":
            stream.next("&")
            continue
        break
    return PPFormula(
        name.text, tuple(t.text for t in free), tuple(t.text for t in exist), tuple(atoms)
    )


def oracle_parse_pp(text):
    """parse_pp by the parser it replaced."""
    stream = _TokenStream(_oracle_tokenize(text))
    formula = _oracle_parse_formula(stream)
    trailing = stream.peek()
    if trailing is not None:
        raise ParseError(
            f"unexpected trailing input {trailing.text!r}",
            line=trailing.line,
            column=trailing.column,
        )
    return formula


def oracle_parse_pp_file(text):
    """parse_pp_file by the parser it replaced."""
    stream = _TokenStream(_oracle_tokenize(text))
    out = []
    while stream.peek() is not None:
        out.append(_oracle_parse_formula(stream))
    return tuple(out)


# -- the data-file loader before its rewrite as one line walk ------------
# A parser class with one method per block kind, each repeating the header
# shape, name and arity checks, and one duplicate-name check per kind in
# the merge; kept as the oracle that load_workspace must agree with.

_ORACLE_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _oracle_parse_int(token, what, path, line):
    if not re.fullmatch(r"\d+", token):
        raise ParseError(f"{what} must be a nonnegative integer, got {token!r}", source=path, line=line)
    return int(token)


class _OracleDataFileParser:
    def __init__(self, path, text):
        self.path = path
        self.lines = text.splitlines()
        self.pos = 0
        self.domain = None
        self.ops = []  # name, op, line
        self.rels = []

    def _next_line(self):
        while self.pos < len(self.lines):
            self.pos += 1
            stripped = self.lines[self.pos - 1].strip()
            if stripped:
                return self.pos, stripped
        return None

    def run(self):
        first = self._next_line()
        if first is None:
            raise ParseError("empty file", source=self.path, line=1)
        lineno, text = first
        parts = text.split()
        if parts[0] != "domain" or len(parts) != 2:
            raise ParseError("expected 'domain N' header", source=self.path, line=lineno)
        size = _oracle_parse_int(parts[1], "domain size", self.path, lineno)
        try:
            self.domain = Domain(size)
        except ValueError as exc:
            raise ParseError(str(exc), source=self.path, line=lineno) from exc
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

    def _require_name(self, token, lineno):
        if not _ORACLE_NAME_RE.match(token):
            raise ParseError(f"bad name {token!r}", source=self.path, line=lineno)
        return token

    def _parse_op(self, parts, lineno):
        if len(parts) != 3:
            raise ParseError("expected 'op NAME ARITY'", source=self.path, line=lineno)
        name = self._require_name(parts[1], lineno)
        arity = _oracle_parse_int(parts[2], "arity", self.path, lineno)
        need = self.domain.size**arity
        entries = []
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
                entries.append(_oracle_parse_int(token, "table entry", self.path, elineno))
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

    def _parse_rel(self, parts, lineno):
        if len(parts) != 3:
            raise ParseError("expected 'rel NAME ARITY'", source=self.path, line=lineno)
        name = self._require_name(parts[1], lineno)
        arity = _oracle_parse_int(parts[2], "arity", self.path, lineno)
        if arity < 1:
            raise ParseError("relation arity in files must be at least 1", source=self.path, line=lineno)
        tuples = []
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
            tuples.append(tuple(_oracle_parse_int(t, "tuple entry", self.path, elineno) for t in tokens))
        try:
            rel = Relation(self.domain, arity, tuple(tuples), name=name)
        except ValueError as exc:
            raise ParseError(str(exc), source=self.path, line=lineno) from exc
        self.rels.append((name, rel, lineno))


def _oracle_is_formula_file(text):
    for line in text.splitlines():
        stripped = line.strip()
        if stripped:
            return stripped.split()[0] == "def" or stripped.startswith("def(")
    return False


def oracle_load_workspace(paths, *, limits=DEFAULT_LIMITS):
    """load_workspace by the loader it replaced.  It differs in two reports:
    a duplicate formula name carries no line, and a file re-declaring both
    a relation and a later operation is reported at the operation."""
    ops_by_name = {}
    rels_by_name = {}
    formulas_by_name = {}
    domain = None
    domain_source = None
    for path in sorted(str(p) for p in paths):
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if _oracle_is_formula_file(text):
            try:
                formulas = oracle_parse_pp_file(text)
            except ParseError as exc:
                raise ParseError(exc.message, source=path, line=exc.line, column=exc.column) from exc
            for phi in formulas:
                if phi.name in formulas_by_name:
                    raise ParseError(f"duplicate formula name {phi.name!r}", source=path)
                formulas_by_name[phi.name] = phi
            continue
        parser = _OracleDataFileParser(path, text)
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
        raise ResourceBoundError(f"workspace domain needs {domain.size}, more than max_domain ({limits.max_domain})")
    return Workspace(
        domain=domain,
        operations=OperationSet(domain, tuple(ops_by_name.values())),
        relations=RelationSet(domain, tuple(rels_by_name.values())),
        formulas=tuple(formulas_by_name.values()),
        ops_by_name=ops_by_name,
        rels_by_name=rels_by_name,
        formulas_by_name=formulas_by_name,
    )


def oracle_least_invariant_superset(r, rels):
    """Smallest superset of a nonempty r preserved by every polymorphism
    of rels.

    Filters all supersets of r's tuple set.  A nonempty candidate s is
    invariant iff it is preserved by every |s|-ary polymorphism:
    identifying repeated rows reduces higher arities to at most |s|, and
    padding with dummy arguments lifts lower arities (nullary included)
    to exactly |s|.  The full tuple set is closed under anything.
    """
    assert r.tuples, "the oracle covers nonempty relations"
    domain = r.domain
    universe = list(domain.tuples(r.arity))
    base = set(r.tuples)
    pols_by_arity = {
        m: oracle_pol(rels, m, domain) for m in range(1, len(universe))
    }
    candidates = []
    for mask in range(2 ** len(universe)):
        chosen = [t for i, t in enumerate(universe) if mask >> i & 1]
        if not base <= set(chosen):
            continue
        if len(chosen) == len(universe):
            candidates.append(set(chosen))
            continue
        s = Relation(domain, r.arity, tuple(chosen))
        if all(oracle_preserves(f, s) for f in pols_by_arity[len(chosen)]):
            candidates.append(set(chosen))
    least = min(candidates, key=len)
    assert all(least <= c for c in candidates if len(c) == len(least))
    return Relation(domain, r.arity, tuple(least))


def oracle_pp_closure_of(r, rels):
    """Least invariant superset of r over rels, from the full list of
    len(r)-ary polymorphisms (nullary for an empty r) applied to r's
    columns.  pol itself is held to oracle_pol elsewhere."""
    columns = [tuple(row[j] for row in r.tuples) for j in range(r.arity)]
    out = set(r.tuples)
    for f in pol(rels, len(r)):
        out.add(tuple(f.apply(col) for col in columns))
    return Relation(r.domain, r.arity, tuple(out), name=r.name)


def oracle_partitions(index_size):
    """Enumerate partitions by inserting one index at a time into an
    existing block or a fresh one (independent of the label-string
    generator in the package)."""
    parts = [[]]
    for i in range(index_size):
        grown = []
        for blocks in parts:
            for j in range(len(blocks)):
                grown.append([b + [i] if k == j else list(b) for k, b in enumerate(blocks)])
            grown.append([list(b) for b in blocks] + [[i]])
        parts = grown
    return {frozenset(frozenset(b) for b in blocks) for blocks in parts}


def bell_number(n):
    """The number of partitions of an n-element set, read off the Bell
    triangle: each row starts with the last entry of the row above, and
    each later entry adds the entry above its left neighbour (independent
    of the growth strings, which PartitionIdeal counts on)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def oracle_blocks(index_size, same):
    """The classes of the equivalence `same` on {0, ..., index_size-1}, as
    a set of frozensets: each index together with every index related to
    it (no grouping pass, no block labels)."""
    return {frozenset(j for j in range(index_size) if same(i, j)) for i in range(index_size)}


def oracle_ideal_downset(generators, index_size):
    """Least ideal containing the generators as a set of partitions:
    add pairwise common refinements and coarsenings until nothing new
    appears."""
    lattice = list(all_partitions(index_size))
    members = {Partition.top(index_size), *generators}
    changed = True
    while changed:
        changed = False
        for p, q in combinations(tuple(members), 2):
            m = p.meet(q)
            if m not in members:
                members.add(m)
                changed = True
        for p in lattice:
            if p not in members and any(q.refines(p) for q in members):
                members.add(p)
                changed = True
    return members


def oracle_diagonal_relation(ideal, domain):
    """The diagonal relation from its definition: every tuple over the
    domain whose kernel partition is a member of the ideal."""
    members = set(ideal.members)
    kappa = ideal.index_size
    tuples = [t for t in product(range(domain.size), repeat=kappa) if kernel_partition(t) in members]
    return Relation(domain, kappa, tuple(tuples))


def oracle_is_ideal(members, index_size):
    """Whether the partitions form an ideal, from the definition: nonempty,
    over the one index set, closed under every pairwise common refinement
    and under coarsening against the whole lattice."""
    have = set(members)
    if not have or any(p.index_size != index_size for p in have):
        return False
    if any(p.meet(q) not in have for p, q in combinations(have, 2)):
        return False
    return not any(
        p not in have and any(q.refines(p) for q in have) for p in all_partitions(index_size)
    )


def random_operation(rng, domain, arity, name=""):
    table = tuple(rng.randrange(domain.size) for _ in range(domain.size**arity))
    return Operation(domain, arity, table, name=name)


def near_projection(rng, domain, arity):
    """A random projection with one or two cells changed: unlike a random
    table it keeps many invariants, built from many distinct rows."""
    i = rng.randrange(arity)
    table = [t[i] for t in domain.tuples(arity)]
    for c in rng.sample(range(len(table)), rng.randint(1, 2)):
        table[c] = (table[c] + rng.randrange(1, domain.size)) % domain.size
    return Operation(domain, arity, tuple(table))


def random_relation(rng, domain, arity, name="", allow_empty=True, max_size=None):
    universe = list(domain.tuples(arity))
    low = 0 if allow_empty else 1
    high = len(universe) if max_size is None else min(max_size, len(universe))
    chosen = rng.sample(universe, rng.randint(low, high))
    return Relation(domain, arity, tuple(chosen), name=name)


def cylinder(r, pos):
    """r x A, the new coordinate at position pos."""
    return Relation(r.domain, r.arity + 1, tuple(t[:pos] + (a,) + t[pos:] for t in r for a in r.domain.elements()))


def repeat_column(r, col, pos):
    """r with a copy of column col inserted at position pos."""
    return Relation(r.domain, r.arity + 1, tuple(t[:pos] + (t[col],) + t[pos:] for t in r))


def random_formula(rng, domain, rels_by_name, max_atoms=4, max_exists=3):
    """A random pp formula whose relation atoms draw from rels_by_name."""
    n_free = rng.randint(1, 3)
    n_exist = rng.randint(0, max_exists)
    free = [f"x{i}" for i in range(n_free)]
    exist = [f"y{i}" for i in range(n_exist)]
    names = free + exist
    atoms = []
    for _ in range(rng.randint(0, max_atoms)):
        if rels_by_name and rng.random() < 0.8:
            rel_name = rng.choice(sorted(rels_by_name))
            k = rels_by_name[rel_name].arity
            atoms.append(RelationAtom(rel_name, tuple(rng.choice(names) for _ in range(k))))
        else:
            atoms.append(EqualityAtom(rng.choice(names), rng.choice(names)))
    return PPFormula("phi", tuple(free), tuple(exist), tuple(atoms))


def relation_set(rels, domain=BOOL):
    return RelationSet(domain, tuple(rels))


def opset(ops, domain=BOOL):
    return OperationSet(domain, tuple(ops))
