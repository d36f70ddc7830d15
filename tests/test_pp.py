import gc
import random
import re
from collections import Counter
from pathlib import Path

import pytest

import polinv.pp as pp_module
from polinv import (
    Domain,
    EqualityAtom,
    ParseError,
    Partition,
    PPFormula,
    Relation,
    RelationAtom,
    ResourceBoundError,
    all_partitions,
    eval_pp,
    galois_check,
    ideal_downset,
    inv,
    is_pp_definable,
    load_workspace,
    parse_pp,
    parse_pp_file,
    partition_lattice,
    pol,
    pp_closure_of,
    pp_witness,
    preserves,
)
from polinv.cli import run

from helpers import (
    AND,
    BOOL,
    EQ,
    LEQ,
    MAJ,
    NEQ,
    NOT,
    THREE,
    assert_rebuilds,
    empty_relation,
    full_relation,
    _oracle_tokenize,
    naive_eval_pp,
    oracle_parse_pp,
    oracle_parse_pp_file,
    oracle_pp_closure_of,
    opset,
    random_formula,
    random_relation,
    relation_set,
    renamed,
)

DATA = Path(__file__).parent / "data"

ENV = relation_set([LEQ, NEQ, EQ])
ENV_BY_NAME = {"leq": LEQ, "neq": NEQ, "eq": EQ}


def test_parse_basic_shape():
    phi = parse_pp("def comp(x, z) := exists y . leq(x, y) & leq(y, z)")
    assert phi.name == "comp"
    assert phi.free_vars == ("x", "z")
    assert phi.exist_vars == ("y",)
    assert phi.atoms == (
        RelationAtom("leq", ("x", "y")),
        RelationAtom("leq", ("y", "z")),
    )
    assert phi.arity == 2


def test_parse_equality_and_true():
    assert parse_pp("def same(x, y) := x = y").atoms == (EqualityAtom("x", "y"),)
    top = parse_pp("def total(x, y) := true")
    assert top.atoms == ()
    assert top.exist_vars == ()


# one row per error: parser, text, then the exact message, line and column
PARSE_ERRORS = [
    (parse_pp, "", "unexpected end of input, expected 'def'", 1, 1),
    (parse_pp, "  \n\t ", "unexpected end of input, expected 'def'", 1, 1),
    (parse_pp_file, "def a(x) := x = x\ndef b(x, y) :=\n  leq(x,", "unexpected end of input", 3, 9),
    (parse_pp, "def f(x) := x = x &", "unexpected end of input", 1, 20),
    (parse_pp, "def f(x) := x = x\n  % ", "unexpected character '%'", 2, 3),
    (parse_pp, "def f(x) := 1", "unexpected character '1'", 1, 13),
    (parse_pp, "def f(x) := x % x", "unexpected character '%'", 1, 15),
    (parse_pp, "def true(x) := x = x", "reserved word 'true' cannot be used as a formula name", 1, 5),
    (parse_pp, "def exists(x) := x = x", "reserved word 'exists' cannot be used as a formula name", 1, 5),
    (parse_pp, "def f(x, exists) := x = x", "reserved word 'exists' cannot be used as a variable", 1, 10),
    (parse_pp, "def f(x) := exists true . x = x", "reserved word 'true' cannot be used as a variable", 1, 20),
    (parse_pp, "def f(x, y, x) := x = y", "duplicate variable declaration: x", 1, 13),
    (parse_pp, "def f(x, x) := x = x", "duplicate variable declaration: x", 1, 10),
    (parse_pp, "def f(x) := exists y, z, y . x = x", "duplicate variable declaration: y", 1, 26),
    (parse_pp, "def f(x) := exists x . x = x", "duplicate variable declaration: x", 1, 20),
    (parse_pp, "def f(x) := leq(x, z)", "undeclared variable: z", 1, 20),
    (parse_pp, "def f(x) := z = x", "undeclared variable: z", 1, 13),
    (parse_pp, "def f(x) := x = z", "undeclared variable: z", 1, 17),
    (parse_pp, "def f(x) := x = x extra", "unexpected trailing input 'extra'", 1, 19),
    (parse_pp, "def f(x) := leq & x = x", "expected '(' or '=' after name in atom", 1, 17),
    (parse_pp, "def f(x) := leq", "expected '(' or '=' after name in atom", 1, 13),
    (parse_pp, "f(x) := x = x", "expected 'def', found 'f'", 1, 1),
    (parse_pp, "def f(x) = x = x", "expected ':=', found '='", 1, 10),
    (parse_pp, "def f(,x) := x = x", "expected a variable, found ','", 1, 7),
    (parse_pp, "def f(x) := exists y x = x", "expected '.', found 'x'", 1, 22),
    (parse_pp, "def f(x) := (x)", "expected a relation name or variable, found '('", 1, 13),
    (parse_pp_file, "def a(x) := x = x\n  b(x) := x = x", "expected 'def', found 'b'", 2, 3),
]


@pytest.mark.parametrize("parse, text, message, line, column", PARSE_ERRORS)
def test_parse_error_message_and_position(parse, text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


def test_formula_file_error_names_path_line_and_column(tmp_path):
    data = tmp_path / "order.rel"
    data.write_text("domain 2\nrel leq 2\n0 0\n0 1\n1 1\nend\n")
    formulas = tmp_path / "bad.pp"
    formulas.write_text("def ok(x) := x = x\n\ndef bad(x, y) :=\n    leq(x, w)\n")
    with pytest.raises(ParseError) as err:
        load_workspace([data, formulas])
    assert str(err.value) == f"{formulas}:4:12: undeclared variable: w"


# pieces for the fuzzer: whole tokens (reserved words included); a stray
# ':', '%' and non-ASCII letter, and a split ': ='; a digit at a token start
# ('1', '9z') against one inside a name ('_a1', 'x9'); and whitespace, of
# which only '\n' moves the line: '\r', '\x0b', '\x0c', '\xa0', '\x85' and
# '\u2028' are whitespace to the token pattern that move only the column
SOUP = ["def", "exists", "true", "x", "y", "z", "leq", "_a1", "x9", "1", "9z", "(", ")", ",", ".", "&", "=", ":=",
        ":", ": =", "%", "\xe9", " ", " ", "\n", "\t", "\r", "\x0b", "\x0c", "\xa0", "\x85", "\u2028"]
MUTANT_CHARS = "xyz_q1(),.&=:% \n\t\r\x0b\x0c\xa0\x85\u2028\xe9"


def _outcome(parse, text):
    try:
        return "parsed", parse(text)
    except ParseError as exc:
        return "error", exc.message, exc.line, exc.column


def _mutate(rng, text):
    chars = list(text)
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3) if i < len(chars) else 2
        if edit == 0:
            del chars[i]
        elif edit == 1:
            chars[i] = rng.choice(MUTANT_CHARS)
        else:
            chars.insert(i, rng.choice(MUTANT_CHARS))
    return "".join(chars)


def test_parser_matches_the_oracle_on_fuzzed_text():
    # token soups after growing prefixes of a head, so they reach every rule, and
    # 1-3 character edits of one or two valid formulas; both entry points
    # must give the same formulas, or the same message at the same place
    rng = random.Random(113)
    kinds = set()
    for i in range(4000):
        if i % 2:
            text = ("", "def ", "def f(", "def f(x, y) := ")[i // 2 % 4] + "".join(
                rng.choice(SOUP) for _ in range(rng.randint(0, 12))
            )
        else:
            formulas = [random_formula(rng, BOOL, ENV_BY_NAME).to_text() for _ in range(rng.randint(1, 2))]
            text = _mutate(rng, "\n".join(formulas))
        for parse, oracle in ((parse_pp, oracle_parse_pp), (parse_pp_file, oracle_parse_pp_file)):
            got = _outcome(parse, text)
            assert got == _outcome(oracle, text), text
            if got[0] == "parsed":
                assert_rebuilds(got[1])
            kinds.add(got[0] if got[0] == "parsed" else re.sub(r"'.*?'|: \w+$", "_", got[1]))
    # success and all 14 kinds of error, token texts and names blanked
    assert len(kinds) == 15, sorted(kinds)


def test_parse_pp_file_multiple():
    text = "def a(x) := x = x\ndef b(x, y) := leq(x, y)"
    formulas = parse_pp_file(text)
    assert [phi.name for phi in formulas] == ["a", "b"]


def test_formula_file_lines_are_those_of_each_def():
    # the workspace files each formula at the line of its "def", counted
    # along one scan; only '\n' moves the line, so '\r' and '\x0c' must not
    rng = random.Random(151)
    gaps = [" ", "\n", "\n\n", "\t", "\r", "\x0c", " \n "]
    for _ in range(300):
        formulas = [random_formula(rng, BOOL, ENV_BY_NAME).to_text() for _ in range(rng.randint(1, 5))]
        text = "".join(rng.choice(gaps) * rng.randint(1, 2) + phi.replace(" ", rng.choice(gaps), 2) for phi in formulas)
        lines = [line for line, _ in pp_module._Parser(text).formulas()]
        assert lines == [tok.line for tok in _oracle_tokenize(text) if tok.text == "def"], text


def test_formula_requires_free_variable():
    with pytest.raises(ValueError):
        PPFormula("f", (), (), ())


def test_formula_rejects_undeclared_atom_variable():
    with pytest.raises(ValueError):
        PPFormula("f", ("x",), (), (EqualityAtom("x", "z"),))


def test_to_text_round_trip():
    rng = random.Random(79)
    for _ in range(40):
        phi = random_formula(rng, BOOL, ENV_BY_NAME)
        assert parse_pp(phi.to_text()) == phi or not phi.atoms


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: PPFormula("f", ("true",), (), ()), "reserved word 'true' cannot be used as a variable"),
        (lambda: PPFormula("f", ("x", "y"), ("x y",), ()), "expected a variable, found 'x y'"),
        (lambda: PPFormula("def", ("x",), (), ()), "reserved word 'def' cannot be used as a formula name"),
        (lambda: PPFormula("1f", ("x",), (), ()), "expected a formula name, found '1f'"),
        (lambda: RelationAtom("exists", ("x",)), "reserved word 'exists' cannot be used as a relation name"),
        (lambda: RelationAtom("r", ("x", "\xe9")), "expected a variable, found '\xe9'"),
        (lambda: RelationAtom("r", ("x\n",)), "expected a variable, found 'x\\n'"),
        (lambda: RelationAtom("r", ()), "relation atom needs at least one variable"),
        (lambda: EqualityAtom("x", ""), "expected a variable, found ''"),
        (lambda: EqualityAtom("true", "x"), "reserved word 'true' cannot be used as a variable"),
    ],
)
def test_constructors_refuse_names_the_grammar_cannot_spell(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


SPELLABLE = ["x", "y", "z", "_v1", "f1", "leq", "Def", "trueish", "EXISTS"]
UNSPELLABLE = ["def", "exists", "true", "x y", "1x", "\xe9", "", "x\n", "x-y", "x:=y"]


def test_every_formula_that_constructs_round_trips():
    # names mostly spellable, sometimes not; whatever the constructors
    # accept, to_text must spell and parse_pp read back
    rng = random.Random(131)

    def pick():
        return rng.choice(UNSPELLABLE if rng.random() < 0.05 else SPELLABLE)

    outcomes = Counter()
    for _ in range(3000):
        try:
            free = [pick() for _ in range(rng.randint(1, 2))]
            exist = [pick() for _ in range(rng.randint(0, 2))]
            names = free + exist
            atoms = [
                RelationAtom(pick(), tuple(rng.choice(names) for _ in range(rng.randint(1, 3))))
                if rng.random() < 0.7
                else EqualityAtom(rng.choice(names), rng.choice(names))
                for _ in range(rng.randint(0, 3))
            ]
            phi = PPFormula(pick(), free, exist, atoms)
        except ValueError:
            outcomes["refused"] += 1
            continue
        outcomes["built"] += 1
        canonical = phi if phi.atoms else PPFormula(phi.name, phi.free_vars, (), ())
        assert parse_pp(phi.to_text()) == canonical, phi
    assert min(outcomes["built"], outcomes["refused"]) >= 500, outcomes


def test_to_text_degenerate_exists_without_atoms():
    phi = PPFormula("f", ("x",), ("y",), ())
    assert phi.to_text() == "def f(x) := true"


def test_eval_composition_of_leq_is_leq():
    phi = parse_pp("def comp(x, z) := exists y . leq(x, y) & leq(y, z)")
    assert eval_pp(phi, ENV, BOOL) == LEQ


def test_eval_antisymmetry_is_equality():
    phi = parse_pp("def antisym(x, y) := leq(x, y) & leq(y, x)")
    assert eval_pp(phi, ENV, BOOL) == EQ


def test_eval_true_is_full():
    phi = parse_pp("def total(x, y) := true")
    assert eval_pp(phi, ENV, BOOL) == full_relation(BOOL, 2)


def test_eval_equality_atom():
    phi = parse_pp("def diag(x, y) := x = y")
    assert eval_pp(phi, ENV, BOOL) == EQ


def test_eval_repeated_variable_in_atom():
    phi = parse_pp("def irref(x) := neq(x, x)")
    assert eval_pp(phi, ENV, BOOL) == empty_relation(BOOL, 1)
    refl = parse_pp("def refl(x) := leq(x, x)")
    assert eval_pp(refl, ENV, BOOL) == full_relation(BOOL, 1)


def test_eval_unconstrained_free_variable_ranges_over_domain():
    phi = parse_pp("def pad(x, y) := leq(x, x)")
    assert eval_pp(phi, ENV, BOOL) == full_relation(BOOL, 2)


def test_eval_unknown_relation_name():
    phi = parse_pp("def f(x, y) := missing(x, y)")
    with pytest.raises(ValueError, match="^unbound relation name: missing$"):
        eval_pp(phi, ENV, BOOL)


def test_eval_atom_arity_mismatch():
    phi = parse_pp("def f(x) := leq(x)")
    with pytest.raises(ValueError, match="^relation leq has arity 2, atom supplies 1 variables$"):
        eval_pp(phi, ENV, BOOL)


def test_eval_refuses_an_environment_over_another_domain():
    phi = parse_pp("def f(x) := x = x")
    with pytest.raises(ValueError, match="^environment relation over a different domain$"):
        eval_pp(phi, ENV, THREE)
    assert eval_pp(phi, relation_set([]), THREE) == full_relation(THREE, 1)


def test_eval_refuses_two_environment_relations_of_one_name():
    phi = parse_pp("def f(x, y) := r(x, y)")
    low, high = Relation(BOOL, 2, ((0, 0),), name="r"), Relation(BOOL, 2, ((1, 1),), name="r")
    for env in (relation_set([low, high]), relation_set([high, low])):
        with pytest.raises(ValueError, match="^environment holds two relations named 'r'$"):
            eval_pp(phi, env, BOOL)
    # unnamed relations are never looked up, so they may repeat
    assert eval_pp(phi, relation_set([low, renamed(high, ""), renamed(NEQ, "")]), BOOL) == renamed(low, "f")


# shapes for the eval oracle: an atom sharing no variable with the atoms
# before it, one of them or all of them; repeated variables, x = x; the
# empty relation e; free variables that no atom constrains
EVAL_SHAPES = [
    "def f(x, y) := r0(x) & r0(y)",
    "def f(x, z) := exists y . r1(x, y) & r2(y, z)",
    "def f(x, y) := r1(x, y) & r2(y, x)",
    "def f(x, y) := r1(x, y) & t(y, x, y) & x = y",
    "def f(x) := r1(x, x)",
    "def f(x) := exists y . t(y, x, y) & r0(y)",
    "def f(x) := x = x",
    "def f(x, y) := exists z . z = z & r1(x, x)",
    "def f(x, y) := e(x, y)",
    "def f(x, y) := r0(x) & e(x, y)",
    "def f(x, y, z) := r0(y)",
    "def f(x, y, z) := true",
    "def f(x, y, z) := exists u, v . t(u, v, u) & r1(v, x)",
]


def test_eval_matches_naive_oracle(monkeypatch):
    # every getter eval_pp builds is counted by its number of positions:
    # none (a key of no shared variable), one, or many
    widths = Counter()
    getter = pp_module._getter

    def counting(positions):
        widths[min(len(positions), 2)] += 1
        return getter(positions)

    monkeypatch.setattr(pp_module, "_getter", counting)
    rng = random.Random(83)
    cases = 0
    for d in (1, 2, 3):
        domain = Domain(d)
        # a plain list, since a RelationSet would merge equal relations
        env = [
            random_relation(rng, domain, 1, name="r0"),
            random_relation(rng, domain, 2, name="r1"),
            random_relation(rng, domain, 2, name="r2"),
            random_relation(rng, domain, 3, name="t"),
            Relation(domain, 2, (), name="e"),
        ]
        env_rels = {r.name: r for r in env}
        formulas = [parse_pp(text) for text in EVAL_SHAPES]
        formulas += [random_formula(rng, domain, env_rels) for _ in range(30)]
        for phi in formulas:
            assert eval_pp(phi, env, domain) == naive_eval_pp(phi, env_rels, domain), phi.to_text()
            assert_rebuilds(eval_pp(phi, env, domain))
            cases += 1
    assert cases == 3 * (len(EVAL_SHAPES) + 30)
    assert sorted(widths) == [0, 1, 2], widths


def test_eval_invariant_under_atom_reordering():
    rng = random.Random(89)
    for _ in range(25):
        phi = random_formula(rng, BOOL, ENV_BY_NAME)
        if len(phi.atoms) < 2:
            continue
        shuffled = list(phi.atoms)
        rng.shuffle(shuffled)
        psi = PPFormula(phi.name, phi.free_vars, phi.exist_vars, tuple(shuffled))
        assert eval_pp(phi, ENV, BOOL) == eval_pp(psi, ENV, BOOL)


def test_eval_invariant_under_existential_renaming():
    phi = parse_pp("def comp(x, z) := exists y . leq(x, y) & leq(y, z)")
    psi = parse_pp("def comp(x, z) := exists w . leq(x, w) & leq(w, z)")
    assert eval_pp(phi, ENV, BOOL) == eval_pp(psi, ENV, BOOL)


def test_pp_closure_examples():
    half = Relation(BOOL, 2, ((0, 1),))
    assert pp_closure_of(half, relation_set([NEQ])).tuples == ((0, 1), (1, 0))
    assert pp_closure_of(LEQ, relation_set([LEQ])) == LEQ
    assert pp_closure_of(NEQ, relation_set([LEQ])) == full_relation(BOOL, 2)
    with pytest.raises(ValueError, match="^relation and environment over different domains$"):
        pp_closure_of(Relation(THREE, 1, [(2,)]), relation_set([LEQ]))


def test_pp_closure_of_empty_relation():
    empty = empty_relation(BOOL, 2)
    # leq admits both constants, so its invariant closure of nothing is
    # the diagonal; neq admits none, so nothing stays nothing
    assert pp_closure_of(empty, relation_set([LEQ])) == EQ
    assert pp_closure_of(empty, relation_set([NEQ])) == empty
    # and the witness for leq is a nullary constant
    witness = pp_witness(empty, relation_set([LEQ]))
    assert witness.arity == 0 and preserves(witness, LEQ) and not preserves(witness, empty)
    assert pp_witness(empty, relation_set([NEQ])) is None


def test_pp_closure_laws():
    rng = random.Random(97)
    for _ in range(15):
        rels = relation_set([LEQ] if rng.random() < 0.5 else [NEQ, EQ])
        r = random_relation(rng, BOOL, 2)
        closed = pp_closure_of(r, rels)
        assert set(r.tuples) <= set(closed.tuples)
        assert pp_closure_of(closed, rels) == closed
        wider = Relation(BOOL, 2, r.tuples + closed.tuples)
        assert set(pp_closure_of(wider, rels).tuples) >= set(closed.tuples)


def test_pp_closure_result_is_invariant():
    rng = random.Random(101)
    for _ in range(10):
        r = random_relation(rng, BOOL, 2)
        closed = pp_closure_of(r, relation_set([LEQ]))
        for f in pol(relation_set([LEQ]), 2):
            assert preserves(f, closed)


def test_is_pp_definable_examples():
    assert is_pp_definable(EQ, relation_set([LEQ]))
    assert is_pp_definable(LEQ, relation_set([LEQ]))
    assert not is_pp_definable(NEQ, relation_set([LEQ]))
    # the binary meet witnesses the failure: it preserves leq but not neq
    assert AND in pol(relation_set([LEQ]), 2)
    assert not preserves(AND, NEQ)
    witness = pp_witness(NEQ, relation_set([LEQ]))
    assert witness.arity == 2 and preserves(witness, LEQ) and not preserves(witness, NEQ)
    assert pp_witness(EQ, relation_set([LEQ])) is None


def test_definable_witness_evaluates_to_target():
    phi = parse_pp("def antisym(x, y) := leq(x, y) & leq(y, x)")
    assert eval_pp(phi, ENV, BOOL) == EQ
    assert is_pp_definable(EQ, relation_set([LEQ]))


def test_every_environment_member_is_definable_from_it():
    rng = random.Random(103)
    for _ in range(10):
        rels = [random_relation(rng, BOOL, rng.randint(1, 2), name=f"r{i}") for i in range(2)]
        for r in rels:
            assert is_pp_definable(r, relation_set(rels))


def test_evaluated_formulas_are_definable():
    # anything a formula produces over the environment must be definable
    # from it; the search runs over tables of arity len(r), and the
    # up-front d^(d^len(r)) candidate cap refuses more than 4 tuples on d=2
    rng = random.Random(107)
    checked = 0
    for _ in range(60):
        phi = random_formula(rng, BOOL, ENV_BY_NAME)
        value = eval_pp(phi, ENV, BOOL)
        if len(value) > 4:
            continue
        checked += 1
        assert is_pp_definable(value, ENV)
    assert checked >= 10


def test_pp_closure_and_witness_match_enumerate_all_oracle():
    # the pinned early-exit search against the image of every polymorphism;
    # each witness must preserve the environment and break the target
    rng = random.Random(109)
    cases = [(empty_relation(BOOL, 2), relation_set([])), (EQ, relation_set([]))]
    for domain, max_size, arities, count in ((BOOL, 4, (1, 2, 3), 60), (THREE, 2, (1, 2), 40)):
        for _ in range(count):
            env = [random_relation(rng, domain, rng.randint(1, 3)) for _ in range(rng.randint(0, 2))]
            r = random_relation(rng, domain, rng.choice(arities), max_size=max_size)
            if rng.random() < 0.3:
                # two identical coordinates: x pins one cell to two values
                # unless its entries there agree
                j = rng.randrange(r.arity)
                r = Relation(domain, r.arity + 1, tuple(t + (t[j],) for t in r.tuples))
            cases.append((r, relation_set(env, domain)))
    for r, env in cases:
        closed = pp_closure_of(r, env)
        assert closed == oracle_pp_closure_of(r, env)
        assert_rebuilds(closed)
        witness = pp_witness(r, env)
        assert is_pp_definable(r, env) == (witness is None) == (closed == r)
        if witness is not None:
            assert witness.arity == len(r)
            assert all(preserves(witness, s) for s in env)
            assert not preserves(witness, r)


def test_searches_leave_nothing_for_the_cyclic_collector():
    # each search is freed by reference counting as soon as it is done;
    # one caught in a reference cycle would hold its constraint lists, its
    # image table or its found list until the cyclic collector ran
    succ = Relation(THREE, 2, ((0, 1), (1, 2), (2, 0)))
    pair = Relation(THREE, 2, ((0, 1), (2, 0)))
    three_env = relation_set([succ], THREE)
    check = ["check", "--ops", str(DATA / "and.ops"), "--arity", "2"]
    diag = ["diag", "--kappa", "4", "--generators", "0,1|2|3", "--domain", "2"]
    run(check)  # builds the parser that every later run reuses
    calls = [
        lambda: inv(opset([AND, NOT]), 3),
        lambda: inv(opset([NOT]), 3),
        lambda: inv(opset([MAJ]), 3),
        lambda: galois_check(opset([AND]), 2),
        lambda: ideal_downset([Partition(4, ((0, 1), (2,), (3,)))], 4),
        lambda: list(all_partitions(4)),
        lambda: partition_lattice(4),
        lambda: run(check),
        lambda: run(diag),
        lambda: pol(relation_set([LEQ]), 2),
        lambda: pol(three_env, 1),
        lambda: pp_witness(NEQ, relation_set([LEQ])),
        lambda: pp_witness(pair, three_env),
        lambda: pp_closure_of(NEQ, relation_set([LEQ])),
        lambda: pp_closure_of(pair, three_env),
        lambda: is_pp_definable(EQ, relation_set([LEQ])),
        lambda: is_pp_definable(pair, three_env),
    ]
    gc.collect()
    gc.disable()
    try:
        left = [(call(), gc.collect())[1] for call in calls]
    finally:
        gc.enable()
    assert left == [0] * len(calls)


def test_definability_refuses_five_tuples_on_two_elements():
    r = Relation(BOOL, 3, tuple(BOOL.tuples(3))[:5])
    message = r"^pol at arity 5 needs 4294967296, more than max_candidates \(10000000\)$"
    for decide in (pp_closure_of, pp_witness, is_pp_definable):
        with pytest.raises(ResourceBoundError, match=message):
            decide(r, relation_set([EQ]))
