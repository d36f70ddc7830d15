import random
import re
from pathlib import Path

import pytest

from polinv import ParseError, ResourceBoundError, load_workspace

from helpers import AND, LEQ, oracle_load_workspace

DATA = Path(__file__).parent / "data"


def test_load_golden_files():
    ws = load_workspace([DATA / "bool.ops", DATA / "order.rel", DATA / "order.pp"])
    assert ws.domain.size == 2
    assert sorted(ws.ops_by_name) == ["AND", "NOT", "OR", "XOR"]
    assert sorted(ws.rels_by_name) == ["eq", "leq", "neq"]
    assert [phi.name for phi in ws.formulas] == ["comp", "antisym", "total"]
    assert ws.ops_by_name["AND"] == AND
    assert ws.rels_by_name["leq"] == LEQ
    assert ws.rels_by_name["leq"].name == "leq"


def test_load_is_order_independent():
    paths = [DATA / "bool.ops", DATA / "order.rel"]
    assert load_workspace(paths) == load_workspace(list(reversed(paths)))


def test_short_table_reports_position():
    with pytest.raises(ParseError) as err:
        load_workspace([DATA / "short_table.ops"])
    assert "short_table.ops" in str(err.value)
    assert "4 entries" in str(err.value)


def test_bad_relation_entry_rejected():
    with pytest.raises(ParseError) as err:
        load_workspace([DATA / "bad_entry.rel"])
    assert "bad_entry.rel" in str(err.value)


def test_formula_file_errors_carry_the_path():
    with pytest.raises(ParseError) as err:
        load_workspace([DATA / "undeclared.pp"])
    assert "undeclared.pp" in str(err.value)
    assert err.value.line == 1


def test_duplicate_names_rejected(tmp_path):
    other = tmp_path / "more.ops"
    other.write_text("domain 2\nop AND 1\n0 1\n")
    with pytest.raises(ParseError) as err:
        load_workspace([DATA / "bool.ops", other])
    assert "duplicate" in str(err.value)


def test_domain_mismatch_rejected(tmp_path):
    other = tmp_path / "three.ops"
    other.write_text("domain 3\nop f 1\n0 1 2\n")
    with pytest.raises(ParseError) as err:
        load_workspace([DATA / "bool.ops", other])
    assert "domain 3" in str(err.value)


def test_domain_size_cap(tmp_path):
    big = tmp_path / "big.ops"
    big.write_text("domain 9\nop f 1\n0 1 2 3 4 5 6 7 8\n")
    with pytest.raises(ResourceBoundError, match=r"^workspace domain needs 9, more than max_domain \(4\)$"):
        load_workspace([big])


def test_empty_and_malformed_files(tmp_path):
    empty = tmp_path / "empty.ops"
    empty.write_text("\n\n")
    with pytest.raises(ParseError):
        load_workspace([empty])

    noheader = tmp_path / "noheader.ops"
    noheader.write_text("op f 1\n0 1\n")
    with pytest.raises(ParseError):
        load_workspace([noheader])

    unknown = tmp_path / "unknown.ops"
    unknown.write_text("domain 2\nfrob f 1\n")
    with pytest.raises(ParseError):
        load_workspace([unknown])

    unterminated = tmp_path / "open.rel"
    unterminated.write_text("domain 2\nrel r 1\n0\n")
    with pytest.raises(ParseError):
        load_workspace([unterminated])

    overlong = tmp_path / "overlong.ops"
    overlong.write_text("domain 2\nop f 1\n0 1 0\n")
    with pytest.raises(ParseError):
        load_workspace([overlong])

    zero_arity_rel = tmp_path / "zero.rel"
    zero_arity_rel.write_text("domain 2\nrel r 0\nend\n")
    with pytest.raises(ParseError):
        load_workspace([zero_arity_rel])


def test_no_data_file_at_all(tmp_path):
    with pytest.raises(ParseError):
        load_workspace([])
    only_formulas = tmp_path / "only.pp"
    only_formulas.write_text("def f(x) := x = x\n")
    with pytest.raises(ParseError):
        load_workspace([only_formulas])


def test_bad_tuple_width_rejected(tmp_path):
    wide = tmp_path / "wide.rel"
    wide.write_text("domain 2\nrel r 2\n0 0 0\nend\n")
    with pytest.raises(ParseError) as err:
        load_workspace([wide])
    assert "arity" in str(err.value)


# one row per load: the files (name -> text, loaded in sorted name order),
# then the exact error text and line
DATA_ERRORS = [
    ({"a.ops": "\n\n"}, "a.ops:1: empty file", 1),
    ({"a.ops": "op f 1\n0 1\n"}, "a.ops:1: expected 'domain N' header", 1),
    ({"a.ops": "domain 2 2\n"}, "a.ops:1: expected 'domain N' header", 1),
    ({"a.ops": "domain x\n"}, "a.ops:1: domain size must be a nonnegative integer, got 'x'", 1),
    ({"a.ops": "domain -1\n"}, "a.ops:1: domain size must be a nonnegative integer, got '-1'", 1),
    ({"a.ops": "domain 2\n\ndomain 2\n"}, "a.ops:3: duplicate 'domain' header", 3),
    ({"a.ops": "domain 2\nfrob f 1\n"}, "a.ops:2: unknown directive 'frob'", 2),
    ({"a.ops": "domain 2\nop\n"}, "a.ops:2: expected 'op NAME ARITY'", 2),
    ({"a.ops": "domain 2\nop f\n"}, "a.ops:2: expected 'op NAME ARITY'", 2),
    ({"a.ops": "domain 2\nop f 1 2\n"}, "a.ops:2: expected 'op NAME ARITY'", 2),
    ({"a.rel": "domain 2\nrel\n"}, "a.rel:2: expected 'rel NAME ARITY'", 2),
    ({"a.rel": "domain 2\nrel r\n"}, "a.rel:2: expected 'rel NAME ARITY'", 2),
    ({"a.rel": "domain 2\nrel r 1 2\n"}, "a.rel:2: expected 'rel NAME ARITY'", 2),
    ({"a.ops": "domain 2\nop 1f 1\n0 1\n"}, "a.ops:2: bad name '1f'", 2),
    ({"a.rel": "domain 2\nrel r-s 1\n0\nend\n"}, "a.rel:2: bad name 'r-s'", 2),
    ({"a.ops": "domain 2\nop f x\n"}, "a.ops:2: arity must be a nonnegative integer, got 'x'", 2),
    ({"a.rel": "domain 2\nrel r -1\n"}, "a.rel:2: arity must be a nonnegative integer, got '-1'", 2),
    # a file that ends early is reported at its last line, blank lines counted
    ({"a.ops": "domain 2\n\nop AND 2\n0 0 0\n\n\n"}, "a.ops:6: table for AND needs 4 entries, file ended after 3", 6),
    ({"a.ops": "domain 2\nop f 1\n0\n1 0\n"}, "a.ops:4: table for f needs 2 entries, got 3", 4),
    ({"a.ops": "domain 2\nop f 1\n0 one\n"}, "a.ops:3: table entry must be a nonnegative integer, got 'one'", 3),
    ({"a.rel": "domain 2\nrel r 0\nend\n"}, "a.rel:2: relation arity in files must be at least 1", 2),
    ({"a.rel": "domain 2\nrel r 2\n0 0\n1\nend\n"}, "a.rel:4: tuple has 1 entries, relation r has arity 2", 4),
    ({"a.rel": "domain 2\nrel r 2\n0 0\n1 x\nend\n"}, "a.rel:4: tuple entry must be a nonnegative integer, got 'x'", 4),
    ({"a.rel": "domain 2\nrel r 1\n0\n\n\n"}, "a.rel:5: relation r not terminated by 'end'", 5),
    # a value outside the domain is reported at the block's header
    ({"a.ops": "domain 2\n\nop f 1\n0 2\n"}, "a.ops:3: table contains 2, not a domain element of size 2", 3),
    (
        {"a.rel": "domain 2\nrel r 1\n0\n\nend\nrel s 2\n0 2\nend\n"},
        "a.rel:6: tuple (0, 2) contains 2, not a domain element of size 2",
        6,
    ),
    (
        {"a.ops": "domain 2\nop f 1\n0 1\n", "b.ops": "domain 3\nop g 1\n0 1 2\n"},
        "b.ops: domain 3 conflicts with domain 2 from a.ops",
        None,
    ),
    (
        {"a.ops": "domain 2\nop f 1\n0 1\n", "b.ops": "domain 2\n\nop g 1\n0 0\nop f 1\n1 0\n"},
        "b.ops:5: duplicate operation name 'f'",
        5,
    ),
    (
        {"a.rel": "domain 2\nrel r 1\n0\nend\n", "b.rel": "domain 2\nrel r 1\n1\nend\n"},
        "b.rel:2: duplicate relation name 'r'",
        2,
    ),
    # a duplicate formula is reported at the line of its second "def"
    (
        {"a.rel": "domain 2\n", "dup.pp": "def a(x) := x = x\n\ndef a(y) := y = y\n"},
        "dup.pp:3: duplicate formula name 'a'",
        3,
    ),
    # duplicates are reported in file order, whatever their kind
    (
        {
            "a.ops": "domain 2\nrel r 1\n0\nend\nop f 1\n0 1\n",
            "b.ops": "domain 2\nrel r 1\n1\nend\nop f 1\n0 1\n",
        },
        "b.ops:2: duplicate relation name 'r'",
        2,
    ),
    ({"a.ops": "domain 0\n"}, "a.ops:1: domain size must be a positive integer, got 0", 1),
    # a table over the materialization cap is refused at its header, before
    # its length is formatted: 2^20000 has more digits than str() allows
    (
        {"a.ops": "domain 2\nop f 1\n0 1\nop g 20000\n0\n"},
        "a.ops:4: table for g needs 2^20000 entries, more than max_materialize (65536)",
        4,
    ),
    ({"a.ops": "domain 2\nop g 17\n"}, "a.ops:2: table for g needs 131072 entries, more than max_materialize (65536)", 2),
    ({"a.ops": "domain 2\nop g 16\n"}, "a.ops:2: table for g needs 65536 entries, file ended after 0", 2),
    ({"a.ops": "domain 1\nop g 20000\n"}, "a.ops:2: table for g needs 1 entries, file ended after 0", 2),
    # a relation's tuples are held to the same cap, at the header: arity
    # 65536 passes it, 65537 does not
    ({"a.rel": "domain 2\nrel r 65536\n"}, "a.rel:2: relation r not terminated by 'end'", 2),
    (
        {"a.rel": "domain 2\nrel r 65537\nend\n"},
        "a.rel:2: tuple for r needs 65537 entries, more than max_materialize (65536)",
        2,
    ),
]


@pytest.mark.parametrize("files, message, line", DATA_ERRORS)
def test_data_file_error_text_and_line(tmp_path, monkeypatch, files, message, line):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with pytest.raises(ParseError) as err:
        load_workspace(list(files))
    assert (str(err.value), err.value.line) == (message, line)


def _fuzz_block(rng, d, names, fresh):
    """One "op" or "rel" block, or a stray directive, as lines: a random
    header shape, name and arity, a table or tuples of roughly the right
    size with the odd entry outside the domain, and an "end" that may be
    missing or garbled.  Names of a kind in names repeat; any other kind
    gets a fresh name."""
    kind = rng.choice(["op", "rel"] * 20 + ["domain", "frob"])
    name = rng.choice(names[kind]) if kind in names else f"{kind}{next(fresh)}"
    arity = rng.choice(["0"] + ["1", "2"] * 10 + ["x", "-1"])
    header = [kind, name, arity] + ["3"] * (rng.random() < 0.02)
    if rng.random() < 0.02:
        del header[rng.randrange(1, 3)]
    lines = [" ".join(header)]
    k = int(arity) if arity.isdigit() else 1

    def entry():
        return str(rng.randrange(d)) if rng.random() < 0.97 else rng.choice([str(d), "z"])

    if kind == "op":
        entries = [entry() for _ in range(d**k + rng.choice([0, 0, 0, 0, -1, 1]))]
        while entries:
            cut = rng.randint(1, len(entries))
            lines.append(" ".join(entries[:cut]))
            entries = entries[cut:]
    else:
        for _ in range(rng.randint(0, 3)):
            lines.append(" ".join(entry() for _ in range(k + rng.choice([0] * 12 + [-1, 1]))))
        lines.append(rng.choice(["end"] * 8 + ["  end  ", "ende", "end end", ""]))
    return lines


def _fuzz_data_file(rng, names, fresh):
    """A data file: a header (now and then bad or missing), up to four
    blocks, and blank lines anywhere, often at the end."""
    d = rng.choice([1, 2, 2, 2, 3])
    lines = [rng.choice([f"domain {d}"] * 40 + ["domain 5", "domain 0", "domain x", "domain 2 2", ""])]
    for _ in range(rng.randint(0, 4)):
        lines += _fuzz_block(rng, d, names, fresh)
    for _ in range(rng.randint(0, 3)):
        lines.insert(rng.randint(0, len(lines)), rng.choice(["", "  ", "\t"]))
    return "\n".join(lines) + "\n" * rng.randint(0, 3)


def _load_outcome(load, paths):
    try:
        ws = load(paths)
    except (ValueError, ResourceBoundError) as exc:
        return type(exc).__name__, str(exc)
    maps = (ws.ops_by_name, ws.rels_by_name, ws.formulas_by_name)
    names = [m.name for m in (*ws.operations, *ws.relations)]
    return ws.domain, ws.operations, ws.relations, names, [(k, v, v.name) for m in maps for k, v in m.items()]


def test_loader_matches_the_oracle_on_fuzzed_files(tmp_path, monkeypatch):
    # 1-2 data files per load.  Each load lets the names of one kind repeat,
    # so no file re-declares both kinds: the one case whose report changed
    # in the rewrite, pinned in DATA_ERRORS
    monkeypatch.chdir(tmp_path)
    rng = random.Random(114)
    fresh = iter(range(10**9))
    kinds = set()
    for _ in range(2000):
        repeat = rng.choice(["op", "rel"])
        names = {repeat: [repeat[0], f"{repeat[0]}2"] * 8 + ["1x", "a-b"]}
        paths = rng.sample(["a.ops", "b.rel", "c.ops"], rng.randint(1, 2))
        for path in paths:
            (tmp_path / path).write_text(_fuzz_data_file(rng, names, fresh))
        got = _load_outcome(load_workspace, paths)
        assert got == _load_outcome(oracle_load_workspace, paths), [(tmp_path / p).read_text() for p in paths]
        message = "" if len(got) > 2 else got[1].split(": ", 1)[-1]
        kinds.add(re.sub(r"'.*?'|\(.*?\)|\b(?:op|rel|o|r)\d*\b|[abc]\.\w+|\d+", "_", message))
    # a workspace and every error of the loader but "no data file declared
    # a domain", with names, numbers and quoted words blanked
    assert len(kinds) == 23, "\n".join(sorted(kinds))
