from itertools import product
from pathlib import Path

import pytest

from polinv.cli import _build_parser, main, run

DATA = Path(__file__).parent / "data"

BOOL_OPS = str(DATA / "bool.ops")
AND_OPS = str(DATA / "and.ops")
NOT_OPS = str(DATA / "not.ops")
MAJ_OPS = str(DATA / "maj.ops")
LEQ_REL = str(DATA / "leq.rel")
ORDER_REL = str(DATA / "order.rel")
ORDER_PP = str(DATA / "order.pp")


def test_clone_gen_output():
    code, out, err = run(["clone-gen", "--ops", AND_OPS, "--max-arity", "2"])
    assert (code, err) == (0, "")
    assert out == (
        "clone-gen domain=2 max-arity=2 count=4\n"
        "op pr0_1 1 : 0 1\n"
        "op AND 2 : 0 0 0 1\n"
        "op pr0_2 2 : 0 0 1 1\n"
        "op pr1_2 2 : 0 1 0 1\n"
    )


def test_clone_gen_lists_nullary_generators(tmp_path):
    ops = tmp_path / "const.ops"
    ops.write_text("domain 2\n\nop c 0\n1\n\nop AND 2\n0 0 0 1\n")
    code, out, err = run(["clone-gen", "--ops", str(ops), "--max-arity", "2"])
    assert (code, err) == (0, "")
    assert out == (
        "clone-gen domain=2 max-arity=2 count=7\n"
        "op c 0 : 1\n"
        "op pr0_1 1 : 0 1\n"
        "op f0 1 : 1 1\n"
        "op AND 2 : 0 0 0 1\n"
        "op pr0_2 2 : 0 0 1 1\n"
        "op pr1_2 2 : 0 1 0 1\n"
        "op f1 2 : 1 1 1 1\n"
    )
    code, _, err = run(["clone-gen", "--ops", str(ops), "--max-arity", "2", "--include-nullary"])
    assert code == 2 and "unrecognized arguments: --include-nullary" in err


def test_clone_gen_auto_names_skip_taken(tmp_path):
    code, out, _ = run(["clone-gen", "--ops", NOT_OPS, "--max-arity", "1"])
    assert code == 0
    names = [line.split()[1] for line in out.splitlines()[1:]]
    assert "NOT" in names
    assert len(set(names)) == len(names)
    # a file operation named f0 moves the invented names on to f1 and f2
    ops = tmp_path / "f0.ops"
    ops.write_text("domain 2\n\nop c 0\n1\n\nop f0 2\n0 0 0 1\n")
    code, out, _ = run(["clone-gen", "--ops", str(ops), "--max-arity", "2", "--quiet"])
    assert code == 0
    assert [line.split()[1] for line in out.splitlines()] == ["c", "pr0_1", "f1", "f0", "pr0_2", "pr1_2", "f2"]


def test_pol_output_exact():
    code, out, err = run(["pol", "--rels", LEQ_REL, "--arity", "1"])
    assert (code, err) == (0, "")
    assert out == (
        "pol domain=2 arity=1 count=3\n"
        "op f0 1 : 0 0\n"
        "op f1 1 : 0 1\n"
        "op f2 1 : 1 1\n"
    )


def test_pol_binary_count():
    code, out, _ = run(["pol", "--rels", LEQ_REL, "--arity", "2", "--quiet"])
    assert code == 0
    assert len(out.splitlines()) == 6


def test_inv_output_exact():
    code, out, err = run(["inv", "--ops", AND_OPS, "--arity", "1"])
    assert (code, err) == (0, "")
    assert out == (
        "inv domain=2 arity=1 count=4\n"
        "rel r0 1 :\n"
        "rel r1 1 : 0\n"
        "rel r2 1 : 0 ; 1\n"
        "rel r3 1 : 1\n"
    )


def test_gamma_output_exact():
    code, out, err = run(["gamma", "--ops", NOT_OPS, "--arity", "1"])
    assert (code, err) == (0, "")
    assert out == (
        "gamma domain=2 arity=1 count=2\n"
        "rel gamma_1 2 : 0,1 ; 1,0\n"
    )


def test_ppeval_output_exact():
    code, out, err = run(
        ["ppeval", "--rels", ORDER_REL, "--formula", ORDER_PP, "--name", "comp"]
    )
    assert (code, err) == (0, "")
    assert out == (
        "ppeval domain=2 name=comp arity=2 count=3\n"
        "rel comp 2 : 0,0 ; 0,1 ; 1,1\n"
    )


def test_ppeval_true_formula():
    code, out, _ = run(
        ["ppeval", "--rels", ORDER_REL, "--formula", ORDER_PP, "--name", "total", "--quiet"]
    )
    assert code == 0
    assert out == "rel total 2 : 0,0 ; 0,1 ; 1,0 ; 1,1\n"


def test_ppeval_unknown_name():
    code, out, err = run(
        ["ppeval", "--rels", ORDER_REL, "--formula", ORDER_PP, "--name", "nope"]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    # ppdef --target and essential --name refuse a missing name the same way
    code, out, err = run(["ppdef", "--rels", ORDER_REL, "--target", "nope"])
    assert (code, out, err) == (2, "", "error: no relation named 'nope' in the loaded files\n")
    code, out, err = run(["essential", "--ops", BOOL_OPS, "--name", "nope"])
    assert (code, out, err) == (2, "", "error: no operation named 'nope' in the loaded files\n")


def test_ppdef_definable():
    code, out, _ = run(["ppdef", "--rels", ORDER_REL, "--target", "eq", "--quiet"])
    assert code == 0
    assert out == "definable : yes\n"


def test_ppdef_not_definable_shows_closure():
    code, out, _ = run(["ppdef", "--rels", ORDER_REL, "--target", "neq", "--quiet"])
    assert code == 0
    assert out == (
        "definable : no\n"
        "rel closure 2 : 0,0 ; 0,1 ; 1,0 ; 1,1\n"
    )


TWIN_RELS = "domain 2\n\nrel a 2\n0 0\n0 1\n1 1\nend\n\nrel b 2\n0 0\n0 1\n1 1\nend\n"


def test_ppeval_finds_a_relation_equal_to_an_earlier_one(tmp_path):
    rels, formulas = tmp_path / "twins.rel", tmp_path / "useb.pp"
    rels.write_text(TWIN_RELS)
    formulas.write_text("def useb(x, y) := b(x, y)\n")
    code, out, err = run(["ppeval", "--rels", str(rels), "--formula", str(formulas), "--name", "useb"])
    assert (code, err) == (0, "")
    assert out == "ppeval domain=2 name=useb arity=2 count=3\nrel useb 2 : 0,0 ; 0,1 ; 1,1\n"


def test_ppdef_target_equal_to_another_relation_is_definable(tmp_path):
    rels = tmp_path / "twins.rel"
    rels.write_text(TWIN_RELS)
    for target in ("a", "b"):
        code, out, err = run(["ppdef", "--rels", str(rels), "--target", target])
        assert (code, err) == (0, "")
        assert out == f"ppdef domain=2 target={target} count=3\ndefinable : yes\n"


def test_diag_output_exact():
    code, out, err = run(["diag", "--kappa", "3", "--generators", "0,1|2", "--domain", "2"])
    assert (code, err) == (0, "")
    assert out == (
        "diag domain=2 kappa=3 ideal=2 count=4\n"
        "partition : 0,1|2\n"
        "partition : 0,1,2\n"
        "rel diag 3 : 0,0,0 ; 0,0,1 ; 1,1,0 ; 1,1,1\n"
    )


def test_diag_two_generators_fill_the_lattice():
    code, out, _ = run(
        ["diag", "--kappa", "3", "--generators", "0,1|2 ; 0|1,2", "--domain", "2", "--quiet"]
    )
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("partition")) == 5
    assert lines[-1].startswith("rel diag 3 :")
    assert len(lines[-1].split(";")) == 8


def test_diag_bad_partition_is_a_parse_error():
    code, _, err = run(["diag", "--kappa", "3", "--generators", "0,1|9", "--domain", "2"])
    assert code == 2
    assert "error:" in err


def test_essential_output():
    code, out, _ = run(["essential", "--ops", BOOL_OPS, "--name", "AND"])
    assert code == 0
    assert out == (
        "essential domain=2 name=AND arity=2 count=2\n"
        "indices : 0 1\n"
    )


def test_check_passes_on_and():
    code, out, err = run(["check", "--ops", AND_OPS, "--arity", "2"])
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "check domain=2 arity=2 max-k=4"
    # the clone line counts the arity-2 slice: AND plus both projections
    assert lines[1] == "clone : 3"
    assert lines[2] == "invariants : 5100"  # 4 + 14 + 122 + 4960 over k = 1..4
    assert lines[3] == "recovered : 3"
    assert lines[4] == "PASS"
    assert len(lines) == 5


def test_check_with_small_max_k_still_passes_here():
    # the default bound d^n always suffices; for AND the binary
    # invariants happen to pin the clone already
    code, out, _ = run(["check", "--ops", AND_OPS, "--arity", "2", "--max-k", "2", "--quiet"])
    assert code == 0
    assert out.splitlines()[3] == "PASS"


def test_check_on_majority_is_pinned():
    # 4356 = 4 + 16 + 166 + 4170 invariants over k = 1..4
    code, out, err = run(["check", "--ops", MAJ_OPS, "--arity", "2"])
    assert (code, err) == (0, "")
    assert out == "check domain=2 arity=2 max-k=4\nclone : 2\ninvariants : 4356\nrecovered : 2\nPASS\n"
    # Baker-Pixley: with a majority operation the binary invariants suffice
    code, out, err = run(["check", "--ops", MAJ_OPS, "--arity", "3", "--max-k", "2"])
    assert (code, err) == (0, "")
    assert out == "check domain=2 arity=3 max-k=2\nclone : 4\ninvariants : 20\nrecovered : 4\nPASS\n"


def test_check_fail_verdicts_are_pinned():
    # with max_k below d^n the unary invariants are too few: pol recovers
    # operations outside the clone, and each one is printed as a witness
    code, out, err = run(["check", "--ops", AND_OPS, "--arity", "2", "--max-k", "1"])
    assert (code, err) == (0, "")
    assert out == (
        "check domain=2 arity=2 max-k=1\nclone : 3\ninvariants : 4\nrecovered : 4\nFAIL\n"
        "witness op w0 2 : 0 1 1 1\n"
    )
    code, out, err = run(["check", "--ops", MAJ_OPS, "--arity", "2", "--max-k", "1"])
    assert (code, err) == (0, "")
    assert out == (
        "check domain=2 arity=2 max-k=1\nclone : 2\ninvariants : 4\nrecovered : 4\nFAIL\n"
        "witness op w0 2 : 0 0 0 1\nwitness op w1 2 : 0 1 1 1\n"
    )


def test_check_bool_at_arity_3():
    # the ternary slice alone: {AND, NOT} is complete, so it holds all 256
    # ternary operations
    code, out, err = run(["check", "--ops", BOOL_OPS, "--arity", "3", "--max-k", "3"])
    assert (code, err) == (0, "")
    assert out == "check domain=2 arity=3 max-k=3\nclone : 256\ninvariants : 11\nrecovered : 256\nPASS\n"


def test_quiet_drops_only_the_summary():
    loud = run(["pol", "--rels", LEQ_REL, "--arity", "1"])
    quiet = run(["pol", "--rels", LEQ_REL, "--arity", "1", "--quiet"])
    assert loud[1].splitlines()[1:] == quiet[1].splitlines()


def test_runs_are_deterministic():
    args = ["check", "--ops", BOOL_OPS, "--arity", "1"]
    first = run(args)
    assert first[0] == 0
    assert "PASS" in first[1].splitlines()
    assert run(args) == first


def test_missing_file_is_exit_2():
    code, _, err = run(["pol", "--rels", "no_such_file.rel", "--arity", "1"])
    assert code == 2
    assert err.startswith("error:")


def test_malformed_file_is_exit_2():
    code, _, err = run(["inv", "--ops", str(DATA / "short_table.ops"), "--arity", "1"])
    assert code == 2
    assert "short_table.ops" in err


@pytest.mark.parametrize(
    "name, message",
    [
        ("zero_domain.ops", "1: domain size must be a positive integer, got 0"),
        ("huge_arity.ops", "2: table for f needs 2^20000 entries, more than max_materialize (65536)"),
        ("wide_rel.rel", "2: tuple for r needs 65537 entries, more than max_materialize (65536)"),
    ],
)
def test_bad_header_is_exit_2_at_its_line(name, message):
    path = str(DATA / name)
    code, out, err = run(["check", "--ops", path, "--arity", "1"])
    assert (code, out, err) == (2, "", f"error: {path}:{message}\n")


def test_usage_error_is_exit_2():
    code, _, err = run(["pol", "--rels", LEQ_REL])
    assert code == 2
    assert "usage" in err

    code, _, err = run(["frobnicate"])
    assert code == 2

    code, _, err = run([])
    assert code == 2


def test_negative_arity_is_exit_2():
    code, _, err = run(["pol", "--rels", LEQ_REL, "--arity", "0"])
    assert code == 2
    assert err.startswith("error:")


def test_resource_bounds_are_exit_3():
    refusals = [
        (["inv", "--ops", AND_OPS, "--arity", "5"], "inv at arity 5 needs 4294967296, more than max_candidates (10000000)"),
        # 2^8192 has 2,467 digits and 2^16384 more than str() converts
        (["inv", "--ops", AND_OPS, "--arity", "13"], "inv at arity 13 needs 2^8192, more than max_candidates (10000000)"),
        (["inv", "--ops", AND_OPS, "--arity", "14"], "inv at arity 14 needs 2^16384, more than max_candidates (10000000)"),
        (["pol", "--rels", LEQ_REL, "--arity", "4"], "pol --arity needs 4, more than max_enum_arity (3)"),
        (
            ["diag", "--kappa", "3", "--generators", "0,1|2", "--domain", "9"],
            "diag --domain needs 9, more than max_domain (4)",
        ),
        # min and x+1 mod 3 are complete (Post 1921), so the binary slice grows
        # toward all 3^9 tables and one of its rounds outgrows the cap
        (
            ["clone-gen", "--ops", str(DATA / "minsuc3.ops"), "--max-arity", "2"],
            "clone slice round at arity 2 needs 25465202, more than max_candidates (10000000)",
        ),
    ]
    for argv, message in refusals:
        assert run(argv) == (3, "", f"error: {message}\n"), argv


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("GALOIS_MAX_CANDIDATES", "10")
    code, _, err = run(["inv", "--ops", AND_OPS, "--arity", "2"])
    assert (code, err) == (3, "error: inv at arity 2 needs 16, more than max_candidates (10)\n")


def test_bad_env_cap_is_exit_2(monkeypatch):
    for raw in ("many", "0", "-3"):
        monkeypatch.setenv("GALOIS_MAX_CANDIDATES", raw)
        code, out, err = run(["inv", "--ops", AND_OPS, "--arity", "1"])
        assert (code, out) == (2, "") and "GALOIS_MAX_CANDIDATES" in err, raw


def test_help_exits_zero():
    code, out, err = run(["--help"])
    assert code == 0


def test_one_parser_serves_every_run(capsys):
    # a usage error, --help (printed straight to stdout) and a check,
    # three times over in one process
    argvs = (["check", "--ops", AND_OPS], ["--help"], ["check", "--ops", AND_OPS, "--arity", "1"])
    rounds = [[(run(argv), capsys.readouterr()) for argv in argvs] for _ in range(3)]
    assert rounds[1] == rounds[0] and rounds[2] == rounds[0]
    (usage, _), (helped, printed), (checked, _) = rounds[0]
    assert usage[:2] == (2, "")
    assert usage[2].endswith("polinv check: error: the following arguments are required: --arity\n")
    assert helped == (0, "", "") and printed.out.startswith("usage: polinv")
    assert checked[0] == 0 and checked[1].endswith("PASS\n")
    assert _build_parser() is _build_parser()


def test_main_writes_streams(capsys):
    assert main(["pol", "--rels", LEQ_REL, "--arity", "1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("pol domain=2")
    assert main(["pol", "--rels", "missing.rel", "--arity", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")


GOLDEN = DATA / "golden"


def test_diag_stdout_matches_golden_files():
    # recorded from the kernel-filter implementation; any rebuild of ideals
    # and diagonals must reproduce these bytes
    cases = (
        (["--kappa", "4", "--generators", "0,1|2|3 ; 0|1,2|3", "--domain", "3"], "diag_k4_d3.out"),
        (["--kappa", "6", "--generators", "0|1|2|3|4|5", "--domain", "2"], "diag_k6_d2.out"),
    )
    for argv, name in cases:
        code, out, err = run(["diag", *argv])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text()


def test_clone_gen_stdout_matches_golden_files():
    # minneg3 and and recorded from the dict-keyed row kernel, bool from the
    # union of slices; any rebuild of the closure or of its kernel must
    # reproduce these bytes
    cases = (
        (["--ops", str(DATA / "minneg3.ops"), "--max-arity", "2"], "clone_gen_minneg3_a2.out"),
        (["--ops", AND_OPS, "--max-arity", "3"], "clone_gen_and_a3.out"),
        (["--ops", BOOL_OPS, "--max-arity", "3"], "clone_gen_bool_a3.out"),
    )
    for argv, name in cases:
        code, out, err = run(["clone-gen", *argv])
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text()
    # {AND, NOT} is complete (Post 1941): bool.ops generates every Boolean
    # table of arity 1 to 3, and with no nullary generator no constant
    header, *lines = (GOLDEN / "clone_gen_bool_a3.out").read_text().splitlines()
    assert header == "clone-gen domain=2 max-arity=3 count=276"
    tables = [(int(head.split()[2]), tuple(map(int, cells.split()))) for head, cells in (x.split(" : ") for x in lines)]
    assert sorted(tables) == [(n, t) for n in (1, 2, 3) for t in product((0, 1), repeat=2**n)]


def test_gamma_stdout_matches_golden_file():
    # np3.ops is the near-projection 1 0 0 1 0 0 1 1, whose ternary slice
    # (128 members) is the heaviest closure under a ternary generator;
    # recorded from the row_images kernel
    code, out, err = run(["gamma", "--ops", str(DATA / "np3.ops"), "--arity", "3"])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "gamma_np3_a3.out").read_text()


def test_ppeval_stdout_matches_golden_file():
    # a d=3 formula with two existentials and repeated variables, one of
    # them in an equality atom; recorded from the per-token parser and the
    # generator-keyed join
    argv = ["ppeval", "--rels", str(DATA / "three.rel"), "--formula", str(DATA / "three.pp"), "--name", "chain"]
    code, out, err = run(argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "ppeval_three.out").read_text()


def test_ppdef_stdout_matches_golden_file():
    # the 17 binary polymorphisms of a d=3 environment reach (0,0) and
    # (2,2) from the rows of target, and no other tuple outside it, so each
    # of the seven is decided by one pinned search; recorded from the
    # recursive backtracker
    code, out, err = run(["ppdef", "--rels", str(DATA / "ppdef3.rel"), "--target", "target"])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "ppdef_three.out").read_text()


def test_check_and_inv_stdout_match_golden_files():
    # OR's images rank at or above their rows, so its invariant search runs
    # in reversed rank order; recorded from the search in natural order.
    # 5100 = 4 + 14 + 122 + 4960 invariants over k = 1..4, the counts of
    # AND mirrored by x -> 1 - x.  {NOT, XOR} sits near the tie between the
    # two orders; recorded from the search that scored the built image table.
    # MAJ (natural order), the near-projection NP3 (reversed order) and NOT
    # alone are filed one set of later rows at a time, not as a binary
    # member; recorded from the table that filed unary members all at once
    not_xor = ["--ops", str(DATA / "not.ops"), "--ops", str(DATA / "xor.ops")]
    cases = (
        (["check", "--ops", str(DATA / "or.ops"), "--arity", "2"], "check_or_a2.out"),
        (["inv", "--ops", str(DATA / "or.ops"), "--arity", "3"], "inv_or_a3.out"),
        (["check", *not_xor, "--arity", "2"], "check_not_xor_a2.out"),
        (["inv", *not_xor, "--arity", "3"], "inv_not_xor_a3.out"),
        (["inv", "--ops", MAJ_OPS, "--arity", "3"], "inv_maj_a3.out"),
        (["inv", "--ops", str(DATA / "np3.ops"), "--arity", "3"], "inv_np3_a3.out"),
        (["inv", "--ops", NOT_OPS, "--arity", "3"], "inv_not_a3.out"),
    )
    for argv, name in cases:
        code, out, err = run(argv)
        assert (code, err) == (0, "")
        assert out == (GOLDEN / name).read_text()
    assert (GOLDEN / "check_or_a2.out").read_text().splitlines()[1:] == [
        "clone : 3", "invariants : 5100", "recovered : 3", "PASS"
    ]
    assert (GOLDEN / "inv_or_a3.out").read_text().splitlines()[0] == "inv domain=2 arity=3 count=122"
    assert [(GOLDEN / f"inv_{n}_a3.out").read_text().splitlines()[0] for n in ("maj", "np3", "not")] == [
        "inv domain=2 arity=3 count=166", "inv domain=2 arity=3 count=16", "inv domain=2 arity=3 count=16"
    ]


def test_diag_refusals_are_pinned():
    expected = {
        ("0", ""): (2, "error: index_size must be a positive integer, got 0\n"),
        ("-1", ""): (2, "error: index_size must be a positive integer, got -1\n"),
        ("7", ""): (3, "error: ideal downset needs 7, more than max_index (6)\n"),
        ("0", "0|1"): (2, "error: bad partition '0|1': index_size must be a positive integer, got 0\n"),
        ("-1", "0|1"): (2, "error: bad partition '0|1': index_size must be a positive integer, got -1\n"),
        ("7", "0|1"): (2, "error: bad partition '0|1': blocks do not cover the index set\n"),
    }
    for (kappa, generators), (code, err) in expected.items():
        got = run(["diag", "--kappa", kappa, "--generators", generators, "--domain", "2"])
        assert got == (code, "", err), (kappa, generators)
