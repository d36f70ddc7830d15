from pathlib import Path

from polinv.cli import main, run

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


def test_clone_gen_auto_names_skip_taken():
    code, out, _ = run(["clone-gen", "--ops", NOT_OPS, "--max-arity", "1"])
    assert code == 0
    names = [line.split()[1] for line in out.splitlines()[1:]]
    assert "NOT" in names
    assert len(set(names)) == len(names)


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
    code, _, err = run(["inv", "--ops", AND_OPS, "--arity", "5"])
    assert code == 3
    assert err.startswith("error:")

    code, _, err = run(["pol", "--rels", LEQ_REL, "--arity", "4"])
    assert code == 3

    code, _, err = run(["diag", "--kappa", "3", "--generators", "0,1|2", "--domain", "9"])
    assert code == 3


def test_env_cap_override(monkeypatch):
    monkeypatch.setenv("GALOIS_MAX_CANDIDATES", "10")
    code, _, err = run(["inv", "--ops", AND_OPS, "--arity", "2"])
    assert code == 3
    assert "10" in err


def test_bad_env_cap_is_exit_2(monkeypatch):
    for raw in ("many", "0", "-3"):
        monkeypatch.setenv("GALOIS_MAX_CANDIDATES", raw)
        code, out, err = run(["inv", "--ops", AND_OPS, "--arity", "1"])
        assert (code, out) == (2, "") and "GALOIS_MAX_CANDIDATES" in err, raw


def test_help_exits_zero():
    code, out, err = run(["--help"])
    assert code == 0


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


def test_diag_refusals_are_pinned():
    expected = {
        ("0", ""): (2, "error: index_size must be a positive integer, got 0\n"),
        ("-1", ""): (2, "error: index_size must be a positive integer, got -1\n"),
        ("7", ""): (3, "error: partition lattice on 7 indices exceeds cap 6\n"),
        ("0", "0|1"): (2, "error: bad partition '0|1': index_size must be a positive integer, got 0\n"),
        ("-1", "0|1"): (2, "error: bad partition '0|1': index_size must be a positive integer, got -1\n"),
        ("7", "0|1"): (2, "error: bad partition '0|1': blocks do not cover the index set\n"),
    }
    for (kappa, generators), (code, err) in expected.items():
        got = run(["diag", "--kappa", kappa, "--generators", generators, "--domain", "2"])
        assert got == (code, "", err), (kappa, generators)
