"""End-to-end tests for the command line front end.

Everything runs in-process through main(argv) so exit codes, stdout and
stderr are all observable, except where a fresh interpreter must answer
within a time limit.  Input files are produced either by hand or
by round-tripping the tool's own dump output through tmp_path.
"""

import hashlib
import json
import random
import time

import pytest

from lralg.catalog import catalog_entry, catalog_list, sample_params
from lralg.cli import main
from lralg.constraints import generate_lr_system, structural_reduce
from lralg.fileformat import (
    format_algebra,
    format_system,
    parse_algebra_file,
    parse_algebra_text,
)
from test_fileformat import run_lralg_briefly


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def dump_to(tmp_path, capsys, fname, key, *params):
    argv = ["catalog", "dump", key]
    for p in params:
        argv += ["--param", p]
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    path = tmp_path / fname
    path.write_text(out, encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# check


def test_check_valid_structure(tmp_path, capsys):
    path = dump_to(tmp_path, capsys, "a3.alg", "n3/A3")
    code, out, err = run(capsys, "check", path)
    assert code == 0
    assert "algebra n3_A3: dim 3" in out
    assert "axioms: ok (compat 3, left_commute 9, right_commute 9)" in out
    assert "complete: yes" in out
    assert "lemmas" not in out

    code, out, err = run(capsys, "check", path, "--lemmas")
    assert code == 0
    assert "lemmas: ok (" in out


def test_check_json_schema(tmp_path, capsys):
    path = dump_to(tmp_path, capsys, "a3.alg", "n3/A3")
    code, out, err = run(capsys, "check", path, "--lemmas", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["complete"] is True
    assert payload["dim"] == 3
    assert payload["axioms"]["counts"] == {
        "compat": 3,
        "left_commute": 9,
        "right_commute": 9,
    }
    assert payload["axioms"]["violations"] == []
    assert payload["lemmas"]["ok"] is True
    assert payload["lemmas"]["counts"] == {
        "ad_product_rule_left": 27,
        "ad_product_rule_right": 27,
        "center_kills_derived": 2,
        "derived_brackets_vanish": 4,
        "left_derivation": 27,
        "lower_series_two_sided_ideal": 4,
        "product_cycle_left": 27,
        "product_cycle_right": 27,
        "product_square_commute": 4,
        "right_derivation": 27,
        "series_product_grading": 16,
        "two_step_solvable": 1,
        "upper_series_two_sided_ideal": 3,
    }


LEMMA_NAMES = (
    "ad_product_rule_left",
    "ad_product_rule_right",
    "center_kills_derived",
    "derived_brackets_vanish",
    "left_derivation",
    "lower_series_two_sided_ideal",
    "product_cycle_left",
    "product_cycle_right",
    "product_square_commute",
    "right_derivation",
    "series_product_grading",
    "two_step_solvable",
    "upper_series_two_sided_ideal",
)


@pytest.mark.parametrize(
    "argv, axioms, lemmas",
    [
        (
            ["free3", "4"],
            (435, 13050, 13050),
            (27000, 27000, 2, 676, 27000, 5, 27000, 27000, 676, 27000, 25, 1, 4),
        ),
        (
            ["filiform", "7", "--coeffs=2,-1,3"],
            (21, 147, 147),
            (343, 343, 2, 256, 343, 8, 343, 343, 121, 343, 64, 1, 7),
        ),
    ],
    ids=["free3-4", "filiform-7"],
)
def test_check_counts_on_constructed_algebras(tmp_path, capsys, argv, axioms, lemmas):
    """Every check is counted, including those counted in bulk because
    their residual is known to be zero."""
    code, out, err = run(capsys, "construct", *argv)
    assert code == 0, err
    path = tmp_path / "a.alg"
    path.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), "--lemmas", "--json")
    assert code == 0, err
    payload = json.loads(out)
    names = ("compat", "left_commute", "right_commute")
    assert payload["axioms"]["counts"] == dict(zip(names, axioms))
    assert payload["lemmas"]["counts"] == dict(zip(LEMMA_NAMES, lemmas))


def test_check_axiom_violation_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.alg"
    path.write_text(
        "algebra bad\ndim 3\n[1,2] = e3\nproduct\n(1,2) = e3\n(2,1) = e3\n",
        encoding="utf-8",
    )
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert "axioms: 1 violation(s)" in out
    assert "compat at (1, 2)" in out

    code, out, err = run(capsys, "check", str(path), "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["axioms"]["violations"][0]["check"] == "compat"


def test_check_requires_product_section(tmp_path, capsys):
    path = tmp_path / "bonly.alg"
    path.write_text("algebra b\ndim 3\n[1,2] = e3\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 1
    assert "no product section" in err


def test_parse_error_exits_2_with_position(tmp_path, capsys):
    path = tmp_path / "malformed.alg"
    path.write_text("algebra x\ndim 2\n[1,2] = 1/0*e1\n", encoding="utf-8")
    code, out, err = run(capsys, "check", str(path))
    assert code == 2
    assert err.strip() == f"{path}: line 3, column 9: zero denominator"


def test_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "check", str(tmp_path / "nope.alg"))
    assert code == 2
    assert "No such file" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# series


def test_series_line_format(tmp_path, capsys):
    path = dump_to(tmp_path, capsys, "a3.alg", "n3/A3")
    code, out, err = run(capsys, "series", path)
    assert code == 0
    assert out.strip() == (
        "gamma: 3 1 0; derived: 3 1 0; upper: 1 3; two-step solvable: yes"
    )


def test_series_g13(tmp_path, capsys):
    path = dump_to(tmp_path, capsys, "g13.alg", "g13")
    code, out, err = run(capsys, "series", path)
    assert code == 0
    assert out.startswith("gamma: 13 9 5 0; derived: 13 9 0;")
    assert "two-step solvable: yes" in out

    code, out, err = run(capsys, "series", path, "--json")
    payload = json.loads(out)
    assert payload["gamma"] == [13, 9, 5, 0]
    assert payload["derived"] == [13, 9, 0]
    assert payload["two_step_solvable"] is True


# ---------------------------------------------------------------------------
# catalog


def test_catalog_list(capsys):
    code, out, err = run(capsys, "catalog", "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 29
    assert lines[0] == "r2/A1 [incomplete]"
    assert "n3/A1 (alpha: any rational) [complete]" in lines
    assert lines[-1] == "g13 [admits no LR-structure]"
    assert sum("[incomplete]" in line for line in lines) == 4


def test_catalog_list_json(capsys):
    code, out, err = run(capsys, "catalog", "list", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["families"]) == 28
    assert payload["counterexamples"] == ["g13"]
    keys = [f["key"] for f in payload["families"]]
    assert keys == sorted(keys, key=keys.index)  # stable listing order


def test_catalog_verify_all(capsys):
    code, out, err = run(capsys, "catalog", "verify")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 28
    assert all(line.endswith("ok") for line in lines)
    total = sum(int(line.split(":")[1].split()[0]) for line in lines)
    assert total == 86


def test_catalog_verify_prefix_and_unknown(capsys):
    code, out, err = run(capsys, "catalog", "verify", "r2", "n4")
    assert code == 0
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "r2/A1",
        "r2/A2",
        "r2/A3",
        "n4/A1",
        "n4/A2",
        "n4/A3",
        "n4/A4",
        "n4/A5",
        "n4/A6",
    ]

    for cmd in ("verify", "dump"):
        code, out, err = run(capsys, "catalog", cmd, "nosuch")
        assert code == 1
        assert err == "error: unknown catalog key 'nosuch'\n"


def test_catalog_verify_json(capsys):
    code, out, err = run(capsys, "catalog", "verify", "n3", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert set(payload["results"]) == {"n3/A1", "n3/A2", "n3/A3", "n3/A4"}


def test_catalog_dump_round_trip(capsys):
    code, first, err = run(capsys, "catalog", "dump", "n3/A3")
    assert code == 0
    code, second, err = run(capsys, "catalog", "dump", "n3/A3")
    assert first == second  # byte-identical reruns
    f = parse_algebra_text(first)
    assert format_algebra(f.name, f.to_lie(), f.to_lr()) == first


def test_catalog_dump_with_params(capsys):
    code, out, err = run(
        capsys, "catalog", "dump", "n3/A1", "--param", "alpha=-1/2"
    )
    assert code == 0
    assert "(2,2) = -1/2*e3" in out

    code, out, err = run(capsys, "catalog", "dump", "r2/A9")
    assert code == 1
    code, out, err = run(
        capsys, "catalog", "dump", "n3/A1", "--param", "alpha=x"
    )
    assert code == 1
    assert "bad rational" in err
    code, out, err = run(
        capsys, "catalog", "dump", "n3_r/A7", "--param", "alpha=1"
    )
    assert code == 1  # outside the recorded domain alpha <= 3/4


def test_catalog_dump_refuses_a_repeated_parameter(capsys):
    # a second value would silently win; it is refused like an unknown name
    for key in ("n3/A1", "g13"):
        code, out, err = run(
            capsys, "catalog", "dump", key, "--param", "alpha=1", "--param", " alpha=2"
        )
        assert (code, out) == (1, "")
        assert err == "error: --param alpha given more than once\n"
    code, out, err = run(capsys, "catalog", "dump", "n3/A1", "--param", "alpha=1")
    assert code == 0 and out


def test_catalog_dump_g13_has_no_product(capsys):
    code, out, err = run(capsys, "catalog", "dump", "g13")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "algebra g13"
    assert lines[1] == "dim 13"
    assert "product" not in out


def test_catalog_dump_g13_refuses_parameters(capsys):
    code, out, err = run(capsys, "catalog", "dump", "g13", "--param", "alpha=1")
    assert (code, out) == (1, "")
    assert err == "error: g13: unexpected parameter(s) alpha\n"
    code, out, err = run(capsys, "catalog", "dump", "g13", "--param", "bogus")
    assert (code, out) == (1, "")
    assert "--param needs name=value" in err


# ---------------------------------------------------------------------------
# construct


def test_construct_filiform(capsys):
    code, out, err = run(capsys, "construct", "filiform", "4")
    assert code == 0
    assert out == (
        "algebra filiform4\n"
        "dim 4\n"
        "[1,2] = e3\n"
        "[1,3] = e4\n"
        "product\n"
        "(2,1) = -e3\n"
        "(3,1) = -e4\n"
    )

    code, out, err = run(capsys, "construct", "filiform", "5", "--coeffs", "2")
    assert code == 0
    assert out.splitlines()[1] == "dim 5"

    code, out, err = run(capsys, "construct", "filiform", "5")
    assert code == 1
    assert "needs 1 entries" in err


def test_construct_halfad(tmp_path, capsys):
    code, out, err = run(capsys, "construct", "filiform", "5", "--coeffs", "0")
    (tmp_path / "fil5.alg").write_text(out, encoding="utf-8")

    path = dump_to(tmp_path, capsys, "a3.alg", "n3/A3")
    code, out, err = run(capsys, "construct", "halfad", path)
    assert code == 0
    assert "algebra n3_A3_halfad" in out
    assert "(1,2) = 1/2*e3" in out
    assert "(2,1) = -1/2*e3" in out

    # a four-step nilpotent input is rejected
    code, out, err = run(capsys, "construct", "halfad", str(tmp_path / "fil5.alg"))
    assert code == 1


def test_construct_free_families(capsys):
    code, out, err = run(capsys, "construct", "free3", "2")
    assert code == 0
    assert out.splitlines()[1] == "dim 5"
    code, again, err = run(capsys, "construct", "free3", "2")
    assert again == out
    # dimension 55, below the cap of 64
    code, out, err = run(capsys, "construct", "free3", "5")
    assert code == 0, err
    assert out.splitlines()[1] == "dim 55"

    code, out, err = run(capsys, "construct", "free4-2gen", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 8
    assert payload["complete"] is True
    assert payload["name"] == "free_nilpotent_4step_2gen"


@pytest.mark.parametrize(
    "argv, dim",
    [
        (["free3", "6"], 91),
        (["free3", "10"], 385),
        (["filiform", "65", "--coeffs", ",".join(["0"] * 61)], 65),
    ],
    ids=["free3-6", "free3-10", "filiform-65"],
)
def test_construct_refuses_dimensions_above_the_cap(argv, dim):
    """An algebra no reader would accept is refused before it is built,
    in a fresh interpreter that must answer within 5 s."""
    done = run_lralg_briefly("construct", *argv)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"error: dimension {dim} is above the cap of 64\n"


def test_construct_extension(tmp_path, capsys):
    tiny = tmp_path / "tiny.ext"
    tiny.write_text(
        "extension tiny\nkernel 1\nbase 1\nphi 1 = [1]\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "construct", "extension", str(tiny))
    assert code == 0
    assert out == "algebra tiny\ndim 2\n[1,2] = -e1\n"

    code, out, err = run(capsys, "construct", "extension", str(tiny), "--lift", "1")
    assert code == 0
    assert "algebra tiny_lift" in out
    assert "(2,1) = e1" in out
    lifted = tmp_path / "lifted.alg"
    lifted.write_text(out, encoding="utf-8")
    code, out, err = run(capsys, "check", str(lifted))
    assert code == 0

    code, out, err = run(capsys, "construct", "extension", str(tiny), "--lift", "1,2")
    assert code == 1
    assert "--lift needs 1 coordinates" in err

    heis = tmp_path / "heis.ext"
    heis.write_text(
        "extension heis\nkernel 1\nbase 2\nomega (1,2) = a1\n", encoding="utf-8"
    )
    code, out, err = run(capsys, "construct", "extension", str(heis))
    assert code == 0
    assert "dim 3" in out and "[2,3] = e1" in out
    # the zero map has no invertible value, so no generator lift exists
    code, out, err = run(capsys, "construct", "extension", str(heis), "--lift", "1,0")
    assert code == 1
    assert "singular" in err


def test_construct_rejects_bad_rationals_with_one_error_line(tmp_path, capsys):
    """A zero denominator in --coeffs or --lift exits 2 with one error
    line, as a malformed rational does, instead of a traceback."""
    tiny = tmp_path / "tiny.ext"
    tiny.write_text(
        "extension tiny\nkernel 1\nbase 1\nphi 1 = [1]\n", encoding="utf-8"
    )
    commands = (
        ("construct", "filiform", "5", "--coeffs"),
        ("construct", "extension", str(tiny), "--lift"),
    )
    for argv in commands:
        for bad in ("1/0", "abc", "0/0"):
            code, out, err = run(capsys, *argv, bad)
            assert (code, out) == (2, ""), (argv, bad)
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert repr(bad) in err


def test_construct_extension_at_the_size_cap(tmp_path, capsys):
    """An empty 32/32 datum builds its dimension-64 algebra, at the cap,
    in seconds and with no bracket lines; an empty 64/64 datum is refused
    before it is built, as no reader would accept dimension 128."""
    empty = tmp_path / "empty.ext"
    empty.write_text("extension empty\nkernel 32\nbase 32\n", encoding="utf-8")
    t0 = time.monotonic()
    code, out, err = run(capsys, "construct", "extension", str(empty))
    assert time.monotonic() - t0 < 30
    assert code == 0, err
    assert out == "algebra empty\ndim 64\n"

    empty.write_text("extension empty\nkernel 64\nbase 64\n", encoding="utf-8")
    code, out, err = run(capsys, "construct", "extension", str(empty))
    assert (code, out) == (2, "")
    assert err == "error: dimension 128 is above the cap of 64\n"


# ---------------------------------------------------------------------------
# constraints and solve


def test_constraints_stdout(tmp_path, capsys):
    path = dump_to(tmp_path, capsys, "r2.alg", "r2/A2")
    code, out, err = run(capsys, "constraints", path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "# product constraints for r2_A2"
    assert lines[1] == "# 8 variables, 10 generated constraints"
    assert lines[2] == "dim 2"
    assert len(lines) == 3 + 10


def test_constraints_reduce_and_output(tmp_path, capsys):
    path = dump_to(tmp_path, capsys, "r2.alg", "r2/A2")
    out_file = tmp_path / "r2red.txt"
    code, out, err = run(
        capsys, "constraints", path, "--reduce", "-o", str(out_file)
    )
    assert code == 0
    assert out.strip() == f"wrote {out_file}"
    lines = out_file.read_text(encoding="utf-8").splitlines()
    assert lines[2] == "# reduced: 5 variables eliminated, 1 residual constraints"
    assert lines[4] == "x[1][1][1] * x[2][1][2] - x[1][1][2]^2 + x[1][1][2]"

    code, out, err = run(capsys, "constraints", path, "--reduce", "--json")
    payload = json.loads(out)
    assert payload["variables"] == 8
    assert payload["generated"] == 10
    assert payload["eliminated"] == 5
    assert payload["contradiction"] is False
    assert len(payload["polys"]) == 1


def test_constraints_reduce_flags_contradiction(tmp_path, capsys):
    path = dump_to(tmp_path, capsys, "g13.alg", "g13")
    code, out, err = run(capsys, "constraints", path, "--reduce")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "# 2197 variables, 27378 generated constraints"
    assert "# linear layer is contradictory" in lines[:4]
    marker = [l for l in lines if l.startswith("# reduced:")]
    assert len(marker) == 1
    eliminated = int(marker[0].split()[2])
    assert eliminated > 1000


@pytest.mark.parametrize("reduce", [False, True], ids=["raw", "reduced"])
def test_constraints_output_is_the_header_then_format_system(tmp_path, capsys, reduce):
    """stdout and the -o file hold the same text, the comment header and
    then format_system of the raw or reduced n4 system, and --json lists
    that text's polynomial lines, with -o or without."""
    path = dump_to(tmp_path, capsys, "n4.alg", "n4/A2")
    g = parse_algebra_file(path).to_lie()
    system = generate_lr_system(g)
    header = [
        "# product constraints for n4_A2",
        f"# {system.nvars} variables, {len(system.polys)} generated constraints",
    ]
    flags, polys = [], system.polys
    if reduce:
        red = structural_reduce(system)
        assert not red.contradiction
        header.append(
            f"# reduced: {red.eliminated_count} variables eliminated,"
            f" {len(red.residual)} residual constraints"
        )
        flags, polys = ["--reduce"], red.residual
    body = format_system(g.dim, polys)
    text = "\n".join(header) + "\n" + body

    assert run(capsys, "constraints", path, *flags) == (0, text, "")
    out_file = tmp_path / "n4.sys"
    code, out, err = run(capsys, "constraints", path, *flags, "-o", str(out_file))
    assert (code, out) == (0, f"wrote {out_file}\n")
    assert out_file.read_bytes() == text.encode()
    listed = body.splitlines()[1:]
    code, out, err = run(capsys, "constraints", path, *flags, "--json")
    assert (code, json.loads(out)["polys"]) == (0, listed)
    out_file.unlink()
    code, out, err = run(capsys, "constraints", path, *flags, "-o", str(out_file), "--json")
    assert (code, json.loads(out)["polys"]) == (0, listed)
    assert out_file.read_bytes() == text.encode()


def test_solve_inconsistent_toy(tmp_path, capsys):
    path = tmp_path / "toy.txt"
    path.write_text("dim 1\nx[1][1][1]^2\nx[1][1][1] - 1\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "inconsistent"
    assert "ending in a nonzero constant" in lines[1]

    code, out, err = run(capsys, "solve", str(path), "--json")
    payload = json.loads(out)
    assert payload["status"] == "inconsistent"
    assert payload["trace_length"] >= 1


def test_solve_certifies_with_a_constant_too_long_for_str(tmp_path, capsys):
    """A 4,000-digit coefficient, which int() still converts, makes the
    run end in a constant with more digits than str() converts."""
    path = tmp_path / "long.txt"
    big = "9" * 4000
    path.write_text(f"dim 1\nx[1][1][1]*x[1][1][1] + {big}*x[1][1][1]\nx[1][1][1]^3 - 1\n")
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out.splitlines()[0], err) == (0, "inconsistent", "")


def test_solve_consistent_and_budget(tmp_path, capsys):
    r2 = dump_to(tmp_path, capsys, "r2.alg", "r2/A2")
    red = tmp_path / "red.txt"
    code, out, err = run(capsys, "constraints", r2, "--reduce", "-o", str(red))
    assert code == 0
    code, out, err = run(capsys, "solve", str(red))
    assert code == 0
    assert out.strip() == "solutions_may_exist"

    n3 = dump_to(tmp_path, capsys, "n3.alg", "n3/A3")
    raw = tmp_path / "raw.txt"
    code, out, err = run(capsys, "constraints", n3, "-o", str(raw))
    assert code == 0
    code, out, err = run(capsys, "solve", str(raw), "--json")
    assert code == 0
    assert json.loads(out) == {
        "basis_size": 29,
        "pairs_processed": 113,
        "status": "solutions_may_exist",
        "trace_length": 113,
    }

    code, out, err = run(capsys, "solve", str(raw), "--max-basis", "1")
    assert code == 0
    assert out.strip() == "budget_exhausted"

    code, out, err = run(capsys, "solve", str(raw), "--max-degree", "1")
    assert out.strip() == "budget_exhausted"


def test_solve_time_budget_holds_inside_one_reduction(tmp_path, capsys):
    # the one S-polynomial needs about 3.3e7 division steps
    path = tmp_path / "power.txt"
    path.write_text(
        "dim 3\nx[1][1][1]^100000000 - 1\nx[1][1][1]^3 - 2\n", encoding="utf-8"
    )
    t0 = time.monotonic()
    code, out, err = run(capsys, "solve", str(path), "--time-budget", "1", "--json")
    assert time.monotonic() - t0 < 3
    assert code == 0
    assert json.loads(out)["status"] == "budget_exhausted"


def test_solve_refuses_a_nan_time_budget(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text("dim 1\nx[1][1][1]^2 - 1\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path), "--time-budget", "nan")
    assert (code, out) == (2, "")
    assert err == "error: time budget is NaN\n"


@pytest.mark.parametrize(
    "flag, message",
    [
        ("--time-budget", "time budget is negative: -1.0"),
        ("--max-basis", "basis size cap is negative: -1"),
        ("--max-degree", "degree cap is negative: -1"),
    ],
)
def test_solve_refuses_a_negative_budget(tmp_path, capsys, flag, message):
    path = tmp_path / "s.txt"
    path.write_text("dim 1\nx[1][1][1]^2 - 1\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path), flag, "-1")
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


# ---------------------------------------------------------------------------
# iso


def test_iso_self_found(tmp_path, capsys):
    path = dump_to(tmp_path, capsys, "a3.alg", "n3/A3")
    code, out, err = run(capsys, "iso", path, path)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "found"
    assert lines[1:] == ["  [1, 0, 0]", "  [0, 1, 0]", "  [0, 0, 1]"]


def test_iso_distinguished(tmp_path, capsys):
    p0 = dump_to(tmp_path, capsys, "na0.alg", "n3/A1", "alpha=0")
    p1 = dump_to(tmp_path, capsys, "na1.alg", "n3/A1", "alpha=1")
    code, out, err = run(capsys, "iso", p0, p1)
    assert code == 0
    assert out.splitlines()[0] == "distinguished: left_annihilator_dim"
    assert "2 vs 1" in out

    a1 = dump_to(tmp_path, capsys, "r2a1.alg", "r2/A1")
    a2 = dump_to(tmp_path, capsys, "r2a2.alg", "r2/A2")
    code, out, err = run(capsys, "iso", a1, a2)
    assert out.splitlines()[0] == "distinguished: complete"

    code, out, err = run(capsys, "iso", p0, p1, "--json")
    payload = json.loads(out)
    assert payload["status"] == "distinguished"
    assert payload["invariant"] == "left_annihilator_dim"
    assert payload["transform"] is None


# ---------------------------------------------------------------------------
# pinned output of the series and verification commands
#
# The digest was taken with the dense row reduction and the quotient-based
# upper central series, before both were rebuilt on the sparse eliminator.

SERIES_AND_LEMMAS_SHA256 = (
    "cd8f56cb29595951c2c2ae1142333f5bcb8b50f4b677ee64501e16e4a61263a6"
)


def pinned_inputs(tmp_path, capsys):
    """Algebra files: every catalog sample instance, g13, free3 on three
    generators, the free two-generator example and five seeded filiform
    algebras with their products."""
    dumps = [
        ["catalog", "dump", key] + [f"--param={p}={v}" for p, v in params.items()]
        for key in catalog_list()
        for params in sample_params(catalog_entry(key))
    ]
    dumps += [["catalog", "dump", "g13"], ["construct", "free3", "3"]]
    dumps.append(["construct", "free4-2gen"])
    rng = random.Random(9)
    for n in (5, 6, 7, 8, 9):
        row = ",".join(str(rng.randint(-3, 3)) for _ in range(n - 4))
        dumps.append(["construct", "filiform", str(n), f"--coeffs={row}"])
    for k, argv in enumerate(dumps):
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        path = tmp_path / f"in{k}.alg"
        path.write_text(out, encoding="utf-8")
        yield str(path)


def test_series_and_lemma_reports_are_pinned(tmp_path, capsys):
    chunks = []
    for path in pinned_inputs(tmp_path, capsys):
        for argv in (["series", path, "--json"], ["check", path, "--lemmas", "--json"]):
            code, out, err = run(capsys, *argv)
            chunks.append(f"{argv[0]} {code}\n{out}{err.replace(path, 'FILE')}")
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert len(chunks) == 2 * 94
    assert digest == SERIES_AND_LEMMAS_SHA256


# The digest was taken before the structure tables kept int scalars.
VERIFICATION_REPORTS_SHA256 = (
    "92b076f921c0198dfef4aa2280475747bcd016d793afcab0e7d24afe9812fb59"
)


def test_verification_reports_are_pinned(tmp_path, capsys):
    """check --lemmas on every catalog sample, catalog verify and two
    constructions, as JSON: the reports of the verification path."""
    runs = []
    for key in catalog_list():
        for k, params in enumerate(sample_params(catalog_entry(key))):
            argv = ["catalog", "dump", key] + [f"--param={p}={v}" for p, v in params.items()]
            code, out, err = run(capsys, *argv)
            assert code == 0, (argv, err)
            path = tmp_path / f"{key.replace('/', '_')}_{k}.alg"
            path.write_text(out, encoding="utf-8")
            runs.append(["check", str(path), "--lemmas", "--json"])
    assert len(runs) == 86
    runs += [
        ["catalog", "verify", "--json"],
        ["construct", "filiform", "7", "--coeffs", "1/2,-3,2", "--json"],
        ["construct", "free3", "3", "--json"],
    ]
    chunks = []
    for argv in runs:
        code, out, err = run(capsys, *argv)
        chunks.append(f"{argv[0]} {code}\n{out}{err}".replace(str(tmp_path), "TMP"))
    digest = hashlib.sha256("".join(chunks).encode()).hexdigest()
    assert digest == VERIFICATION_REPORTS_SHA256
