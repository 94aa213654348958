import dataclasses
import pathlib

import pytest
from click.testing import CliRunner

import mixdom as md
from mixdom import cli, setfile
from mixdom.cli import main


def run(*args):
    return CliRunner().invoke(main, [str(a) for a in args])


def assert_one_line_error(res):
    assert res.exit_code == 2
    assert res.exception is None or isinstance(res.exception, SystemExit)
    lines = res.output.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), res.output


def test_build_dot_counts():
    res = run("build", "--n", 10, "--k", 3)
    assert res.exit_code == 0
    assert res.output.count(" -- ") == 30
    assert res.output.count("[style=filled") == 0


def test_build_petersen_dot():
    res = run("build", "--n", 5, "--k", 2)
    assert res.exit_code == 0
    assert "u0 -- u2" in res.output


def test_build_rejects_invalid_spec():
    res = run("build", "--n", 4, "--k", 2)
    assert res.exit_code == 2


def test_build_setfile_schema_roundtrips(tmp_path):
    res = run("build", "--n", 6, "--k", 2, "--format", "setfile-schema")
    assert res.exit_code == 0
    sf = setfile.loads(res.output)
    assert sf.size == 30
    assert sf.source == "universe"
    path = tmp_path / "universe.txt"
    path.write_text(res.output)
    assert run("verify", path).exit_code == 0


def test_build_highlight(tmp_path):
    path = tmp_path / "s.txt"
    out = md.construct_k1(8)
    setfile.dump(path, 8, 1, "construct:k1-block8", out.elements)
    res = run("build", "--n", 8, "--k", 1, "--highlight", path)
    assert res.exit_code == 0
    assert "u0 [style=filled" in res.output
    assert "v1 -- v2 [style=bold" in res.output
    mismatched = run("build", "--n", 9, "--k", 1, "--highlight", path)
    assert mismatched.exit_code == 2


def test_verify_dominating_set(tmp_path):
    path = tmp_path / "s.txt"
    out = md.construct_k1(8)
    setfile.dump(path, 8, 1, "construct:k1-block8", out.elements)
    res = run("verify", path)
    assert res.exit_code == 0
    assert "dominating: yes" in res.output
    assert "rd_total: 2" in res.output


def test_verify_empty_set_fails(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("n=8 k=1 source=user size=0\n")
    res = run("verify", path)
    assert res.exit_code == 1
    assert "dominating: no" in res.output
    assert "uncovered (40)" in res.output


def test_verify_malformed_file(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n=8 k=1 size=2\nv 1\n")
    res = run("verify", path)
    assert res.exit_code == 2


def test_verify_instance_too_large_to_load(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text("n=99999999999 k=1 source=x size=0\n")
    assert_one_line_error(run("verify", path))


def test_construct_instance_too_large_to_build():
    assert_one_line_error(run("construct", "--n", 99999999999, "--k", 1))


@pytest.mark.parametrize("args", [
    ["build", "--n", 10**30, "--k", 1],
    ["construct", "--n", 10**30, "--k", 1],
    ["solve", "--n", 10**30, "--k", 1],
    ["verify", "HUGE_HEADER"],
    ["construct", "--n", 10, "--k", 1, "-o", "MISSING_DIR"],
    ["solve", "--n", 9, "--k", 2, "-o", "MISSING_DIR"],
])
def test_input_errors_end_in_one_error_line(args, tmp_path):
    huge = tmp_path / "huge.set"
    huge.write_text(f"n={10**30} k=1 source=x size=0\n")
    paths = {"HUGE_HEADER": huge, "MISSING_DIR": tmp_path / "missing" / "x.set"}
    res = run(*(paths.get(a, a) for a in args))
    assert res.exit_code == 2, res.output
    assert res.output.splitlines()[-1].startswith("error: ")
    assert isinstance(res.exception, SystemExit)


def test_out_of_memory_is_one_error_line(monkeypatch):
    def exhausted(*args):
        raise MemoryError
    monkeypatch.setattr(cli.constructions, "construct", exhausted)
    assert_one_line_error(run("construct", "--n", 10, "--k", 1))


def test_set_file_not_utf8_is_rejected(tmp_path):
    path = tmp_path / "binary.set"
    path.write_bytes(b"\xff\xfe\x00")
    assert_one_line_error(run("verify", path))
    assert_one_line_error(run("build", "--n", 3, "--k", 1, "--highlight", path))


def test_verify_instance_override_mismatch(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("n=8 k=1 source=user size=0\n")
    res = run("verify", path, "--n", 9)
    assert res.exit_code == 2


def test_construct_writes_reverifiable_file(tmp_path):
    for n, k, pattern in ((10, 1, "k1-block8"), (9, 2, "k2-block4"),
                          (11, 2, "k2-block8"), (13, 3, "general")):
        path = tmp_path / f"{pattern}-{n}.txt"
        res = run("construct", "--n", n, "--k", k, "--pattern", pattern, "-o", path)
        assert res.exit_code == 0, res.output
        assert run("verify", path).exit_code == 0


def test_construct_default_pattern():
    res = run("construct", "--n", 12, "--k", 2)
    assert res.exit_code == 0
    assert "pattern: k2-block4" in res.output


def test_construct_out_of_range():
    res = run("construct", "--n", 7, "--k", 1)
    assert res.exit_code == 2


def test_solve_outputs_and_exit_codes(tmp_path):
    path = tmp_path / "w.txt"
    res = run("solve", "--n", 9, "--k", 2, "-o", path)
    assert res.exit_code == 0
    assert "optimum: 7" in res.output
    assert "proved: yes" in res.output
    assert run("verify", path).exit_code == 0


def test_solve_unproved_exit_code():
    res = run("solve", "--n", 13, "--k", 1, "--max-nodes", 10)
    assert res.exit_code == 3
    assert "proved: no" in res.output


def test_formula_output():
    res = run("formula", "--n", 11, "--k", 1)
    assert res.exit_code == 0
    assert res.output.startswith("value=9 kind=exact")
    res = run("formula", "--n", 12, "--k", 2, "--remark")
    assert "value=10" in res.output and "upper-bound" in res.output
    res = run("formula", "--n", 27, "--k", 4)
    assert "value=21" in res.output
    assert run("formula", "--n", 4, "--k", 2).exit_code == 2
    assert run("formula", "--n", 9, "--k", 1, "--remark").exit_code == 2


@pytest.mark.parametrize("n, k, message", [
    (5, 0, "k must be >= 1, got 0"),
    (5, -1, "k must be >= 1, got -1"),
    (4, 2, "need k < n/2 (P(4,2) degenerates: duplicate inner edges)"),
    (500000000, 1, "n must be <= 429496729 (element ids are int32), got 500000000"),
])
def test_formula_checks_the_instance_first(n, k, message):
    res = run("formula", "--n", n, "--k", k)
    assert_one_line_error(res)
    assert res.output == f"error: {message}\n"


def test_compare_records_k1():
    res = run("compare", "--k", 1, "--n-start", 8, "--n-end", 12, "--format", "records")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        assert "kind=exact" in line
        assert "proved=yes" in line
        assert "gap=0" in line
    assert lines[0].startswith("n=8 k=1 construction=6 formula=6")


def test_compare_records_k2():
    res = run("compare", "--k", 2, "--n-start", 5, "--n-end", 12, "--format", "records")
    assert res.exit_code == 0
    lines = res.output.strip().splitlines()
    assert len(lines) == 8
    assert all("gap=0" in line and "proved=yes" in line for line in lines)


def test_compare_k3_reports_bound_gap():
    res = run("compare", "--k", 3, "--n-start", 8, "--n-end", 10, "--format", "records")
    assert res.exit_code == 0
    for line in res.output.strip().splitlines():
        assert "kind=upper-bound" in line
        assert "proved=yes" in line


def test_compare_without_solver():
    res = run("compare", "--k", 2, "--n-start", 5, "--n-end", 8, "--max-time", 0)
    assert res.exit_code == 0
    assert "exact" in res.output  # header present, exact column dashed
    assert " - " in res.output or " -" in res.output


def test_compare_rejects_empty_range():
    assert run("compare", "--k", 5, "--n-start", 8, "--n-end", 10).exit_code == 2
    assert run("compare", "--k", 1, "--n-start", 10, "--n-end", 8).exit_code == 2


def test_compare_checks_the_range_end_before_listing_it():
    assert_one_line_error(run("compare", "--k", 1, "--n-start", 8, "--n-end", 10**30))
    res = run("compare", "--k", 1, "--n-start", -10**30, "--n-end", 9, "--max-time", 0,
              "--format", "records")
    assert res.exit_code == 0, res.output
    assert [line.split()[0] for line in res.output.splitlines()] == [f"n={n}" for n in range(3, 10)]


def test_table_table1():
    res = run("table", "--name", "table1")
    assert res.exit_code == 0
    assert "all cells agree" in res.output


def test_table_eq1():
    res = run("table", "--name", "eq1")
    assert res.exit_code == 0
    assert "all cells agree" in res.output


def test_table_k2():
    res = run("table", "--name", "k2")
    assert res.exit_code == 0
    assert "all cells agree" in res.output


def test_table_k2remark():
    res = run("table", "--name", "k2remark")
    assert res.exit_code == 0
    assert "all cells agree" in res.output


def _recorded_reports():
    text = pathlib.Path(__file__).with_name("report_text.txt").read_text()
    for block in text.split("$ mixdom ")[1:]:
        command, _, stdout = block.partition("\n")
        yield pytest.param(command.split(), stdout, id=command)


@pytest.mark.parametrize("args, stdout", _recorded_reports())
def test_report_text_is_pinned(args, stdout):
    res = run(*args)
    assert res.exit_code == 0
    assert res.stdout == stdout


# one cell made to disagree in each report: table1's reference at n=5, and
# the k=1 and k=2 closed forms at n=9
@pytest.mark.parametrize("args, row", [
    (["table1", "--n-start", 4, "--n-end", 6], "5          5         4      !"),
    (["eq1", "--n-start", 8, "--n-end", 10], "9        9       8      !"),
    (["k2remark", "--n-start", 8, "--n-end", 10], "9    8     8      0       8      !"),
])
def test_table_counts_each_disagreeing_cell(monkeypatch, args, row):
    def one_more_at_9(formula):
        def patched(n):
            f = formula(n)
            return dataclasses.replace(f, value=f.value + (n == 9))
        return patched

    monkeypatch.setitem(cli.TABLE1_REFERENCE, 5, 5)
    for name in ("gamma_k1", "gamma_k2"):
        monkeypatch.setattr(md.formulas, name, one_more_at_9(getattr(md.formulas, name)))
    res = run("table", "--name", *args)
    assert res.exit_code == 1
    lines = res.stdout.splitlines()
    assert [line.strip() for line in lines if line.endswith("!")] == [row]
    assert lines[-1] == "MISMATCH: 1 cell(s) disagree"


def test_table_start_below_formula_domain():
    for name in ("k2", "k2remark"):
        assert_one_line_error(run("table", "--name", name, "--n-start", 3))


@pytest.mark.parametrize("bounds", [(-1, None), (0, None), (8, 10), (11, 11)])
def test_table1_outside_its_reference_rows(bounds):
    lo, hi = bounds
    args = ["--n-start", lo] + ([] if hi is None else ["--n-end", hi])
    assert_one_line_error(run("table", "--name", "table1", *args))


@pytest.mark.parametrize("name, lo, hi", [
    ("eq1", 0, 9),           # 0 is a start below k=1's formula, not the default 8
    ("general", None, 0),    # an end of 0 is below the default start 7
    ("k2", 12, 11),
    ("k2remark", 16, None),  # above the default end 15
    ("table1", 5, 4),
    ("table1", 8, None),     # above the default end 7
])
def test_table_range_given_is_the_range_used(name, lo, hi):
    args = [] if lo is None else ["--n-start", lo]
    args += [] if hi is None else ["--n-end", hi]
    assert_one_line_error(run("table", "--name", name, *args))


def test_table_eq1_rows_below_the_pattern_are_not_mismatches():
    res = run("table", "--name", "eq1", "--n-start", 3, "--n-end", 8)
    assert res.exit_code == 0, res.output
    rows = res.output.splitlines()[2:-1]
    assert [r.split() for r in rows[:5]] == [[str(n), str(f), "n/a", "-"]
                                             for n, f in ((3, 3), (4, 4), (5, 4), (6, 5), (7, 6))]
    assert rows[5].split() == ["8", "6", "6", "ok"]
    assert res.output.endswith("all cells agree\n")


@pytest.mark.parametrize("args", [
    ["compare", "--k", 0, "--n-start", 5, "--n-end", 6, "--max-time", 0],
    ["compare", "--k", -1, "--n-start", 5, "--n-end", 6],
    ["compare", "--k", 1, "--n-start", 5, "--n-end", 6, "--max-time", "nan"],
    ["compare", "--k", 1, "--n-start", 5, "--n-end", 6, "--max-time", -1],
    ["compare", "--k", 1, "--n-start", 5, "--n-end", 6, "--max-nodes", 0],
    ["solve", "--n", 10, "--k", 1, "--max-time", "nan"],
])
def test_bad_k_or_time_budget_rejected(args):
    assert_one_line_error(run(*args))


def test_table_general():
    res = run("table", "--name", "general", "--n-start", 7, "--n-end", 20)
    assert res.exit_code == 0
    assert "all cells agree" in res.output


def test_table_unknown_name():
    assert run("table", "--name", "bogus").exit_code == 2
