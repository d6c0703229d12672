import csv
import io
import json

import pytest

from cyclic_pairs import cli, constructions, factorization
from cyclic_pairs.cli import (CSV_HEADER, EXIT_CAP, EXIT_OK, EXIT_USAGE,
                              EXIT_VERIFY_FAILED, main)
from cyclic_pairs.tables import load_table_rows


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv + ["--json"], capsys)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_factor_text(capsys):
    code, out, _ = run(["factor", "--n", "7"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[0] == "7 2 0 7"
    assert "x^3 + x^2 + 1 ^ 1" in out


def test_factor_json_and_global_flag_before_subcommand(capsys):
    before = run_json(["--q", "8", "factor", "--n", "7"], capsys)
    after = run_json(["factor", "--n", "7", "--q", "8"], capsys)
    assert before == after
    assert before["q"] == 8 and len(before["factors"]) == 7
    assert all(f["poly"].startswith("x + ") or f["poly"] == "x + 1"
               for f in before["factors"])


def test_cosets(capsys):
    code, out, _ = run(["cosets", "--n", "15"], capsys)
    assert code == EXIT_OK
    assert "{1,2,4,8}" in out
    data = run_json(["cosets", "--n", "15"], capsys)
    assert [c["rep"] for c in data["cosets"]] == [0, 1, 3, 5, 7]


def test_cosets_strips_radical_part(capsys):
    code, out, _ = run(["cosets", "--n", "14"], capsys)
    assert code == EXIT_OK
    assert out.startswith("# n = 14 = 2^1 * 7")


def test_code_with_distance_and_dual(capsys):
    code, out, _ = run(["code", "--n", "7", "--g", "x^3+x+1",
                        "--min-distance"], capsys)
    assert code == EXIT_OK and out.strip().startswith("[7,4,3]_2")
    data = run_json(["code", "--n", "7", "--g", "x^3+x+1", "--dual",
                     "--min-distance"], capsys)
    assert (data["k"], data["d"]) == (3, 4)


def test_a_code_the_bounds_settle_needs_no_lookup_tables(capsys):
    # GF(4099) is past the lookup-table limit, so this code could not be walked;
    # its BCH bound and generator weight are both 2
    code, out, err = run(["--q", "4099", "code", "--n", "2", "--g", "x+1",
                          "--min-distance"], capsys)
    assert (code, out, err) == (EXIT_OK, "[2,1,2]_4099 g=x + 1\n", "")


def test_pair_json_schema(capsys):
    data = run_json(["pair", "--n", "7", "--g1", "x^3+x+1",
                     "--g2", "x^3+x^2+1", "--distances"], capsys)
    assert set(data) == {"n", "q", "codes", "ell", "sum_dim"}
    assert data["n"] == 7 and data["q"] == 2
    assert data["ell"] == 1 and data["sum_dim"] == 7
    assert [c["k"] for c in data["codes"]] == [4, 4]
    assert all(set(c) == {"k", "d", "g"} for c in data["codes"])


def test_exists_feasible_and_not(capsys):
    code, out, _ = run(["exists", "--n", "7", "--ell", "4"], capsys)
    assert code == EXIT_OK and out.startswith("feasible witness=")
    data = run_json(["exists", "--n", "9", "--ell", "4"], capsys)
    assert data["feasible"] is False and data["witness"] is None


def test_construct_L(capsys):
    data = run_json(["construct", "--mode", "L", "--n", "7", "--L", "x+1",
                     "--g1", "x^3+x+1", "--g2", "x^3+x+1"], capsys)
    assert data["exact"] is True and data["ell"] == 1
    assert data["construction"]["mode"] == "L"
    assert data["construction"]["range"] == [1, 4]


def test_construct_repeated(capsys):
    code, out, _ = run(["construct", "--mode", "repeated", "--n-prime", "7",
                        "--nu", "1", "--L", "x+1", "--g1", "x^3+x+1",
                        "--g2", "x^3+x+1", "--s", "2"], capsys)
    assert code == EXIT_OK
    assert "ell=2" in out and "exact" in out


def test_construct_mds(capsys):
    data = run_json(["--q", "8", "construct", "--mode", "mds", "--n", "7",
                     "--k1", "2", "--k2", "3", "--ell", "1",
                     "--distances"], capsys)
    assert data["exact"] is True and data["ell"] == 1
    assert [c["d"] for c in data["codes"]] == [6, 5]
    assert "alpha" in data["construction"]


@pytest.mark.parametrize("n_prime, nu", [(1, 13), (4097, 0), (1, 10 ** 6)])
def test_construct_repeated_refuses_a_length_past_the_bound(n_prime, nu, capsys,
                                                            monkeypatch):
    # p^nu * n' > MAX_REPEATED_LENGTH = 4096 is refused before anything is built
    assert constructions.MAX_REPEATED_LENGTH == 4096
    monkeypatch.setattr(constructions, "factor_xn1",
                        lambda *args: pytest.fail("a factorization was built"))
    code, out, err = run(["construct", "--mode", "repeated", "--n-prime", str(n_prime),
                          "--nu", str(nu), "--L", "1", "--g1", "1", "--g2", "1",
                          "--json"], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "exceeds 4096" in err


@pytest.mark.parametrize("argv", [["factor", "--n", "4097"], ["cosets", "--n", "4097"],
                                  ["code", "--n", "4097", "--g", "1"],
                                  ["exists", "--n", "4097", "--ell", "3"],
                                  ["--q", "3", "factor", "--n", str(3 ** 20)]])
def test_lengths_past_the_bound_are_refused(argv, capsys, monkeypatch):
    # n > MAX_LENGTH = 4096 is refused before cosets or fields are built
    for mod in (factorization, cli):
        monkeypatch.setattr(mod, "coset_partition",
                            lambda *args: pytest.fail("cosets were built"))
    monkeypatch.setattr(factorization, "make_field",
                        lambda *args, **kwargs: pytest.fail("a field was built"))
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "1..4096" in err


@pytest.mark.parametrize("argv", [["--q", "5", "factor", "--n", "3079"],
                                  ["code", "--n", "1031", "--g", "1"],
                                  ["pair", "--n", "1031", "--g1", "1", "--g2", "1"]])
def test_extension_degree_past_the_bound_is_refused(argv, capsys, monkeypatch):
    # ord_3079(5) = 513 and ord_1031(2) = 515: one past degree 512 is not built
    monkeypatch.setattr(factorization, "make_field",
                        lambda *args, **kwargs: pytest.fail("a field was built"))
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "past degree 512" in err


def test_factor_past_the_degree_bound_is_answered_when_every_coset_is_full(capsys,
                                                                          monkeypatch):
    # ord_523(2) = 522 = phi(523): every coset is full and needs no extension
    monkeypatch.setattr(factorization, "make_field",
                        lambda *args, **kwargs: pytest.fail("a field was built"))
    code, out, err = run(["factor", "--n", "523", "--json"], capsys)
    assert code == EXIT_OK and err == ""
    assert [(f["d"], f["multiplicity"]) for f in json.loads(out)["factors"]] == [(1, 1), (523, 1)]


@pytest.mark.parametrize("argv, message", [
    (["construct", "--mode", "mds", "--n", "0", "--k1", "0", "--k2", "0", "--ell", "0"],
     "length n must be >= 1, got 0"),
    (["construct", "--mode", "repeated", "--n-prime", "0", "--L", "1", "--g1", "1",
      "--g2", "1"], "n' must be >= 1, got 0")])
def test_construct_refuses_a_zero_length(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and message in err


def test_construct_repeated_at_the_length_bound(capsys):
    data = run_json(["construct", "--mode", "repeated", "--n-prime", "1", "--nu", "12",
                     "--L", "1", "--g1", "1", "--g2", "1"], capsys)
    assert data["n"] == 4096 and data["ell"] == 0
    assert [c["g"] for c in data["codes"]] == ["1", "x^4096 + 1"]


def test_construct_missing_argument_is_usage_error(capsys):
    code, _, err = run(["construct", "--mode", "L", "--n", "7"], capsys)
    assert code == EXIT_USAGE and "--L" in err


@pytest.mark.parametrize("argv, flag", [
    (["--q", "8", "construct", "--mode", "mds", "--n", "7", "--k1", "2", "--k2", "3",
      "--ell", "1", "--g1", "x+1"], "--g1"),
    (["construct", "--mode", "L", "--n", "7", "--L", "x+1", "--g1", "x^3+x+1",
      "--g2", "x^3+x+1", "--s", "5", "--k1", "3"], "--s"),
    (["construct", "--mode", "L", "--n", "7", "--L", "x+1", "--g1", "x^3+x+1",
      "--g2", "x^3+x+1", "--k1", "3"], "--k1"),
    (["construct", "--mode", "repeated", "--n-prime", "7", "--L", "x+1",
      "--g1", "x^3+x+1", "--g2", "x^3+x+1", "--n", "14"], "--n"),
    (["construct", "--mode", "mds", "--n", "1", "--k1", "1", "--k2", "1", "--ell", "1",
      "--nu", "0"], "--nu"),
    (["search", "--n", "7", "--ell", "0", "--csv", "--json"], "--csv"),
    (["--json", "search", "--n", "7", "--ell", "0", "--csv"], "--json"),
    (["factor", "--n", "7", "--cap", "1"], "--cap"),
    (["cosets", "--n", "15", "--cap", "1"], "--cap"),
    (["--cap", "1", "exists", "--n", "7", "--ell", "3"], "--cap"),
    (["code", "--n", "7", "--g", "x+1", "--cap", "1"], "--cap"),
    (["pair", "--n", "7", "--g1", "x+1", "--g2", "x^3+x+1", "--cap", "1"], "--cap"),
    (["--cap", "1", "construct", "--mode", "L", "--n", "7", "--L", "x+1",
      "--g1", "x^3+x+1", "--g2", "x^3+x+1"], "--cap")])
def test_a_flag_that_would_do_nothing_is_refused(argv, flag, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and flag in err


def test_search_text_and_csv(capsys):
    code, out, _ = run(["search", "--n", "7", "--ell", "0",
                        "--min-d1", "3", "--min-d2", "3"], capsys)
    assert code == EXIT_OK and "ell=0" in out
    code, out, _ = run(["search", "--n", "7", "--ell", "0", "--csv"], capsys)
    assert code == EXIT_OK
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == CSV_HEADER
    assert all(len(r) == 9 for r in rows[1:]) and len(rows) > 1
    assert all(r[0] == "7" and r[1] == "2" for r in rows[1:])


def test_search_infeasible(capsys):
    code, out, _ = run(["search", "--n", "9", "--ell", "4"], capsys)
    assert code == EXIT_OK and out.startswith("infeasible")
    # stdout stays pure CSV; the reason goes to stderr
    code, out, err = run(["search", "--n", "9", "--ell", "4", "--csv"], capsys)
    assert code == EXIT_OK and out.splitlines() == [",".join(CSV_HEADER)]
    assert err.startswith("infeasible: no monic divisor of x^9 - 1 has degree 4")


@pytest.mark.parametrize("ell", ["-1", "8"])
def test_search_refuses_an_ell_outside_zero_to_n(ell, capsys):
    code, out, err = run(["search", "--n", "7", "--ell", ell], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: ell must satisfy 0 <= ell <= 7, got {ell}\n"


@pytest.mark.parametrize("fmt", [[], ["--csv"]])
def test_search_reports_cap_skips_on_stderr(fmt, capsys):
    code, out, err = run(["search", "--n", "31", "--ell", "0", "--cap", "4096"] + fmt, capsys)
    assert code == EXIT_OK and out and "skipped" not in out
    assert err == "# 1170 pairs skipped by the enumeration cap\n"


@pytest.mark.parametrize("argv, message", [
    (["search", "--n", "255", "--ell", "0"], "has 34359738368 divisors"),
    (["code", "--n", "7", "--g", "x^1000000000"], "exponent 1000000000 > 4096")])
def test_inputs_too_large_to_list_are_refused(argv, message, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and message in err


def test_verify_tables_bundled(capsys):
    code, out, _ = run(["verify-tables"], capsys)
    assert code == EXIT_OK
    assert out.count("PASS") == 42 and "FAIL" not in out
    assert "# 42 passed, 0 failed" in out


def test_verify_tables_failure_exit(tmp_path, capsys):
    bad = tmp_path / "rows.txt"
    bad.write_text("7 2 4 4 3 4 1 | x^3+x+1 | x^4+x^2+x+1\n")
    code, out, _ = run(["verify-tables", "--file", str(bad)], capsys)
    assert code == EXIT_VERIFY_FAILED
    assert "FAIL" in out and "dist_c" in out


@pytest.mark.parametrize("row, message", [
    ("9 2 3 3 4 3 1 | 1", "line 2: expected 'params | g1 | g2', got '9 2 3 3 4 3 1 | 1'"),
    ("9 2 3 3 4 3 | 1 | 1", "line 2: expected 7 integers before the first '|'"),
    ("9 2 a 3 4 3 1 | 1 | 1", "line 2: expected 7 integers before the first '|'"),
])
def test_a_malformed_corpus_row_names_its_line(row, message, tmp_path, capsys):
    bad = tmp_path / "rows.txt"
    bad.write_text(f"# n q k1 d1 k2 d2 ell | g1 | g2\n{row}\n")
    with pytest.raises(ValueError) as exc:
        load_table_rows(bad)
    assert str(exc.value) == message
    code, out, err = run(["verify-tables", "--file", str(bad)], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err == f"error: {message}\n"


def test_verify_tables_missing_file_is_usage_error(tmp_path, capsys):
    missing = tmp_path / "no-such-rows.txt"
    code, out, err = run(["verify-tables", "--file", str(missing)], capsys)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith("error:") and "no-such-rows.txt" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["search", "--n", "7", "--ell", "0", "--limit", "-1"],
    ["search", "--n", "7", "--ell", "0", "--cap", "-1"],
    ["--cap", "-5", "code", "--n", "7", "--g", "x+1", "--min-distance"],
])
def test_negative_limit_and_cap_are_refused(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "must be >= 0, got -" in err


def test_cap_exit_code(capsys):
    code, _, err = run(["code", "--n", "31", "--g", "x+1", "--min-distance",
                        "--cap", "1024"], capsys)
    assert code == EXIT_CAP and "cap" in err


def test_usage_errors(capsys):
    code, _, err = run(["factor", "--n", "7", "--q", "6"], capsys)
    assert code == EXIT_USAGE and err.startswith("error:")
    code, _, err = run(["code", "--n", "7", "--g", "x^2+1"], capsys)
    assert code == EXIT_USAGE
    code, _, err = run(["code", "--n", "7", "--g", "x^^"], capsys)
    assert code == EXIT_USAGE


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

