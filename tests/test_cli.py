import json

import pytest

from iwasawa.cli import main
from iwasawa.iwaseries import TruncatedSeries, omega_poly


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bernoulli_table_matches_listed_values(capsys):
    code, out, _ = run(capsys, "bernoulli", "--upto", "18")
    assert code == 0
    rows = [ln.split("  ") for ln in out.strip().splitlines()[1:-1]]
    table = {int(r[0]): r[1] for r in rows}
    assert table[0] == "1" and table[1] == "1/2"
    assert table[12] == "-691/2730" and table[16] == "-3617/510"
    assert 3 not in table and 5 not in table  # odd rows suppressed


def test_bernoulli_row_count(capsys):
    code, out, _ = run(capsys, "bernoulli", "--upto", "30")
    data_rows = out.strip().splitlines()[1:-1]  # drop header and pass line
    assert len(data_rows) == 16


def test_irregular_command(capsys):
    code, out, _ = run(capsys, "irregular", "-p", "37")
    assert code == 0 and "[32]" in out
    code, out, _ = run(capsys, "irregular", "--json", "-p", "5")
    doc = json.loads(capsys_last_line(out))
    assert doc["indices"] == [] and doc["pass"] is True


def capsys_last_line(out):
    return out.strip().splitlines()[-1]


def test_irregular_691(capsys):
    code, out, _ = run(capsys, "irregular", "--json", "-p", "691")
    doc = json.loads(capsys_last_line(out))
    assert 12 in doc["indices"]


def test_interp_small_grid_json_roundtrip(capsys):
    code, out, _ = run(capsys, "interp", "--prime", "5", "--json", "--nmax", "2", "--rmin", "3", "--rmax", "4")
    assert code == 0
    doc = json.loads(capsys_last_line(out))
    assert doc["pass"] is True and doc["command"] == "interp"
    assert json.loads(json.dumps(doc)) == doc


def test_interp_rejects_excluded_index(capsys):
    code, _, err = run(capsys, "interp", "--prime", "5", "--n", "0")
    assert code == 2
    assert "excluded character" in err


def test_weierstrass_command(tmp_path, capsys):
    f = TruncatedSeries.from_integer_poly(omega_poly(5, 1), 5, 14, 8)
    path = tmp_path / "series.txt"
    path.write_text(f.to_text())
    code, out, _ = run(capsys, "weierstrass", str(path), "--roundtrip")
    assert code == 0
    assert "[0, 5, 10, 10, 5, 1]" in out  # omega_1 is its own distinguished part


def test_growth_command(tmp_path, capsys):
    path = tmp_path / "mod.txt"
    path.write_text("p 5\nppow 1\n")
    code, out, _ = run(capsys, "growth", str(path), "--rmax", "5")
    assert code == 0
    assert "mu  1" in out and "lambda  0" in out and "c  -1" in out


def test_coleman_command(capsys):
    code, out, _ = run(capsys, "coleman", "--prime", "5", "--prec", "5", "--nmax", "3", "--pairs", "1,3")
    assert code == 0


def test_eigenspace_command(capsys):
    code, out, _ = run(capsys, "eigenspace", "--json", "-p", "37")
    doc = json.loads(capsys_last_line(out))
    assert doc["nontrivial"] == [[32, 1]] or doc["nontrivial"] == [(32, 1)]


def test_selfcheck(capsys):
    code, out, _ = run(capsys, "selfcheck")
    assert code == 0
    assert "FAIL" not in out


def test_commands_are_deterministic(capsys):
    a = run(capsys, "bernoulli", "--json", "--upto", "20")
    b = run(capsys, "bernoulli", "--json", "--upto", "20")
    assert a == b
    a = run(capsys, "selfcheck", "--json")
    b = run(capsys, "selfcheck", "--json")
    assert a == b


def test_bad_config_rejected(capsys):
    with pytest.raises(ValueError):
        main(["bernoulli", "--prime", "2"])


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for command in ("weierstrass", "growth"):
        code, _, err = run(capsys, command, missing)
        assert code == 2
        assert err.startswith("error:") and "missing.txt" in err


def test_bad_prime_exits_2(capsys):
    from iwasawa.cli import entry

    for argv in (["bernoulli", "--prime", "1"], ["bernoulli", "--prime", "9"], ["irregular", "-p", "9"],
                 ["irregular", "-p", "1"]):
        code = entry(argv)
        out = capsys.readouterr()
        assert code == 2, argv
        assert out.err.startswith("error:") and "pass:" not in out.out, argv


def test_command_line_reports_errors_without_traceback(tmp_path):
    import os
    import subprocess
    import sys

    import iwasawa

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(iwasawa.__file__)))
    for argv in (["bernoulli", "--prime", "1"], ["weierstrass", str(tmp_path / "missing.txt")]):
        proc = subprocess.run([sys.executable, "-m", "iwasawa.cli", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, argv


def test_non_primes_rejected():
    from iwasawa.cli import RunConfig
    from iwasawa.exactq import irregular_indices

    for q in (1, 2, 9, 15):
        with pytest.raises(ValueError):
            irregular_indices(q)
        with pytest.raises(ValueError):
            RunConfig(prime=q)
    assert RunConfig(prime=7).prime == 7


def test_three_command_defaults(capsys):
    code, out, _ = run(capsys, "three")
    assert code == 0 and out.strip().endswith("pass: True")
    code, out, _ = run(capsys, "three", "--json")
    doc = json.loads(capsys_last_line(out))
    assert code == 0 and doc["command"] == "three" and doc["pass"] is True
    legs = {row[1] for row in doc["rows"][1:]}
    assert {"stickelberger", "coleman", "kummer limit", "kummer regularized (c=2)"} <= legs


def test_three_command_gates_regularized_limit_when_p_minus_1_divides_n(capsys):
    # at p = 11, k = 1 the plain Kummer quotient at n = 10 agrees to 0 digits;
    # only the c-regularized congruence is gated there
    code, out, _ = run(capsys, "three", "--json", "--prime", "11", "--level", "3", "--kummer-k", "1", "--nmax", "12")
    doc = json.loads(capsys_last_line(out))
    assert code == 0 and doc["pass"] is True
    plain = [row for row in doc["rows"][1:] if row[:2] == [10, "kummer limit"]]
    assert plain and plain[0][4] == "-"


def test_three_command_rejects_level_one(capsys):
    code, _, err = run(capsys, "three", "--level", "1")
    assert code == 2 and err.startswith("error:")


def test_three_command_builds_no_group_ring_product(capsys, monkeypatch):
    from iwasawa import group_algebra

    def refuse(self, other):
        raise AssertionError("group-ring product built")

    group_algebra._hmu_rows.cache_clear()
    monkeypatch.setattr(group_algebra.GroupRingElement, "__mul__", refuse)
    code, _, _ = run(capsys, "three")
    assert code == 0
