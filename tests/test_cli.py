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


@pytest.mark.parametrize("upto, rows", [(30, 16), (2, 2), (1, 1)])
def test_bernoulli_row_count(capsys, upto, rows):
    code, out, _ = run(capsys, "bernoulli", "--upto", str(upto))
    data_rows = out.strip().splitlines()[1:-1]  # drop header and pass line
    assert len(data_rows) == rows  # only n < upto: B_1 needs upto >= 2


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


@pytest.mark.parametrize("command, key, value", [("irregular", "indices", [32]), ("eigenspace", "nontrivial", [[32, 1]])])
def test_short_p_is_the_common_prime_option(capsys, command, key, value):
    code, out, _ = run(capsys, command, "-p", "37", "--json")
    doc = json.loads(capsys_last_line(out))
    assert code == 0 and doc["config"]["prime"] == 37 and doc[key] == value


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
    code, out, err = run(capsys, "irregular", "--prime", "2")
    assert code == 2
    assert err.startswith("error:") and "pass:" not in out


def test_missing_input_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    for command in ("weierstrass", "growth"):
        code, _, err = run(capsys, command, missing)
        assert code == 2
        assert err.startswith("error:") and "missing.txt" in err


def test_empty_runs_are_refused_before_any_work(capsys, monkeypatch):
    from iwasawa import coleman, exactq

    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(exactq, "bernoulli", refuse)
    monkeypatch.setattr(coleman, "zeta_moments", refuse)
    for argv in (["bernoulli", "--upto", "0"], ["bernoulli", "--upto", "-3"], ["coleman", "--nmax", "0"],
                 ["coleman", "--nmax", "-2"]):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: nothing to") and out == "", argv


def test_console_script_target(capsys):
    """The `iwasawa` script of pyproject.toml, read without tomllib (absent
    before Python 3.11), is the command line."""
    import importlib
    from pathlib import Path

    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    section = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    targets = dict(ln.replace('"', "").split(" = ") for ln in section.strip().splitlines())
    module, _, name = targets["iwasawa"].partition(":")
    target = getattr(importlib.import_module(module), name)
    assert target(["irregular", "-p", "9"]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("error:") and out.out == ""
    assert target(["irregular", "-p", "37"]) == 0
    assert "[32]" in capsys.readouterr().out


def test_bad_prime_exits_2(capsys):
    for argv in (["irregular", "--prime", "1"], ["irregular", "--prime", "9"], ["irregular", "-p", "9"],
                 ["irregular", "-p", "1"]):
        code = main(argv)
        out = capsys.readouterr()
        assert code == 2, argv
        assert out.err.startswith("error:") and "pass:" not in out.out, argv


def test_command_line_reports_errors_without_traceback(tmp_path):
    import os
    import subprocess
    import sys

    import iwasawa

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(iwasawa.__file__)))
    for argv in (["irregular", "--prime", "1"], ["weierstrass", str(tmp_path / "missing.txt")]):
        proc = subprocess.run([sys.executable, "-m", "iwasawa.cli", *argv], capture_output=True, text=True, env=env)
        assert proc.returncode == 2, argv
        assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr, argv


def test_non_primes_rejected(capsys):
    from iwasawa.exactq import irregular_indices

    for q in (1, 2, 9, 15):
        with pytest.raises(ValueError):
            irregular_indices(q)
        for command in ("irregular", "interp", "coleman", "three", "eigenspace", "selfcheck"):
            code, out, err = run(capsys, command, "-p", str(q))
            assert code == 2, (command, q)
            assert err.startswith("error:") and "pass:" not in out, (command, q)


def test_json_config_reports_the_prime_of_the_input_file(tmp_path, capsys):
    series = tmp_path / "s7.txt"
    series.write_text("7 3 4\n1:1\n0:1\n0:1\n")
    module = tmp_path / "m3.txt"
    module.write_text("p 3\nppow 1\ndist 9 3 1\n")
    for argv, prime in ((["weierstrass", str(series)], 7), (["growth", str(module)], 3)):
        code, out, _ = run(capsys, *argv, "--json")
        config = json.loads(capsys_last_line(out))["config"]
        assert code == 0 and config["prime"] == prime
        assert not {"prec", "trunc"} & set(config)


def test_interp_runs_either_one_index_or_a_range(capsys):
    code, out, _ = run(capsys, "interp", "--n", "2", "--rmin", "3", "--rmax", "3", "--json")
    config = json.loads(capsys_last_line(out))["config"]
    assert code == 0 and (config["n"], config["nmax"]) == (2, None)
    with pytest.raises(SystemExit) as exc:
        main(["interp", "--n", "2", "--nmax", "3"])
    assert exc.value.code == 2 and "not allowed with argument" in capsys.readouterr().err


def test_three_command_defaults(capsys):
    code, out, _ = run(capsys, "three")
    assert code == 0 and out.strip().endswith("pass: True")
    code, out, _ = run(capsys, "three", "--json")
    doc = json.loads(capsys_last_line(out))
    assert code == 0 and doc["command"] == "three" and doc["pass"] is True
    legs = {row[1] for row in doc["rows"][1:]}
    assert {"stickelberger", "coleman", "kummer limit", "kummer regularized (c=2)"} <= legs


def test_three_command_runs_at_p_3_with_a_pair_prime_to_p(capsys):
    # 3 is not prime to p = 3, so the Coleman leg takes (a, b) = (1, 2) there
    code, out, _ = run(capsys, "three", "-p", "3")
    assert code == 0 and out.strip().endswith("coleman pair (a, b) = (1, 2)\npass: True")
    code, out, _ = run(capsys, "three", "-p", "3", "--level", "8", "--nmax", "8", "--json")
    doc = json.loads(capsys_last_line(out))
    assert code == 0 and doc["pass"] is True and doc["checks"] == ["coleman pair (a, b) = (1, 2)"]
    assert [row[0] for row in doc["rows"][1:] if row[1] == "coleman"] == [2, 4, 6, 8]
    code, out, _ = run(capsys, "three", "-p", "5", "--json")
    assert json.loads(capsys_last_line(out))["checks"] == ["coleman pair (a, b) = (1, 3)"]


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


def test_three_command_builds_one_group_ring_product(capsys, monkeypatch):
    # every n reads the one cached level table of h_N mu_chi: a rebuild per n
    # would make one product per even n <= nmax (three by default)
    from iwasawa import group_algebra

    calls = []
    product = group_algebra.GroupRingElement.__mul__

    def counting(self, other):
        calls.append(self.modulus)
        return product(self, other)

    group_algebra._hmu_rows.cache_clear()
    monkeypatch.setattr(group_algebra.GroupRingElement, "__mul__", counting)
    code, _, _ = run(capsys, "three")
    assert code == 0
    assert len(calls) == 1


def _readme_block(readme: str, after: str) -> list[str]:
    """The lines of the first fenced block after the heading or text `after`."""
    body = readme[readme.index(after):].split("```")[1]
    return [ln for ln in body.strip().splitlines() if ln]


def test_every_readme_command_line_runs(capsys, tmp_path, monkeypatch):
    import shlex
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    (tmp_path / "series.txt").write_text("5 6 4\n1:1\n0:3\n0:1\n0:0\n2:1\n0:4\n")
    (tmp_path / "module.txt").write_text("\n".join(_readme_block(readme, "A module file for")) + "\n")
    monkeypatch.chdir(tmp_path)
    outputs = {}
    for line in _readme_block(readme, "## Command line"):
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "iwasawa"
        code = main(argv[1:])
        outputs[" ".join(argv[1:])] = (comment.strip(), capsys.readouterr().out)
        assert code == 0, line
    comment, out = outputs["irregular -p 691"]
    assert comment == "-> [12, 200]" and "[12, 200]" in out
    comment, out = outputs["eigenspace -p 37"]
    assert comment == "-> 37^1 at n = 32" and "32  1  37^1" in out.splitlines()
