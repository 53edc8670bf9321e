"""The command line on outside input: malformed series and module files, bad
levels and bad primes end in `error: ...` and exit 2, never a traceback; every
`--json` report is strict JSON."""

import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iwasawa import cli, exactq
from iwasawa.iwaseries import TruncatedSeries

SERIES = "5 6 4\n1:1\n0:3\n0:1\n0:0\n2:1\n0:4\n"  # 5 + 3T + T^2 + 25T^4 + 4T^5
MODULE = "p 3\nppow 1\ndist 9 3 1\n"  # the README module file


def _run(argv):
    """Run `cli.main` in-process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse refusing the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _file(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# -- the reproduced cases --------------------------------------------------------------


@pytest.mark.parametrize("text", ["", "\n  \n", "5 2 4\n-1:3\n0:1\n", "5 1 3\n-2:1\n"])
def test_series_text_refusals(text):
    with pytest.raises(ValueError):
        TruncatedSeries.from_text(text)


@pytest.mark.parametrize("argv, name, text", [
    (["weierstrass"], "series.txt", ""),
    (["weierstrass"], "series.txt", "5 2 4\n-1:3\n0:1\n"),
    (["growth", "--e", "-1"], "module.txt", MODULE),
])
def test_bad_files_and_levels_exit_2(tmp_path, argv, name, text):
    code, out, err = _run(argv[:1] + [_file(tmp_path, name, text)] + argv[1:])
    assert code == 2 and err.startswith("error:") and "Traceback" not in out + err


@pytest.mark.parametrize("p", ["4", "1", "0", "-7", "9"])
def test_eigenspace_checks_its_prime(p):
    code, out, err = _run(["eigenspace", "-p", p])
    assert code == 2 and err.startswith("error:") and "pass: True" not in out


def test_bernoulli_upto_stays_printable_and_is_refused_before_any_work(monkeypatch):
    def refuse(n):
        raise AssertionError("a Bernoulli number was computed")

    limit = exactq.first_unprintable_index()
    monkeypatch.setattr(exactq, "bernoulli", refuse)
    for upto in (limit + 1, 2500, 10**9):
        code, out, err = _run(["bernoulli", "--upto", str(upto)])
        assert code == 2 and err.startswith("error:") and str(limit) in err and out == ""


# -- strict JSON for every subcommand ------------------------------------------------


def _refuse(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("argv", [
    ["bernoulli"], ["irregular", "-p", "37"], ["interp"], ["weierstrass", "{series}"],
    ["growth", "{module}"], ["coleman"], ["three"], ["eigenspace", "-p", "37"], ["selfcheck"],
], ids=lambda a: a[0])
def test_every_json_report_is_strict(tmp_path, argv):
    files = {"{series}": _file(tmp_path, "series.txt", SERIES), "{module}": _file(tmp_path, "module.txt", MODULE)}
    code, out, _ = _run([files.get(a, a) for a in argv] + ["--json"])
    assert code == 0
    doc = json.loads(out.splitlines()[-1], parse_constant=_refuse)
    assert doc["command"] == argv[0] and doc["pass"] is True


# -- each subcommand takes only the options it reads --------------------------------

READS = {
    "bernoulli": ["--upto"],
    "irregular": ["-p", "--prime"],
    "interp": ["-p", "--prime", "--chi", "--nmax", "--rmin", "--rmax", "--n"],
    "weierstrass": ["--roundtrip"],
    "growth": ["--e", "--rmax"],
    "coleman": ["-p", "--prime", "--prec", "--trunc", "--nmax", "--pairs"],
    "three": ["-p", "--prime", "--prec", "--trunc", "--level", "--kummer-k", "--nmax"],
    "eigenspace": ["-p", "--prime"],
    "selfcheck": ["-p", "--prime"],
}
EVERY_OPTION = sorted({opt for opts in READS.values() for opt in opts} | {"--min-agree"})


def _with_option(command, option):
    """A command line of `command` giving `option` one value; argparse decides
    before any file is read."""
    head = [command, "input.txt"] if command in ("weierstrass", "growth") else [command]
    value = {"--roundtrip": [], "--json": [], "--chi": ["trivial"], "--pairs": ["1,3"]}.get(option, ["3"])
    return head + [option] + value


@pytest.mark.parametrize("command, option", [(c, o) for c in READS for o in EVERY_OPTION if o not in READS[c]])
def test_each_subcommand_refuses_the_options_it_does_not_read(command, option):
    code, out, err = _run(_with_option(command, option))
    assert code == 2 and out == "" and f"unrecognized arguments: {option}" in err and "Traceback" not in err


@pytest.mark.parametrize("command", sorted(READS))
def test_an_unknown_option_is_refused_with_the_usage_of_its_subcommand(command):
    code, out, err = _run(_with_option(command, "--min-agree"))
    assert code == 2 and out == "" and err.startswith(f"usage: iwasawa {command} ")
    assert f"iwasawa {command}: error: unrecognized arguments: --min-agree 3" in err
    # given before the subcommand, the option is the top-level parser's to refuse
    code, out, err = _run(["--min-agree"] + _with_option(command, "--json"))
    assert code == 2 and out == "" and err.startswith("usage: iwasawa [-h]")
    assert "iwasawa: error: unrecognized arguments: --min-agree" in err


def test_each_subcommand_accepts_the_options_it_reads():
    parser = cli.build_parser()
    for command, opts in READS.items():
        for option in opts + ["--json"]:
            assert parser.parse_args(_with_option(command, option)).command == command


# -- property: no input ends in a traceback -----------------------------------------

small = st.integers(-2, 9)
primes = st.sampled_from(["3", "5", "5", "7", "-1", "0", "1", "2", "4", "9"])
junk = st.text(alphabet="0123456789:-+ .xe#", max_size=10)
VALUES = {"--prime": primes, "--prec": small.map(str), "--trunc": st.integers(-1, 30).map(str)}


def options(*names):
    """Up to three draws of --json and of the named options, each with a value."""
    choices = [st.tuples(st.just(name), VALUES[name]) for name in names] + [st.tuples(st.just("--json"))]
    return st.lists(st.one_of(choices), max_size=3).map(lambda opts: [tok for opt in opts for tok in opt])


window = options("--prime", "--prec", "--trunc")

coefficient_line = st.one_of(
    st.builds("{}:{}".format, st.integers(-2, 7), st.integers(-30, 30)), junk)
valid_series = st.tuples(st.sampled_from([3, 5, 7]), st.integers(1, 9), st.integers(1, 6)).flatmap(
    lambda h: st.lists(st.tuples(st.integers(0, 6), st.integers(-30, 30)), min_size=h[1], max_size=h[1]).map(
        lambda cs: "\n".join([" ".join(map(str, h))] + [f"{v}:{m}" for v, m in cs]) + "\n"))
series_text = st.one_of(
    junk,
    valid_series,
    st.builds(lambda head, lines: "\n".join([" ".join(head)] + lines) + "\n",
              st.tuples(primes, st.integers(-1, 9).map(str), st.integers(-1, 7).map(str)),
              st.lists(coefficient_line, max_size=9)),
)


def _module_lines(p, valid):
    distinguished = st.lists(st.integers(-3, 3), max_size=3).map(lambda cs: [p * c for c in cs] + [1])
    lines = [
        st.builds("ppow {}".format, st.integers(1, 3)),
        distinguished.map(lambda cs: " ".join(["dist"] + [str(c) for c in cs])),
    ]
    if not valid:
        lines += [
            st.builds("ppow {}".format, st.integers(-1, 3)),
            st.lists(st.integers(-9, 27), max_size=4).map(lambda cs: " ".join(["dist"] + [str(c) for c in cs])),
            st.sampled_from(["p", "ppow", "dist", "# comment", "p 3 5", "frob 2", ""]),
            junk,
        ]
    return st.lists(st.one_of(lines), max_size=4)


module_text = st.one_of(
    st.sampled_from([3, 5]).flatmap(lambda p: _module_lines(p, True).map(lambda ls: "\n".join([f"p {p}"] + ls))),
    st.sampled_from([3, 5]).flatmap(lambda p: _module_lines(p, False).map(lambda ls: "\n".join([f"p {p}"] + ls))),
    st.tuples(primes, _module_lines(3, False)).map(lambda t: "\n".join(t[1] + [f"p {t[0]}"])),
)

argv_only = st.one_of(
    st.tuples(st.just(["bernoulli", "--upto"]), st.integers(-2, 40).map(lambda n: [str(n)]), options()),
    st.tuples(st.sampled_from([["irregular", "-p"], ["eigenspace", "-p"]]), st.integers(-3, 40).map(lambda n: [str(n)]),
              options()),
    st.tuples(st.just(["interp"]), st.tuples(
        st.sampled_from(["trivial", "quadratic3", "cubic"]), st.integers(-1, 3), st.integers(-1, 4), st.integers(-1, 3),
    ).map(lambda t: ["--chi", t[0], "--nmax", str(t[1]), "--rmin", str(t[2]), "--rmax", str(t[3])]), options("--prime")),
    st.tuples(st.just(["coleman"]), st.tuples(
        st.integers(-1, 4), st.sampled_from(["1,3", "2,3", "1,1", "0,3", "3,6", "1,3;2,5", "1", "x,y", ""]),
    ).map(lambda t: ["--nmax", str(t[0]), "--pairs", t[1]]), window),
    st.tuples(st.just(["three"]), st.tuples(st.integers(-1, 4), st.integers(-1, 2), st.integers(-1, 6)).map(
        lambda t: ["--level", str(t[0]), "--kummer-k", str(t[1]), "--nmax", str(t[2])]), window),
    st.tuples(st.just(["selfcheck"]), st.just([]), options("--prime")),
    st.tuples(st.just([]), st.lists(junk, max_size=3), window),
).map(lambda t: t[0] + t[1] + t[2])

# derandomized, so every run draws the same examples and takes the same few seconds
FUZZ = settings(max_examples=150, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _assert_clean(argv):
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in out + err
    if code == 2 and err and "usage:" not in err:
        assert err.startswith("error:"), err


@FUZZ
@given(text=series_text, roundtrip=st.booleans(), opts=options())
def test_series_files_never_crash(tmp_path, text, roundtrip, opts):
    argv = ["weierstrass", _file(tmp_path, "fuzz_series.txt", text)] + ["--roundtrip"] * roundtrip + opts
    _assert_clean(argv)


@FUZZ
@given(text=module_text, e=st.integers(-2, 3), rmax=st.integers(-1, 4), opts=options())
def test_module_files_never_crash(tmp_path, text, e, rmax, opts):
    argv = ["growth", _file(tmp_path, "fuzz_module.txt", text), "--e", str(e), "--rmax", str(rmax)] + opts
    _assert_clean(argv)


@FUZZ
@given(argv=argv_only)
def test_command_lines_never_crash(argv):
    _assert_clean(argv)
