"""Tests for the command-line interface: output goldens, canonical JSON
determinism, and the exit-code contract (0 ok, 2 verification failure,
3 budget or parse error)."""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horogrowth.cli as cli
from horogrowth.cli import main
from horogrowth.verify import SUITES


# the checkout's package for `python -m horogrowth` in a child process
SRC_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}


def run_main(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_spell_plain(capsys):
    rc, out, _ = run_main(capsys, "spell", "--m", "2", "--vector", "10,16")
    assert rc == 0
    assert out == "ttabbTBTab (length 10)\n"


def test_spell_zero_vector(capsys):
    rc, out, _ = run_main(capsys, "spell", "--m", "1", "--vector", "0")
    assert rc == 0
    assert out == "ε (length 0)\n"


def test_spell_json(capsys):
    rc, out, _ = run_main(
        capsys, "spell", "--m", "2", "--vector", "10,16", "--output", "json"
    )
    assert rc == 0
    assert out == '{"length":10,"m":2,"vector":[10,16],"word":"ttabbTBTab"}\n'


def test_eval_plain(capsys):
    rc, out, _ = run_main(capsys, "eval", "--m", "1", "--word", "ta^2TA")
    assert rc == 0
    assert out == "a^5\n"


def test_eval_json_fields(capsys):
    rc, out, _ = run_main(
        capsys, "eval", "--m", "2", "--word", "ttabbTBTab", "--output", "json"
    )
    assert rc == 0
    obj = json.loads(out)
    assert obj["display"] == "a^10 b^16"
    assert obj["horocyclic"] is True
    assert obj["tau"] == 0


def test_series_rational_golden(capsys):
    rc, out, _ = run_main(capsys, "series", "--kind", "sub", "--m", "2", "--rational")
    assert rc == 0
    assert out == "(1+3x+4x^2-4x^4-4x^5)/(1-x-4x^3)\n"


def test_series_prefix_plain(capsys):
    rc, out, _ = run_main(capsys, "series", "--kind", "sub", "--m", "1", "--terms", "5")
    assert rc == 0
    assert out == "1, 2, 2, 2, 4, 6\n"


def test_series_cap_polynomial(capsys):
    rc, out, _ = run_main(capsys, "series", "--kind", "V", "--m", "1", "--rational")
    assert out == "x^2+x^3+x^4\n"


def test_series_suffix_polynomial(capsys):
    rc, out, _ = run_main(capsys, "series", "--kind", "W", "--m", "1", "--rational")
    assert out == "1+2x\n"


def test_series_level_depth(capsys):
    rc, out, _ = run_main(
        capsys, "series", "--kind", "B", "--m", "1", "--n", "1", "--terms", "5"
    )
    assert out == "1, 4, 6, 6, 8, 14\n"


@pytest.mark.parametrize("kind", [k for k in cli._SERIES_KINDS if k != "B"])
def test_series_rejects_a_level_depth_for_every_kind_but_b(capsys, kind):
    rc, out, err = run_main(capsys, "series", "--kind", kind, "--m", "2", "--n", "3")
    assert rc == 3
    assert out == ""
    assert f"kind {kind!r} takes no level depth" in err


def test_series_level_depth_defaults_to_zero(capsys):
    argv = ("series", "--kind", "B", "--m", "2", "--terms", "4", "--output", "json")
    rc, out, _ = run_main(capsys, *argv)
    assert rc == 0
    assert json.loads(out)["n"] == 0
    assert run_main(capsys, *argv, "--n", "0")[1] == out


def test_series_json_byte_golden(capsys):
    rc, out, _ = run_main(
        capsys, "series", "--kind", "W", "--m", "1", "--terms", "3", "--output", "json"
    )
    assert out == (
        '{"kind":"W","m":1,"prefix":["1","2","0","0"],'
        '"rational":{"den":["1"],"num":["1","2"]},"terms":3}\n'
    )


def test_series_latex(capsys):
    rc, out, _ = run_main(capsys, "series", "--kind", "R", "--m", "1", "--output", "latex")
    assert rc == 0
    assert "\\frac" in out


def test_census_plain(capsys):
    rc, out, _ = run_main(capsys, "census", "--m", "1", "--rmax", "4")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "level 0: 1 1 3 7 13"
    assert "p_hat = x-x^3" in lines
    assert "q_hat = 1-x^2" in lines
    assert "certified through x^16" in lines


def test_census_json(capsys):
    rc, out, _ = run_main(capsys, "census", "--m", "1", "--rmax", "3", "--output", "json")
    obj = json.loads(out)
    assert obj["chi"]["0"] == [1, 1, 3, 7]
    assert obj["fit"]["p_hat"] == ["0", "1", "0", "-1"]
    assert obj["fit"]["q_hat"] == ["1", "0", "-1"]
    assert obj["fit"]["certified_to"] == 16


def test_census_budget_exit(capsys):
    rc, _, err = run_main(capsys, "census", "--m", "2", "--rmax", "30")
    assert rc == 3
    assert "budget" in err


def test_terms_cap_refused_before_any_work(capsys, monkeypatch):
    def fail(*args):
        raise AssertionError("series built before the terms check")

    monkeypatch.setattr(cli, "_series_function", fail)
    terms = str(cli.TERMS_CAP + 1)
    rc, out, err = run_main(capsys, "series", "--kind", "P", "--m", "2", "--terms", terms)
    assert rc == 3
    assert out == ""
    assert "budget error" in err


def test_word_rank_cap_refused_before_any_work(capsys, monkeypatch):
    # without the rank check this would evaluate to a 10^9-coordinate element
    def fail(*args):
        raise AssertionError("word evaluated before the rank check")

    monkeypatch.setattr(cli, "eval_word", fail)
    rc, out, err = run_main(capsys, "eval", "--m", str(10**9), "--word", "t")
    assert rc == 3
    assert out == ""
    assert "budget error: rank 1000000000 exceeds" in err


@pytest.mark.parametrize(
    "flags",
    [("--rational",), ("--output", "latex"), ("--rational", "--output", "latex")],
    ids=["rational", "latex", "rational-latex"],
)
def test_rational_and_latex_outputs_compute_no_prefix(capsys, monkeypatch, flags):
    def fail(*args):
        raise AssertionError("prefix computed for an output that omits it")

    monkeypatch.setattr(cli, "series_prefix", fail)
    argv = ("series", "--kind", "P", "--m", "3", "--terms", str(cli.TERMS_CAP), *flags)
    rc, out, _ = run_main(capsys, *argv)
    assert rc == 0
    assert out.startswith("\\frac" if "latex" in flags else "(")


@pytest.mark.parametrize(
    "argv",
    [
        ("census", "--m", "200", "--rmax", "24"),
        ("series", "--kind", "full", "--m", "40"),
        ("series", "--kind", "B", "--m", "2", "--n", "100000"),
        ("series", "--kind", "full", "--m", "2", "--terms", "100000"),
    ],
)
def test_oversized_inputs_exit_3(capsys, argv):
    rc, out, err = run_main(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert "budget error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--suite", "census", "--m", "-1"),
        ("verify", "--suite", "census", "--m", "0"),
        ("verify", "--suite", "bfs", "--m", "0"),
        ("verify", "--suite", "bfs", "--m", "-1"),
        ("eval", "--m", "0", "--word", "t"),
        ("eval", "--m", "-2", "--word", "t"),
        ("spell", "--m", "0", "--vector", "1"),
    ],
)
def test_nonpositive_rank_is_a_bad_input(capsys, argv):
    rc, out, err = run_main(capsys, *argv)
    assert rc == 3
    assert out == ""
    assert err.startswith("error: rank m must be at least 1")
    assert "budget error" not in err


def test_appendix_rank_outside_the_tables_exits_3(capsys):
    rc, out, err = run_main(capsys, "verify", "--suite", "appendix", "--m", "20")
    assert rc == 3
    assert out == ""
    assert "ranks 1 to 10" in err


def test_verify_pass_exit(capsys):
    rc, out, _ = run_main(capsys, "verify", "--suite", "gfsa")
    assert rc == 0
    assert out.rstrip().endswith("suite gfsa: PASS")


def test_verify_failure_exit(monkeypatch, capsys):
    def fake(suite, m=None, radius=None):
        return {
            "suite": suite,
            "pass": False,
            "checks": [{"name": "forced failure", "pass": False, "witness": {"index": 0}}],
        }

    monkeypatch.setattr(cli, "run_suite", fake)
    rc, out, _ = run_main(capsys, "verify", "--suite", "gfsa")
    assert rc == 2
    assert "FAIL forced failure" in out
    assert "suite gfsa: FAIL" in out


def test_verify_erratum_note(capsys):
    rc, out, _ = run_main(capsys, "verify", "--suite", "bfs", "--m", "1", "--radius", "4")
    assert rc == 0
    assert "NOTE erratum: rank 1" in out


def test_verify_json_erratum(capsys):
    rc, out, _ = run_main(
        capsys, "verify", "--suite", "bfs", "--m", "2", "--radius", "3",
        "--output", "json",
    )
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["erratum"][0]["erratum"] is True
    assert obj["erratum"][0]["first_mismatch"] == 1


# sha256 of the --output json stdout of verify runs whose counts come from
# the orbit enumeration, recorded when the flat enumeration counted them
VERIFY_DIGESTS = {
    "bfs": "fd835a87397e64ad2d11d9643766a056dd1c35a470b680145095b106863c346f",
    "census": "c373827e122b528a90dbe0250650d9ceef797eae7ce1aa390e267ce8236962a1",
    "census --m 3": "ace5583c22d62a10df61b81e26dba9b0107b61be0e08f237551189fcf8e1a04a",
    "bfs --m 2 --radius 9": "4b73fd28e036c7b3ad4f26786e4893398c405af5fa58edd7e4875691bf96a41d",
    # recorded when the tiling count enumerated every level a second time
    "language": "d8ca7232b3e0c814ee0b052395586cf3ca730ed47637d68b31f59324c7227217",
}


@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_json_bytes_are_pinned(capsys, suite):
    rc, out, _ = run_main(capsys, "verify", "--suite", *suite.split(), "--output", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[suite]


# sha256 of the --output json stdout of census, series and eval runs; the
# census and series ones recorded when every census horizon ran its own
# stem pass and full_series summed its level-series terms with rf_add and
# rf_mul
JSON_DIGESTS = {
    "census --m 30 --rmax 3": "1ccbb866f90c74ce22ed8c22086d57a1d185f589806a28d9c4874890baf43ee5",
    "census --m 12 --rmax 24": "af29f2a8c01500bde5e19b6a73da2f1b6466d499a33a95cb38d32c9f2047ee18",
    "series --kind full --m 12 --rational": (
        "6f0cc515193d644702b9732115c4c9a5e90c6e0b514b14a7fe62d1372d83b774"
    ),
    # eval on fixed words, recorded when each coordinate was a frozen
    # dataclass: fractional coordinates, heights of both signs, integers
    "eval --m 1 --word Tat": (
        "862fa5c23e03bc69e317853441d7624364be6ce48711be6055f680d9c0c0bf97"
    ),
    "eval --m 1 --word TTa^2tt": (
        "30997c5997ee996f9085ed9c3c78cab3d2082bb9ee2d1d5327f1f3fd37ed955e"
    ),
    "eval --m 1 --word T^3A^4t^5": (
        "8d5b4e6a9b7334dd59f634f91a903d20497966f17c8248998a99befd37542cee"
    ),
    "eval --m 1 --word t^4a^-2T^4a^3": (
        "cab47807d62ad7f1a1a057582e24ebf59cb26981f80831b706b77e9116aa2639"
    ),
    "eval --m 2 --word TaTBttAt": (
        "520caef6f593960f171289ac0cbe9271480d6d780e78f16f0d60f3e9043f626c"
    ),
    "eval --m 2 --word ttabbTBTab": (
        "73ddc35aef623e7c2ae3c2ee5c7b3656eaa2883bc18f32f48a38d1b9183571ee"
    ),
    "eval --m 2 --word a^-7T^2b^9": (
        "d5aaed76ed1d61fd2ed5521082ccbdc0dc399bbeea8df5cca396ba63560baf2a"
    ),
    "eval --m 3 --word T^3a^4t^2BA": (
        "a7b24aa1cd2a74af833b349839df93b81c6c9c9ada17f3c781e37702a23d922e"
    ),
    "eval --m 3 --word tTTa^5tbTTCtt": (
        "c307f084fe5192f490092c04fd378d0d9475c3d31337aefdbe273474f304efbd"
    ),
    "eval --m 3 --word TaTbTc": (
        "b60c989a8df7d23eaed0ceea0703c61510a2dc6c5f93512ff95305fea3882aef"
    ),
}


@pytest.mark.parametrize("command", sorted(JSON_DIGESTS))
def test_json_bytes_are_pinned(capsys, command):
    rc, out, _ = run_main(capsys, *command.split(), "--output", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == JSON_DIGESTS[command]


def test_language_suite_honours_the_budget(monkeypatch, capsys):
    monkeypatch.setenv("HOROGROWTH_BUDGET_MB", "1")
    rc, _, err = run_main(capsys, "verify", "--suite", "language", "--m", "2")
    assert rc == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--suite", "gfsa", "--m", "7"),
        ("--suite", "appendix", "--radius", "99"),
        ("--suite", "language", "--radius", "3"),
        ("--suite", "gfsa", "--radius", "3"),
    ],
)
def test_verify_rejects_flags_the_suite_ignores(capsys, argv):
    rc, out, err = run_main(capsys, "verify", *argv)
    assert rc == 3
    assert out == ""
    assert "takes no" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("spell", "--m", "1", "--vector", "3"),
        ("eval", "--m", "1", "--word", "t"),
        ("verify", "--suite", "gfsa"),
        ("census", "--m", "1"),
    ],
)
def test_latex_output_only_for_series(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", "latex"])
    assert exc.value.code == 3
    assert capsys.readouterr().out == ""


def test_missing_subcommand_exits_3():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 3


def test_bad_choice_exits_3():
    with pytest.raises(SystemExit) as exc:
        main(["series", "--kind", "Q", "--m", "1"])
    assert exc.value.code == 3


def test_word_parse_error_exit(capsys):
    rc, _, err = run_main(capsys, "eval", "--m", "1", "--word", "xyz")
    assert rc == 3
    assert "error" in err


def test_a_digit_outside_ascii_is_a_parse_error(capsys):
    # an Arabic-Indic three is a decimal digit to str.isdigit, not an index
    rc, out, err = run_main(capsys, "eval", "--m", "3", "--word", "a\u0663")
    assert rc == 3
    assert out == ""
    assert "unexpected character '\u0663'" in err


def test_vector_parse_error_exit(capsys):
    rc, _, err = run_main(capsys, "spell", "--m", "2", "--vector", "1;2")
    assert rc == 3


@pytest.mark.parametrize(
    "text",
    ["1" * 5000, ",".join(["1"] * 2499 + ["x"])],
    ids=["5000-digit entry", "2500 entries, last bad"],
)
def test_long_vector_error_is_cut(capsys, text):
    rc, out, err = run_main(capsys, "spell", "--m", "1", "--vector", text)
    assert rc == 3
    assert out == ""
    assert err.count("\n") == 1
    assert len(err.encode()) < 200
    assert text[:20] + "..." in err


def test_vector_rank_mismatch_exit(capsys):
    rc, _, _ = run_main(capsys, "spell", "--m", "2", "--vector", "1,2,3")
    assert rc == 3


def test_json_byte_determinism_subprocess():
    cmd = [
        sys.executable, "-m", "horogrowth",
        "verify", "--suite", "gfsa", "--output", "json",
    ]
    first = subprocess.run(cmd, capture_output=True, check=True, env=SRC_ENV)
    second = subprocess.run(cmd, capture_output=True, check=True, env=SRC_ENV)
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["pass"] is True


def test_rank_cap_exit_subprocess():
    cmd = [sys.executable, "-m", "horogrowth", "series", "--kind", "sub", "--m", "31"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=SRC_ENV, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget error: rank 31")


def test_module_entry_subprocess():
    cmd = [sys.executable, "-m", "horogrowth", "spell", "--m", "2", "--vector", "10,16"]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=SRC_ENV)
    assert proc.returncode == 0
    assert proc.stdout == "ttabbTBTab (length 10)\n"


def test_budget_overrun_exits_3_in_a_fresh_process():
    cmd = [
        sys.executable, "-m", "horogrowth",
        "verify", "--suite", "bfs", "--m", "2", "--radius", "8",
    ]
    env = {**SRC_ENV, "HOROGROWTH_BUDGET_MB": "1"}
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=60)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("budget error: the rank-2 ball of radius 8")


def _one_gigabyte_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("word", ["a^100000000", "t^10000a", "a^" + "9" * 5000])
def test_overlong_words_exit_3(word):
    # in a child capped at 1 GB, so a word that is expanded cannot take the host
    cmd = [sys.executable, "-m", "horogrowth", "eval", "--m", "1", "--word", word]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=SRC_ENV, timeout=60,
        preexec_fn=_one_gigabyte_address_space,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr == "budget error: word is longer than the cap of 8000 tokens\n"


# command-line text: short runs of word and vector characters, and now and
# then a run of 5000 digits after a letter, a '^' or a comma
_CLI_PIECE = st.text(alphabet="tTaAbBcCdq0123456789^-, ", max_size=10)
_DIGIT_RUN = st.tuples(
    st.sampled_from(["", "a", "A", "b", "a1^", "^", "^-", ","]),
    st.sampled_from("0123456789"),
).map(lambda p: p[0] + p[1] * 5000)
_CLI_TEXT = st.lists(
    st.integers(0, 4).flatmap(lambda k: _DIGIT_RUN if k == 0 else _CLI_PIECE),
    max_size=4,
).map("".join)


def _main_in_process(argv):
    """Exit code and printed text of main(argv), argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse exits on a usage error
            rc = exc.code
    return rc, out.getvalue() + err.getvalue()


@given(st.sampled_from(["eval", "spell"]), st.integers(1, 4), _CLI_TEXT)
@settings(max_examples=200, deadline=None)
def test_word_and_vector_text_exit_0_or_3(command, m, text):
    flag = "--word" if command == "eval" else "--vector"
    rc, printed = _main_in_process([command, "--m", str(m), flag, text])
    assert rc in (0, 3)
    assert "Exceeds the limit" not in printed


def _flag(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _option(flag, values):
    """Nothing, or the flag with a drawn value."""
    return st.just([]) | _flag(flag, values)


def _argv(*parts):
    return st.tuples(*parts).map(lambda ps: [a for p in ps for a in p])


# integer options: values that run in well under 0.5 s each, and values past
# each cap, which are refused before any work
_RANK = st.integers(-1, 16) | st.integers(31, 10**6)
_TERMS = st.integers(-1, 80) | st.integers(cli.TERMS_CAP + 1, 10**9)
# stem depth and census horizon, both capped at 24
_DEPTH = st.integers(-1, 26) | st.integers(27, 10**6)
_RADIUS = st.integers(-1, 6) | st.integers(13, 10**6)
_OUTPUT = _option("--output", st.sampled_from(["plain", "json", "latex"]))

_SERIES_ARGV = _argv(
    st.just(["series"]),
    _flag("--kind", st.sampled_from([*cli._SERIES_KINDS, "Q"])),
    _flag("--m", _RANK),
    _option("--terms", _TERMS),
    _option("--n", _DEPTH),
    st.sampled_from([[], ["--rational"]]),
    _OUTPUT,
)
_CENSUS_ARGV = _argv(
    st.just(["census"]), _flag("--m", _RANK), _option("--rmax", _DEPTH), _OUTPUT
)


def _verify_argv(suite):
    # the language suite spells a rank-2 box for about 1.7 s, and its default
    # covers rank 2, so it always gets another rank
    if suite == "language":
        rank = _flag("--m", st.sampled_from([-1, 0, 1, 3, 31]))
    else:
        rank = _option("--m", _RANK)
    return _argv(
        st.just(["verify", "--suite", suite]), rank, _option("--radius", _RADIUS), _OUTPUT
    )


@given(_SERIES_ARGV | _CENSUS_ARGV | st.sampled_from(SUITES).flatmap(_verify_argv))
@settings(max_examples=150, deadline=None)
def test_every_subcommand_exits_0_2_or_3(argv):
    rc, printed = _main_in_process(argv)
    assert rc in (0, 2, 3)
    assert "Traceback" not in printed
