"""Tests for the command-line interface: output goldens, canonical JSON
determinism, and the exit-code contract (0 ok, 2 verification failure,
3 budget or parse error)."""
from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import horogrowth.cli as cli
from horogrowth.cli import main


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


def test_vector_parse_error_exit(capsys):
    rc, _, err = run_main(capsys, "spell", "--m", "2", "--vector", "1;2")
    assert rc == 3


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
