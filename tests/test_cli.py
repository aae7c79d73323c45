import json
import os
import re
import subprocess
import sys
from pathlib import Path

from sl2genus import cli, suites
from sl2genus.bounds import DeskResult, bound_sequence
from sl2genus.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, run
from sl2genus.core import ConsistencyError, make_ctx
from sl2genus.subgroups import Subgroup


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_genus_json(capsys):
    code, out, _ = _run(capsys, "genus", "--p", "13", "--n", "1", "--subgroup", "B", "--output", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["genus"] == "0"
    assert payload["delta"] == {"num": "-6", "den": "7"}


def test_class_table_mod4(capsys):
    code, out, _ = _run(capsys, "class-table", "--p", "2", "--n", "2", "--output", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    sizes = sorted(int(c["size"]) for c in payload["classes"])
    assert sizes == [1, 1, 3, 3, 6, 6, 6, 6, 8, 8]
    labels = {c["label"] for c in payload["classes"]}
    assert {"1", "-1", "sigma", "-sigma", "tau", "-tau", "u", "-u", "u^2", "-u^2"} <= labels


def test_class_table_mod2_labels(capsys):
    # modulo 2, -1 = 1, -sigma = sigma and -tau = tau: the plain names label the classes
    code, out, _ = _run(capsys, "class-table", "--p", "2", "--n", "1", "--output", "json")
    assert code == EXIT_OK
    classes = json.loads(out)["classes"]
    assert [(c["label"], c["size"]) for c in classes] == [("sigma", "3"), ("tau", "2"), ("1", "1")]


def test_count_command(capsys):
    code, out, _ = _run(
        capsys, "count", "--p", "13", "--n", "1", "--subgroup", "B", "--class", "u", "--output", "json"
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["count"] == "6"  # (p-1)/2


def test_count_u_power_class(capsys):
    code, out, _ = _run(
        capsys, "count", "--p", "3", "--n", "2", "--subgroup", "full", "--class", "u^p^1",
        "--output", "json",
    )
    assert code == EXIT_OK
    assert json.loads(out)["class_size"] == "4"


def test_bounds_command(capsys):
    code, out, _ = _run(capsys, "bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "3", "--output", "json")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == "1250"


def test_verify_section7_case(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "section7", "--case", "P7.2", "--output", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["cases"][0]["verdict"] == "match"


def test_verify_named_suite(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "lemma4.5", "--output", "json")
    assert code == EXIT_OK
    assert json.loads(out)["ok"] is True


# The wall-clock fields, the only part of a JSON payload that may differ
# between two runs with the same seed and flags.
ELAPSED = re.compile(r'"elapsed_ms": \d+')


def test_json_determinism(capsys):
    args = ("verify", "--suite", "lemma4.10", "--seed", "7", "--output", "json")
    _, out1, _ = _run(capsys, *args)
    _, out2, _ = _run(capsys, *args)
    assert out1 == out2  # no timing fields in suite payloads
    for args in (
        ("genus", "--p", "5", "--n", "2", "--subgroup", "preimage:D@1", "--output", "json"),
        ("verify", "--suite", "section7", "--seed", "7", "--output", "json"),
    ):
        code1, out1, _ = _run(capsys, *args)
        code2, out2, _ = _run(capsys, *args)
        assert code1 == code2 == EXIT_OK
        assert ELAPSED.sub("", out1) == ELAPSED.sub("", out2)


def test_verify_all_reports_section7_and_desk_details(capsys, monkeypatch):
    monkeypatch.setattr(suites, "suite_names", lambda: ["lemma4.10", "section7", "main-theorem-desk"])
    monkeypatch.setattr(
        suites,
        "verify_main_theorem_desk",
        lambda part, seed=0: [DeskResult(part, "stub", "pass", 1, None, seed, "")],
    )
    code, out, _ = _run(capsys, "verify", "--suite", "all", "--output", "json")
    assert code == EXIT_OK
    details = {r["name"]: r["detail"] for r in json.loads(out)["results"]}
    assert list(details) == ["lemma4.10", "section7", "main-theorem-desk"]
    assert details["section7"].startswith("23 cases: ")
    assert details["main-theorem-desk"] == "parts 1,2,3,4,5,6,7: 7 cases, 0 failed"


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(h):
        raise ConsistencyError("routes disagree")

    monkeypatch.setattr(cli, "genus_report", broken)
    code, _, err = _run(capsys, "genus", "--p", "13", "--n", "1", "--subgroup", "B")
    assert code == EXIT_INTERNAL == 3
    assert err.startswith("internal error: routes disagree")


def test_closed_stdout_exits_quietly_with_its_own_code():
    # the reader closes the pipe before the child writes (its import alone takes longer), as | head -c 100 may
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "sl2genus.cli", "bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "10000"]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
    assert err == b""
    assert EXIT_BROKEN_PIPE not in (EXIT_OK, EXIT_VERIFY_FAIL, EXIT_USAGE, EXIT_INTERNAL)


def test_computation_value_and_key_errors_are_internal(capsys, monkeypatch):
    def broken(h):
        raise KeyError("no such coset")

    monkeypatch.setattr(cli, "genus_report", broken)
    code, _, err = _run(capsys, "genus", "--p", "13", "--n", "1", "--subgroup", "B")
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: ")


def test_any_unmapped_exception_is_internal(capsys, monkeypatch):
    def broken(h):
        raise RuntimeError("unforeseen")

    monkeypatch.setattr(cli, "genus_report", broken)
    code, _, err = _run(capsys, "genus", "--p", "13", "--n", "1", "--subgroup", "B")
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: unforeseen") and "Traceback" in err


def test_a_spec_nested_too_deeply_is_a_usage_error(capsys):
    spec = "preimage:" * 1200 + "B" + "@1" * 1200
    code, _, err = _run(capsys, "genus", "--p", "3", "--n", "1", "--subgroup", spec)
    assert code == EXIT_USAGE
    assert err.startswith("error: ")


def test_a_bound_longer_than_the_int_to_str_limit_prints_whole(capsys):
    # 6,995 digits, above CPython's default limit of 4,300 on int-to-str conversion (3.11+), which run lifts
    code, out, _ = _run(capsys, "bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "10000", "--output", "json")
    assert code == EXIT_OK
    assert json.loads(out)["value"] == str(bound_sequence("a_sigma_p", 5, 10000))


def test_usage_errors(capsys):
    code, _, err = _run(capsys, "verify", "--suite", "not-a-suite")
    assert code == EXIT_USAGE
    code, _, _ = _run(capsys, "genus", "--p", "13")
    assert code == EXIT_USAGE
    code, _, err = _run(capsys, "genus", "--p", "12", "--n", "1", "--subgroup", "B")
    assert code == EXIT_USAGE
    code, _, err = _run(capsys, "verify", "--suite", "section7", "--case", "P9.1")
    assert code == EXIT_USAGE
    for argv in (
        ("genus", "--p", "4", "--n", "1", "--subgroup", "B"),
        ("class-table", "--p", "4", "--n", "1"),
        ("bounds", "--kind", "a_sigma_p", "--p", "4", "--n", "3"),
        ("bounds", "--kind", "a_u_p", "--p", "9", "--n", "2"),
        ("genus", "--p", "5", "--n", "1", "--subgroup", "nonsense"),
        ("genus", "--p", "13", "--n", "1", "--subgroup", "Borel"),  # specs are B, C, D, ...
        ("genus", "--p", "5", "--n", "1", "--subgroup", "gens:1,2;3"),
        ("genus", "--p", "5", "--n", "1", "--subgroup", "preimage:B@x"),
        ("count", "--p", "13", "--n", "1", "--subgroup", "B", "--class", "u^p^x"),
        ("count", "--p", "13", "--n", "1", "--subgroup", "B", "--class", "rho"),
        ("verify", "--suite", "main-theorem-desk", "--case", "x"),
        ("verify", "--suite", "main-theorem-desk", "--case", "9"),
        ("verify", "--suite", "section7", "--case", "L7.1:10201"),  # 101^2
        ("verify", "--suite", "lemma4.10", "--case", "3"),  # only section7 and the desk take --case
        ("verify", "--suite", "all", "--case", "3"),
    ):
        code, _, err = _run(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert err.startswith("error: "), argv
    for suite in ("lemma4.10", "all"):
        assert "--case" in _run(capsys, "verify", "--suite", suite, "--case", "3")[2], suite
    # genus applies the cap to G and the class orbits, as count does, and
    # preimage to the 2,500 elements of the preimage of B mod 5
    spec = ("--p", "5", "--n", "2", "--subgroup", "gens:1,5;0,1")
    preimage_b = ("genus", "--p", "5", "--n", "2", "--subgroup", "preimage:B@1")
    for argv in (("genus",) + spec, ("count",) + spec + ("--class", "sigma"), preimage_b):
        code, _, err = _run(capsys, *argv, "--max-elements", "100")
        assert code == EXIT_USAGE, argv
        assert "--max-elements" in err, argv
    code, capped, _ = _run(capsys, "genus", *spec, "--output", "json", "--max-elements", "15000")
    assert code == EXIT_OK  # 15000 = #SL2(Z/25Z)
    assert capped == _run(capsys, "genus", *spec, "--output", "json")[1]
    # each subcommand declares only the flags it reads
    for argv in (
        ("bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "3", "--seed", "1"),
        ("bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "3", "--max-elements", "10"),
        ("class-table", "--p", "3", "--n", "1", "--seed", "1"),
        ("verify", "--suite", "lemma4.5", "--max-elements", "10"),
    ):
        code, _, _ = _run(capsys, *argv)
        assert code == EXIT_USAGE, argv


def test_the_cap_is_a_positive_integer(capsys, monkeypatch):
    # argparse reads SL2_MAX_ELEMENTS as it reads --max-elements, and only on
    # the subcommands that take a cap
    genus = ("genus", "--p", "5", "--n", "1", "--subgroup", "B")
    capped = (genus, ("count",) + genus[1:] + ("--class", "sigma"), ("class-table", "--p", "5", "--n", "1"))
    for value in ("abc", "0", "-5", ""):
        monkeypatch.setenv("SL2_MAX_ELEMENTS", value)
        for argv in capped:
            code, _, err = _run(capsys, *argv)
            assert code == EXIT_USAGE, (value, argv)
            assert "SL2_MAX_ELEMENTS" in err and "positive integer" in err, (value, argv)
        assert _run(capsys, *genus, "--max-elements", "1000")[0] == EXIT_OK  # the flag wins
    assert _run(capsys, "bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "3")[0] == EXIT_OK
    assert _run(capsys, "verify", "--suite", "lemma4.5")[0] == EXIT_OK
    monkeypatch.setenv("SL2_MAX_ELEMENTS", "100")
    code, _, err = _run(capsys, "genus", "--p", "5", "--n", "2", "--subgroup", "gens:1,5;0,1")
    assert code == EXIT_USAGE and "--max-elements" in err  # the variable is the cap
    monkeypatch.delenv("SL2_MAX_ELEMENTS")
    for value in ("0", "-5"):  # refused when parsed, before any orbit runs
        code, _, err = _run(capsys, *genus, "--max-elements", value)
        assert code == EXIT_USAGE and "positive integer" in err, value


def test_feasibility_error_names_the_flag(capsys):
    code, _, err = _run(
        capsys, "genus", "--p", "5", "--n", "2", "--subgroup", "full", "--max-elements", "100"
    )
    assert code == EXIT_USAGE
    assert "max-elements" in err or "SL2_MAX_ELEMENTS" in err


def test_genus_above_modulus_65536_stops_at_the_cap(capsys):
    code, _, err = _run(
        capsys, "genus", "--p", "257", "--n", "2", "--subgroup", "gens:0,1;-1,0", "--max-elements", "1000"
    )
    assert code == EXIT_USAGE and "--max-elements" in err


def test_an_exceptional_spec_never_enumerates_g(capsys, monkeypatch):
    # E is lifted from its PGL2(F_p) classes, so SL2(F_101) (1,030,200 elements) stays out of the memo
    ctx = make_ctx(101, 1)
    monkeypatch.delitem(ctx.memo, "G", raising=False)
    argv = ("count", "--p", "101", "--n", "1", "--subgroup", "E:S4", "--class", "sigma", "--output", "json")
    code, out, _ = _run(capsys, *argv, "--max-elements", "20000")
    assert code == EXIT_OK
    assert json.loads(out)["count"] == "6"
    assert "G" not in ctx.memo


def test_a_level_one_spec_closes_under_the_cap(capsys, monkeypatch):
    # B at p = 1009 holds 1,017,072 elements; its closure must stop at the cap, not finish above it
    sizes = []
    codes = Subgroup.codes

    def spy(h):
        got = codes(h)
        sizes.append(len(got))
        return got

    monkeypatch.setattr(Subgroup, "codes", spy)
    argv = ("count", "--p", "1009", "--n", "1", "--subgroup", "B", "--class", "u", "--max-elements", "1000")
    code, _, err = _run(capsys, *argv)
    assert code == EXIT_USAGE and "--max-elements" in err
    assert all(n <= 1000 for n in sizes)
