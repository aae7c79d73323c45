import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from sl2genus import cli, suites
from sl2genus.bounds import bound_sequence
from sl2genus.cli import EXIT_BROKEN_PIPE, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFY_FAIL, run
from sl2genus.core import ConsistencyError, make_ctx
from sl2genus.groups import ConjClassRef, conj_class_size_formula
from sl2genus.suites import DeskResult


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


def test_every_suite_but_section7_and_the_desk_passes_in_process():
    # verify --suite all runs them all in CI, in a child process; here they run in this one
    for name, suite in suites.SUITES.items():
        if name not in ("section7", "main-theorem-desk"):
            assert suite(seed=0)[0], name


def test_verify_one_desk_part(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "main-theorem-desk", "--case", "4")
    assert code == EXIT_OK
    *rows, last = out.splitlines()
    labels = ("B@5^4", "D@5^4", "E:S4@5^4")
    assert [row.split()[:4] for row in rows] == [["part", "4", label, "pass"] for label in labels]
    assert last == "main-theorem-desk: PASS"
    code, out, _ = _run(capsys, "verify", "--suite", "main-theorem-desk", "--case", "4", "--output", "json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert (payload["suite"], payload["ok"]) == ("main-theorem-desk", True)
    assert [(c["part"], c["label"], c["status"], c["checked"]) for c in payload["cases"]] == [
        (4, label, "pass", "4") for label in labels
    ]


def test_an_unknown_suite_is_a_usage_error(capsys):
    # run prints it as it prints every other usage error, and nothing runs
    code, out, err = _run(capsys, "verify", "--suite", "lemma9.9")
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: unknown suite 'lemma9.9'; available: %s\n" % ", ".join(suites.suite_names())


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

    monkeypatch.setattr("sl2genus.genus.genus_report", broken)  # the genus verb imports it when it runs
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


class _ClosedStdout:
    """A stdout whose reader has gone: every write raises BrokenPipeError.  Its
    descriptor is a file of the test's own, which run may point at devnull."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        pass

    def fileno(self):
        return self.fd


def test_a_closed_stdout_in_process_points_the_descriptor_at_devnull(monkeypatch, tmp_path):
    # the child above shows the exit code a shell sees; here run's handler runs in this process
    with open(tmp_path / "stdout", "w") as f:
        monkeypatch.setattr(sys, "stdout", _ClosedStdout(f.fileno()))
        assert run(["bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "3"]) == EXIT_BROKEN_PIPE
        assert os.path.samestat(os.fstat(f.fileno()), os.stat(os.devnull))


def test_the_module_run_as_a_script_exits_with_the_code_of_run(capsys, monkeypatch):
    # python -m sl2genus.cli, in this process: runpy executes the module afresh as __main__
    monkeypatch.setattr(sys, "argv", ["sl2genus", "bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "3"])
    monkeypatch.delitem(sys.modules, "sl2genus.cli")  # runpy warns when the module is imported already
    with pytest.raises(SystemExit) as stop:
        runpy.run_module("sl2genus.cli", run_name="__main__")
    assert stop.value.code == EXIT_OK
    assert capsys.readouterr().out == "a_sigma_p(p=5, n=3) = 1250\n"


def test_computation_value_and_key_errors_are_internal(capsys, monkeypatch):
    def broken(h):
        raise KeyError("no such coset")

    monkeypatch.setattr("sl2genus.genus.genus_report", broken)  # the genus verb imports it when it runs
    code, _, err = _run(capsys, "genus", "--p", "13", "--n", "1", "--subgroup", "B")
    assert code == EXIT_INTERNAL
    assert err.startswith("internal error: ")


def test_any_unmapped_exception_is_internal(capsys, monkeypatch):
    def broken(h):
        raise RuntimeError("unforeseen")

    monkeypatch.setattr("sl2genus.genus.genus_report", broken)  # the genus verb imports it when it runs
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


def test_usage_errors(capsys, builds):
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
    for r in ("-1", "2"):
        code, _, err = _run(capsys, "count", "--p", "3", "--n", "2", "--subgroup", "full", "--class", "u^p^" + r)
        assert (code, err) == (EXIT_USAGE, "error: u_power takes 0 <= r < n = 2, got r=%s\n" % r), r
    for suite in ("lemma4.10", "all"):
        assert "--case" in _run(capsys, "verify", "--suite", suite, "--case", "3")[2], suite
    # the cap refuses what a call builds, not a number it reads: count labels
    # the 5 elements of H = <(1 5; 0 1)> and builds no orbit of Conj(sigma)
    # (750 elements), genus walks a table of the 30 lines of P^1(Z/25) with the
    # 5 matrices of H and never builds G = SL2(Z/25Z) (15,000), and
    # preimage:B@1 (2,500 elements) is reported on B mod 5 (20 elements) with a
    # table of 6 lines, its Schreier walk holding at most those 20 lifts; below
    # a table and its matrices or B mod 5, the cap still refuses them
    spec = ("--p", "5", "--n", "2", "--subgroup", "gens:1,5;0,1")
    preimage_b = ("genus", "--p", "5", "--n", "2", "--subgroup", "preimage:B@1")
    count = ("count",) + spec + ("--class", "sigma")
    for argv, cap in ((count, 100), (("genus",) + spec, 35), (preimage_b, 26)):
        builds.clear()
        code, capped, _ = _run(capsys, *argv, "--output", "json", "--max-elements", str(cap))
        assert code == EXIT_OK and builds and all(size <= cap for _, size in builds), argv
        assert capped == _run(capsys, *argv, "--output", "json")[1], argv
    for argv, cap, held in (
        (("genus",) + spec, 34, "line table modulo 25 and the matrices of H hold 35"),
        (preimage_b, 25, "line table modulo 5 and the matrices of H hold 26"),
        (preimage_b, 19, "B modulo 5 holds 20"),
    ):
        code, _, err = _run(capsys, *argv, "--max-elements", str(cap))
        assert code == EXIT_USAGE and held in err and "--max-elements" in err, argv
    # each subcommand declares only the flags it reads
    for argv in (
        ("bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "3", "--seed", "1"),
        ("bounds", "--kind", "a_sigma_p", "--p", "5", "--n", "3", "--max-elements", "10"),
        ("class-table", "--p", "3", "--n", "1", "--seed", "1"),
        ("verify", "--suite", "lemma4.5", "--max-elements", "10"),
    ):
        code, _, _ = _run(capsys, *argv)
        assert code == EXIT_USAGE, argv


@pytest.mark.parametrize(
    "p, n, spec, message",
    [
        (5, 1, "gens:1,2", "expected two ';'-separated rows in '1,2'"),
        (5, 1, "E:A6", "unknown exceptional type 'A6'"),
        (3, 1, "E:A6", "unknown exceptional type 'A6'"),  # the type is read before p
        (3, 1, "E:A4", "exceptional type A4 unavailable at p=3 (E needs p >= 5, A5 p = +-1 mod 5)"),
        (3, 1, "F", "F is a subgroup of SL2(Z/2Z)"),
        (3, 2, "A1", "A1 is a subgroup of SL2(Z/4Z)"),
        (2, 1, "D", "nonsplit Cartan normalizer needs p >= 3"),
        (3, 2, "preimage:B@3", "preimage source level 3 exceeds n=2"),
    ],
)
def test_a_spec_outside_its_domain_is_a_usage_error(capsys, p, n, spec, message):
    code, out, err = _run(capsys, "genus", "--p", str(p), "--n", str(n), "--subgroup", spec)
    assert (code, out, err) == (EXIT_USAGE, "", "error: %s\n" % message)


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
    monkeypatch.setenv("SL2_MAX_ELEMENTS", "34")  # the coset walk of <(1 5; 0 1)> holds 35
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


def test_a_refusal_prints_one_line_naming_what_passed_the_cap(capsys):
    # <u, t(u)> closes to SL2(F_5), 120 elements
    code, out, err = _run(
        capsys, "genus", "--p", "5", "--n", "1", "--subgroup", "gens:1,1;0,1|1,0;1,1", "--max-elements", "50"
    )
    assert (code, out) == (EXIT_USAGE, "")
    refusal = "the closure passed 50 elements, above the cap of 50; raise --max-elements or SL2_MAX_ELEMENTS"
    assert err == "error: %s\n" % refusal


def test_genus_above_modulus_65536_stops_at_the_cap(capsys, builds):
    # <sigma> modulo 257^2 has 4 elements and level 2.  Its report labels them
    # and builds no orbit of Conj(sigma) (258 * 257^3 elements) and no coset
    # table (#G is above DIRECT_CHECK_CAP), so a cap of 1000 refuses nothing;
    # a cap of 3 refuses the closure of H
    argv = ("genus", "--p", "257", "--n", "2", "--subgroup", "gens:0,1;-1,0", "--output", "json")
    code, capped, _ = _run(capsys, *argv, "--max-elements", "1000")
    assert code == EXIT_OK and builds == [(make_ctx(257, 2), 4)]
    assert capped == _run(capsys, *argv)[1]
    code, _, err = _run(capsys, *argv, "--max-elements", "3")
    assert code == EXIT_USAGE and "--max-elements" in err


def test_the_papers_exponents_run_under_the_default_cap(capsys, builds):
    # section 7 states its chains at 2^11 (B), 2^10 (F) and 3^6 (B).  A preimage
    # of a level-one subgroup is reported on its source: the same index, cusp
    # ratio, delta, genus and fixed counts, count_sigma and count_tau lifted by
    # #Conj_n / #Conj_1, and nothing built above level one
    def genus_json(p, n, spec):
        code, out, _ = _run(capsys, "genus", "--p", str(p), "--n", str(n), "--subgroup", spec, "--output", "json")
        assert code == EXIT_OK, (p, n, spec)
        return json.loads(out)

    for p, n, kind in ((2, 11, "B"), (2, 10, "F"), (3, 6, "B")):
        builds.clear()
        got = genus_json(p, n, "preimage:%s@1" % kind)
        assert builds and {ctx.n for ctx, _ in builds} == {1}
        low = genus_json(p, 1, kind)
        for key in ("count_sigma", "count_tau"):
            lift = [conj_class_size_formula(ConjClassRef(make_ctx(p, k), key[6:])) for k in (n, 1)]
            low[key] = str(int(low[key]) * lift[0] // lift[1])
        low.update(order=str(int(low["order"]) * p ** (3 * n - 3)), subgroup="preimage:%s@1" % kind)
        assert got == low, (p, n, kind)
    builds.clear()
    argv = ("count", "--p", "2", "--n", "11", "--subgroup", "preimage:B@1", "--class", "sigma", "--output", "json")
    code, out, _ = _run(capsys, *argv)
    assert code == EXIT_OK and {ctx.n for ctx, _ in builds} == {1}
    assert json.loads(out)["count"] == "524288"  # u, the one element of B in Conj(sigma) mod 2, lifted by 2^19
    # B at 13 holds 156 elements, #Conj(sigma) = 182 and #G = 2,184; genus walks
    # 13^2 vector slots, and only a cap below B refuses
    b = ("--p", "13", "--n", "1", "--subgroup", "B", "--output", "json")
    for argv, cap in ((("genus",) + b, 200), (("count",) + b + ("--class", "sigma"), 160)):
        code, capped, _ = _run(capsys, *argv, "--max-elements", str(cap))
        assert code == EXIT_OK and capped == _run(capsys, *argv)[1], argv
        code, _, err = _run(capsys, *argv, "--max-elements", "150")
        assert code == EXIT_USAGE and "B modulo 13 holds 156 elements, above the cap of 150" in err, argv


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
    # B at p = 1009 holds p(p - 1) = 1,017,072 elements; count and genus refuse it
    # in closed form, with no closure run and no primitive root found
    calls = []
    monkeypatch.setattr("sl2genus.subgroups._closure_codes", lambda *a: calls.append("_closure_codes"))
    monkeypatch.setattr("sl2genus.subgroups.primitive_root", lambda *a: calls.append("primitive_root"))
    b = ("--p", "1009", "--n", "1", "--subgroup", "B")
    for argv in (("count", *b, "--class", "u", "--max-elements", "1000"), ("genus", *b, "--max-elements", "300000")):
        code, _, err = _run(capsys, *argv)
        assert code == EXIT_USAGE and "B modulo 1009 holds 1017072 elements, above the cap of" in err, argv
        assert "--max-elements" in err
    assert calls == []


def test_an_exceptional_spec_is_refused_above_the_cap(capsys):
    # E:A5 at 11 lifts its 60 PGL2(F_11) classes to 120 elements of SL2(F_11);
    # a cap below that refuses the lifts before the subgroup is made
    argv = ("count", "--p", "11", "--n", "1", "--subgroup", "E:A5", "--class", "sigma", "--output", "json")
    code, _, err = _run(capsys, *argv, "--max-elements", "20")
    assert code == EXIT_USAGE and "E modulo 11 holds 120 elements, above the cap of 20" in err
    assert "--max-elements" in err
    code, out, _ = _run(capsys, *argv, "--max-elements", "120")
    assert code == EXIT_OK and json.loads(out)["count"] == "30"
