"""End-to-end command line behavior via main(argv)."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aopl_lint
from aopl_lint import parse_json
from aopl_lint.cli import main, run

from helpers import DATA

DOM = str(DATA / "mission.dom")
STRICT = str(DATA / "mission_strict.aopl")
DEFEASIBLE = str(DATA / "mission_defeasible.aopl")
STATE = str(DATA / "colonel_authorized.state")
SHIFTS_DOM = str(DATA / "shifts.dom")
SHIFTS = str(DATA / "shifts.aopl")


@pytest.fixture
def clean_policy(tmp_path):
    path = tmp_path / "clean.aopl"
    path.write_text("action go.\nrule r1: permitted(go).\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def empty_state(tmp_path):
    path = tmp_path / "empty.state"
    path.write_text("% nothing is true\n", encoding="utf-8")
    return str(path)


class TestAnalyze:
    def test_findings_exit_one(self, capsys):
        assert main(["analyze", DOM, STRICT]) == 1
        out = capsys.readouterr().out
        assert out.startswith("aopl-lint report\n")
        assert "states examined: 16" in out
        assert "[1] inconsistency on assume_comm(c,m)" in out

    def test_clean_policy_exits_zero(self, capsys, clean_policy):
        assert main(["analyze", clean_policy]) == 0
        out = capsys.readouterr().out
        assert "findings: 0" in out

    def test_json_format_parses_back(self, capsys):
        assert main(["analyze", "--format", "json", DOM, STRICT]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "aopl-lint"
        report = parse_json(json.dumps(payload))
        assert report.states_examined == 16
        assert report.domain_path == DOM

    def test_one_ambiguity_is_one_family(self, capsys, tmp_path):
        # Two independent ambiguous actions: each state's answer-set count
        # depends on the other action, which must not split either family.
        path = tmp_path / "two.aopl"
        path.write_text(
            "sorts thing: a.\nfluent f(thing).\nfluent g(thing).\n"
            "action x(thing).\naction y(thing).\n"
            "rule x1: normally permitted(x(W)) if f(W).\n"
            "rule x2: normally !permitted(x(W)) if f(W).\n"
            "rule y1: normally permitted(y(W)) if g(W).\n"
            "rule y2: normally !permitted(y(W)) if g(W).\n",
            encoding="utf-8",
        )
        assert main(["analyze", str(path)]) == 1
        out = capsys.readouterr().out
        assert "  ambiguity: 2\n" in out
        assert out.count("answer sets in the witness state: 2 total, 1 permitting") == 2
        assert out.count("    seen in 2 states\n") == 4

    def test_obligation_to_refrain_from_a_permitted_action(self, capsys, tmp_path):
        path = tmp_path / "refrain.aopl"
        path.write_text(
            "action go.\nrule p1: permitted(go).\nrule o1: obl(-go).\n", encoding="utf-8"
        )
        assert main(["analyze", str(path)]) == 1
        assert (
            "    go: the policy obligates refraining from an action that is explicitly "
            "permitted; urgency 2.\n"
        ) in capsys.readouterr().out

    def test_pins_slice_the_space(self, capsys):
        assert main(["analyze", "--pin", "!colonel(c)", DOM, STRICT]) == 1
        out = capsys.readouterr().out
        assert "states examined: 8" in out
        assert "pins: !colonel(c)" in out
        assert "inconsistency: 0" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = main(["analyze", "--format", "json", "-o", str(target), DOM, DEFEASIBLE])
        assert code == 1
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text(encoding="utf-8"))["findings"]

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.txt"
        assert main(["analyze", "-o", str(target), DOM, STRICT]) == 2
        assert f"cannot write {target}: " in capsys.readouterr().err

    def test_max_states_limit(self, capsys):
        assert main(["analyze", "--max-states", "8", DOM, STRICT]) == 2
        err = capsys.readouterr().err
        assert "16 assignments" in err

    def test_env_default_for_max_states(self, capsys, monkeypatch):
        monkeypatch.setenv("AOPL_LINT_MAX_STATES", "8")
        assert main(["analyze", DOM, STRICT]) == 2

    def test_bad_pin_exits_two(self, capsys):
        assert main(["analyze", "--pin", "ghost", DOM, STRICT]) == 2
        assert "not a state atom" in capsys.readouterr().err

    def test_non_integer_env_max_states_exits_two(self, capsys, monkeypatch):
        monkeypatch.setenv("AOPL_LINT_MAX_STATES", "abc")
        assert main(["analyze", DOM, STRICT]) == 2
        assert "AOPL_LINT_MAX_STATES: 'abc' is not an integer" in capsys.readouterr().err

    def test_negative_max_states_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "--max-states", "-5", DOM, STRICT])
        assert exc.value.code == 2
        assert "-5 is negative" in capsys.readouterr().err

    def test_internal_value_error_is_not_bad_input(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal")

        monkeypatch.setattr("aopl_lint.cli.sweep", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["analyze", DOM, STRICT])


SRC = Path(aopl_lint.__file__).resolve().parent.parent


def run_child(*argv: str, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """Python in a fresh process that imports this package."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *argv], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )


class TestProcessExitCodes:
    def test_findings_exit_one_from_the_module_entry_point(self):
        done = run_child("-m", "aopl_lint.cli", "analyze", DOM, STRICT)
        assert done.returncode == 1
        assert "states examined: 16" in done.stdout

    def test_bad_input_exits_two_from_the_module_entry_point(self):
        done = run_child("-m", "aopl_lint.cli", "analyze", "--pin", "ghost", DOM, STRICT)
        assert done.returncode == 2
        assert "not a state atom" in done.stderr

    def test_internal_error_exits_three_with_its_traceback(self):
        # Runs the module as ``-m`` does, after breaking the sweep it imports.
        code = (
            "import runpy, sys\n"
            "import aopl_lint.analysis\n"
            "def broken(*args, **kwargs):\n"
            "    raise ValueError('internal')\n"
            "aopl_lint.analysis.sweep = broken\n"
            "sys.argv = ['aopl-lint', 'analyze', *sys.argv[1:]]\n"
            "runpy.run_module('aopl_lint.cli', run_name='__main__', alter_sys=True)\n"
        )
        done = run_child("-c", code, DOM, STRICT)
        assert done.returncode == 3
        assert done.stdout == ""
        assert "Traceback (most recent call last)" in done.stderr
        assert done.stderr.rstrip().endswith("ValueError: internal")

    def test_a_closed_stdout_exits_141_quietly(self):
        read, write = os.pipe()
        os.close(read)  # the reader has gone before the first write
        try:
            done = run_child("-m", "aopl_lint.cli", "states", DOM, STRICT, stdout=write)
        finally:
            os.close(write)
        assert done.returncode == 141
        assert done.stderr == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_failed_stdout_write_exits_two_with_one_line(self):
        with open("/dev/full", "w") as full:
            done = run_child("-m", "aopl_lint.cli", "analyze", DOM, STRICT, stdout=full)
        assert done.returncode == 2
        assert done.stderr.startswith("cannot write <stdout>: ")
        assert done.stderr.count("\n") == 1

    def test_an_interrupt_exits_130_with_one_line(self, monkeypatch, capsys):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr("aopl_lint.cli.sweep", interrupted)
        monkeypatch.setattr(sys, "argv", ["aopl-lint", "analyze", DOM, STRICT])
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 130
        assert capsys.readouterr() == ("", "aopl-lint: interrupted\n")

    def test_the_console_script_runs_the_process_entry_point(self):
        pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        assert '\naopl-lint = "aopl_lint.cli:run"\n' in pyproject


REPORT_GOLDENS = [
    ("mission.dom", "mission_strict.aopl", "mission_strict"),
    ("mission.dom", "mission_ambiguous.aopl", "mission_ambiguous"),
    ("shifts.dom", "shifts.aopl", "shifts"),
]


@pytest.mark.parametrize("fmt, suffix", [("text", ""), ("json", ".json")])
@pytest.mark.parametrize("domain, policy, name", REPORT_GOLDENS)
def test_report_matches_golden(domain, policy, name, fmt, suffix, capsys, monkeypatch):
    # Relative paths keep the report header independent of the checkout.
    monkeypatch.chdir(DATA)
    assert main(["analyze", "--format", fmt, domain, policy]) == 1
    golden = DATA / "golden" / f"{name}.analyze{suffix}.golden"
    assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


_DECLS = b"fluent ready.\naction go.\nrule r1: permitted(go) if ready.\n"

# name -> (arguments after "analyze", the one input file's bytes)
PARSE_ERROR_GOLDENS = {
    "unterminated_string": (
        ["bad.aopl"],
        _DECLS + b'text r1: "never closed.\nrule r2: permitted(go).\n',
    ),
    "unknown_escape": (["bad.aopl"], _DECLS + b'text r1: "a \\q and \\" b".\n'),
    "trailing_backslash": (["bad.aopl"], _DECLS + b'text r1: "ends in \\'),
    "stray_semicolon": (["bad.aopl"], b"fluent ready;\naction go.\nrule r1: permitted(go).\n"),
    "crlf_line3": (
        ["bad.aopl"],
        b"fluent ready.\r\naction go.\r\nrule r1: permitted(go) if ready # x.\r\n",
    ),
    "after_tab": (["bad.aopl"], b"fluent ready.\n\taction\tgo\t;\n"),
    "bad_pin": (["--pin", "ready;", "bad.aopl"], _DECLS),
}


@pytest.mark.parametrize("name", sorted(PARSE_ERROR_GOLDENS))
def test_parse_errors_match_golden(name, tmp_path, capsys, monkeypatch):
    # The golden holds the exit code, stdout and stderr of ``analyze``.
    args, source = PARSE_ERROR_GOLDENS[name]
    (tmp_path / "bad.aopl").write_bytes(source)
    monkeypatch.chdir(tmp_path)
    code = main(["analyze", *args])
    captured = capsys.readouterr()
    golden = DATA / "golden" / f"{name}.parse_error.golden"
    assert f"exit: {code}\n--- stdout\n{captured.out}--- stderr\n{captured.err}" == (
        golden.read_text(encoding="utf-8")
    )


class TestParseErrors:
    def test_syntax_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.aopl"
        bad.write_text("rule r1 broken.\n", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 2
        assert "expected ':'" in capsys.readouterr().err

    def test_a_string_where_a_statement_starts_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.aopl"
        bad.write_text('fluent f.\n"x".\n', encoding="utf-8")
        assert main(["analyze", str(bad)]) == 2
        assert capsys.readouterr().err == "error: 2:1: expected a statement keyword\n"

    @pytest.mark.parametrize(
        "char, message", [(";", "unexpected character ';'"), (".", "expected a statement keyword")]
    )
    def test_an_error_dense_file_keeps_its_first_errors_and_counts_the_rest(
        self, capsys, tmp_path, monkeypatch, char, message
    ):
        (tmp_path / "dense.aopl").write_text(char * 400_000, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert main(["analyze", DOM, "dense.aopl"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            *(f"error: 1:{column}: dense.aopl: {message}" for column in range(1, 101)),
            "error: dense.aopl: 399900 more parse errors not shown",
        ]

    def test_an_exec_constraint_on_a_fluent_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.aopl"
        bad.write_text("fluent f.\nimpossible_exec f.\n", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 2
        assert capsys.readouterr().err == (
            "error: executability constraint target f is not an action\n"
        )

    def test_missing_file_exits_two(self, capsys):
        assert main(["analyze", "/nonexistent/x.aopl"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_source_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "latin1.aopl"
        bad.write_bytes("% caf\xe9\naction go.\n".encode("latin-1"))
        assert main(["analyze", str(bad)]) == 2
        assert f"cannot read {bad}: " in capsys.readouterr().err

    def test_validation_error_names_the_rule(self, capsys, tmp_path):
        bad = tmp_path / "bad.aopl"
        bad.write_text("action go.\nrule r1: permitted(go) if ghost.\n", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 2
        assert "undeclared predicate: ghost" in capsys.readouterr().err

    def test_warnings_print_but_do_not_fail(self, capsys, tmp_path):
        src = tmp_path / "warn.aopl"
        src.write_text(
            "action go.\n"
            "rule d1: normally permitted(go).\n"
            "rule d2: normally !permitted(go).\n"
            "prefer p1: d1 > d2.\nprefer p2: d2 > d1.\n",
            encoding="utf-8",
        )
        code = main(["analyze", str(src)])
        captured = capsys.readouterr()
        assert "mutual preference" in captured.err
        assert code in (0, 1)


class TestCheck:
    def test_single_state_findings(self, capsys):
        assert main(["check", "--state", STATE, DOM, STRICT]) == 1
        out = capsys.readouterr().out
        assert "states examined: 1" in out
        assert "inconsistency: 1" in out

    def test_action_filter(self, capsys):
        code = main(
            ["check", "--state", STATE, "--action", "authorize_comm(c,m)", DOM, STRICT]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "inconsistency: 0" in out
        assert "underspecified: 1" in out

    def test_clean_state_exits_zero(self, capsys, clean_policy, empty_state):
        assert main(["check", "--state", empty_state, clean_policy]) == 0
        out = capsys.readouterr().out
        assert "findings: 0" in out

    def test_unknown_action_exits_two(self, capsys):
        assert main(["check", "--state", STATE, "--action", "fly(c,m)", DOM, STRICT]) == 2
        assert "not a ground action" in capsys.readouterr().err

    def test_unparsable_action_exits_two_with_the_parsers_message(self, capsys):
        assert main(["check", "--state", STATE, "--action", "go(", DOM, STRICT]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cannot parse atom 'go(': expected a constant or variable\n"

    def test_invalid_state_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.state"
        bad.write_text("ghost(c)\n", encoding="utf-8")
        assert main(["check", "--state", str(bad), DOM, STRICT]) == 2
        assert "not a state atom" in capsys.readouterr().err

    def test_non_utf8_state_file_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "latin1.state"
        bad.write_bytes("% caf\xe9\ncolonel(c)\n".encode("latin-1"))
        assert main(["check", "--state", str(bad), DOM, STRICT]) == 2
        assert f"cannot read {bad}: " in capsys.readouterr().err


class TestClassify:
    def test_event_lines(self, capsys):
        code = main(
            ["classify", "--state", STATE, "--do", "assume_comm(c,m)", DOM, DEFEASIBLE]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "state: {colonel(c), authorized(c,m)}"
        assert lines[1] == "event: {assume_comm(c,m)}"
        assert lines[2] == "assume_comm(c,m): strongly compliant"
        assert lines[3] == "event authorization: strongly compliant"
        assert lines[4] == "event obligations: satisfied"

    def test_empty_event(self, capsys):
        assert main(["classify", "--state", STATE, DOM, DEFEASIBLE]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "event: {}"
        assert lines[2] == "event authorization: strongly compliant"

    def test_forbidden_event(self, capsys, tmp_path):
        state = tmp_path / "authorized.state"
        state.write_text("authorized(c,m)\n", encoding="utf-8")
        code = main(
            ["classify", "--state", str(state), "--do", "assume_comm(c,m)", DOM, STRICT]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "assume_comm(c,m): non compliant" in out
        assert "event authorization: non compliant" in out

    def test_an_underspecified_action_makes_the_event_weakly_compliant(self, capsys):
        code = main(
            ["classify", "--state", STATE, "--do", "authorize_comm(c,m)", DOM, DEFEASIBLE]
        )
        assert code == 0
        assert capsys.readouterr().out.splitlines()[2:] == [
            "authorize_comm(c,m): underspecified",
            "event authorization: weakly compliant",
            "event obligations: satisfied",
        ]

    def test_unparsable_event_action_exits_two(self, capsys):
        assert main(["classify", "--state", STATE, "--do", "go(", DOM, DEFEASIBLE]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cannot parse atom 'go(': expected a constant or variable\n"

    def test_violated_obligation(self, capsys, tmp_path):
        state = tmp_path / "ordered.state"
        state.write_text("colonel(c)\nordered_by_superior(c,m)\n", encoding="utf-8")
        assert main(["classify", "--state", str(state), DOM, STRICT]) == 0
        assert "event obligations: violated" in capsys.readouterr().out


class TestEmitAsp:
    def test_stdout_matches_golden(self, capsys):
        assert main(["emit-asp", "--variant", "lp", DOM, DEFEASIBLE]) == 0
        out = capsys.readouterr().out
        golden = (DATA / "golden" / "mission_defeasible.lp.golden").read_text(encoding="utf-8")
        assert out == golden

    def test_state_section(self, capsys):
        code = main(["emit-asp", "--variant", "rei", "--state", STATE, DOM, STRICT])
        assert code == 0
        out = capsys.readouterr().out
        golden = (DATA / "golden" / "mission_strict_state.rei.golden").read_text(
            encoding="utf-8"
        )
        assert out == golden

    def test_a_preference_with_an_empty_stronger_body_is_a_fact(self, capsys, tmp_path):
        path = tmp_path / "prefer.aopl"
        path.write_text(
            "fluent f.\naction go.\naction stop.\n"
            "rule d1: normally permitted(go).\n"
            "rule d2: normally permitted(stop) if f.\n"
            "prefer q1: d1 > d2.\n",
            encoding="utf-8",
        )
        assert main(["emit-asp", "--variant", "lp", str(path)]) == 0
        assert "% q1\nab(d2).\n" in capsys.readouterr().out

    def test_output_file(self, tmp_path):
        target = tmp_path / "prog.lp"
        assert main(["emit-asp", "-o", str(target), DOM, DEFEASIBLE]) == 0
        assert "% policy-independent evaluation rules" in target.read_text(encoding="utf-8")

    def test_unwritable_output_exits_two(self, capsys, tmp_path):
        target = tmp_path / "missing" / "prog.lp"
        assert main(["emit-asp", "-o", str(target), DOM, DEFEASIBLE]) == 2
        assert f"cannot write {target}: " in capsys.readouterr().err


class TestStates:
    def test_lists_all_states(self, capsys, empty_state):
        assert main(["states", DOM, STRICT]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 16
        assert lines[0] == "{}"

    def test_limit(self, capsys):
        assert main(["states", "--limit", "3", DOM, STRICT]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_negative_limit_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["states", "--limit", "-1", DOM, STRICT])
        assert exc.value.code == 2
        assert "-1 is negative" in capsys.readouterr().err

    def test_pins(self, capsys):
        assert main(["states", "--pin", "colonel(c)", "--pin", "!observer(c)", DOM, STRICT]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all("colonel(c)" in line and "observer" not in line for line in lines)

    def test_max_states_guard(self, capsys):
        assert main(["states", "--max-states", "4", DOM, STRICT]) == 2
        assert "pin atoms or raise the limit" in capsys.readouterr().err

    def test_shifts_match_golden(self, capsys):
        assert main(["states", SHIFTS_DOM, SHIFTS]) == 0
        golden = DATA / "golden" / "shifts.states.golden"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_pinned_shifts_match_golden(self, capsys):
        pins = ["--pin", "trained(ann)", "--pin", "!on_duty(bob,day)"]
        assert main(["states", *pins, SHIFTS_DOM, SHIFTS]) == 0
        golden = DATA / "golden" / "shifts_pinned.states.golden"
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_contradictory_pins(self, capsys):
        code = main(["states", "--pin", "colonel(c)", "--pin", "!colonel(c)", DOM, STRICT])
        assert code == 2
        assert "contradictory pins" in capsys.readouterr().err


# Runs the module as ``-m`` does, as ``__main__``, and prints its exit code and
# the modules it left loaded.
_LOADED = (
    "import runpy, sys\n"
    "sys.argv = ['aopl-lint', *sys.argv[1:]]\n"
    "try:\n"
    "    runpy.run_module('aopl_lint.cli', run_name='__main__', alter_sys=True)\n"
    "except SystemExit as done:\n"
    "    print(done.code, sorted(sys.modules))\n"
)


def loaded_by(*argv: str) -> tuple[int, set[str]]:
    # -S skips site, whose imports differ between environments.
    done = run_child("-S", "-c", _LOADED, *argv)
    code, modules = done.stdout.rstrip().splitlines()[-1].split(" ", 1)
    return int(code), set(ast.literal_eval(modules))


# The exports that load ``aopl_lint.one_state`` on first use.
ONE_STATE_NAMES = [
    "classify_action", "classify_compliance", "detect_ambiguity", "detect_inconsistency",
    "detect_modality_conflicts", "detect_obligation_conflict", "detect_underspecification",
    "load_state",
]


class TestStartup:
    """What a command imports: nothing it never runs."""

    def test_analyze_loads_no_emitter_printer_traceback_or_json(self, tmp_path):
        code, modules = loaded_by("analyze", "-o", str(tmp_path / "report.txt"), DOM, STRICT)
        assert code == 1
        assert {m for m in modules if m.startswith("aopl_lint")} == {
            "aopl_lint",
            "aopl_lint.analysis",
            "aopl_lint.diagnostics",
            "aopl_lint.engine",
            "aopl_lint.grounding",
            "aopl_lint.model",
            "aopl_lint.parser",
            "aopl_lint.reify",
            "aopl_lint.report",
            "aopl_lint.states",
        }
        assert not modules & {"traceback", "json"}

    @pytest.mark.parametrize("command", [["analyze"], ["check", "--state", STATE]])
    def test_commands_load_no_dataclasses_or_what_it_imports(self, command):
        code, modules = loaded_by(*command, DOM, STRICT)
        assert code == 1
        assert not modules & {"dataclasses", "inspect", "ast", "dis", "tokenize", "copy"}

    def test_the_commands_that_need_them_load_them(self, tmp_path):
        out = str(tmp_path / "out")
        assert "json" in loaded_by("analyze", "--format", "json", "-o", out, DOM, STRICT)[1]
        code, modules = loaded_by("emit-asp", "-o", out, DOM, STRICT)
        assert code == 0 and "aopl_lint.emit" in modules and "aopl_lint.printer" not in modules

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_analyze_loads_no_openssl_digests_or_one_state_api(self, tmp_path, fmt):
        out = str(tmp_path / "out")
        code, modules = loaded_by("analyze", "--format", fmt, "-o", out, DOM, STRICT)
        assert code == 1
        assert not modules & {"hashlib", "_hashlib", "aopl_lint.one_state"}

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_analyze_loads_no_logging(self, tmp_path, fmt):
        out = str(tmp_path / "out")
        code, modules = loaded_by("analyze", "--format", fmt, "-o", out, DOM, STRICT)
        assert code == 1
        assert "logging" not in modules

    @pytest.mark.parametrize(
        "command, expected", [(["classify", "--state", STATE], 0), (["check", "--state", STATE], 1)]
    )
    def test_state_commands_load_the_one_state_api(self, command, expected):
        code, modules = loaded_by(*command, DOM, STRICT)
        assert code == expected
        assert "aopl_lint.one_state" in modules

    def test_every_export_resolves(self):
        assert [name for name in aopl_lint.__all__ if not hasattr(aopl_lint, name)] == []
        namespace: dict = {}
        exec("from aopl_lint import *", namespace)
        assert set(aopl_lint.__all__) <= namespace.keys()

    @pytest.mark.parametrize("name", ONE_STATE_NAMES)
    def test_one_state_names_load_from_their_module(self, name):
        from aopl_lint import one_state

        assert getattr(aopl_lint, name) is getattr(one_state, name)
        assert getattr(one_state, name).__module__ == "aopl_lint.one_state"

    def test_analyze_validates_once(self, monkeypatch, capsys):
        from aopl_lint import grounding, model, parser

        calls = []

        def counting(policy, domain, original=model.validate):
            calls.append(policy)
            return original(policy, domain)

        for module in (model, parser, grounding):
            monkeypatch.setattr(module, "validate", counting)
        assert main(["analyze", DOM, STRICT]) == 1
        assert len(calls) == 1
