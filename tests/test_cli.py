"""End-to-end command line behavior via main(argv)."""

import json

import pytest

from aopl_lint import parse_json
from aopl_lint.cli import main

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


class TestParseErrors:
    def test_syntax_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.aopl"
        bad.write_text("rule r1 broken.\n", encoding="utf-8")
        assert main(["analyze", str(bad)]) == 2
        assert "expected ':'" in capsys.readouterr().err

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
