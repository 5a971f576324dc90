"""Report rendering, explanation templates, and the JSON round trip."""

import hashlib
import json

import pytest
from hypothesis import given, strategies as st

from aopl_lint import build_report, parse_json, render, render_json, render_text, sweep
from aopl_lint.report import SCHEMA_VERSION, digest_text, explanation_lines

from helpers import base_from
from test_cli import run_child
from test_factored import FIXTURES

OVER_64K = "rule r1: permitted(go).\n" * 3000  # 72,000 bytes
DIGEST_CASES = ["", "a\N{GOTHIC LETTER AHSA}\U0001f512 ok", OVER_64K]


def family_of(report, kind, **match):
    out = [
        f
        for f in report.families
        if f.kind.value == kind and all(getattr(f, k) == v for k, v in match.items())
    ]
    assert len(out) == 1, (kind, match, [f.kind.value for f in report.families])
    return out[0]


@pytest.fixture(scope="module")
def strict_report(request):
    base = request.getfixturevalue("mission_strict")
    return build_report(
        sweep(base),
        domain_path="mission.dom",
        domain_text="the domain text",
        policy_path="mission_strict.aopl",
        policy_text="the policy text",
    )


class TestExplanationTemplates:
    def test_case_one_wording(self):
        base = base_from("action go.\naction stay.\nrule r1: permitted(go).\n")
        report = build_report(sweep(base))
        family = family_of(report, "underspecified", case=1)
        assert explanation_lines(family) == ["There are no authorization rules about stay"]

    def test_case_two_wording(self, strict_report):
        family = family_of(strict_report, "underspecified", action="assume_comm(c,m)")
        lines = explanation_lines(family)
        assert lines[0] == (
            'Rule s1[c,m] about action assume_comm(c,m) (stating that "A military '
            'officer is not allowed to command a mission they authorized.") is '
            "rendered inapplicable by the fact that fluent(s) authorized(c,m) do "
            "not hold in this state."
        )
        assert lines[1] == (
            'Rule s2[c,m] about action assume_comm(c,m) (stating that "A colonel '
            'is allowed to command a mission they authorized.") is rendered '
            "inapplicable by the fact that fluent(s) colonel(c) do not hold in "
            "this state."
        )

    def test_multiple_failing_literals_join_with_commas(self):
        base = base_from(
            "fluent f.\nfluent g.\naction go.\nrule r1: permitted(go) if f, g.\n"
        )
        report = build_report(sweep(base))
        # One family per distinct failing subset; pick the one where both fail.
        family = family_of(report, "underspecified", missing=(("r1", ("f", "g")),))
        (line,) = explanation_lines(family)
        assert "fluent(s) f, g do not hold" in line

    def test_urgency_one_tag(self, strict_report):
        family = family_of(strict_report, "modality_conflict", urgency=1)
        (first, *_) = explanation_lines(family)
        assert "urgency 1 (most needing of re-consideration)." in first

    def test_urgency_three_has_no_tag(self, strict_report):
        family = family_of(strict_report, "modality_conflict", urgency=3)
        (first, *_) = explanation_lines(family)
        assert first.endswith("urgency 3.")
        assert "re-consideration" not in first

    def test_rule_texts_are_quoted(self, strict_report):
        family = family_of(strict_report, "inconsistency")
        lines = explanation_lines(family)
        assert 's2[c,m]: "A colonel is allowed to command a mission they authorized."' in lines

    def test_fallback_text_for_untexted_rules(self):
        base = base_from(
            "fluent f.\naction go.\nrule r1: permitted(go) if f.\nrule r2: !permitted(go).\n"
        )
        report = build_report(sweep(base))
        family = family_of(report, "inconsistency")
        assert 'r1: "permitted(go) if f"' in explanation_lines(family)


class TestTextRendering:
    def test_header_and_counts(self, strict_report):
        text = render_text(strict_report)
        assert text.startswith("aopl-lint report\n")
        assert f"domain: mission.dom (sha256 {digest_text('the domain text')[:12]})" in text
        assert "states examined: 16\n" in text
        assert "findings: 5\n" in text
        assert "  inconsistency: 1\n" in text
        assert "  underspecified: 2\n" in text
        assert "  obligation_conflict: 0\n" in text

    def test_findings_are_numbered_in_kind_order(self, strict_report):
        text = render_text(strict_report)
        assert "[1] inconsistency on assume_comm(c,m)\n" in text
        assert "[2] modality_conflict on assume_comm(c,m), urgency 1" in text
        assert "[3] modality_conflict on assume_comm(c,m), urgency 3\n" in text

    def test_support_and_witness_lines(self, strict_report):
        text = render_text(strict_report)
        assert "    why s2[c,m] applies: colonel(c)\n" in text
        assert "    why s1[c,m] applies: authorized(c,m)\n" in text
        assert "    smallest witness state: {colonel(c), authorized(c,m)}\n" in text
        assert "    seen in 4 states\n" in text

    def test_singular_state_count(self):
        base = base_from(
            "fluent f.\nfluent g.\naction go.\n"
            "rule o1: obl(go) if f.\nrule o2: obl(-go) if g.\n"
        )
        text = render_text(build_report(sweep(base)))
        assert "seen in 1 state\n" in text

    def test_instance_counts_are_called_out(self):
        base = base_from(
            "sorts commander: c1, c2.\n"
            "static colonel(commander).\nfluent authorized(commander).\n"
            "action assume(commander).\n"
            "rule s1: !permitted(assume(C)) if authorized(C).\n"
            "rule s2: permitted(assume(C)) if colonel(C).\n"
        )
        text = render_text(build_report(sweep(base)))
        assert "seen in 7 states across 2 ground instances\n" in text

    def test_ambiguity_stats_line(self, mission_ambiguous):
        text = render_text(build_report(sweep(mission_ambiguous)))
        assert (
            "    answer sets in the witness state: 2 total, 1 permitting, 1 forbidding\n"
            in text
        )

    def test_rendering_is_deterministic(self, strict_report):
        assert render_text(strict_report) == render_text(strict_report)
        assert render_json(strict_report) == render_json(strict_report)


class TestJsonRoundTrip:
    def test_parse_inverts_render(self, strict_report):
        recovered = parse_json(render_json(strict_report))
        assert recovered == strict_report

    def test_payload_shape(self, strict_report):
        payload = json.loads(render_json(strict_report))
        assert payload["schema_version"] == SCHEMA_VERSION
        assert payload["tool"] == "aopl-lint"
        assert payload["domain"]["path"] == "mission.dom"
        assert payload["summary"]["underspecified"] == 2
        assert len(payload["findings"]) == 5
        finding = payload["findings"][0]
        assert finding["kind"] == "inconsistency"
        assert finding["explanations"]

    def test_unknown_schema_version_is_rejected(self, strict_report):
        payload = json.loads(render_json(strict_report))
        payload["schema_version"] = 99
        with pytest.raises(ValueError, match="unsupported report schema version: 99"):
            parse_json(json.dumps(payload))

    def test_round_trip_without_paths(self, mission_defeasible):
        report = build_report(sweep(mission_defeasible))
        recovered = parse_json(render_json(report))
        assert recovered == report
        assert recovered.domain_path is None

    @pytest.mark.parametrize("fixture", FIXTURES)
    def test_parse_inverts_render_on_fixtures(self, fixture, request):
        report = build_report(sweep(request.getfixturevalue(fixture)))
        assert parse_json(render_json(report)) == report

    def test_render_dispatch(self, strict_report):
        assert render(strict_report, "text") == render_text(strict_report)
        assert render(strict_report, "json") == render_json(strict_report)
        with pytest.raises(ValueError, match="unknown report format"):
            render(strict_report, "yaml")


def hashlib_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestDigest:
    @given(st.text())
    def test_matches_hashlib(self, text):
        assert digest_text(text) == hashlib_digest(text)

    @pytest.mark.parametrize("text", DIGEST_CASES, ids=["empty", "non-bmp", "over-64k"])
    def test_edge_cases_match_hashlib(self, text):
        assert digest_text(text) == hashlib_digest(text)

    def test_without_the_builtin_modules_falls_back_to_hashlib(self):
        done = run_child(
            "-c",
            "import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from aopl_lint import report\n"
            "assert report.sha256 is hashlib.sha256, report.sha256\n"
            "print(json.dumps([report.digest_text(t) for t in json.loads(sys.argv[1])]))\n",
            json.dumps(DIGEST_CASES),
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == [hashlib_digest(t) for t in DIGEST_CASES]
