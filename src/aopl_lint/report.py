"""Report assembly and rendering (plain text and JSON).

The JSON form is a stable machine interface: schema_version gates breaking
changes, and parse_json(render_json(r)) reproduces the report field for
field.  The text form is for humans and leads with the most severe findings.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields

from .analysis import FamilyRecord, IssueKind, KIND_ORDER, SweepResult, collapse_families

TOOL_NAME = "aopl-lint"
SCHEMA_VERSION = 1


@dataclass(frozen=True)
class AnalysisReport:
    families: tuple[FamilyRecord, ...]
    states_examined: int
    domain_path: str | None = None
    domain_digest: str | None = None
    policy_path: str | None = None
    policy_digest: str | None = None
    pins: tuple[str, ...] = ()

    def counts(self) -> dict[str, int]:
        out = {kind.value: 0 for kind in IssueKind}
        for family in self.families:
            out[family.kind.value] += 1
        return out


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def build_report(
    result: SweepResult,
    domain_path: str | None = None,
    domain_text: str | None = None,
    policy_path: str | None = None,
    policy_text: str | None = None,
    pins: tuple[str, ...] = (),
) -> AnalysisReport:
    return AnalysisReport(
        families=collapse_families(result),
        states_examined=result.states_examined,
        domain_path=domain_path,
        domain_digest=digest_text(domain_text) if domain_text is not None else None,
        policy_path=policy_path,
        policy_digest=digest_text(policy_text) if policy_text is not None else None,
        pins=pins,
    )


def _urgency_tag(urgency: int) -> str:
    suffix = " (most needing of re-consideration)" if urgency == 1 else ""
    return f"{urgency}{suffix}"


def explanation_lines(family: FamilyRecord) -> list[str]:
    """Human-readable explanation for one finding family."""
    lines: list[str] = []
    if family.kind is IssueKind.UNDERSPECIFIED:
        if family.case == 1:
            lines.append(f"There are no authorization rules about {family.action}")
            return lines
        for (label, literals), text in zip(family.missing, family.rule_texts):
            joined = ", ".join(literals)
            lines.append(
                f'Rule {label} about action {family.action} (stating that "{text}") '
                f"is rendered inapplicable by the fact that fluent(s) {joined} "
                f"do not hold in this state."
            )
        return lines

    if family.kind is IssueKind.INCONSISTENCY:
        first, second = family.instance_labels
        lines.append(
            f"Rules {first} and {second} derive complementary conclusions about "
            f"{family.action} in the same state."
        )
    elif family.kind is IssueKind.OBLIGATION_CONFLICT:
        first, second = family.instance_labels
        lines.append(
            f"Rules {first} and {second} obligate both doing and not doing "
            f"{family.action} in the same state."
        )
    elif family.kind is IssueKind.MODALITY_CONFLICT:
        if family.urgency == 1:
            what = "obligates an action that is explicitly not permitted"
        elif family.urgency == 2:
            what = "obligates refraining from an action that is explicitly permitted"
        else:
            what = "obligates an action whose permission the policy leaves open"
        lines.append(
            f"{family.action}: the policy {what}; "
            f"urgency {_urgency_tag(family.urgency or 3)}."
        )
    elif family.kind is IssueKind.AMBIGUITY:
        versus = "; ".join(f"{a} vs {b}" for a, b in family.pairs)
        lines.append(
            f"Applicable rules disagree about {family.action} with no preference "
            f"between them: {versus}."
        )
    for label, text in zip(family.instance_labels, family.rule_texts):
        lines.append(f'{label}: "{text}"')
    return lines


def render_text(report: AnalysisReport) -> str:
    lines: list[str] = [f"{TOOL_NAME} report"]
    if report.domain_path is not None:
        digest = f" (sha256 {report.domain_digest[:12]})" if report.domain_digest else ""
        lines.append(f"domain: {report.domain_path}{digest}")
    if report.policy_path is not None:
        digest = f" (sha256 {report.policy_digest[:12]})" if report.policy_digest else ""
        lines.append(f"policy: {report.policy_path}{digest}")
    if report.pins:
        lines.append(f"pins: {', '.join(report.pins)}")
    lines.append(f"states examined: {report.states_examined}")
    lines.append(f"findings: {len(report.families)}")
    counts = report.counts()
    for kind in sorted(IssueKind, key=lambda k: KIND_ORDER[k]):
        lines.append(f"  {kind.value}: {counts[kind.value]}")

    for number, family in enumerate(report.families, start=1):
        lines.append("")
        heading = f"[{number}] {family.kind.value} on {family.action}"
        if family.urgency is not None:
            heading += f", urgency {_urgency_tag(family.urgency)}"
        lines.append(heading)
        if family.instance_labels:
            lines.append(f"    rules: {', '.join(family.instance_labels)}")
        for line in explanation_lines(family):
            lines.append(f"    {line}")
        if family.pos_support:
            lines.append(
                f"    why {family.instance_labels[0]} applies: "
                f"{', '.join(family.pos_support)}"
            )
        if family.neg_support and len(family.instance_labels) > 1:
            lines.append(
                f"    why {family.instance_labels[1]} applies: "
                f"{', '.join(family.neg_support)}"
            )
        if family.stats is not None:
            n, n_p, n_np = family.stats
            lines.append(
                f"    answer sets in the witness state: {n} total, "
                f"{n_p} permitting, {n_np} forbidding"
            )
        witness = ", ".join(family.witness_true_atoms)
        lines.append(f"    smallest witness state: {{{witness}}}")
        plural = "s" if family.state_count != 1 else ""
        tail = f"    seen in {family.state_count} state{plural}"
        if family.instance_count > 1:
            tail += f" across {family.instance_count} ground instances"
        lines.append(tail)

    return "".join(line + "\n" for line in lines)


def _family_to_json(family: FamilyRecord) -> dict:
    data = asdict(family)
    data["kind"] = family.kind.value
    data["explanations"] = explanation_lines(family)
    return data


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, list) else value


def _family_from_json(data: dict) -> FamilyRecord:
    values = {f.name: _tuples(data[f.name]) for f in fields(FamilyRecord)}
    values["kind"] = IssueKind(data["kind"])
    return FamilyRecord(**values)


def render_json(report: AnalysisReport) -> str:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": TOOL_NAME,
        "domain": {"path": report.domain_path, "sha256": report.domain_digest},
        "policy": {"path": report.policy_path, "sha256": report.policy_digest},
        "pins": list(report.pins),
        "states_examined": report.states_examined,
        "summary": report.counts(),
        "findings": [_family_to_json(f) for f in report.families],
    }
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


def parse_json(text: str) -> AnalysisReport:
    payload = json.loads(text)
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported report schema version: {version}")
    return AnalysisReport(
        families=tuple(_family_from_json(f) for f in payload["findings"]),
        states_examined=payload["states_examined"],
        domain_path=payload["domain"]["path"],
        domain_digest=payload["domain"]["sha256"],
        policy_path=payload["policy"]["path"],
        policy_digest=payload["policy"]["sha256"],
        pins=tuple(payload["pins"]),
    )


def render(report: AnalysisReport, format: str = "text") -> str:
    if format == "text":
        return render_text(report)
    if format == "json":
        return render_json(report)
    raise ValueError(f"unknown report format: {format!r}")
