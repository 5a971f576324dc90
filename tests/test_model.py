"""AST helpers and semantic validation."""

from dataclasses import replace

import pytest

from aopl_lint import (
    Atom,
    DomainSpec,
    ExecConstraint,
    Happening,
    HeadLiteral,
    Literal,
    Modality,
    Policy,
    PolicyRule,
    PredicateDecl,
    PredicateKind,
    RuleKind,
    Severity,
    SortDecl,
    StateConstraint,
    ground,
    parse,
    validate,
)
from aopl_lint.model import variable_sorts

DOM = DomainSpec(
    sorts=(SortDecl("agent", ("a1", "a2")),),
    predicates=(
        PredicateDecl("trained", PredicateKind.STATIC, ("agent",)),
        PredicateDecl("on_duty", PredicateKind.FLUENT, ("agent",)),
        PredicateDecl("fire", PredicateKind.ACTION, ("agent",)),
    ),
)


def head(predicate="fire", args=("A",), modality=Modality.PERMITTED, happens=True, positive=True):
    return HeadLiteral(modality, Happening(Atom(predicate, args), happens), positive)


def rule(label="r1", kind=RuleKind.STRICT, h=None, cond=(), **kw):
    return PolicyRule(label, kind, head=h if h is not None else head(), condition=cond, **kw)


def errors_of(policy, domain=DOM):
    return [d.message for d in validate(policy, domain) if d.severity is Severity.ERROR]


class TestAstStrings:
    def test_atom(self):
        assert str(Atom("fire", ("a1", "M"))) == "fire(a1,M)"
        assert str(Atom("halt")) == "halt"

    def test_literal(self):
        lit = Literal(Atom("on_duty", ("a1",)), positive=False)
        assert str(lit) == "!on_duty(a1)"
        assert str(lit.negated()) == "on_duty(a1)"

    def test_happening(self):
        assert str(Happening(Atom("fire", ("a1",)), False)) == "-fire(a1)"

    def test_head_literal(self):
        assert str(head()) == "permitted(fire(A))"
        assert str(head(positive=False)) == "!permitted(fire(A))"
        assert str(head(modality=Modality.OBL, happens=False)) == "obl(-fire(A))"

    def test_opposite_flips_only_the_literal_sign(self):
        h = head(modality=Modality.OBL, happens=False, positive=True)
        assert h.opposite() == head(modality=Modality.OBL, happens=False, positive=False)
        assert h.opposite().opposite() == h


class TestVariables:
    def test_first_occurrence_order_head_then_condition(self):
        r = PolicyRule(
            "r1",
            RuleKind.STRICT,
            head=HeadLiteral(Modality.PERMITTED, Happening(Atom("fire", ("B",)), True), True),
            condition=(
                Literal(Atom("trained", ("A",))),
                Literal(Atom("on_duty", ("B",))),
            ),
        )
        assert r.variables() == ("B", "A")

    def test_constants_are_not_variables(self):
        r = rule(h=head(args=("a1",)))
        assert r.variables() == ()


class TestValidateAccepts:
    def test_well_formed_policy(self):
        policy = Policy(
            (
                rule("r1", cond=(Literal(Atom("trained", ("A",))),)),
                rule("r2", RuleKind.DEFEASIBLE, head(modality=Modality.OBL, happens=False)),
            )
        )
        assert validate(policy, DOM) == []

    def test_sort_atom_condition(self):
        policy = Policy((rule(cond=(Literal(Atom("agent", ("A",))),)),))
        assert validate(policy, DOM) == []

    def test_where_clause_matching_inferred_sort(self):
        r = PolicyRule(
            "r1",
            RuleKind.STRICT,
            head=head(),
            condition=(Literal(Atom("agent", ("B",))),),
            where=(("B", "agent"),),
        )
        assert validate(Policy((r,)), DOM) == []


class TestValidateRejects:
    @pytest.mark.parametrize(
        "domain,needle",
        [
            (
                DomainSpec(sorts=(SortDecl("agent", ("a1",)), SortDecl("agent", ("a2",)))),
                "duplicate sort name: agent",
            ),
            (DomainSpec(sorts=(SortDecl("obl", ("x",)),)), "reserved name used as sort: obl"),
            (DomainSpec(sorts=(SortDecl("agent", ()),)), "sort agent has no members"),
            (
                DomainSpec(sorts=(SortDecl("agent", ("a1", "a1")),)),
                "duplicate constant a1 in sort agent",
            ),
            (
                DomainSpec(
                    predicates=(
                        PredicateDecl("f", PredicateKind.FLUENT),
                        PredicateDecl("f", PredicateKind.STATIC),
                    )
                ),
                "duplicate predicate name: f",
            ),
            (
                DomainSpec(predicates=(PredicateDecl("head", PredicateKind.FLUENT),)),
                "reserved name used as predicate: head",
            ),
            (
                DomainSpec(
                    sorts=(SortDecl("agent", ("a1",)),),
                    predicates=(PredicateDecl("agent", PredicateKind.FLUENT),),
                ),
                "predicate name collides with sort: agent",
            ),
            (
                DomainSpec(predicates=(PredicateDecl("f", PredicateKind.FLUENT, ("ghost",)),)),
                "predicate f uses undeclared sort ghost",
            ),
        ],
    )
    def test_domain_errors(self, domain, needle):
        assert needle in errors_of(Policy(), domain)

    @pytest.mark.parametrize(
        "bad,needle",
        [
            (rule(h=head(predicate="on_duty")), "head action on_duty is not a declared action"),
            (rule(h=head(happens=False)), "permitted heads cannot negate the action"),
            (
                rule(cond=(Literal(Atom("fire", ("A",))),)),
                "condition literal fire(A) must be a static, fluent, or sort atom",
            ),
            (rule(cond=(Literal(Atom("ghost")),)), "undeclared predicate: ghost"),
            (
                rule(cond=(Literal(Atom("trained", ("A", "B"))),)),
                "trained expects 1 argument(s), got 2",
            ),
            (
                rule(cond=(Literal(Atom("trained", ("zz",))),)),
                "constant zz is not in sort agent",
            ),
            (
                # The undeclared action is skipped by scope checks, so B
                # never receives a sort.
                rule(h=head(predicate="ghost", args=("B",))),
                "variable B has no inferable sort",
            ),
            (rule(where=(("A", "ghost"),)), "where-clause names undeclared sort ghost"),
            (rule("obl"), "reserved name used as rule label: obl"),
            (rule("fire"), "rule label fire collides with a declared predicate or sort"),
            (
                PolicyRule("r1", RuleKind.STRICT, head=None),
                "rule requires a head",
            ),
            (
                PolicyRule("r1", RuleKind.STRICT, head=head(), preferred="r2"),
                "only preference statements name other rules",
            ),
        ],
    )
    def test_rule_errors(self, bad, needle):
        assert needle in errors_of(Policy((bad,)))

    @pytest.mark.parametrize(
        "constraints,needle",
        [
            (
                {"state_constraints": (StateConstraint(body=(Literal(Atom("go", ("A",))),)),)},
                "state constraint literal go(A) must be a static, fluent, or sort atom",
            ),
            (
                {
                    "exec_constraints": (
                        ExecConstraint(Atom("fire", ("A",)), (Literal(Atom("go", ("A",))),)),
                    )
                },
                "executability condition literal go(A) must be a static, fluent, or sort atom",
            ),
        ],
    )
    def test_action_literal_in_constraint(self, constraints, needle):
        go = PredicateDecl("go", PredicateKind.ACTION, ("agent",))
        domain = replace(DOM, predicates=DOM.predicates + (go,), **constraints)
        assert errors_of(Policy(), domain) == [needle]

    def test_duplicate_labels(self):
        assert "duplicate rule label: r1" in errors_of(Policy((rule("r1"), rule("r1"))))

    def test_variable_sort_conflict(self):
        two_sorts = DomainSpec(
            sorts=(SortDecl("agent", ("a1",)), SortDecl("site", ("s1",))),
            predicates=(
                PredicateDecl("at", PredicateKind.FLUENT, ("site",)),
                PredicateDecl("fire", PredicateKind.ACTION, ("agent",)),
            ),
        )
        bad = rule(cond=(Literal(Atom("at", ("A",))),))
        assert "variable A has conflicting sorts agent and site" in errors_of(
            Policy((bad,)), two_sorts
        )

    def test_where_clause_conflict(self):
        two_sorts = DomainSpec(
            sorts=(SortDecl("agent", ("a1",)), SortDecl("site", ("s1",))),
            predicates=(PredicateDecl("fire", PredicateKind.ACTION, ("agent",)),),
        )
        bad = rule(where=(("A", "site"),))
        assert (
            "where-clause sort site for A conflicts with inferred sort agent"
            in errors_of(Policy((bad,)), two_sorts)
        )


class TestWhereClauseWarnings:
    def warnings_of(self, r):
        diags = validate(Policy((r,)), DOM)
        assert all(d.severity is Severity.WARNING and d.rule_label == "r1" for d in diags)
        return [d.message for d in diags]

    def test_unused_variable(self):
        assert self.warnings_of(rule(where=(("Y", "agent"),))) == [
            "where-clause entry Y: agent names a variable the rule does not use"
        ]

    def test_repeated_entry(self):
        assert self.warnings_of(rule(where=(("A", "agent"), ("A", "agent")))) == [
            "where-clause repeats entry A: agent"
        ]

    def test_flagged_rule_grounds_as_before(self):
        source = "sorts a: x. action go(a). rule r1: permitted(go(X)){}."
        result = parse(source.format(" where Y: a, X: a, X: a"))
        assert [str(d) for d in result.diagnostics] == [
            "warning: 1:27: rule r1: where-clause entry Y: a names a variable the rule does not use",
            "warning: 1:27: rule r1: where-clause repeats entry X: a",
        ]
        plain = parse(source.format(""))
        assert ground(result.policy, result.domain).rules == ground(
            plain.policy, plain.domain
        ).rules


def pref(label, a, b):
    return PolicyRule(label, RuleKind.PREFERENCE, preferred=a, dispreferred=b)


class TestPreferences:
    def base_rules(self):
        return (
            rule("d1", RuleKind.DEFEASIBLE),
            rule("d2", RuleKind.DEFEASIBLE, head(positive=False)),
            rule("s1", RuleKind.STRICT),
        )

    def test_ok(self):
        policy = Policy(self.base_rules() + (pref("p1", "d2", "d1"),))
        assert validate(policy, DOM) == []

    @pytest.mark.parametrize(
        "bad,needle",
        [
            (pref("p1", "d1", "d1"), "preference targets must be distinct: d1"),
            (pref("p1", "d1", "ghost"), "preference target not found: ghost"),
            (pref("p1", "s1", "d1"), "preference target not defeasible: s1"),
            (
                PolicyRule("p1", RuleKind.PREFERENCE, preferred="d1"),
                "preference must name two rule labels",
            ),
            (
                PolicyRule(
                    "p1", RuleKind.PREFERENCE, head=head(), preferred="d1", dispreferred="d2"
                ),
                "preference statements take no head or condition",
            ),
        ],
    )
    def test_errors(self, bad, needle):
        assert needle in errors_of(Policy(self.base_rules() + (bad,)))

    def test_shared_variable_sorts_must_agree(self):
        domain = DomainSpec(
            sorts=(SortDecl("agent", ("a1",)), SortDecl("site", ("s1",))),
            predicates=(
                PredicateDecl("fire", PredicateKind.ACTION, ("agent",)),
                PredicateDecl("visit", PredicateKind.ACTION, ("site",)),
            ),
        )
        policy = Policy(
            (
                rule("d1", RuleKind.DEFEASIBLE, head(args=("A",))),
                rule("d2", RuleKind.DEFEASIBLE, head(predicate="visit", args=("A",))),
                pref("p1", "d2", "d1"),
            )
        )
        assert (
            "preference targets disagree on sort of shared variable A"
            in errors_of(policy, domain)
        )

    def test_mutual_preference_is_a_warning(self):
        policy = Policy(self.base_rules() + (pref("p1", "d1", "d2"), pref("p2", "d2", "d1")))
        diags = validate(policy, DOM)
        assert [d.severity for d in diags] == [Severity.WARNING]
        assert "mutual preference between d1 and d2 disables both rules" in diags[0].message


class TestDiagnosticsOrder:
    def test_sorted_by_label_then_message(self):
        policy = Policy(
            (
                rule("z9", h=head(happens=False)),
                rule("a1", h=head(predicate="on_duty")),
            )
        )
        labels = [d.rule_label for d in validate(policy, DOM)]
        assert labels == sorted(labels, key=lambda x: x or "")


class TestRuleVariableSorts:
    def test_resolved_sorts(self):
        r = rule(cond=(Literal(Atom("trained", ("B",))),))
        assert variable_sorts(r.atoms(), DOM, r.where) == {"A": "agent", "B": "agent"}
