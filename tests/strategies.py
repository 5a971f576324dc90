"""Hypothesis strategies producing valid policy/domain pairs and pinned ground policies."""

from __future__ import annotations

from itertools import combinations

from hypothesis import assume, strategies as st

from aopl_lint import (
    Atom,
    DomainSpec,
    ExecConstraint,
    GroundPolicy,
    Happening,
    HeadLiteral,
    Literal,
    Modality,
    Policy,
    PolicyRule,
    PredicateDecl,
    PredicateKind,
    RuleKind,
    SortDecl,
    StateConstraint,
    ground,
)

_TEXT_ALPHABET = st.characters(min_codepoint=32, max_codepoint=126)
_texts = st.text(alphabet=_TEXT_ALPHABET, max_size=25) | st.just("line\nbreak\tand \"quote\"")


@st.composite
def domain_and_policy(draw) -> tuple[Policy, DomainSpec]:
    sorts: list[SortDecl] = []
    const = 0
    for i in range(draw(st.integers(0, 2))):
        size = draw(st.integers(1, 3))
        sorts.append(SortDecl(f"srt{i}", tuple(f"k{const + j}" for j in range(size))))
        const += size
    sort_names = [s.name for s in sorts]

    def arg_sorts() -> tuple[str, ...]:
        if not sorts:
            return ()
        return tuple(
            draw(st.sampled_from(sort_names)) for _ in range(draw(st.integers(0, 2)))
        )

    predicates: list[PredicateDecl] = []
    for i in range(draw(st.integers(0, 2))):
        predicates.append(PredicateDecl(f"stc{i}", PredicateKind.STATIC, arg_sorts()))
    for i in range(draw(st.integers(0, 2))):
        predicates.append(PredicateDecl(f"flu{i}", PredicateKind.FLUENT, arg_sorts()))
    for i in range(draw(st.integers(1, 2))):
        predicates.append(PredicateDecl(f"doit{i}", PredicateKind.ACTION, arg_sorts()))
    domain = DomainSpec(sorts=tuple(sorts), predicates=tuple(predicates))

    action_decls = [p for p in predicates if p.kind is PredicateKind.ACTION]
    condition_decls = [p for p in predicates if p.kind is not PredicateKind.ACTION]
    sort_map = {s.name: s for s in sorts}

    # Variables per sort of the statement being drawn.  Fresh names encode
    # the sort index so the same name never carries two sorts, within a
    # statement or across a preference pair.
    vars_of: dict[str, list[str]] = {}

    def term(sort: str) -> str:
        pool = vars_of.setdefault(sort, [])
        mode = draw(st.integers(0, 2))
        if mode == 0:
            return draw(st.sampled_from(list(sort_map[sort].members)))
        if mode == 1 and pool:
            return draw(st.sampled_from(pool))
        name = f"X{sort_names.index(sort)}V{len(pool)}"
        pool.append(name)
        return name

    def atom_for(decl: PredicateDecl) -> Atom:
        return Atom(decl.name, tuple(term(s) for s in decl.arg_sorts))

    literal_kinds = (["pred"] if condition_decls else []) + (["sort"] if sorts else [])

    def literal() -> Literal:
        if draw(st.sampled_from(literal_kinds)) == "pred":
            atom = atom_for(draw(st.sampled_from(condition_decls)))
        else:
            sort = draw(st.sampled_from(sort_names))
            atom = Atom(sort, (term(sort),))
        return Literal(atom, draw(st.booleans()))

    def condition(max_size: int = 2) -> tuple[Literal, ...]:
        if not literal_kinds:
            return ()
        return tuple(literal() for _ in range(draw(st.integers(0, max_size))))

    state_constraints: list[StateConstraint] = []
    for _ in range(draw(st.integers(0, 2)) if literal_kinds else 0):
        vars_of.clear()
        body = condition()
        head = literal() if not body or draw(st.booleans()) else None
        state_constraints.append(StateConstraint(body=body, head=head))
    exec_constraints: list[ExecConstraint] = []
    for _ in range(draw(st.integers(0, 1))):
        vars_of.clear()
        action = atom_for(draw(st.sampled_from(action_decls)))
        exec_constraints.append(ExecConstraint(action=action, condition=condition()))
    domain = domain.replace(
        state_constraints=tuple(state_constraints),
        exec_constraints=tuple(exec_constraints),
    )

    rules: list[PolicyRule] = []
    defeasible: list[str] = []
    for i in range(draw(st.integers(0, 4))):
        vars_of.clear()
        action_decl = draw(st.sampled_from(action_decls))
        action = atom_for(action_decl)
        if draw(st.booleans()):
            head = HeadLiteral(Modality.PERMITTED, Happening(action, True), draw(st.booleans()))
        else:
            head = HeadLiteral(
                Modality.OBL, Happening(action, draw(st.booleans())), draw(st.booleans())
            )

        kind = draw(st.sampled_from([RuleKind.STRICT, RuleKind.DEFEASIBLE]))
        label = f"r{i}"
        body = condition()
        # A where-clause restates the sorts of some of the rule's variables.
        typed = [(var, sort) for sort, pool in vars_of.items() for var in pool]
        where = draw(st.lists(st.sampled_from(typed), max_size=2, unique=True)) if typed else []
        rules.append(
            PolicyRule(
                label,
                kind,
                head=head,
                condition=body,
                text=draw(st.none() | _texts),
                where=tuple(where),
            )
        )
        if kind is RuleKind.DEFEASIBLE:
            defeasible.append(label)

    if len(defeasible) >= 2:
        for j in range(draw(st.integers(0, 2))):
            pair = draw(st.permutations(defeasible))
            rules.append(
                PolicyRule(
                    f"pr{j}",
                    RuleKind.PREFERENCE,
                    preferred=pair[0],
                    dispreferred=pair[1],
                    text=draw(st.none() | _texts),
                )
            )

    return Policy(tuple(rules)), domain


@st.composite
def pinned_ground_policy(draw, max_state_atoms: int = 6) -> tuple[GroundPolicy, list[Literal]]:
    """A ground policy from ``domain_and_policy`` with pins to enumerate under.

    Pins may be valid, contradictory or name an unknown atom.  A sort atom
    on a constant outside its sort fails validation, so such atoms are
    added to the ground policy directly: sometimes one more state and exec
    constraint mixes one with state atoms and sort facts.
    """
    gp = ground(*draw(domain_and_policy()))
    assume(len(gp.state_atoms) <= max_state_atoms)
    if draw(st.booleans()):
        foreign = Atom(gp.sort_facts[0].predicate if gp.sort_facts else "srt0", ("kout",))
        pool = st.sampled_from([*gp.state_atoms, *gp.sort_facts, foreign])
        literal = st.builds(Literal, pool, st.booleans())
        body = draw(st.lists(literal, max_size=2))
        state_constraint = StateConstraint(tuple(body), draw(st.none() | literal))
        condition = draw(st.lists(literal, max_size=2))
        exec_constraint = ExecConstraint(draw(st.sampled_from(gp.action_atoms)), tuple(condition))
        gp = gp.replace(
            state_constraints=gp.state_constraints + (state_constraint,),
            exec_constraints=gp.exec_constraints + (exec_constraint,),
        )
    pin_atoms = st.sampled_from([*gp.state_atoms, Atom("ghost")])
    pins = draw(st.lists(st.builds(Literal, pin_atoms, st.booleans()), max_size=3))
    return gp, pins


@st.composite
def tied_components(draw) -> tuple[Policy, DomainSpec]:
    """Two or three disjoint components whose constraints tie several witnesses.

    Each component's state constraints demand at least ``t`` of its 2-3 atoms
    true, for some ``t`` below its size, so several of its sub-assignments
    tie on the fewest true atoms.  Its rules, preferences and exec constraints
    read only its own atoms.  The atoms are nullary, declared in a drawn order
    that interleaves the components, and named so that declaration order is
    text order.  The first declared atom is the highest bit, so the sweep
    meets a tied state later in mask order than the one that wins on text.
    """
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    assume(sum(sizes) <= 8)
    owners = draw(st.permutations([c for c, size in enumerate(sizes) for _ in range(size)]))
    atoms = [Atom(f"{chr(ord('a') + i)}x") for i in range(len(owners))]
    kinds = st.sampled_from([PredicateKind.STATIC, PredicateKind.FLUENT])
    predicates = [PredicateDecl(atom.predicate, draw(kinds), ()) for atom in atoms]

    state_constraints: list[StateConstraint] = []
    exec_constraints: list[ExecConstraint] = []
    rules: list[PolicyRule] = []
    for c in range(len(sizes)):
        own = [atom for atom, owner in zip(atoms, owners) if owner == c]
        # At least t true: no len(own) - t + 1 of them are all false.
        t = draw(st.integers(1, len(own) - 1))
        for false in combinations(own, len(own) - t + 1):
            state_constraints.append(StateConstraint(tuple(Literal(a, False) for a in false)))
        actions = [Atom(f"act{c}x{j}") for j in range(draw(st.integers(1, 2)))]
        predicates += [PredicateDecl(a.predicate, PredicateKind.ACTION, ()) for a in actions]
        literal = st.builds(Literal, st.sampled_from(own), st.booleans())
        condition = st.lists(literal, max_size=2).map(tuple)
        if draw(st.booleans()):
            exec_constraints.append(ExecConstraint(draw(st.sampled_from(actions)), draw(condition)))
        defeasible: list[str] = []
        for i in range(draw(st.integers(1, 3))):
            action = draw(st.sampled_from(actions))
            if draw(st.booleans()):
                head = HeadLiteral(Modality.PERMITTED, Happening(action, True), draw(st.booleans()))
            else:
                happening = Happening(action, draw(st.booleans()))
                head = HeadLiteral(Modality.OBL, happening, draw(st.booleans()))
            kind = draw(st.sampled_from([RuleKind.STRICT, RuleKind.DEFEASIBLE]))
            rules.append(PolicyRule(f"r{c}x{i}", kind, head=head, condition=draw(condition)))
            if kind is RuleKind.DEFEASIBLE:
                defeasible.append(f"r{c}x{i}")
        if len(defeasible) >= 2 and draw(st.booleans()):
            pair = draw(st.permutations(defeasible))
            rules.append(
                PolicyRule(f"p{c}", RuleKind.PREFERENCE, preferred=pair[0], dispreferred=pair[1])
            )

    domain = DomainSpec(
        sorts=(),
        predicates=tuple(predicates),
        state_constraints=tuple(state_constraints),
        exec_constraints=tuple(exec_constraints),
    )
    return Policy(tuple(rules)), domain
