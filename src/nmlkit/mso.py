"""Monadic second-order logic over finite relational structures.

Two evaluators share the same semantics:

* ``eval_mso`` is the production model checker.  It compiles each
  sentence once, on its first call, into a function per node and keeps it
  for later calls: bound variables renamed apart, quantifiers miniscoped,
  and every first-order quantifier block one function with a candidate
  loop per variable-binding generator, grounded through the structure's
  relation tuples (a relation atom, or a disjunction of them binding the
  same variables) or, for a variable no relation binds, its universe.  It
  decides second-order quantifiers by branching on set membership lazily
  under three-valued (Kleene) logic, so only memberships that actually
  influence the verdict are ever split on.  Three recognitions cut that
  search.  A set that its quantifier's body defines, ``exists S (... &
  forall x (x in S <-> psi) & ...)`` with ``S`` not free in ``psi``, is
  computed from ``psi`` instead of branched on.  A set quantifier whose
  body is a conjunction of guarded clauses, ``forall xs (guard -> psi)``
  with every ``S``-atom of ``psi`` outside its quantifiers, is decided by
  the treewidth DP (``twdp``) over the clauses' instances, Courcelle's
  route as in Gottlob, Pichler and Wei's monadic datalog (``_guarded``).
  A subformula with no free set variable that is closed or quantifies a
  set has a value fixed by the structure and its first-order bindings, so
  each call keeps it in a memo keyed by those bindings.  A step budget
  guards against blow-ups.
* ``eval_mso_bruteforce`` enumerates everything.  It is the independent
  oracle the production evaluator is swept against in the tests.

MSO nodes are interned like formula nodes, through ``formula.Node`` and
``formula._make``: equal sentences are one object, so comparing two nodes
is ``is`` and hashing one is ``object``'s identity hash.  The
free variables of a node and the compiled form of a sentence are kept in
bounded ``functools.lru_cache`` tables keyed by the node.

The syntax walkers (free variables, renaming, miniscoping, printing, the
reference's cost estimate) share one part/binder view of the node classes:
``subformulas``, ``with_subformulas``, ``binder`` and ``atom_vars``.  The
production evaluator dispatches on the node class once, when it compiles a
sentence; the reference dispatches on every visit, so that the cross-check
stays independent.

First-order variables are lowercase identifiers bound to universe elements;
set variables are uppercase identifiers bound to subsets.
"""
from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Mapping, Optional, Union

from .errors import ResourceLimitError
from .formula import _LIVE, Node, _make
from .limits import Limits, check, get_limits
from .structures import RelationalStructure
from .twdp import CompiledSet, _run_dp, compile_graph, constraint_graph, vertex_pins


class MsoFormula(Node):
    """Base class for MSO nodes, interned like formula nodes: the
    constructor returns the live node of its class and field values when
    there is one, so equal sentences are one object."""

    __slots__ = ()

    def __new__(cls, *values):
        key = (cls, *values)
        node = _LIVE.get(key)
        if node is None:
            if len(values) != len(cls._fields):
                raise TypeError(f"{cls.__name__} takes the fields {cls._fields}, got {values!r}")
            node = _make(cls, key, values)
        return node

    def __str__(self) -> str:
        return to_text(self)


class RelAtom(MsoFormula):
    __slots__ = _fields = ("rel", "args")  # str, tuple[str, ...]


class Eq(MsoFormula):
    __slots__ = _fields = ("left", "right")  # str, str


class SetAtom(MsoFormula):
    __slots__ = _fields = ("svar", "var")  # str, str


class Truth(MsoFormula):
    __slots__ = _fields = ("value",)  # bool


class Not(MsoFormula):
    __slots__ = _fields = ("body",)  # MsoFormula


class And(MsoFormula):
    __slots__ = _fields = ("parts",)  # tuple[MsoFormula, ...]


class Or(MsoFormula):
    __slots__ = _fields = ("parts",)  # tuple[MsoFormula, ...]


class Imp(MsoFormula):
    __slots__ = _fields = ("left", "right")  # MsoFormula, MsoFormula


class Iff(MsoFormula):
    __slots__ = _fields = ("left", "right")  # MsoFormula, MsoFormula


class Xor(MsoFormula):
    __slots__ = _fields = ("left", "right")  # MsoFormula, MsoFormula


class ExistsFO(MsoFormula):
    __slots__ = _fields = ("var", "body")  # str, MsoFormula


class ForallFO(MsoFormula):
    __slots__ = _fields = ("var", "body")  # str, MsoFormula


class ExistsSO(MsoFormula):
    __slots__ = _fields = ("svar", "body")  # str, MsoFormula


class ForallSO(MsoFormula):
    __slots__ = _fields = ("svar", "body")  # str, MsoFormula


TOP = Truth(True)
BOTTOM = Truth(False)


def conj(parts: Iterable[MsoFormula]) -> MsoFormula:
    parts = tuple(p for p in parts if p != TOP)
    if any(p == BOTTOM for p in parts):
        return BOTTOM
    if not parts:
        return TOP
    if len(parts) == 1:
        return parts[0]
    return And(parts)


def disj(parts: Iterable[MsoFormula]) -> MsoFormula:
    parts = tuple(p for p in parts if p != BOTTOM)
    if any(p == TOP for p in parts):
        return TOP
    if not parts:
        return BOTTOM
    if len(parts) == 1:
        return parts[0]
    return Or(parts)


# ---------------------------------------------------------------------------
# Syntax view shared by the walkers below (the evaluators keep their own)
# ---------------------------------------------------------------------------

_BINARY = (Imp, Iff, Xor)
_FO_QUANTIFIERS = (ExistsFO, ForallFO)
_SO_QUANTIFIERS = (ExistsSO, ForallSO)
_ATOMS = (RelAtom, Eq, SetAtom, Truth)


def subformulas(phi: MsoFormula) -> tuple[MsoFormula, ...]:
    """The immediate subformulas of ``phi`` (none for an atom)."""
    if isinstance(phi, (And, Or)):
        return phi.parts
    if isinstance(phi, _BINARY):
        return (phi.left, phi.right)
    if isinstance(phi, _ATOMS):
        return ()
    return (phi.body,)


def with_subformulas(phi: MsoFormula, subs: Iterable[MsoFormula]) -> MsoFormula:
    """``phi`` rebuilt around new immediate subformulas, keeping its binder;
    an atom is returned as it is."""
    if isinstance(phi, (And, Or)):
        return type(phi)(tuple(subs))
    if isinstance(phi, (Not,) + _BINARY):
        return type(phi)(*subs)
    if isinstance(phi, _ATOMS):
        return phi
    return type(phi)(binder(phi), *subs)


def binder(phi: MsoFormula) -> Optional[str]:
    """The variable a quantifier binds; None for any other node."""
    if isinstance(phi, _FO_QUANTIFIERS):
        return phi.var
    if isinstance(phi, _SO_QUANTIFIERS):
        return phi.svar
    return None


def atom_vars(phi: MsoFormula) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """(first-order, set) variables of an atom; empty for any other node."""
    if isinstance(phi, RelAtom):
        return phi.args, ()
    if isinstance(phi, Eq):
        return (phi.left, phi.right), ()
    if isinstance(phi, SetAtom):
        return (phi.var,), (phi.svar,)
    return (), ()


# ---------------------------------------------------------------------------
# Free variables
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=4096)
def free_vars(phi: MsoFormula) -> tuple[frozenset[str], frozenset[str]]:
    """(first-order, set) free variables of ``phi``."""
    fo, so = map(frozenset, atom_vars(phi))
    for p in subformulas(phi):
        f2, s2 = free_vars(p)
        fo |= f2
        so |= s2
    if isinstance(phi, _FO_QUANTIFIERS):
        fo -= {phi.var}
    elif isinstance(phi, _SO_QUANTIFIERS):
        so -= {phi.svar}
    return fo, so


# ---------------------------------------------------------------------------
# Serialization (goldens and debugging)
# ---------------------------------------------------------------------------

_INFIX = {And: " & ", Or: " | ", Imp: " -> ", Iff: " <-> ", Xor: " ^ "}
_QUANTIFIER = {ExistsFO: "E", ForallFO: "A", ExistsSO: "E", ForallSO: "A"}


def to_text(phi: MsoFormula) -> str:
    cls = type(phi)
    if cls in _INFIX:
        return "(" + _INFIX[cls].join(to_text(p) for p in subformulas(phi)) + ")"
    if cls in _QUANTIFIER:
        return f"({_QUANTIFIER[cls]} {binder(phi)}. {to_text(phi.body)})"
    if cls is RelAtom:
        return f"{phi.rel}({', '.join(phi.args)})"
    if cls is Eq:
        return f"{phi.left} = {phi.right}"
    if cls is SetAtom:
        return f"{phi.var} in {phi.svar}"
    if cls is Truth:
        return "T" if phi.value else "F"
    if cls is Not:
        return f"~{_paren(phi.body)}"
    raise TypeError(f"unknown node {phi!r}")


def _paren(phi: MsoFormula) -> str:
    text = to_text(phi)
    if isinstance(phi, (RelAtom, SetAtom, Truth, Not)):
        return text
    return text if text.startswith("(") else f"({text})"


# ---------------------------------------------------------------------------
# Compilation (semantics-preserving; done once per sentence)
# ---------------------------------------------------------------------------

def _collect_names(phi: MsoFormula, out: set[str]) -> None:
    out.update(*atom_vars(phi))
    if (v := binder(phi)) is not None:
        out.add(v)
    for p in subformulas(phi):
        _collect_names(p, out)


def _standardize(phi: MsoFormula) -> MsoFormula:
    """Alpha-rename bound variables apart from each other and from the free
    variables, which keep their names.  Evaluation assumes no shadowing;
    builders are free to reuse names."""
    used: set[str] = set()
    _collect_names(phi, used)
    counter = dict.fromkeys(set().union(*free_vars(phi)), 1)

    def fresh(name: str) -> str:
        if name not in counter:
            counter[name] = 1
            return name
        while True:
            counter[name] += 1
            candidate = f"{name}_{counter[name]}"
            if candidate not in used:
                used.add(candidate)
                return candidate

    return _rename_bound(phi, fresh, {}, {})


def _rename_bound(
    node: MsoFormula, fresh: Callable[[str], str], fo: dict[str, str], so: dict[str, str]
) -> MsoFormula:
    """``node`` with each binder's variable renamed to ``fresh(name)``, in
    the order of a left-to-right walk, and each free one through ``fo`` and
    ``so`` or kept."""
    if isinstance(node, RelAtom):
        return RelAtom(node.rel, tuple(fo.get(a, a) for a in node.args))
    if isinstance(node, Eq):
        return Eq(fo.get(node.left, node.left), fo.get(node.right, node.right))
    if isinstance(node, SetAtom):
        return SetAtom(so.get(node.svar, node.svar), fo.get(node.var, node.var))
    if isinstance(node, _FO_QUANTIFIERS):
        new = fresh(node.var)
        return type(node)(new, _rename_bound(node.body, fresh, {**fo, node.var: new}, so))
    if isinstance(node, _SO_QUANTIFIERS):
        new = fresh(node.svar)
        return type(node)(new, _rename_bound(node.body, fresh, fo, {**so, node.svar: new}))
    return with_subformulas(node, [_rename_bound(p, fresh, fo, so) for p in subformulas(node)])


def rename_set(phi: MsoFormula, old: str, new: str) -> MsoFormula:
    """Capture-avoiding rename of a free set variable (binders for ``old``
    shadow it and are left alone; ``new`` must not be bound inside)."""
    if old == new:
        return phi
    if isinstance(phi, SetAtom):
        return SetAtom(new, phi.var) if phi.svar == old else phi
    if isinstance(phi, _SO_QUANTIFIERS):
        if phi.svar == old:
            return phi
        if phi.svar == new:
            raise ValueError(f"rename would capture {new!r}")
    return with_subformulas(phi, [rename_set(p, old, new) for p in subformulas(phi)])


def _miniscope(phi: MsoFormula) -> MsoFormula:
    """Push quantifiers toward the atoms they govern.

    Uses only classical equivalences (distribution over & / |, vacuous-
    quantifier elimination, and hoisting a quantifier out of an implication
    side it does not occur in), so the result is logically equivalent.
    """
    if isinstance(phi, (Not,) + _BINARY):
        return with_subformulas(phi, [_miniscope(p) for p in subformulas(phi)])
    if isinstance(phi, (And, Or)):
        # flatten nested junctions of the same kind
        parts = []
        for p in phi.parts:
            q = _miniscope(p)
            parts.extend(q.parts if type(q) is type(phi) else (q,))
        return conj(parts) if type(phi) is And else disj(parts)
    if isinstance(phi, ExistsSO):
        body = _miniscope(phi.body)
        if phi.svar not in free_vars(body)[1]:
            return body
        if isinstance(body, And):
            with_v = [p for p in body.parts if phi.svar in free_vars(p)[1]]
            without = [p for p in body.parts if phi.svar not in free_vars(p)[1]]
            if without:
                return conj(without + [ExistsSO(phi.svar, conj(with_v))])
        return ExistsSO(phi.svar, body)
    if isinstance(phi, ForallSO):
        body = _miniscope(phi.body)
        if phi.svar not in free_vars(body)[1]:
            return body
        if isinstance(body, And):
            return conj(
                [
                    ForallSO(phi.svar, p) if phi.svar in free_vars(p)[1] else p
                    for p in body.parts
                ]
            )
        return ForallSO(phi.svar, body)
    if isinstance(phi, (ExistsFO, ForallFO)):
        v = phi.var
        body = _miniscope(phi.body)
        if v not in free_vars(body)[0]:
            return body
        forall = isinstance(phi, ForallFO)
        # ∀ splits over ∧ and ∃ over ∨: the junction the quantifier commutes with
        junction, join = (And, conj) if forall else (Or, disj)
        if isinstance(body, junction):
            with_v = [p for p in body.parts if v in free_vars(p)[0]]
            without = [p for p in body.parts if v not in free_vars(p)[0]]
            if without:
                return join(without + [_miniscope(type(phi)(v, join(with_v)))])
            if len(with_v) > 1:
                return join([_miniscope(type(phi)(v, p)) for p in with_v])
        if forall and isinstance(body, Imp):
            if v not in free_vars(body.right)[0]:
                return Imp(_miniscope(ExistsFO(v, body.left)), body.right)
            if v not in free_vars(body.left)[0]:
                return Imp(body.left, _miniscope(ForallFO(v, body.right)))
        return ForallFO(v, body) if forall else ExistsFO(v, body)
    return phi


# ---------------------------------------------------------------------------
# Production evaluator
# ---------------------------------------------------------------------------

_Run = Callable[["_Evaluator"], Optional[bool]]


def _compile(phi: MsoFormula) -> _Run:
    """``phi`` as a function of the evaluator, one per node.  Each ticks the
    step counter once on entry and returns True, False or None: None when a
    set membership it needs is unassigned, which it names in ``watch``.  A
    first-order quantifier block is one function, built by ``_make_plan``;
    an existential set quantifier whose body defines its set is one, built
    by ``_defined_set``, and a set quantifier over guarded clauses is one,
    built by ``_guarded``.  A node whose value the structure and its
    first-order bindings fix (``_set_free``) looks that value up in the
    call's memo before it runs.  Assumes bound variables have been renamed
    apart."""
    cls = type(phi)
    if cls is ExistsFO or cls is ForallFO:
        run = _make_plan(phi)
    elif cls is RelAtom:
        rel, args = phi.rel, phi.args

        def run(ev):
            ev.tick()
            return tuple(map(ev.fo.__getitem__, args)) in ev.structure.tuples(rel)
    elif cls is SetAtom:
        svar, var = phi.svar, phi.var

        def run(ev):
            ev.tick()
            elem = ev.fo[var]
            val = ev.so[svar].get(elem)
            if val is None:
                ev.watch = (svar, elem)
            return val
    elif cls is Eq:
        left, right = phi.left, phi.right

        def run(ev):
            ev.tick()
            return ev.fo[left] == ev.fo[right]
    elif cls is Truth:
        value = phi.value

        def run(ev):
            ev.tick()
            return value
    elif cls is Not:
        body = _compile(phi.body)

        def run(ev):
            ev.tick()
            v = body(ev)
            return None if v is None else not v
    elif cls is And or cls is Or:
        parts = tuple(map(_compile, phi.parts))
        unit = cls is And

        def run(ev):
            # Stops at the first part that is not the unit (True for And,
            # False for Or).  Returning None where a later part would decide
            # is sound: unknowns are resolved by branching.
            ev.tick()
            for p in parts:
                v = p(ev)
                if v is not unit:
                    return v
            return unit
    elif cls is Imp:
        left, right = _compile(phi.left), _compile(phi.right)

        def run(ev):
            ev.tick()
            va = left(ev)
            if va is False:
                return True
            if va is None:
                return None
            return right(ev)
    elif cls is Iff or cls is Xor:
        left, right = _compile(phi.left), _compile(phi.right)
        xor = cls is Xor

        def run(ev):
            ev.tick()
            va = left(ev)
            if va is None:
                return None
            vb = right(ev)
            if vb is None:
                return None
            return (va == vb) is not xor
    elif cls is ExistsSO and (definition := _definition(phi)) is not None:
        run = _defined_set(phi.svar, *definition)
    elif cls is ExistsSO or cls is ForallSO:
        svar, body, exists = phi.svar, _compile(phi.body), cls is ExistsSO

        def run(ev):
            ev.tick()
            return ev.search_set(svar, body, exists)
        run = _guarded(phi, run) or run
    else:
        raise TypeError(f"unknown node {phi!r}")
    if _set_free(phi):
        run = _memoized(run, tuple(sorted(free_vars(phi)[0])))
    return run


def _definition(phi: ExistsSO) -> Optional[tuple[str, MsoFormula, MsoFormula]]:
    """``(x, psi, rest)`` when ``phi``'s body is a conjunction with a part
    ``forall x (x in S <-> psi)``, in either orientation, where ``S`` is
    ``phi``'s set and is not free in ``psi``; ``rest`` conjoins the other
    parts.  Exactly one ``S`` meets that part, so ``phi`` is ``rest`` with
    ``S`` bound to ``{e : psi(e)}``."""
    parts = _flatten_and(phi.body)
    for i, part in enumerate(parts):
        if not (isinstance(part, ForallFO) and isinstance(part.body, Iff)):
            continue
        member = SetAtom(phi.svar, part.var)
        left, right = part.body.left, part.body.right
        for atom, psi in ((left, right), (right, left)):
            if atom == member and phi.svar not in free_vars(psi)[1]:
                return part.var, psi, conj(parts[:i] + parts[i + 1:])
    return None


def _defined_set(svar: str, var: str, psi: MsoFormula, rest: MsoFormula) -> _Run:
    """``exists S (forall x (x in S <-> psi) & rest)`` as one function:
    binds ``S`` to the elements where ``psi`` holds, found in universe
    order, then runs ``rest``.  None, with ``psi``'s watch, when ``psi`` is
    undetermined at some element: it reads an unassigned membership of an
    enclosing set.

    When ``psi`` is an existential block with a relation-atom conjunct over
    x (``_guard_of``), ``psi`` is False at every element that no tuple of
    that relation holds at x's position: the block then runs no candidate
    or refutes each one.  ``S`` starts False everywhere, and ``psi`` runs
    only at the other elements."""
    psi_run, rest_run = _compile(psi), _compile(rest)
    guard = _guard_of(var, psi)

    def run(ev):
        ev.tick()
        fo = ev.fo
        universe = ev.structure.universe
        if guard is None:
            members, candidates = {}, universe
        else:
            held = ev.index(*guard)
            members = dict.fromkeys(universe, False)
            candidates = [e for e in universe if (e,) in held]
        for e in candidates:
            fo[var] = e  # bound names are apart: nothing reads it after
            v = psi_run(ev)
            if v is None:
                return None
            members[e] = v
        ev.so[svar] = members
        return rest_run(ev)

    return run


def _guard_of(var: str, psi: MsoFormula) -> Optional[tuple[str, tuple[int]]]:
    """``(rel, (position,))`` of the first relation-atom conjunct over
    ``var`` when ``psi`` is an existential first-order block, else None."""
    if not isinstance(psi, ExistsFO):
        return None
    while isinstance(psi, ExistsFO):
        psi = psi.body
    for part in _flatten_and(psi):
        if isinstance(part, RelAtom) and var in part.args:
            return part.rel, (part.args.index(var),)
    return None


def _conjuncts(phi: MsoFormula, positive: bool) -> list[MsoFormula]:
    """``phi``, or its negation when not ``positive``, as a list of
    conjuncts, with the negation pushed through ``~``, ``->`` and ``|``."""
    if isinstance(phi, Not):
        return _conjuncts(phi.body, not positive)
    if positive and isinstance(phi, And) or not positive and isinstance(phi, Or):
        return [c for p in phi.parts for c in _conjuncts(p, positive)]
    if not positive and isinstance(phi, Imp):
        return _conjuncts(phi.left, True) + _conjuncts(phi.right, False)
    return [phi] if positive else [Not(phi)]


def _members(phi: MsoFormula, svar: str) -> Optional[list[str]]:
    """The variables of ``svar``'s atoms in ``phi``; None when one of them
    lies under a quantifier."""
    if binder(phi) is not None:
        return None if svar in free_vars(phi)[1] else []
    if isinstance(phi, SetAtom):
        return [phi.var] if phi.svar == svar else []
    parts = [_members(p, svar) for p in subformulas(phi)]
    return None if None in parts else [v for part in parts for v in part]


def _clause(phi: MsoFormula, svar: str) -> Optional[tuple]:
    """``(block, guard, psi, members, some)`` for a guarded clause on
    ``svar``: ``forall xs (guard -> psi)`` or ``forall xs psi``, ``xs``
    possibly empty; or, with ``some``, ``exists xs (guard & psi)`` or
    ``~forall xs (guard -> psi')``, read with ``psi = ~psi'``.  The guard
    is a list of conjuncts without ``svar``; each ``svar`` atom of ``psi``
    lies outside its quantifiers, at a variable of ``members``."""
    some = isinstance(phi, Not) and isinstance(phi.body, ForallFO)
    node = phi.body if some else phi
    cls, block = type(node), []
    while cls in _FO_QUANTIFIERS and type(node) is cls:
        block.append(node.var)
        node = node.body
    guard, psi = [], node
    if cls is ExistsFO:
        some = True
        parts = _flatten_and(node)
        guard = [p for p in parts if svar not in free_vars(p)[1]]
        psi = conj(p for p in parts if svar in free_vars(p)[1])
    elif isinstance(node, Imp) and svar not in free_vars(node.left)[1]:
        guard, psi = _flatten_and(node.left), node.right
    if some and cls is not ExistsFO:
        psi = Not(psi)
    members = _members(psi, svar)
    return None if members is None else (block, guard, psi, tuple(dict.fromkeys(members)), some)


def _guarded(phi: Union[ExistsSO, ForallSO], search: _Run) -> Optional[_Run]:
    """``phi`` decided by the treewidth DP, or None outside the fragment.
    Read in exists-form (``forall S phi`` is ``~exists S ~phi``), its body
    must be a list of conjuncts free of ``S`` (conditions) or guarded
    clauses (``_clause``), at most one existential, whose block is hoisted:
    ``exists S (A & exists xs B)`` is ``exists xs exists S (A & B)``.

    Each binding of a clause's block under a true guard is an instance: its
    members' ``S``-memberships as a scope, with the rows where ``psi``
    holds.  The static clauses, closed but for ``S``, are instantiated and
    compiled once per call, kept in the memo under their canonical form
    (alpha-equal ones of other sets share it); a program wider than
    ``Limits.dp_width`` leaves ``phi`` to ``search``.  The other clauses
    are instantiated on each run: a one-element instance is a pin, a single
    larger one gives a run per row, and several are compiled with the
    static ones.  A run charges its instruction count in steps."""
    svar, exists = phi.svar, isinstance(phi, ExistsSO)
    conditions, static, static_runs, dynamic, hoisted = [], [], [], [], ([], [])
    for c in _conjuncts(phi.body, exists):
        if svar not in free_vars(c)[1]:
            conditions.append(c)
            continue
        clause = _clause(c, svar)
        if clause is None or clause[-1] and hoisted[0]:
            return None
        block, guard, psi, members, some = clause
        if some:
            hoisted, block, guard = (block, guard), [], []
        instances = _instances(svar, block, guard, psi, members)
        if not some and free_vars(c) == (frozenset(), frozenset({svar})):
            static.append(c)
            static_runs.append(instances)
        else:
            dynamic.append(instances)
    names = itertools.count()
    key = _rename_bound(conj(static), lambda _: f"_{next(names)}", {}, {svar: "_"})

    def decide(ev):
        found = _collect(ev, dynamic)
        if found is None:
            return None
        pins: dict[int, bool] = {}
        larger = []
        for scope, rows in found:
            if not rows:
                return False
            if len(scope) > 1:
                larger.append((scope, rows))
            elif len(rows) == 1 and pins.setdefault(scope[0], rows[0][0]) != rows[0][0]:
                return False
        cs = ev.memo[key]
        if len(larger) > 1:
            try:
                cs = _bag_program(ev, cs.cg.constraints + tuple(larger))
            except ResourceLimitError:
                v = search(ev)
                return v if exists or v is None else not v
            larger = []
        runs = [pins]
        if larger:
            (scope, rows), = larger
            runs = [{**pins, **dict(zip(scope, row))} for row in rows
                    if all(pins.get(e, b) == b for e, b in zip(scope, row))]
        for units in runs:
            ev.steps += len(cs.program)
            ev.tick()
            if _run_dp(cs.program, vertex_pins(cs.home, units.items())):
                return True
        return False

    body = _block_plan(True, hoisted[0], hoisted[1] + conditions, decide)

    def run(ev):
        ev.tick()
        if key not in ev.memo:
            found = _collect(ev, static_runs)
            try:
                ev.memo[key] = _bag_program(ev, found)
            except ResourceLimitError:
                ev.memo[key] = None
        if ev.memo[key] is None:
            return search(ev)
        v = body(ev)
        return v if exists or v is None else not v

    return run


def _instances(svar: str, block: list[str], guard: list[MsoFormula], psi: MsoFormula,
               members: tuple[str, ...]) -> _Run:
    """A function that appends to ``ev.found`` the ``(scope, rows)`` of each
    binding of ``block`` where ``guard`` holds (see ``_guarded``)."""
    psi_run = _compile(psi)

    def collect(ev):
        fo = ev.fo
        scope = tuple(dict.fromkeys([fo[v] for v in members]))
        d = ev.so[svar] = {}  # bound names are apart: nothing reads it after
        rows = []
        for row in itertools.product((False, True), repeat=len(scope)):
            d.update(zip(scope, row))
            v = psi_run(ev)
            if v is None:
                return None
            if v:
                rows.append(row)
        ev.found.append((scope, tuple(rows)))
        return False

    return _block_plan(True, block, guard, collect)


def _collect(ev: "_Evaluator", instances: list[_Run]) -> Optional[list]:
    """The instances those functions find; None, with the watch, when a
    guard or ``psi`` reads an unassigned membership of an enclosing set.
    ``ev.found`` is restored on return, so a guard or ``psi`` that decides
    another set this way leaves the list being filled as it was."""
    saved, found = ev.found, []
    ev.found = found
    for run in instances:
        if run(ev) is None:
            found = None
            break
    ev.found = saved
    return found


def _bag_program(ev: "_Evaluator", constraints) -> CompiledSet:
    """The bag program of ``constraints`` over the universe's elements
    (ids 1..n, as in ``gaifman_graph``), within ``ev``'s limits."""
    n = max(ev.structure.universe, default=0)
    return compile_graph(constraint_graph(n, constraints, {}), limits=ev.limits)


def _quantifies_sets(phi: MsoFormula) -> bool:
    return isinstance(phi, _SO_QUANTIFIERS) or any(map(_quantifies_sets, subformulas(phi)))


def _set_free(phi: MsoFormula) -> bool:
    """Whether ``phi`` is a compound with no free set variable that is
    closed or quantifies a set: its value is then fixed by the structure
    and the values of its free first-order variables, and always definite,
    since every set it reads is searched inside it.  Quantified set-free
    nodes in general are left out: a memo on every first-order block costs
    more than it saves on small sentences."""
    fo, so = free_vars(phi)
    return not so and bool(subformulas(phi)) and (not fo or _quantifies_sets(phi))


def _memoized(run: _Run, fo_vars: tuple[str, ...]) -> _Run:
    """``run`` with its value kept in the call's memo, keyed by this
    function and the values of ``fo_vars``."""

    def cached(ev):
        key = (cached, *map(ev.fo.__getitem__, fo_vars))
        v = ev.memo.get(key)
        if v is None:
            v = run(ev)
            assert v is not None, "a set-free subformula cannot stay undetermined"
            ev.memo[key] = v
        return v

    return cached


def _flatten_and(phi: MsoFormula) -> list[MsoFormula]:
    if isinstance(phi, And):
        out = []
        for p in phi.parts:
            out.extend(_flatten_and(p))
        return out
    return [phi]


def _make_plan(node: Union[ExistsFO, ForallFO]) -> _Run:
    """A block of same-kind first-order quantifiers as one function
    (``_block_plan``): its conjuncts for an existential block, its guard
    and matrix for a universal one."""
    exists = isinstance(node, ExistsFO)
    block: list[str] = []
    body: MsoFormula = node
    while isinstance(body, type(node)):
        block.append(body.var)
        body = body.body
    if exists:
        return _block_plan(True, block, _flatten_and(body), None)
    if isinstance(body, Imp):
        return _block_plan(False, block, _flatten_and(body.left), _compile(body.right))
    return _block_plan(False, block, [], _compile(body))


def _block_plan(
    exists: bool, block: list[str], conjuncts: list[MsoFormula], payload: Optional[_Run]
) -> _Run:
    """One candidate loop per generator, then the conjuncts no generator
    consumed and the payload: a universal block's matrix, or what an
    existential block runs once its conjuncts hold.

    A generator is a conjunct that binds block variables: a relation atom,
    or a disjunction of relation atoms that each bind the same ones, whose
    candidates are the union of theirs.  Generators are chosen greedily
    (most positions already bound first).  A block variable that no
    conjunct binds gets a generator over the universe.
    """
    blockset = set(block)
    chosen: list[MsoFormula] = []
    generators: list[tuple] = []
    covered: set[str] = set()
    while True:
        fresh = []
        for c in conjuncts:
            atoms = c.parts if isinstance(c, Or) else (c,)
            if all(isinstance(a, RelAtom) for a in atoms):
                new = {frozenset(a.args) & blockset - covered for a in atoms}
                if len(new) == 1 and new != {frozenset()}:
                    fresh.append((c, atoms))
        if not fresh:
            break
        best, atoms = max(fresh, key=lambda pick: (
            sum(1 for a in pick[1][0].args if a not in blockset or a in covered),
            -len(set(pick[1][0].args) & blockset - covered),
            -len(pick[1]),
        ))
        alternatives = []
        for atom in atoms:
            key_positions: list[int] = []
            bind: dict[str, int] = {}  # new variable -> its first position
            match: list[tuple[int, int]] = []  # a repeated new variable's position -> its first
            for pos, a in enumerate(atom.args):
                if a not in blockset or a in covered:
                    key_positions.append(pos)
                elif a in bind:
                    match.append((pos, bind[a]))
                else:
                    bind[a] = pos
            key_vars = tuple(atom.args[pos] for pos in key_positions)
            alternatives.append((atom.rel, tuple(key_positions), key_vars,
                                 tuple((pos, a) for a, pos in bind.items()), tuple(match)))
        generators.append(tuple(alternatives))
        chosen.append(best)
        covered |= bind.keys()
    generators += [((None, (), (), ((0, v),), ()),) for v in block if v not in covered]
    residual = tuple(_compile(c) for c in conjuncts if not any(c is g for g in chosen))
    run = _bound_block(exists, residual, payload)
    for depth in reversed(range(len(generators))):
        run = _candidate_loop(exists, generators[depth], run, depth == 0)
    return run


def _candidate_loop(exists: bool, alternatives: tuple, inner: _Run, entry: bool) -> _Run:
    """Runs ``inner`` once for each tuple of each alternative's relation
    that agrees with the bindings so far, with that tuple's new variables
    bound.  The outermost loop of a block (``entry``) ticks once on entry.

    For an existential block: True if some candidate satisfies the body,
    None if no definite witness but some candidate was unknown, else False.
    Universal blocks are dual.
    """

    def run(ev):
        if entry:
            ev.tick()
        fo = ev.fo
        unknown = None
        for rel, key_positions, key_vars, bind, match in alternatives:
            for t in ev.index(rel, key_positions).get(tuple(map(fo.__getitem__, key_vars)), ()):
                ev.tick()
                if match and any(t[p] != t[q] for p, q in match):
                    continue
                for pos, a in bind:  # bound names are apart: the next candidate overwrites
                    fo[a] = t[pos]
                v = inner(ev)
                if v is None:
                    unknown = ev.watch
                elif v is exists:
                    return v
        if unknown is None:
            return not exists
        ev.watch = unknown  # a later candidate may have left it on an ended search
        return None

    return run


def _bound_block(exists: bool, residual: tuple[_Run, ...], payload: Optional[_Run]) -> _Run:
    """A block's value once all its variables are bound: the residual
    conjuncts (the guard, for a universal block), then the payload.  An
    existential block runs its payload only under a definite guard."""

    def run(ev):
        unknown = None
        for c in residual:
            v = c(ev)
            if v is False:
                return not exists  # guard refuted -> instance vacuous
            if v is None and unknown is None:
                unknown = ev.watch
        if unknown is None:
            return True if payload is None else payload(ev)
        if not exists and payload(ev) is True:
            return True
        ev.watch = unknown  # under an undetermined guard it may still be vacuous
        return None

    return run


@functools.lru_cache(maxsize=4096)
def _compiled(phi: MsoFormula) -> _Run:
    """The function ``eval_mso`` runs for ``phi``: standardized apart,
    miniscoped and compiled, built once per sentence."""
    return _compile(_miniscope(_standardize(phi)))


class _Evaluator:
    """The state of one ``eval_mso`` call, which the compiled functions read
    and update: bindings, limits, steps, branch points, the watched
    membership, the memo of set-free subformula values and static bag
    programs, the clause instances being collected and the relation
    indexes."""

    def __init__(
        self,
        structure: RelationalStructure,
        fo_env: dict[str, int],
        so_env: dict[str, dict[int, bool]],
        limits: Limits,
    ):
        self.structure = structure
        self.fo = fo_env
        self.so = so_env
        self.limits = limits
        self.budget = limits.mso_steps
        self.steps = 0
        self.branch_counts: dict[str, int] = {}
        self.watch: Optional[tuple[str, int]] = None
        self.memo: dict = {}
        self.found: list = []
        self._indexes: dict = {}

    def tick(self) -> None:
        self.steps += 1
        if self.steps > self.budget:
            if self.branch_counts:
                worst = max(self.branch_counts, key=self.branch_counts.get)
                detail = f"dominating quantifier: {worst} ({self.branch_counts[worst]} branch points)"
            else:
                detail = "dominated by first-order enumeration"
            raise ResourceLimitError(
                f"mso evaluation exceeded its step budget NMLKIT_LIMITS mso_steps={self.budget} ({detail})"
            )

    def index(self, rel: Optional[str], mask: tuple[int, ...]):
        """The tuples of ``rel`` grouped by their values at ``mask``; ``rel``
        None stands for the universe as 1-tuples, in universe order."""
        key = (rel, mask)
        idx = self._indexes.get(key)
        if idx is None:
            idx = {}
            s = self.structure
            for t in s.tuples(rel) if rel is not None else [(e,) for e in s.universe]:
                idx.setdefault(tuple(t[i] for i in mask), []).append(t)
            self._indexes[key] = idx
        return idx

    def search_set(self, svar: str, body: _Run, exists: bool) -> Optional[bool]:
        """Decides a set quantifier over ``svar`` by depth-first search over
        the memberships that ``body`` asks for, False before True.  ``path``
        lists the branched elements, outermost first."""
        d = self.so[svar] = {}  # bound names are apart: nothing reads it after
        path: list[int] = []
        while True:
            v = body(self)
            if v is None:
                wsvar, welem = self.watch
                if wsvar != svar:
                    return None  # an enclosing quantifier's set is responsible
                self.branch_counts[svar] = self.branch_counts.get(svar, 0) + 1
                path.append(welem)
                d[welem] = False
                continue
            if v is exists:
                return v
            while path and d[path[-1]]:  # both values failed: back up
                del d[path.pop()]
            if not path:
                return not exists
            d[path[-1]] = True


def _prepare_env(
    structure: RelationalStructure, env: Optional[Mapping[str, object]]
) -> tuple[dict[str, int], dict[str, dict[int, bool]]]:
    fo: dict[str, int] = {}
    so: dict[str, dict[int, bool]] = {}
    elements = set(structure.universe)
    for name, value in (env or {}).items():
        if isinstance(value, int) and not isinstance(value, bool):
            if value not in elements:
                raise ValueError(f"binding {name}={value} is outside the universe")
            fo[name] = value
        elif isinstance(value, (set, frozenset)):
            if not set(value) <= elements:
                raise ValueError(f"set binding {name} contains non-elements")
            so[name] = {e: (e in value) for e in structure.universe}
        else:
            raise ValueError(f"binding {name} must be an element id or a set of ids")
    return fo, so


def _check_bound(phi: MsoFormula, fo: dict, so: dict) -> None:
    fo_free, so_free = free_vars(phi)
    missing = (fo_free - fo.keys()) | (so_free - so.keys())
    if missing:
        raise ValueError(f"unbound variables: {sorted(missing)}")


def eval_mso(
    structure: RelationalStructure,
    phi: MsoFormula,
    env: Optional[Mapping[str, object]] = None,
    *,
    limits: Limits | None = None,
) -> bool:
    """Decide structure satisfaction of ``phi`` under ``env`` bindings.

    ``env`` maps first-order variables to element ids and set variables to
    sets of element ids; it must cover all free variables.  ``phi`` is
    compiled on its first call into a function per node, which every later
    call reuses on any structure and bindings.  Defined sets are computed
    rather than searched, sets constrained by guarded clauses are decided
    by the treewidth DP, and set-free subformulas are evaluated once per
    binding of their free first-order variables (see ``_compile``); that
    memo lives in the call, and nothing but the compiled form outlives it.
    """
    fo, so = _prepare_env(structure, env)
    _check_bound(phi, fo, so)
    ev = _Evaluator(structure, fo, so, get_limits(limits))
    result = _compiled(phi)(ev)
    assert result is not None, "evaluation of a closed formula cannot stay undetermined"
    return result


# ---------------------------------------------------------------------------
# Reference evaluator
# ---------------------------------------------------------------------------


def _estimate_cost(phi: MsoFormula, usize: int) -> int:
    """Worst-case enumeration count: usize per first-order quantifier,
    2^usize per set quantifier, multiplied along the nesting."""
    subs = subformulas(phi)
    if not subs:
        return 1
    inner = sum(_estimate_cost(p, usize) for p in subs)
    if isinstance(phi, _FO_QUANTIFIERS):
        return 1 + max(1, usize) * inner
    if isinstance(phi, _SO_QUANTIFIERS):
        return 1 + (1 << usize) * inner
    return 1 + inner


def eval_mso_bruteforce(
    structure: RelationalStructure,
    phi: MsoFormula,
    env: Optional[Mapping[str, object]] = None,
    *,
    limits: Limits | None = None,
) -> bool:
    """Textbook evaluation by exhaustive enumeration (testing oracle).

    ``env`` is read as ``eval_mso`` reads it.  Refuses inputs whose
    estimated cost (universe^#FO-quantifiers times 2^(universe *
    #nested-SO-quantifiers)) exceeds the configured budget.
    """
    fo, members = _prepare_env(structure, env)
    so = {name: frozenset(e for e, v in m.items() if v) for name, m in members.items()}
    _check_bound(phi, fo, so)
    cost = _estimate_cost(phi, len(structure.universe))
    check(limits, "mso_brute_cost", cost, "reference MSO evaluator: estimated cost")
    return _brute(structure, phi, fo, so)


def _brute(s: RelationalStructure, phi: MsoFormula, fo: dict, so: dict) -> bool:
    if isinstance(phi, RelAtom):
        return tuple(fo[a] for a in phi.args) in s.tuples(phi.rel)
    if isinstance(phi, Eq):
        return fo[phi.left] == fo[phi.right]
    if isinstance(phi, SetAtom):
        return fo[phi.var] in so[phi.svar]
    if isinstance(phi, Truth):
        return phi.value
    if isinstance(phi, Not):
        return not _brute(s, phi.body, fo, so)
    if isinstance(phi, And):
        return all(_brute(s, p, fo, so) for p in phi.parts)
    if isinstance(phi, Or):
        return any(_brute(s, p, fo, so) for p in phi.parts)
    if isinstance(phi, Imp):
        return (not _brute(s, phi.left, fo, so)) or _brute(s, phi.right, fo, so)
    if isinstance(phi, Iff):
        return _brute(s, phi.left, fo, so) == _brute(s, phi.right, fo, so)
    if isinstance(phi, Xor):
        return _brute(s, phi.left, fo, so) != _brute(s, phi.right, fo, so)
    # a quantifier is any() or all() over its values, each bound in a copy
    # of the environment, so nothing needs restoring
    if isinstance(phi, (ExistsFO, ForallFO)):
        quantify = any if isinstance(phi, ExistsFO) else all
        return quantify(_brute(s, phi.body, {**fo, phi.var: e}, so) for e in s.universe)
    if isinstance(phi, (ExistsSO, ForallSO)):
        quantify = any if isinstance(phi, ExistsSO) else all
        subsets = (
            frozenset(c) for size in range(len(s.universe) + 1)
            for c in itertools.combinations(s.universe, size)
        )
        return quantify(_brute(s, phi.body, fo, {**so, phi.svar: c}) for c in subsets)
    raise TypeError(f"unknown node {phi!r}")  # pragma: no cover
