import copy
import gc
import pickle
import random
import sys

import pytest

from nmlkit import formula
from nmlkit.dl import DefaultRule
from nmlkit.errors import ParseError, ResourceLimitError
from nmlkit.formula import (
    DEFAULT_BASIS,
    App,
    Basis,
    Believes,
    Const,
    FALSE,
    TRUE,
    Var,
    atom_label,
    atoms,
    atoms_of_set,
    believes_subformulae,
    check_basis,
    evaluate,
    format_formula,
    implies_bruteforce,
    is_propositional,
    land,
    liff,
    limp,
    lnot,
    lor,
    lxor,
    lxor3,
    parse_formula,
    sat_bruteforce,
    subformulae,
)
from nmlkit.limits import Limits
from nmlkit.randgen import random_formula
from nmlkit.structures import build_ael_structure
from nmlkit.twdp import build_constraint_graph, dp_sat


def test_parse_and_not():
    f = parse_formula("p & !q")
    assert f == land(Var("p"), lnot(Var("q")))


def test_parse_belief_implication():
    f = parse_formula("L p -> p", mode="ae")
    assert f == limp(Believes(Var("p")), Var("p"))


def test_parse_incomplete_input():
    with pytest.raises(ParseError, match="end of input"):
        parse_formula("p &")


def test_parse_rejects_belief_in_prop_mode():
    with pytest.raises(ParseError, match="prop mode"):
        parse_formula("L p")


def test_parse_connective_outside_basis():
    with pytest.raises(ParseError, match="not in basis"):
        parse_formula("p ^ q", basis=Basis({"and", "or", "not"}))


_END = "syntax error at end of input"
_NOT_IN = "connective {!r} not in basis (at position {})"


@pytest.mark.parametrize(
    "text, mode, basis, message, position",
    [
        # input that ends where an operand is due
        ("", "prop", None, _END, None),
        ("p &", "prop", None, _END, None),
        ("p <->", "prop", None, _END, None),
        ("p -> ", "prop", None, _END, None),
        ("(", "prop", None, _END, None),
        ("!", "prop", None, _END, None),
        ("p & !", "prop", None, _END, None),
        ("L", "ae", None, _END, None),
        ("X3(a,", "prop", None, _END, None),
        ("X3(a, b,", "prop", None, _END, None),
        # a closing token that is missing, at end of input or against another
        ("(p", "prop", None, "expected ')' at end of input", None),
        ("(p q", "prop", None, "expected ')', got 'q' (at position 3)", 3),
        ("(p, q)", "prop", None, "expected ')', got ',' (at position 2)", 2),
        ("X3(a", "prop", None, "expected ',' at end of input", None),
        ("X3(a b", "prop", None, "expected ',', got 'b' (at position 5)", 5),
        ("X3(a, b)", "prop", None, "expected ',', got ')' (at position 7)", 7),
        ("X3(a, b, c", "prop", None, "expected ')' at end of input", None),
        ("X3(a, b, c, d)", "prop", None, "expected ')', got ',' (at position 10)", 10),
        ("X3", "prop", None, "expected '(' at end of input", None),
        ("X3 a", "prop", None, "expected '(', got 'a' (at position 3)", 3),
        # a token that cannot come where it is
        ("p q", "prop", None, "unexpected 'q' (at position 2)", 2),
        ("p )", "prop", None, "unexpected ')' (at position 2)", 2),
        ("p & )", "prop", None, "unexpected ')' (at position 4)", 4),
        ("&p", "prop", None, "unexpected '&' (at position 0)", 0),
        ("()", "prop", None, "unexpected ')' (at position 1)", 1),
        ("(p))", "prop", None, "unexpected ')' (at position 3)", 3),
        # the whole text is tokenized before it is parsed
        ("p $ q", "prop", None, "unexpected character '$' (at position 2)", 2),
        ("p & P", "prop", None, "unexpected character 'P' (at position 4)", 4),
        ("& $", "prop", None, "unexpected character '$' (at position 2)", 2),
        ("L p & q $", "ae", None, "unexpected character '$' (at position 8)", 8),
        # the belief operator in prop mode
        ("L p", "prop", None, "belief operator 'L' is not allowed in prop mode (at position 0)", 0),
        ("p | !L q", "prop", None, "belief operator 'L' is not allowed in prop mode (at position 5)", 5),
        # each connective outside the basis
        ("!p", "prop", {"and"}, _NOT_IN.format("not", 0), 0),
        ("p & q", "prop", {"or"}, _NOT_IN.format("and", 2), 2),
        ("p | q", "prop", {"and"}, _NOT_IN.format("or", 2), 2),
        ("p ^ q", "prop", {"and"}, _NOT_IN.format("xor", 2), 2),
        ("p -> q", "prop", {"and"}, _NOT_IN.format("imp", 2), 2),
        ("p <-> q", "prop", {"and"}, _NOT_IN.format("iff", 2), 2),
        ("T", "prop", {"and"}, _NOT_IN.format("true", 0), 0),
        ("F", "prop", {"and"}, _NOT_IN.format("false", 0), 0),
        ("X3(a, b, c)", "prop", {"and"}, _NOT_IN.format("xor3", 0), 0),
        # of several problems, the leftmost is named
        ("p -> q -> r", "prop", {"and"}, _NOT_IN.format("imp", 2), 2),
        ("p | T & !q", "prop", {"or"}, _NOT_IN.format("true", 4), 4),
        ("!T", "prop", {"and"}, _NOT_IN.format("not", 0), 0),
        ("X3(T, p, q)", "prop", {"and"}, _NOT_IN.format("xor3", 0), 0),
        ("(p -> q) & r", "prop", {"or"}, _NOT_IN.format("imp", 3), 3),
        ("p & X3(!a, b, c)", "prop", {"or"}, _NOT_IN.format("and", 2), 2),
        ("p | (q & !r)", "prop", {"and", "or"}, _NOT_IN.format("not", 9), 9),
        ("!L p", "prop", {"and"}, _NOT_IN.format("not", 0), 0),
        ("L !p", "prop", {"and"}, "belief operator 'L' is not allowed in prop mode (at position 0)", 0),
        # characters that start no token, among them T, F and L glued to an
        # identifier character
        ("Tx", "prop", None, "unexpected character 'T' (at position 0)", 0),
        ("F1", "prop", None, "unexpected character 'F' (at position 0)", 0),
        ("L_", "ae", None, "unexpected character 'L' (at position 0)", 0),
        ("LT", "ae", None, "unexpected character 'L' (at position 0)", 0),
        ("_p", "prop", None, "unexpected character '_' (at position 0)", 0),
        ("3p", "prop", None, "unexpected character '3' (at position 0)", 0),
        ("p <- q", "prop", None, "unexpected character '<' (at position 2)", 2),
        ("p - q", "prop", None, "unexpected character '-' (at position 2)", 2),
        ("p & \u00e9", "prop", None, "unexpected character '\u00e9' (at position 4)", 4),
    ],
)
def test_parse_error_messages_and_positions(text, mode, basis, message, position):
    with pytest.raises(ParseError) as raised:
        parse_formula(text, mode, DEFAULT_BASIS if basis is None else Basis(basis))
    assert str(raised.value) == message
    assert raised.value.position == position
    assert raised.value.line is None


@pytest.mark.parametrize(
    "text, tokens",
    [
        ("X3a", [("x3", "X3", 0), ("ident", "a", 2)]),
        ("T&F|L p", [("true", "T", 0), ("punct", "&", 1), ("false", "F", 2),
                     ("punct", "|", 3), ("bel", "L", 4), ("ident", "p", 6)]),
        ("x3 <->q_1->!r^(a,b)", [
            ("ident", "x3", 0), ("iff", "<->", 3), ("ident", "q_1", 6), ("imp", "->", 9),
            ("punct", "!", 11), ("ident", "r", 12), ("punct", "^", 13), ("punct", "(", 14),
            ("ident", "a", 15), ("punct", ",", 16), ("ident", "b", 17), ("punct", ")", 18),
        ]),
        # any Unicode whitespace separates tokens, and a comment runs to the
        # end of its line
        ("p\x1c& q", [("ident", "p", 0), ("punct", "&", 2), ("ident", "q", 4)]),
        ("p\xa0\u2003q", [("ident", "p", 0), ("ident", "q", 3)]),
        ("p\t&\nq", [("ident", "p", 0), ("punct", "&", 2), ("ident", "q", 4)]),
        ("p # note", [("ident", "p", 0)]),
        ("p # note\n& q", [("ident", "p", 0), ("punct", "&", 9), ("ident", "q", 11)]),
        ("", []),
    ],
)
def test_tokenize_golden(text, tokens):
    assert formula._tokenize(text) == tokens + [("end", "", len(text))]


def test_parse_precedence_and_associativity():
    # implication is right-associative, the others left-associative
    assert parse_formula("p -> q -> r") == limp(Var("p"), limp(Var("q"), Var("r")))
    assert parse_formula("p | q | r") == lor(lor(Var("p"), Var("q")), Var("r"))
    assert parse_formula("p & q | r") == lor(land(Var("p"), Var("q")), Var("r"))
    assert parse_formula("X3(p, q, r)") == lxor3(Var("p"), Var("q"), Var("r"))


def test_parse_comments_and_constants():
    assert parse_formula("T & p  # trailing comment\n") == land(TRUE, Var("p"))


def test_evaluate_contradiction():
    assert evaluate(land(Var("p"), lnot(Var("p"))), {"p": True}) is False


def test_evaluate_belief_atom_is_opaque():
    f = limp(Believes(Var("p")), Var("p"))
    assert evaluate(f, {Believes(Var("p")): False, "p": False}) is True


def test_evaluate_ternary_parity():
    f = lxor3(Var("x"), Var("y"), Var("z"))
    assert evaluate(f, {"x": True, "y": True, "z": False}) is False
    assert evaluate(f, {"x": True, "y": False, "z": False}) is True


def test_evaluate_missing_atom():
    with pytest.raises(ValueError, match="missing atom"):
        evaluate(Var("p"), {})


def test_sat_unsatisfiable():
    assert sat_bruteforce([land(Var("p"), lnot(Var("p")))]) is None


def test_sat_empty_set():
    assert sat_bruteforce([]) == {}


def test_sat_first_witness_order():
    # atoms sorted, False before True: p=False, q=True is the first witness
    witness = sat_bruteforce([lor(Var("p"), Var("q")), lnot(Var("p"))])
    assert witness == {"p": False, "q": True}


def test_sat_atom_cap():
    # negated atoms, so the very first (all-false) assignment is the witness
    formulas = [lnot(Var(f"x{i:02d}")) for i in range(25)]
    with pytest.raises(ResourceLimitError):
        sat_bruteforce(formulas)
    assert sat_bruteforce(formulas, limits=Limits(brute_atoms=25)) is not None


def test_implies_modus_ponens():
    assert implies_bruteforce([Var("p"), limp(Var("p"), Var("q"))], [Var("q")])


def test_implies_fails_on_disjunction():
    assert not implies_bruteforce([lor(Var("p"), Var("q"))], [Var("p")])


def test_implies_tautology_from_nothing():
    assert implies_bruteforce([], [lor(Var("p"), lnot(Var("p")))])


def test_subformulae_dedup():
    f = land(Var("p"), Var("p"))
    assert subformulae(f) == [Var("p"), f]


def test_subformulae_belief():
    f = limp(Believes(Var("p")), Var("p"))
    assert subformulae(f) == [Var("p"), Believes(Var("p")), f]
    assert believes_subformulae(f) == [Believes(Var("p"))]


def test_subformulae_parity():
    inner = lxor3(Var("x"), Var("y"), Var("z"))
    f = lnot(inner)
    assert subformulae(f) == [Var("x"), Var("y"), Var("z"), inner, f]


def test_subformulae_nested_belief():
    f = Believes(Believes(Var("p")))
    assert believes_subformulae(f) == [Believes(Var("p")), f]


def test_atoms_do_not_descend_into_belief():
    f = land(Believes(land(Var("p"), Var("q"))), Var("r"))
    assert atoms(f) == [Believes(land(Var("p"), Var("q"))), "r"]


def test_count_bound_by_node_count():
    f = land(Var("p"), land(Var("p"), Var("q")))
    assert len(subformulae(f)) <= 5


def test_print_parse_roundtrip_random():
    rng = random.Random(2024)
    for mode in ("prop", "ae"):
        for _ in range(300):
            f = random_formula(rng, ["p", "q", "r"], max_depth=4, allow_believes=mode == "ae")
            assert parse_formula(format_formula(f), mode=mode) is f


def test_implies_matches_sat_reduction():
    rng = random.Random(77)
    for _ in range(200):
        f = [random_formula(rng, ["a", "b", "c"], 3) for _ in range(rng.randint(1, 2))]
        g = [random_formula(rng, ["a", "b", "c"], 3) for _ in range(rng.randint(1, 2))]
        direct = implies_bruteforce(f, g)
        via_sat = all(sat_bruteforce(f + [lnot(x)]) is None for x in g)
        assert direct == via_sat


def test_basis_validation():
    with pytest.raises(ValueError):
        Basis(set())
    with pytest.raises(ValueError):
        Basis({"nand"})
    assert Basis({"not"}).with_negation() == Basis({"not"})
    assert "not" in Basis({"or"}).with_negation()


def test_app_arity_checked():
    with pytest.raises(ValueError):
        App("and", (Var("p"),))


def _node_classes(cls=formula.Node):
    for sub in cls.__subclasses__():
        yield sub
        yield from _node_classes(sub)


def test_nodes_hash_by_identity():
    # equal nodes are one object, so the identity hash is a valid hash: a
    # copy built apart is the node, and finds it in a dict and a set
    from nmlkit import mso
    from nmlkit.encodings import mso_encoding

    for seed in range(200):
        f = random_formula(random.Random(seed), ["p", "q", "r"], max_depth=4, allow_believes=True)
        g = random_formula(random.Random(seed), ["p", "q", "r"], max_depth=4, allow_believes=True)
        assert f is g
        table, members = {s: i for i, s in enumerate(subformulae(f))}, set(subformulae(f))
        for i, s in enumerate(subformulae(g)):
            assert table[s] == i and s in members
    a, b = mso_encoding("extension"), mso_encoding("extension")
    assert a is b and {a: 1}[b] == 1 and b in {a}
    classes = set(_node_classes())
    assert {Var, Const, App, Believes, mso.ExistsSO, mso.RelAtom} <= classes
    for cls in classes:
        assert cls.__hash__ is object.__hash__, cls
        assert "_hash" not in getattr(cls, "__slots__", ())


def _conjunct_chain(n):
    f = Var("x0")
    for i in range(1, n):
        f = land(f, Var(f"x{i}"))
    return f


def test_deep_formulas_compare_without_recursion():
    a, b = _conjunct_chain(2000), _conjunct_chain(2000)
    assert a is b and a == b and hash(a) == hash(b)
    assert a != land(_conjunct_chain(1999), Var("y"))
    assert a != _conjunct_chain(1999)
    x, y = Var("p"), Var("p")
    for _ in range(2000):
        x, y = Believes(lnot(x)), Believes(lnot(y))
    assert x == y and x != Believes(x)


def test_equality_is_structural():
    # deep copies rebuild through the constructors, so a copy is the node it
    # copies; repr spells out the whole tree
    rng = random.Random(32)
    pool = [
        random_formula(rng, ["p", "q"], max_depth=3, allow_believes=True) for _ in range(60)
    ]
    copies = [copy.deepcopy(f) for f in pool]
    for f in pool:
        for g in copies:
            assert (f == g) == (repr(f) == repr(g))


def _rebuilt(f):
    if isinstance(f, App):
        return App(f.op, tuple(_rebuilt(a) for a in f.args))
    if isinstance(f, Believes):
        return Believes(_rebuilt(f.arg))
    if isinstance(f, Var):
        return Var("".join(list(f.name)))  # an equal name, not the same str
    return Const(f.value)


def test_every_construction_path_yields_one_object_per_structure():
    rng = random.Random(33)
    for _ in range(300):
        f = random_formula(rng, ["p", "q", "r"], max_depth=4, allow_believes=True)
        copies = (
            _rebuilt(f),
            parse_formula(format_formula(f), "ae"),
            copy.copy(f),
            copy.deepcopy(f),
            pickle.loads(pickle.dumps(f)),
        )
        assert all(g is f for g in copies)
    p, q, r = Var("p"), Var("q"), Var("r")
    built = []
    for build, op, symbol in (
        (land, "and", "&"),
        (lor, "or", "|"),
        (limp, "imp", "->"),
        (liff, "iff", "<->"),
        (lxor, "xor", "^"),
    ):
        f = build(p, q)
        assert f is App(op, (p, q)) is parse_formula(f"p {symbol} q")
        assert (f.op, f.args) == (op, (p, q)) and f is not build(q, p)
        built.append(f)
    assert len({id(f) for f in built}) == len(built)
    assert lxor3(p, q, r) is App("xor3", (p, q, r)) is parse_formula("X3(p, q, r)")
    assert lnot(p) is App("not", (p,)) is parse_formula("!p")
    assert Believes(lnot(p)) is parse_formula("L !p", "ae") and Believes(p) is not p
    assert Const(1) is TRUE is parse_formula("T") and Const(0) is FALSE is parse_formula("F")
    with pytest.raises(ValueError):
        App("and", (p,))
    with pytest.raises(ValueError):
        App("nand", (p, q))


def test_the_table_keeps_no_formula_alive():
    gc.collect()
    before = len(formula._LIVE)
    f = Var("kept0")
    for i in range(1, 5001):
        f = land(f, Var(f"kept{i}"))
    assert len(formula._LIVE) == before + 10_001
    del f
    gc.collect()
    assert len(formula._LIVE) == before


# Recursive restatements of the walk-based functions, kept as the reference.


def _ref_subterms(roots, beliefs=True, seen=None):
    seen = {} if seen is None else seen

    def walk(node):
        if node in seen:
            return
        if isinstance(node, App):
            for a in node.args:
                walk(a)
        elif isinstance(node, Believes) and beliefs:
            walk(node.arg)
        seen[node] = len(seen) + 1

    for root in roots:
        walk(root)
    return seen


def _ref_atoms(f):
    found = {}

    def walk(node):
        if isinstance(node, Var):
            found.setdefault(node.name, None)
        elif isinstance(node, Believes):
            found.setdefault(node, None)
        elif isinstance(node, App):
            for a in node.args:
                walk(a)

    walk(f)
    return list(found)


def _ref_is_propositional(f):
    if isinstance(f, Believes):
        return False
    return not isinstance(f, App) or all(_ref_is_propositional(a) for a in f.args)


def _connective(s):
    if isinstance(s, App):
        return s.op
    if isinstance(s, Const):
        return "true" if s.value else "false"
    return None


def test_walk_matches_recursive_reference():
    rng = random.Random(7)
    bases = [
        DEFAULT_BASIS,
        Basis({"and", "not"}),
        Basis({"or", "imp", "true"}),
        Basis({"xor3", "iff", "not", "false"}),
    ]
    for _ in range(2000):
        roots = [
            random_formula(rng, ["p", "q", "r"], max_depth=4, allow_believes=True)
            for _ in range(rng.randint(1, 3))
        ]
        ref = _ref_subterms(roots)
        assert subformulae(roots) == list(ref)
        assert believes_subformulae(roots) == [s for s in ref if isinstance(s, Believes)]
        opaque = _ref_subterms(roots, beliefs=False)
        assert list(build_constraint_graph(roots).vertex_of.items()) == list(opaque.items())
        _ref_subterms([lnot(s) for s in ref if isinstance(s, Believes)], seen=ref)
        elements = build_ael_structure(roots).formula_elements
        assert list(elements.items()) == list(ref.items())
        union = dict.fromkeys(a for f in roots for a in _ref_atoms(f))
        assert atoms_of_set(roots) == sorted(union, key=atom_label)
        for f in roots:
            assert atoms(f) == _ref_atoms(f)
            assert is_propositional(f) == _ref_is_propositional(f)
            basis = rng.choice(bases)
            names = [_connective(s) for s in _ref_subterms([f])]
            outside = [n for n in names if n is not None and n not in basis]
            if outside:
                with pytest.raises(ValueError, match=repr(outside[0])):
                    check_basis(f, basis)
            else:
                check_basis(f, basis)


def test_parse_reads_connectives_outside_the_basis_left_to_right():
    with pytest.raises(ParseError, match=r"'imp' not in basis \(at position 2\)"):
        parse_formula("p -> q -> r", basis=Basis({"and"}))


def test_deep_and_wide_inputs_take_no_recursion():
    n = 10_000
    deep = Var("x")
    for _ in range(n):
        deep = lnot(deep)
    wide = Var("x0")
    for i in range(1, n):
        wide = land(wide, Var(f"x{i}"))
    arrows = Var(f"x{n}")
    for i in reversed(range(n)):
        arrows = limp(Var(f"x{i}"), arrows)
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        assert parse_formula("!" * n + "x") == deep
        assert parse_formula(" & ".join(f"x{i}" for i in range(n))) == wide
        assert parse_formula(" -> ".join(f"x{i}" for i in range(n + 1))) == arrows
        for f, size, names in ((deep, n + 1, ["x"]), (wide, 2 * n - 1, [f"x{i}" for i in range(n)])):
            assert len(subformulae(f)) == size
            assert atoms(f) == names
            assert is_propositional(f)
            check_basis(f, DEFAULT_BASIS)
            assert build_constraint_graph([f]).graph.n == size
            assert dp_sat([f])
        DefaultRule(deep, wide, deep)
        assert not dp_sat([wide, lnot(Var("x0"))])
        assert sys.getrecursionlimit() == 1000
    finally:
        sys.setrecursionlimit(saved)


def test_share_subterms_makes_equal_subterms_one_object():
    roots = [parse_formula("(L (p & q) | (p & q)) -> L L (p & q)", "ae"), parse_formula("p & q")]
    one: dict = {}
    stack = list(roots)
    while stack:
        f = stack.pop()
        assert one.setdefault(f, f) is f
        stack.extend(f.args if isinstance(f, App) else [f.arg] if isinstance(f, Believes) else [])
    assert len(one) == len(subformulae(roots))
