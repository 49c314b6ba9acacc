import copy
import pickle
import random
import sys

import pytest

from nmlkit.errors import ResourceLimitError
from nmlkit.limits import Limits
from nmlkit.mso import (
    And,
    Eq,
    ExistsFO,
    ExistsSO,
    ForallFO,
    ForallSO,
    Iff,
    Imp,
    Not,
    Or,
    RelAtom,
    SetAtom,
    Truth,
    Xor,
    eval_mso,
    eval_mso_bruteforce,
    free_vars,
    to_text,
)
from nmlkit.structures import RelationalStructure, Vocabulary


def tiny_structure(n=2, eds=((1, 2),)):
    rels = {"E": frozenset(eds), "U": frozenset({(1,)})}
    vocab = Vocabulary((("E", 2), ("U", 1)))
    return RelationalStructure(vocab, tuple(range(1, n + 1)), rels)


def test_full_set_witness():
    s = tiny_structure()
    phi = ExistsSO("M", ForallFO("x", SetAtom("M", "x")))
    assert eval_mso(s, phi) is True
    assert eval_mso_bruteforce(s, phi) is True


def test_relational_atoms_and_env():
    s = tiny_structure()
    assert eval_mso(s, RelAtom("E", ("x", "y")), {"x": 1, "y": 2}) is True
    assert eval_mso(s, RelAtom("E", ("x", "y")), {"x": 2, "y": 1}) is False
    assert eval_mso(s, SetAtom("M", "x"), {"x": 1, "M": {1}}) is True
    # relations absent from the structure read as empty
    assert eval_mso(s, RelAtom("missing", ("x",)), {"x": 1}) is False


def test_unbound_variable_rejected():
    s = tiny_structure()
    with pytest.raises(ValueError, match="unbound"):
        eval_mso(s, RelAtom("E", ("x", "y")), {"x": 1})


def test_quantifier_nesting():
    s = tiny_structure(3, ((1, 2), (2, 3)))
    connected_out = ForallFO(
        "x", Imp(RelAtom("U", ("x",)), ExistsFO("y", RelAtom("E", ("x", "y"))))
    )
    assert eval_mso(s, connected_out) is True
    everything_has_successor = ForallFO("x", ExistsFO("y", RelAtom("E", ("x", "y"))))
    assert eval_mso(s, everything_has_successor) is False


def test_shadowed_variables_evaluate_correctly():
    s = tiny_structure(3, ((1, 2), (2, 3)))
    # the inner forall x shadows the outer one
    phi = ExistsFO(
        "x",
        And(
            (
                RelAtom("U", ("x",)),
                ForallFO("x", Imp(RelAtom("E", ("x", "x")), Truth(False))),
            )
        ),
    )
    assert eval_mso(s, phi) is eval_mso_bruteforce(s, phi) is True


@pytest.mark.parametrize(
    "phi, expected",
    [
        (ExistsSO("M", ForallFO("x", SetAtom("M", "x"))), True),
        (ForallSO("M", ExistsFO("x", Not(SetAtom("M", "x")))), False),
    ],
    ids=["exists-full-set", "forall-some-nonmember"],
)
def test_deep_membership_branching_keeps_the_recursion_limit(phi, expected):
    # The search branches on all 400 memberships in turn, one level each,
    # deeper than the lowered limit would allow if every level took a frame.
    s = tiny_structure(n=400, eds=())
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(300)
    try:
        assert eval_mso(s, phi) is expected
        assert sys.getrecursionlimit() == 300
    finally:
        sys.setrecursionlimit(saved)


def test_step_budget_exceeded_fo():
    s = tiny_structure(12, ())
    payload = Or((RelAtom("E", ("x", "y")), Not(RelAtom("E", ("y", "z")))))
    phi = ForallFO("x", ForallFO("y", ForallFO("z", payload)))
    with pytest.raises(ResourceLimitError, match="budget"):
        eval_mso(s, phi, limits=Limits(mso_steps=60))


def test_step_budget_names_dominating_set_variable():
    s = tiny_structure(8, ())
    # exclusivity forces branching over both sets before the contradiction
    # with the 'both' conjunct surfaces, burning exponentially many steps
    exclusive = ForallFO("x", Iff(SetAtom("M", "x"), Not(SetAtom("N", "x"))))
    both = ForallFO(
        "x", Imp(RelAtom("U", ("x",)), And((SetAtom("M", "x"), SetAtom("N", "x"))))
    )
    phi = ExistsSO("M", ExistsSO("N", And((exclusive, both))))
    with pytest.raises(ResourceLimitError, match="dominating quantifier"):
        eval_mso(s, phi, limits=Limits(mso_steps=2000))


def test_bruteforce_cost_estimate_rejects():
    s = tiny_structure(14, ())
    phi = ExistsSO("A", ExistsSO("B", ForallFO("x", Truth(True))))
    with pytest.raises(ResourceLimitError, match="estimated"):
        eval_mso_bruteforce(s, phi, limits=Limits(mso_brute_cost=1000))


def test_serialization_golden():
    phi = ExistsSO(
        "M",
        And(
            (
                ForallFO("x", Imp(RelAtom("repr", ("x",)), SetAtom("M", "x"))),
                ExistsFO("y", And((Not(Eq("x", "y")), RelAtom("conn_or_1", ("y", "x"))))),
            )
        ),
    )
    assert to_text(phi) == (
        "(E M. ((A x. (repr(x) -> x in M)) & (E y. (~(x = y) & conn_or_1(y, x)))))"
    )


def test_free_vars():
    phi = ForallFO("x", Imp(SetAtom("M", "x"), RelAtom("E", ("x", "y"))))
    fo, so = free_vars(phi)
    assert fo == {"y"} and so == {"M"}


def test_free_vars_cache_stays_bounded():
    # every call builds the encoding anew, and the cache keeps what it holds alive
    from nmlkit.encodings import mso_encoding
    from nmlkit.families import chain
    from nmlkit.structures import build_prop_structure

    s = build_prop_structure(chain(3))
    for _ in range(200):
        assert eval_mso(s, mso_encoding("sat"))
    info = free_vars.cache_info()
    assert 0 < info.currsize <= info.maxsize == 4096


# ---------------------------------------------------------------------------
# Engine vs brute-force evaluator: randomized equivalence
# ---------------------------------------------------------------------------


def random_structure(rng, n):
    rels = {}
    for name, ar in (("U", 1), ("R", 2), ("S", 2)):
        rels[name] = frozenset(
            tuple(rng.randint(1, n) for _ in range(ar))
            for _ in range(rng.randint(0, 2 * n))
        )
    vocab = Vocabulary((("U", 1), ("R", 2), ("S", 2)))
    return RelationalStructure(vocab, tuple(range(1, n + 1)), rels)


def random_mso(rng, depth, fo, so):
    if depth <= 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.3 and fo:
            return RelAtom("U", (rng.choice(fo),))
        if roll < 0.55 and fo:
            return RelAtom(rng.choice(["R", "S"]), (rng.choice(fo), rng.choice(fo)))
        if roll < 0.8 and fo and so:
            return SetAtom(rng.choice(so), rng.choice(fo))
        if len(fo) >= 2:
            return Eq(rng.choice(fo), rng.choice(fo))
        return Truth(rng.random() < 0.5)
    roll = rng.random()
    if roll < 0.14:
        return Not(random_mso(rng, depth - 1, fo, so))
    if roll < 0.3:
        return And((random_mso(rng, depth - 1, fo, so), random_mso(rng, depth - 1, fo, so)))
    if roll < 0.42:
        return Or((random_mso(rng, depth - 1, fo, so), random_mso(rng, depth - 1, fo, so)))
    if roll < 0.52:
        return Imp(random_mso(rng, depth - 1, fo, so), random_mso(rng, depth - 1, fo, so))
    if roll < 0.58:
        return Iff(random_mso(rng, depth - 1, fo, so), random_mso(rng, depth - 1, fo, so))
    if roll < 0.72:
        v = f"v{len(fo)}"
        cls = ExistsFO if rng.random() < 0.5 else ForallFO
        return cls(v, random_mso(rng, depth - 1, fo + [v], so))
    v = f"V{len(so)}"
    cls = ExistsSO if rng.random() < 0.5 else ForallSO
    return cls(v, random_mso(rng, depth - 1, fo, so + [v]))


def test_engine_matches_bruteforce_on_random_instances():
    rng = random.Random(424242)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        s = random_structure(rng, n)
        phi = random_mso(rng, rng.randint(2, 5), [], [])
        fo_free, so_free = free_vars(phi)
        env = {v: rng.randint(1, n) for v in fo_free}
        env.update(
            {
                V: frozenset(e for e in range(1, n + 1) if rng.random() < 0.5)
                for V in so_free
            }
        )
        try:
            expected = eval_mso_bruteforce(s, phi, env)
        except ResourceLimitError:
            continue
        assert eval_mso(s, phi, env) == expected, to_text(phi)
        checked += 1
    assert checked > 300


def random_shaped_mso(rng, depth, fo, so):
    """Shapes ``random_mso`` never builds: Xor, three-part And/Or, blocks of
    two same-kind quantifiers whose guard may bind no variable through a
    relation, and atoms that repeat a variable."""
    if depth <= 0 or rng.random() < 0.2:
        if not fo:
            return Truth(rng.random() < 0.5)
        v, w = rng.choice(fo), rng.choice(fo)
        roll = rng.random()
        if roll < 0.25:
            return RelAtom(rng.choice(["R", "S"]), (v, v))
        if roll < 0.45:
            return RelAtom(rng.choice(["R", "S"]), (v, w))
        if roll < 0.55:
            return RelAtom("U", (v,))
        if roll < 0.85 and so:
            return SetAtom(rng.choice(so), v)
        return Eq(v, w)

    def sub(fo=fo):
        return random_shaped_mso(rng, depth - 1, fo, so)

    roll = rng.random()
    if roll < 0.15:
        return Xor(sub(), sub())
    if roll < 0.3:
        return And((sub(), sub(), sub()))
    if roll < 0.45:
        return Or((sub(), sub(), sub()))
    if roll < 0.5:
        return Not(sub())
    if roll < 0.85:
        a, b = f"v{len(fo)}", f"v{len(fo) + 1}"
        guards = [Eq(a, b), Not(RelAtom("S", (a, b))), RelAtom("R", (a, a))]
        guards += [SetAtom(V, a) for V in so]
        guards += [RelAtom("R", (b, u)) for u in fo]
        guard = And(tuple(rng.sample(guards, rng.randint(1, 2))))
        body = sub(fo + [a, b])
        if rng.random() < 0.5:
            return ExistsFO(a, ExistsFO(b, And((guard, body))))
        return ForallFO(a, ForallFO(b, Imp(guard, body)))
    V = f"V{len(so)}"
    cls = ExistsSO if rng.random() < 0.5 else ForallSO
    return cls(V, random_shaped_mso(rng, depth - 1, fo, so + [V]))


def test_engine_matches_bruteforce_on_unusual_shapes():
    rng = random.Random(737373)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        s = random_structure(rng, n)
        cls = ExistsSO if rng.random() < 0.5 else ForallSO
        phi = cls("V0", random_shaped_mso(rng, rng.randint(2, 4), [], ["V0"]))
        try:
            expected = eval_mso_bruteforce(s, phi)
        except ResourceLimitError:
            continue
        assert eval_mso(s, phi) == expected, to_text(phi)
        checked += 1
    assert checked >= 300


def test_nothing_outlives_a_call():
    import gc
    import weakref

    from nmlkit.encodings import mso_encoding
    from nmlkit.families import gen_dl_lower
    from nmlkit.structures import build_dl_structure

    s = build_dl_structure(gen_dl_lower(2))
    ref = weakref.ref(s)
    assert eval_mso(s, mso_encoding("extension"))
    del s
    gc.collect()
    assert ref() is None


def test_compiled_sentence_is_reused_soundly():
    # each open sentence is compiled on its first call; the next two run the
    # same compiled form on other structures under other bindings
    rng = random.Random(515151)
    checked = 0
    for _ in range(150):
        phi = random_mso(rng, rng.randint(2, 5), ["v0"], ["V0"])
        for _ in range(3):
            n = rng.randint(1, 5)
            s = random_structure(rng, n)
            env = {
                "v0": rng.randint(1, n),
                "V0": frozenset(e for e in range(1, n + 1) if rng.random() < 0.5),
            }
            try:
                expected = eval_mso_bruteforce(s, phi, env)
            except ResourceLimitError:
                continue
            assert eval_mso(s, phi, env) == expected, to_text(phi)
            checked += 1
    assert checked > 300


def test_binder_reusing_a_free_name_keeps_the_free_binding():
    s = tiny_structure(3, ((1, 2),))
    phi = And(
        (
            ExistsFO("x", RelAtom("E", ("x", "y"))),
            RelAtom("U", ("x",)),
            ExistsSO("M", SetAtom("M", "y")),
            SetAtom("M", "x"),
        )
    )
    env = {"x": 1, "y": 2, "M": {1}}
    assert eval_mso(s, phi, env) is eval_mso_bruteforce(s, phi, env) is True


def test_block_with_an_unknown_candidate_names_its_membership():
    # x = 1 needs 1 in V0; x = 2 is then decided by a search over V1, which
    # must not leave the block's unknown naming V1 once that search ends
    s = tiny_structure(2, ())
    member = And((RelAtom("U", ("x",)), SetAtom("V0", "x")))
    phi = ExistsSO("V0", ForallFO("x", Or((member, ExistsSO("V1", SetAtom("V1", "x"))))))
    assert eval_mso(s, phi) is eval_mso_bruteforce(s, phi) is True


def test_sentence_is_compiled_once(monkeypatch):
    from nmlkit import mso
    from nmlkit.encodings import mso_encoding
    from nmlkit.families import chain
    from nmlkit.structures import build_prop_structure

    calls = dict.fromkeys(("_make_plan", "_miniscope"), 0)
    for name in calls:

        def counted(phi, _original=getattr(mso, name), _name=name):
            calls[_name] += 1
            return _original(phi)

        monkeypatch.setattr(mso, name, counted)
    mso._compiled.cache_clear()
    phi = mso_encoding("sat")
    after = []
    for m in range(1, 6):
        assert eval_mso(build_prop_structure(chain(m)), phi)
        after.append(dict(calls))
    assert after[0]["_make_plan"] > 0 and after[0]["_miniscope"] > 0
    assert after[-1] == after[0]


def test_sentence_hash_is_computed_once():
    # hashing a node reads the hash its constructor stored, so a sentence
    # far deeper than the recursion limit hashes at once; equal sentences
    # built apart are one node, which a dict finds
    def deep():
        phi = SetAtom("X", "x")
        for i in range(3 * sys.getrecursionlimit()):
            phi = Not(phi) if i % 2 else And((phi, RelAtom("U", ("x",))))
        return ExistsSO("X", ForallFO("x", phi))

    a, b = deep(), deep()
    assert a is b and hash(a) == hash(b)
    assert {Imp(Truth(True), Eq("x", "y")): 1}[Imp(Truth(True), Eq("x", "y"))] == 1


def test_deep_sentences_compare_without_recursion():
    # equal nodes are one object, so Not chains three times the default
    # recursion limit deep compare at once, and a dict finds one by an equal
    # copy built apart
    def chain(leaf):
        phi = leaf
        for _ in range(3000):
            phi = Not(phi)
        return phi

    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # a fresh interpreter's
    try:
        a, b = chain(RelAtom("E", ("x", "y"))), chain(RelAtom("E", ("x", "y")))
        c = chain(RelAtom("E", ("y", "x")))
        assert a is b and a == b and not a != b
        assert a != c and not a == c
        assert {a: 1}[b] == 1
    finally:
        sys.setrecursionlimit(saved)


def test_every_way_of_building_a_node_returns_the_live_node():
    from nmlkit import formula, mso
    from nmlkit.encodings import mso_encoding

    sentence = mso._standardize(mso_encoding("extension"))  # bound names apart
    nodes, stack = [], [sentence]
    while stack:
        nodes.append(stack.pop())
        stack.extend(mso.subformulas(nodes[-1]))
    for node in nodes:
        assert formula._LIVE[(type(node), *map(node.__getattribute__, node._fields))] is node
        assert type(node)(*map(node.__getattribute__, node._fields)) is node
        assert mso.with_subformulas(node, mso.subformulas(node)) is node
    assert mso._standardize(sentence) is sentence
    assert mso.rename_set(sentence, "S", "S") is sentence
    assert mso.rename_set(sentence, "Unused", "Other") is sentence  # rebuilt throughout
    for rebuilt in (copy.copy, copy.deepcopy, lambda n: pickle.loads(pickle.dumps(n))):
        assert rebuilt(sentence) is sentence
    assert Truth(1) is mso.TOP and Not(Truth(False)).body is mso.BOTTOM
    with pytest.raises(TypeError):
        Eq("x")


def test_nodes_are_immutable():
    from nmlkit.formula import App, Var

    for node in (RelAtom("E", ("x", "y")), ExistsSO("X", SetAtom("X", "x")),
                 Var("p"), App("and", (Var("p"), Var("q")))):
        before = repr(node)
        for name in node._fields + ("_hash", "extra"):
            with pytest.raises(AttributeError):
                setattr(node, name, None)
            with pytest.raises(AttributeError):
                delattr(node, name)
        assert repr(node) == before
    assert repr(RelAtom("E", ("x", "y"))) == "RelAtom(rel='E', args=('x', 'y'))"
    assert repr(Var("p")) == "Var(name='p')"


@pytest.mark.parametrize(
    "env",
    [{"x": 9, "X": {1}}, {"x": 1, "X": "ab"}, {"x": True, "X": {1}}],
    ids=["outside-universe", "string-as-set", "bool-as-element"],
)
def test_both_evaluators_refuse_a_bad_binding_alike(env):
    s = tiny_structure()
    phi = And((Eq("x", "x"), ExistsFO("y", SetAtom("X", "y"))))
    with pytest.raises(ValueError) as engine:
        eval_mso(s, phi, env)
    with pytest.raises(ValueError) as reference:
        eval_mso_bruteforce(s, phi, env)
    assert str(engine.value) == str(reference.value)


def test_isomorphism_invariance():
    from nmlkit.encodings import satisfiability
    from nmlkit.formula import Basis
    from nmlkit.randgen import random_formula_set
    from nmlkit.structures import build_prop_structure

    rng = random.Random(31)
    phi = satisfiability(Basis())
    for _ in range(10):
        gamma = random_formula_set(rng, max_subformulae=7)
        st = build_prop_structure(gamma)
        base = eval_mso(st, phi)
        perm = list(st.universe)
        rng.shuffle(perm)
        mapping = dict(zip(st.universe, perm))
        relabeled = RelationalStructure(
            st.vocabulary,
            st.universe,
            {
                name: frozenset(tuple(mapping[x] for x in t) for t in tups)
                for name, tups in st.relations.items()
            },
        )
        assert eval_mso(relabeled, phi) == base


# ---------------------------------------------------------------------------
# Defined sets and the memo of set-free subformulas
# ---------------------------------------------------------------------------


def _count_compiled(monkeypatch, name):
    """Clear the compiled forms and count calls of ``mso.<name>``."""
    from nmlkit import mso

    calls = [0]

    def counted(*args, _original=getattr(mso, name)):
        calls[0] += 1
        return _original(*args)

    monkeypatch.setattr(mso, name, counted)
    mso._compiled.cache_clear()
    return calls


def random_definitional_mso(rng, guarded=False):
    """``QS V0. Q u. exists D (... & forall x (x in D <-> psi) & ...)``, the
    definition in either orientation, ``psi`` over ``x``, the enclosing
    ``u`` and the enclosing set ``V0``, the other conjuncts over ``D``.
    ``guarded`` makes ``psi`` an existential block with a relation atom over
    ``x`` among its conjuncts."""
    if guarded:
        atom = RelAtom(rng.choice(["R", "S"]), tuple(rng.choice(["x", "u", "y"]) for _ in range(2)))
        if "x" not in atom.args:
            atom = RelAtom("U", ("x",))
        parts = [atom, random_mso(rng, rng.randint(0, 2), ["x", "u", "y"], ["V0"])]
        rng.shuffle(parts)
        psi = ExistsFO("y", And(tuple(parts)))
    else:
        psi = random_mso(rng, rng.randint(1, 3), ["x", "u"], ["V0"])
    member = SetAtom("D", "x")
    definition = ForallFO("x", Iff(member, psi) if rng.random() < 0.5 else Iff(psi, member))
    parts = [definition] + [random_mso(rng, rng.randint(1, 3), ["u"], ["V0", "D"])
                            for _ in range(rng.randint(0, 2))]
    rng.shuffle(parts)
    body = ExistsSO("D", And(tuple(parts)) if len(parts) > 1 else parts[0])
    body = (ExistsFO if rng.random() < 0.5 else ForallFO)("u", body)
    return (ExistsSO if rng.random() < 0.5 else ForallSO)("V0", body)


def test_defined_sets_match_bruteforce(monkeypatch):
    defined = _count_compiled(monkeypatch, "_defined_set")
    rng = random.Random(181818)
    for guarded in (False, True):
        checked = defined[0] = 0
        for _ in range(400):
            n = rng.randint(1, 4)
            s = random_structure(rng, n)
            phi = random_definitional_mso(rng, guarded)
            try:
                expected = eval_mso_bruteforce(s, phi)
            except ResourceLimitError:
                continue
            assert eval_mso(s, phi) == expected, to_text(phi)
            checked += 1
        assert checked >= 300
        assert defined[0] >= 300  # D is computed, not searched, unless simplified away


def test_defined_set_reads_an_undetermined_enclosing_set():
    # D copies V0, so under the search for V0 each element of D waits on a
    # membership of V0; D is full only when V0 = {1, 2}
    s = tiny_structure(2, ())
    copy = ForallFO("x", Iff(SetAtom("V0", "x"), SetAtom("D", "x")))
    full = ExistsSO("D", And((copy, ForallFO("y", SetAtom("D", "y")))))
    phi = ExistsSO("V0", full)
    assert eval_mso(s, phi) is eval_mso_bruteforce(s, phi) is True
    refuted = ForallSO("V0", full)
    assert eval_mso(s, refuted) is eval_mso_bruteforce(s, refuted) is False
    # a set that its own condition reads is searched, not computed
    liar = ExistsSO("D", ForallFO("x", Iff(SetAtom("D", "x"), Not(SetAtom("D", "x")))))
    assert eval_mso(s, liar) is eval_mso_bruteforce(s, liar) is False


def random_set_free_mso(rng):
    """``Q u. (QS W. psi) <op> chi``: ``psi`` over ``u``, the env-bound
    ``e`` and ``W``, so ``QS W. psi`` has no free set; ``chi`` reads the
    env-bound set ``E``."""
    inner = (ExistsSO if rng.random() < 0.5 else ForallSO)(
        "W", random_mso(rng, rng.randint(1, 3), ["u", "e"], ["W"]))
    chi = random_mso(rng, rng.randint(1, 2), ["u", "e"], ["E"])
    op = rng.choice([lambda a, b: And((a, b)), lambda a, b: Or((a, b)), Imp, Iff])
    body = op(inner, chi) if rng.random() < 0.5 else op(chi, inner)
    return (ExistsFO if rng.random() < 0.5 else ForallFO)("u", body)


def test_set_free_subformulas_match_bruteforce(monkeypatch):
    memoized = _count_compiled(monkeypatch, "_memoized")
    rng = random.Random(272727)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 4)
        s = random_structure(rng, n)
        phi = random_set_free_mso(rng)
        env = {"e": rng.randint(1, n), "E": {e for e in range(1, n + 1) if rng.random() < 0.5}}
        try:
            expected = eval_mso_bruteforce(s, phi, env)
        except ResourceLimitError:
            continue
        assert eval_mso(s, phi, env) == expected, to_text(phi)
        checked += 1
    assert checked >= 300
    assert memoized[0] >= 300


def test_memo_does_not_leak_across_calls():
    # one compiled sentence on two structures back to back, each set-free
    # part decided afresh: U is empty on the second structure
    in_u = ForallFO("x", Iff(SetAtom("D", "x"), RelAtom("U", ("x",))))
    nonempty_u = ExistsSO("D", And((in_u, ExistsFO("y", SetAtom("D", "y")))))
    per_element = ForallFO("u", Imp(RelAtom("U", ("u",)), ExistsSO("W", SetAtom("W", "u"))))
    within_u = ForallFO("x", Imp(SetAtom("W", "x"), RelAtom("U", ("x",))))
    reach = ExistsSO("W", And((SetAtom("W", "e"), within_u)))
    full = tiny_structure(2, ((1, 2),))
    empty = RelationalStructure(full.vocabulary, full.universe, {"E": frozenset()})
    for s, expected in ((full, True), (empty, False), (full, True)):
        assert eval_mso(s, nonempty_u) is expected
        assert eval_mso(s, per_element) is True
        assert eval_mso(s, reach, {"e": 1}) is expected
        assert eval_mso(s, reach, {"e": 2}) is False


def test_extension_on_the_printed_lower_family_is_polynomial_in_steps(monkeypatch):
    # a counter gate, not a timing one: the printed lower-bound theories are
    # decided within the default step budget up to n = 8, in at most
    # 1.5 |U|^3 steps each (about 0.65 |U|^3 at n = 8); branching on every
    # conclusion set took 6.6 |U|^3 steps at n = 3 and 30 |U|^3 at n = 7
    from nmlkit import mso
    from nmlkit.encodings import mso_encoding
    from nmlkit.families import gen_dl_lower
    from nmlkit.structures import build_dl_structure

    evaluators = []
    original = mso._Evaluator.__init__

    def recorded(self, *args):
        original(self, *args)
        evaluators.append(self)

    monkeypatch.setattr(mso._Evaluator, "__init__", recorded)
    phi = mso_encoding("extension")
    for n in range(3, 9):
        s = build_dl_structure(gen_dl_lower(n, "printed"))
        assert eval_mso(s, phi) is True
        u = len(s.universe)
        steps = evaluators[-1].steps
        assert steps <= 1.5 * u ** 3 <= Limits().mso_steps, (n, steps)


def test_defined_set_runs_psi_only_where_its_guard_holds(monkeypatch):
    # the extension sentence defines its conclusion set by
    # psi = exists y (y in G & concl(x, y)), False wherever concl has no
    # tuple with x first: psi runs only at the other elements, in fewer
    # steps than at every element, with the verdicts of the stage search
    # over the brute-force entailment oracle
    from nmlkit import mso
    from nmlkit.dl import extension_exists
    from nmlkit.encodings import mso_encoding
    from nmlkit.families import gen_dl_lower
    from nmlkit.randgen import random_literal_default_theory
    from nmlkit.structures import build_dl_structure
    from nmlkit.twdp import EntailmentOracle

    evaluators = []
    original = mso._Evaluator.__init__

    def recorded(self, *args):
        original(self, *args)
        evaluators.append(self)

    monkeypatch.setattr(mso._Evaluator, "__init__", recorded)
    rng = random.Random(29)
    theories = [gen_dl_lower(n, "printed") for n in range(3, 7)]
    theories += [random_literal_default_theory(rng) for _ in range(60)]
    structures = [build_dl_structure(th) for th in theories]
    phi = mso_encoding("extension")
    runs = []
    for th, s in zip(theories, structures):
        verdict = eval_mso(s, phi)
        assert verdict == extension_exists(th, EntailmentOracle("brute"))[0], th
        runs.append((verdict, evaluators[-1].steps))
    monkeypatch.setattr(mso, "_guard_of", lambda var, psi: None)
    mso._compiled.cache_clear()
    fewer = []
    for s, (verdict, steps) in zip(structures, runs):
        assert eval_mso(s, phi) == verdict
        assert steps <= evaluators[-1].steps
        fewer.append(steps < evaluators[-1].steps)
    assert all(fewer[:4]) and sum(fewer) >= 40, fewer
    mso._compiled.cache_clear()


# ---------------------------------------------------------------------------
# Set quantifiers decided by the treewidth DP
# ---------------------------------------------------------------------------


def random_membership_formula(rng, vs):
    """A quantifier-free formula over memberships of ``M`` at ``vs``, with
    unary atoms and constants among its leaves."""

    def sub(depth):
        if depth == 0 or rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.7:
                return SetAtom("M", rng.choice(vs))
            if roll < 0.85:
                return RelAtom("U", (rng.choice(vs),))
            return Truth(rng.random() < 0.5)
        op = rng.choice([Not, And, Or, Iff, Xor, Imp])
        if op is Not:
            return Not(sub(depth - 1))
        if op in (And, Or):
            return op((sub(depth - 1), sub(depth - 1)))
        return op(sub(depth - 1), sub(depth - 1))

    return sub(2)


def random_guarded_mso(rng):
    """``QS V0. Q u. Q w. QS M. body``: for ``exists M`` the body is a
    conjunction of parts, for ``forall M`` it is ``parts -> goal``.  The
    parts are static clauses on ``M`` (unary, binary, unguarded), dynamic
    ones (a guard reading ``V0``, instances at ``u``, one or two binary
    instances at ``u`` and ``w``), existential ones (hoisted when alone),
    an ``M``-free condition, a clause whose ``psi`` decides another set by
    the DP at each instance, and a part just outside the fragment (an
    ``M``-atom under a quantifier of ``psi``)."""
    m = lambda *vs: random_membership_formula(rng, list(vs))  # noqa: E731
    shapes = {
        "unary": lambda: ForallFO("x", Imp(RelAtom("U", ("x",)), m("x"))),
        "binary": lambda: ForallFO("x", ForallFO("y", Imp(RelAtom("R", ("x", "y")), m("x", "y")))),
        "unguarded": lambda: ForallFO("x", m("x")),
        "set-guard": lambda: ForallFO(
            "x", Imp(Or((RelAtom("S", ("x", "x")), SetAtom("V0", "x"))), m("x"))),
        "at-u": lambda: ForallFO("x", Imp(RelAtom("R", ("u", "x")), m("x", "u"))),
        "pair": lambda: m("u", "w"),
        "negation": lambda: Iff(SetAtom("M", "u"), Not(SetAtom("M", "w"))),
        "exists": lambda: ExistsFO("z", And((RelAtom("S", ("z", "u")), m("z")))),
        "not-forall": lambda: Not(ForallFO("z", Imp(RelAtom("U", ("z",)), SetAtom("M", "z")))),
        "condition": lambda: ExistsFO("x", And((RelAtom("U", ("x",)), SetAtom("V0", "x")))),
        "nested": lambda: ForallFO("x", Imp(RelAtom("U", ("x",)), Iff(m("x"), ExistsSO("N", And((
            ForallFO("y", Imp(RelAtom("R", ("x", "y")), SetAtom("N", "y"))),
            Not(SetAtom("N", "x")))))))),
    }
    parts = [shapes[name]() for name in rng.sample(sorted(shapes), rng.randint(1, 4))]
    if rng.random() < 0.2:
        parts.append(ForallFO("x", Imp(RelAtom("U", ("x",)), ExistsFO(
            "y", And((RelAtom("R", ("x", "y")), SetAtom("M", "y")))))))
    if rng.random() < 0.5:
        body = ExistsSO("M", And(tuple(parts)) if len(parts) > 1 else parts[0])
    else:
        goal = rng.choice([shapes["not-forall"]().body, SetAtom("M", "u"), m("u", "w")])
        body = ForallSO("M", Imp(And(tuple(parts)) if len(parts) > 1 else parts[0], goal))
    for v in ("w", "u"):
        body = (ExistsFO if rng.random() < 0.5 else ForallFO)(v, body)
    return (ExistsSO if rng.random() < 0.5 else ForallSO)("V0", body)


def test_guarded_set_quantifiers_match_bruteforce_and_the_backtracker(monkeypatch):
    programs = _count_compiled(monkeypatch, "_bag_program")  # once per call on the DP route
    rng = random.Random(919191)
    checked = on_dp = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        s = random_structure(rng, n)
        phi = random_guarded_mso(rng)
        try:
            expected = eval_mso_bruteforce(s, phi)
        except ResourceLimitError:
            continue
        before = programs[0]
        assert eval_mso(s, phi) == expected, to_text(phi)
        on_dp += programs[0] > before
        assert eval_mso(s, phi, limits=Limits(dp_width=0)) == expected, to_text(phi)
        checked += 1
    assert checked >= 250
    assert on_dp >= 150


def test_dp_route_matches_the_backtracker_on_the_encodings(monkeypatch):
    from nmlkit.ael import expansion_exists
    from nmlkit.dl import extension_exists
    from nmlkit.encodings import mso_encoding
    from nmlkit.formula import implies_bruteforce, sat_bruteforce, subformulae
    from nmlkit.randgen import random_ae_theory, random_formula_set, random_literal_default_theory
    from nmlkit.structures import (
        build_ael_structure,
        build_dl_structure,
        build_imp_structure,
        build_prop_structure,
    )

    runs = _count_compiled(monkeypatch, "_run_dp")
    rng = random.Random(828282)
    backtrack = Limits(dp_width=0)

    def agree(s, name, expected):
        phi = mso_encoding(name)
        assert eval_mso(s, phi) is eval_mso(s, phi, limits=backtrack) is expected, name

    for _ in range(30):
        gamma = random_formula_set(rng, max_subformulae=8)
        agree(build_prop_structure(gamma), "sat", sat_bruteforce(gamma) is not None)
        f = random_formula_set(rng, max_subformulae=5, max_formulas=2)
        g = random_formula_set(rng, max_subformulae=4, max_formulas=2)
        if len(subformulae(f + g)) <= 8:
            agree(build_imp_structure(f, g), "imp", implies_bruteforce(f, g))
        th = random_literal_default_theory(rng)
        agree(build_dl_structure(th), "extension", extension_exists(th)[0])
        sigma = random_ae_theory(rng)
        agree(build_ael_structure(sigma.formulas), "full_exists", expansion_exists(sigma)[0])
    assert runs[0] > 0


def test_sat_and_imp_steps_are_linear_at_fixed_width():
    # a counter gate: at min-fill width 1 the chain's steps double with m;
    # the backtracker ran over the default budget at m = 14
    from nmlkit.encodings import mso_encoding
    from nmlkit.families import chain
    from nmlkit.formula import Var
    from nmlkit.harness import mso_steps
    from nmlkit.structures import build_imp_structure, build_prop_structure

    builds = {
        "sat": lambda m: build_prop_structure(chain(m)),
        "imp": lambda m: build_imp_structure(chain(m), [Var(f"x{m}")]),
    }
    for name, build in builds.items():
        phi = mso_encoding(name)
        assert eval_mso(build(14), phi) is True
        (small_ok, small), (large_ok, large) = (mso_steps(build(m), phi) for m in (1000, 2000))
        assert small_ok is large_ok is True
        assert large <= 2.05 * small, (name, small, large)


def test_step_budget_binds_on_the_dp_route(monkeypatch):
    from nmlkit.encodings import mso_encoding
    from nmlkit.families import chain
    from nmlkit.harness import mso_steps
    from nmlkit.structures import build_prop_structure

    runs = _count_compiled(monkeypatch, "_run_dp")
    s = build_prop_structure(chain(50))
    phi = mso_encoding("sat").parts[1]  # exists M: one program run, after the instances
    verdict, steps = mso_steps(s, phi)
    assert verdict is True and runs[0] == 1
    for budget in (10, steps - 1):  # the run's charge is the last to tick
        with pytest.raises(ResourceLimitError, match="budget"):
            eval_mso(s, phi, limits=Limits(mso_steps=budget))


def test_extension_compiles_its_static_program_once_per_call(monkeypatch):
    # the assignment constraint of every M, M_2, ... is one static program
    from nmlkit import mso
    from nmlkit.encodings import mso_encoding
    from nmlkit.families import gen_dl_lower
    from nmlkit.structures import build_dl_structure

    compiles = [0]

    def counted(*args, _original=mso.compile_graph, **kwargs):
        compiles[0] += 1
        return _original(*args, **kwargs)

    monkeypatch.setattr(mso, "compile_graph", counted)
    runs = _count_compiled(monkeypatch, "_run_dp")
    phi = mso_encoding("extension")
    for n in range(2, 6):
        compiles[0] = 0
        assert eval_mso(build_dl_structure(gen_dl_lower(n, "printed")), phi) is True
        assert compiles[0] == 1, n
    assert runs[0] > 10
