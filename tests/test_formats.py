"""The line formats (.fs, .imp, .dt, .ae, .labels) share one reader, and the
two PACE formats (.gr, .td) another: formatted theories read back equal,
with comments and blank lines anywhere, and every parse error names the
line it came from."""
import random

import pytest

from nmlkit.ael import format_ae_theory, parse_ae_theory
from nmlkit.dl import format_default_theory, parse_default_theory
from nmlkit.errors import ParseError
from nmlkit.formula import (
    format_formula_set,
    format_implication,
    parse_formula,
    parse_formula_set,
    parse_implication,
)
from nmlkit.randgen import random_ae_theory, random_formula_set, random_literal_default_theory
from nmlkit.structures import parse_gr, parse_labels
from nmlkit.treewidth import parse_td


def _with_comments_and_blanks(text: str, rng: random.Random) -> str:
    out = ["# generated theory", ""]
    for line in text.splitlines():
        out.append(f"  {line}  # trailing comment" if rng.random() < 0.5 else line)
        out.extend([""] * rng.randint(0, 2) + ["# a comment line"] * rng.randint(0, 1))
    return "\n".join(out) + "\n"


FORMATS = {
    ".fs": (
        lambda rng: random_formula_set(rng, max_formulas=4),
        format_formula_set,
        parse_formula_set,
    ),
    ".imp": (
        lambda rng: (random_formula_set(rng), random_formula_set(rng)),
        lambda pc: format_implication(*pc),
        parse_implication,
    ),
    ".dt": (
        lambda rng: random_literal_default_theory(rng, max_rules=4),
        format_default_theory,
        parse_default_theory,
    ),
    ".ae": (random_ae_theory, format_ae_theory, parse_ae_theory),
}


@pytest.mark.parametrize("suffix", sorted(FORMATS))
def test_format_then_read_with_comments_is_identity(suffix):
    generate, write, read = FORMATS[suffix]
    rng = random.Random(suffix)
    for _ in range(100):
        theory = generate(rng)
        text = write(theory)
        assert read(text) == theory
        assert read(_with_comments_and_blanks(text, rng)) == theory


def test_imp_lines_may_interleave():
    premises, conclusions = parse_implication("c: q\np: p\n# both kinds\nc: r\np: p -> q\n")
    assert premises == [parse_formula("p"), parse_formula("p -> q")]
    assert conclusions == [parse_formula("q"), parse_formula("r")]


def test_reader_numbers_physical_lines():
    text = "# header\n\nw: p\n\nw: p &\n"
    with pytest.raises(ParseError, match=r"\(line 5\)$"):
        parse_default_theory(text)
    with pytest.raises(ParseError, match=r"expected 'p:' or 'c:' line, got 'x: p' \(line 3\)$"):
        parse_implication("p: p\n# skip\nx: p\n")
    with pytest.raises(ParseError, match=r"three ';'-separated parts \(line 2\)$"):
        parse_default_theory("w: p\nd: p ; q\n")


# (parser, text, the error's message, its line or None)
PACE_ERRORS = [
    # the header: malformed, repeated, missing, or after another line
    (parse_gr, "p tw 3\n", "malformed header: 'p tw 3'", 1),
    (parse_gr, "c x\np td 3 1\n", "malformed header: 'p td 3 1'", 2),
    (parse_gr, "p tw 3 x\n", "expected integers, got '3 x'", 1),
    (parse_gr, "p tw 2 0\n\np tw 2 0\n", "duplicate header", 3),
    (parse_gr, "", "missing 'p tw' header", None),
    (parse_gr, "c only a comment\n\n", "missing 'p tw' header", None),
    (parse_gr, "c x\n1 2\np tw 2 1\n", "line before the 'p tw' header: '1 2'", 2),
    (parse_gr, "1 2 3\np tw 3 1\n", "line before the 'p tw' header: '1 2 3'", 1),
    (parse_td, "s td 1 1\n", "malformed header: 's td 1 1'", 1),
    (parse_td, "s tw 1 1 1\n", "malformed header: 's tw 1 1 1'", 1),
    (parse_td, "c x\ns td x 1 1\n", "expected integers, got 'x 1 1'", 2),
    (parse_td, "s td 0 0 1\ns td 0 0 1\n", "duplicate header", 2),
    (parse_td, "", "missing 's td' header", None),
    (parse_td, "b 1 1\ns td 1 1 1\n", "line before the 's td' header: 'b 1 1'", 1),
    (parse_td, "\n1 2\ns td 1 1 1\n", "line before the 's td' header: '1 2'", 2),
    # .gr edge lines
    (parse_gr, "p tw 3 1\n1 2 3\n", "malformed edge line: '1 2 3'", 2),
    (parse_gr, "p tw 3 1\nc x\n1 x\n", "expected integers, got '1 x'", 3),
    (parse_gr, "p tw 3 1\n2 2\n", "edge 2 2 is a self-loop or leaves 1..3", 2),
    (parse_gr, "p tw 3 1\n1 5\n", "edge 1 5 is a self-loop or leaves 1..3", 2),
    (parse_gr, "p tw 3 2\n1 2\n2 1\n", "repeated edge 2 1", 3),
    # .td bag and tree-edge lines
    (parse_td, "s td 1 0 1\nb\n", "malformed bag line: 'b'", 2),
    (parse_td, "s td 1 1 1\nb x 1\n", "expected integers, got 'x 1'", 2),
    (parse_td, "s td 2 1 2\nb 1 1\nb 1 2\n", "duplicate bag id 1", 3),
    (parse_td, "s td 1 1 2\nb 1 3\n", "bag 1 has a vertex outside 1..2", 2),
    (parse_td, "s td 1 1 1\nb 1 1\n1 2 3\n", "malformed tree-edge line: '1 2 3'", 3),
    (parse_td, "s td 2 1 2\nb 1 1\nb 2 2\n1 2\n2 1\n", "repeated tree edge 2 1", 5),
    # the counts: more lines than the header says name the first extra line,
    # fewer name the header
    (parse_gr, "p tw 3 1\n1 2\n2 3\n", "more edge lines than the header's 1", 3),
    (parse_gr, "c x\np tw 3 2\n1 2\n", "the header says 2 edges, the file has 1", 2),
    (parse_td, "s td 1 1 2\nb 1 1\n1 2\nb 2 2\n", "more bag lines than the header's 1", 4),
    (parse_td, "c x\ns td 2 1 2\nb 1 1\n", "the header says 2 bags, the file has 1", 2),
    (parse_td, "s td 1 2 2\nb 1 1\n",
     "the header says the largest bag has 2 vertices, the file's has 1", 1),
]


@pytest.mark.parametrize(
    "parse, text, message, line", PACE_ERRORS,
    ids=[f"{case[0].__name__[6:]}-{i}" for i, case in enumerate(PACE_ERRORS)],
)
def test_pace_parse_error_pins_message_and_line(parse, text, message, line):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value) == message + ("" if line is None else f" (line {line})")


def test_pace_comments_blanks_and_spacing():
    g = parse_gr("c graph\n\n  p   tw 3 2\nc between\n1\t2\n  3 2  \n")
    assert (g.n, g.edges) == (3, frozenset({(1, 2), (2, 3)}))
    td, n = parse_td("c td\ns td 2 2 3\n\nb 1 1 2\nb 2 2 3\nc edge\n1 2\n")
    assert n == 3 and td.bags == {1: {1, 2}, 2: {2, 3}} and td.edges == {(1, 2)}


@pytest.mark.parametrize(
    "text, message, line",
    [
        ("1 main -\n1 bogus\n", "malformed label line: '1 bogus'", 2),
        ("# c\nx main\n", "expected integers, got 'x'", 2),
        ("1 main -\n1 edge -\n", "vertex 1 is repeated", 2),
        ("0 main -\n", "vertex 0 is not positive", 1),
        ("1 main # the description is a comment\n1 edge\n", "vertex 1 is repeated", 2),
    ],
)
def test_labels_parse_error_pins_message_and_line(text, message, line):
    with pytest.raises(ParseError) as info:
        parse_labels(text)
    assert info.value.line == line
    assert str(info.value) == f"{message} (line {line})"


def test_labels_comment_starts_anywhere_on_a_line():
    # as in the other line formats, '#' starts a comment wherever it stands
    labels, descriptions = parse_labels("# labels\n1 main m1  # a main\n\n2 edge d1_1_2#x\n3 none\n")
    assert labels == {1: "main", 2: "edge", 3: "none"}
    assert descriptions == {1: "m1", 2: "d1_1_2", 3: "-"}
