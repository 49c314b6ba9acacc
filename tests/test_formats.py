"""The four line formats (.fs, .imp, .dt, .ae) share one reader: formatted
theories read back equal, with comments and blank lines anywhere, and every
parse error names the line it came from."""
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
