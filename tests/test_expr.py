"""Expression parser and evaluator: grammar, errors, round trips, fuzzing."""

import math
import random
import string

import numpy as np
import pytest

from minface.errors import (
    DivisionByZero,
    DomainError,
    ExpressionSyntaxError,
    MultipleVariables,
    NonFiniteResult,
    NonIntegerExponent,
)
from minface.expr import eval_jet, eval_value, negated, parse, to_string
from minface.jets import lift_variable

from oracles import exact_jet


def jet_of(text, x):
    return eval_jet(parse(text), lift_variable(x))


def test_basic_polynomial_jet():
    j = jet_of("1 + v^2", 1.0)
    assert j.as_tuple() == (2.0, 2.0, 2.0, 0.0)


def test_value_evaluation():
    assert eval_value(parse("2*u + 3"), 2.0) == 7.0
    assert eval_value(parse("pi"), 0.0) == math.pi
    assert eval_value(parse("e"), 0.0) == math.e


def test_precedence_and_unary_minus():
    assert eval_value(parse("-u^2"), 3.0) == -9.0
    assert eval_value(parse("2 - -u"), 1.0) == 3.0
    assert eval_value(parse("2*u^3"), 2.0) == 16.0
    assert eval_value(parse("(2*u)^3"), 2.0) == 64.0


def test_syntax_error_carries_offset():
    with pytest.raises(ExpressionSyntaxError) as exc:
        parse("1+*2")
    assert exc.value.offset == 2


def test_unbalanced_parenthesis():
    with pytest.raises(ExpressionSyntaxError):
        parse("sin(u")
    with pytest.raises(ExpressionSyntaxError):
        parse("u)")


def test_unknown_function_is_syntax_error():
    with pytest.raises(ExpressionSyntaxError):
        parse("sec(u)")


def test_non_integer_exponent_rejected():
    with pytest.raises(NonIntegerExponent):
        parse("u^0.5")
    with pytest.raises(NonIntegerExponent):
        parse("u^v")


def test_negative_exponent_allowed():
    assert eval_value(parse("u^-2"), 2.0) == 0.25


def test_multiple_variables_rejected():
    with pytest.raises(MultipleVariables) as exc:
        parse("u + v")
    assert exc.value.names == ("u", "v")


def test_single_variable_any_name():
    assert eval_value(parse("t^2 + 1"), 3.0) == 10.0


def test_round_trip_through_to_string():
    for text in ("1 - u^2", "sin(u)*exp(-u)", "(u+1)/(u-2)", "-(u^3 - u)",
                 "2*pi*t", "1/2", "u^-3 + sqrt(u)"):
        e = parse(text)
        back = parse(to_string(e))
        for x in (0.3, 1.1, 2.7):
            try:
                want = eval_value(e, x)
            except (DomainError, DivisionByZero):
                continue
            assert eval_value(back, x) == pytest.approx(want, rel=1e-15)


def test_negated_flips_sign_everywhere():
    e = parse("u^2 - 3*u + 1")
    m = negated(e)
    for x in (-1.0, 0.0, 2.5):
        assert eval_value(m, x) == -eval_value(e, x)


def test_domain_error_while_evaluating():
    with pytest.raises(DomainError):
        eval_value(parse("log(u)"), -1.0)
    with pytest.raises(DivisionByZero):
        eval_value(parse("1/u"), 0.0)


def _both_entry_points(e, x):
    """eval_value and eval_jet at x, as zero-argument calls."""
    return (lambda: eval_value(e, x),
            lambda: eval_jet(e, lift_variable(x)))


@pytest.mark.parametrize("text, x, error, span", [
    ("1 + log(u - 2)", 1.0, DomainError, (4, 14)),
    ("u + 1/(u - 1)", 1.0, DivisionByZero, (4, 13)),
    ("2*(u - 1)^-2", 1.0, DivisionByZero, (2, 12)),
    ("sin(u)", math.inf, DomainError, (0, 6)),
])
def test_evaluation_error_is_located_at_its_node(text, x, error, span):
    for call in _both_entry_points(parse(text), x):
        with pytest.raises(error) as exc:
            call()
        assert exc.value.span == span


@pytest.mark.parametrize("text, x", [
    ("sqrt(u)", 1e-300),   # an outer derivative divides by an underflowed 0
    ("log(u)", 1e-110),
    ("u^400", 10.0),       # float ** overflows
    ("u^400", np.float64(10.0)),
    ("atan(u)", 1e60),
    ("u*u", 1e200),        # the value itself overflows to inf
])
def test_unrepresentable_jet_raises_non_finite_result(text, x):
    for call in _both_entry_points(parse(text), x):
        with pytest.raises(NonFiniteResult):
            call()


def test_jet_matches_symbolic_oracle_spot():
    x = 0.8
    got = jet_of("exp(sin(2*u)) / (1 + u^2)", x)
    want = [float(w) for w in exact_jet("exp(sin(2*u)) / (1 + u^2)", "u", x)]
    for g, w in zip(got.as_tuple(), want):
        assert g == pytest.approx(w, rel=1e-12, abs=1e-12)


# --- fuzzing -------------------------------------------------------------------

_FUNCS = ("sin", "cos", "exp", "atan", "sinh", "cosh")


def _random_expr(rng, depth):
    """Well-conditioned random expression over the variable u."""
    if depth == 0:
        return rng.choice([
            "u", "u", "u",
            format(rng.uniform(-2, 2), ".3f"),
            str(rng.randint(1, 4)),
        ])
    a = _random_expr(rng, depth - 1)
    b = _random_expr(rng, depth - 1)
    kind = rng.random()
    if kind < 0.25:
        return f"({a} + {b})"
    if kind < 0.45:
        return f"({a} - {b})"
    if kind < 0.65:
        return f"({a} * {b})"
    if kind < 0.75:
        return f"({a} / (2 + ({b})^2))"
    if kind < 0.9:
        return f"{rng.choice(_FUNCS)}({a})"
    return f"({a})^{rng.randint(2, 3)}"


def test_fuzz_jets_against_high_precision_oracle():
    """200 random expressions: library jets vs oracle derivatives, rel < 1e-6."""
    rng = random.Random(1234)
    checked = 0
    while checked < 200:
        text = _random_expr(rng, rng.randint(1, 3))
        x = rng.uniform(-1.5, 1.5)
        try:
            got = jet_of(text, x)
        except (DomainError, DivisionByZero, NonFiniteResult):
            continue
        try:
            want = [float(w) for w in exact_jet(text, "u", x)]
        except Exception:
            continue
        if not all(math.isfinite(w) and abs(w) < 1e8 for w in want):
            continue
        for g, w in zip(got.as_tuple(), want):
            rel = abs(g - w) / max(1.0, abs(g), abs(w))
            assert rel < 1e-6, (text, x, got.as_tuple(), want)
        checked += 1
    assert checked == 200


def test_fuzz_parser_never_crashes_untyped():
    """Random token soup must parse or raise a typed expression error."""
    rng = random.Random(99)
    alphabet = "uv timesin+-*/^()0123456789. pie,"
    for _ in range(500):
        text = "".join(rng.choice(alphabet)
                       for _ in range(rng.randint(1, 24)))
        try:
            e = parse(text)
        except (ExpressionSyntaxError, NonIntegerExponent, MultipleVariables):
            continue
        # Parsed: evaluating may fail, but only with typed errors.
        try:
            eval_value(e, 0.37)
        except (DomainError, DivisionByZero, NonFiniteResult):
            pass


def test_fuzz_parser_structured_mutations():
    """Mutations of valid expressions stay crash-free too."""
    rng = random.Random(7)
    seeds = ["sin(u) + u^2", "1/(1 - u)", "exp(u)*cos(2*u)", "sqrt(1 + u^2)"]
    junk = string.punctuation + string.ascii_letters + "  "
    for _ in range(300):
        text = list(rng.choice(seeds))
        for _ in range(rng.randint(1, 4)):
            pos = rng.randrange(len(text))
            if rng.random() < 0.5:
                text[pos] = rng.choice(junk)
            else:
                text.insert(pos, rng.choice(junk))
        try:
            e = parse("".join(text))
            eval_value(e, 0.41)
        except (ExpressionSyntaxError, NonIntegerExponent, MultipleVariables,
                DomainError, DivisionByZero, NonFiniteResult):
            pass
