"""Test-function expression language: parsing, printing, evaluation."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketlab.expr import (
    Add,
    Const,
    Div,
    EvalDomainError,
    ExprSyntaxError,
    Mul,
    Pow,
    Sub,
    TestFunction,
    Var,
    evaluate,
    parse_expr,
)

PTS2 = np.array([[0.0, 0.0], [1.0, 2.0], [0.5, -0.25]])
PTS3 = np.array([[1.0, 2.0, 3.0], [0.0, -1.0, 0.5]])
WIDE = np.array([[0.5, 0.25], [2.0, -0.25], [1.0, 1.0]])


# -- parsing -----------------------------------------------------------------

def test_single_variable():
    assert parse_expr("x") == Var("x")


def test_precedence():
    assert parse_expr("x^2 + 3*y") == Add(Pow(Var("x"), 2),
                                          Mul(Const(3.0), Var("y")))
    assert parse_expr("2*x+1") == Add(Mul(Const(2.0), Var("x")), Const(1.0))
    assert parse_expr("2*(x+1)") == Mul(Const(2.0), Add(Var("x"), Const(1.0)))
    assert parse_expr("1 - 2 - 3") == Sub(Sub(Const(1.0), Const(2.0)), Const(3.0))


def test_unary_minus_desugars_to_subtraction():
    assert parse_expr("-x") == Sub(Const(0.0), Var("x"))


def test_parse_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x + w")
    assert err.value.position == 4
    with pytest.raises(ExprSyntaxError):
        parse_expr("(x + 1")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^1.5")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x^y")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x 1")
    with pytest.raises(ExprSyntaxError):
        parse_expr("x + ?")


@pytest.mark.parametrize("text,tree", [
    ("1.", Const(1.0)),
    (".5", Const(0.5)),
    ("1e5", Const(1e5)),
    ("1E-3", Const(1e-3)),
    ("1e+3", Const(1e3)),
    ("2.5e-3*x^-2", Mul(Const(2.5e-3), Pow(Var("x"), -2))),
    ("-x^2", Sub(Const(0.0), Pow(Var("x"), 2))),
    ("x - -y", Sub(Var("x"), Sub(Const(0.0), Var("y")))),
])
def test_number_literal_forms_parse_to_their_trees(text, tree):
    assert parse_expr(text) == tree


@pytest.mark.parametrize("text,position", [
    ("1.2.3", 0), (".", 0), ("1e+", 0), ("1e5e5", 0), ("x+1.5.2", 2),
])
def test_malformed_number_is_a_syntax_error_at_its_position(text, position):
    # these died with a bare ValueError from float()
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert err.value.position == position
    assert str(err.value) == (f"malformed number {text[position:]!r} "
                              f"(at position {position})")


@pytest.mark.parametrize("text,message", [
    ("x^+2", "exponent must be an integer literal (at position 2)"),
    ("3x", "unexpected trailing 'x' (at position 1)"),
    ("2^3^4", "unexpected trailing '^' (at position 3)"),
    ("x^1.5", "non-integer exponent '1.5' (at position 2)"),
    ("x + ?", "unexpected character '?' (at position 4)"),
    ("(x + 1", "expected ')' (at position 6)"),
])
def test_rejections_keep_their_messages(text, message):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert str(err.value) == message


DEEP = [("(" * 100 + "x" + ")" * 100, "(" * 101 + "x" + ")" * 101, 100),
        ("-" * 100 + "x", "-" * 101 + "x", 100),
        ("+".join(["x"] * 101), "+".join(["x"] * 102), 201),
        ("(" * 99 + "x^2" + ")" * 99, "(" * 100 + "x^2" + ")" * 100, 0),
        ("(-" * 50 + "x" + ")" * 50, "(-" * 50 + "-x" + ")" * 50, 100)]


@pytest.mark.parametrize("deepest,deeper,position", DEEP,
                         ids=["parentheses", "unary-minus", "sum-chain", "power",
                              "mixed"])
def test_nesting_is_refused_one_level_past_the_limit(deepest, deeper, position):
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(deeper)
    assert str(err.value) == f"expression nested deeper than 100 levels (at position {position})"
    assert err.value.position == position
    parse_expr(deepest)


def test_a_depth_100_expression_evaluates_like_its_folded_value():
    x = PTS2[:, 0]
    np.testing.assert_array_equal(evaluate(parse_expr("(" * 100 + "x" + ")" * 100), PTS2), x)
    np.testing.assert_array_equal(evaluate(parse_expr("-" * 100 + "x"), PTS2), x + 0.0)
    np.testing.assert_array_equal(evaluate(parse_expr("-" * 99 + "x"), PTS2), 0.0 - x)
    total = np.zeros(len(PTS2))
    for _ in range(101):
        total = total + x
    np.testing.assert_array_equal(evaluate(parse_expr("+".join(["x"] * 101)), PTS2), total)


@pytest.mark.parametrize("text", ["(" * 300 + "x" + ")" * 300, "-" * 1200 + "x",
                                  "+".join(["x"] * 3000)],
                         ids=["parentheses", "unary-minus", "sum-chain"])
def test_deep_text_is_a_syntax_error_not_a_recursion_error(text):
    with pytest.raises(ExprSyntaxError, match="nested deeper than 100 levels"):
        parse_expr(text)


# -- evaluation --------------------------------------------------------------

def test_polynomial_evaluation():
    out = evaluate(parse_expr("x^2 + 3*y"), PTS2)
    np.testing.assert_allclose(out, PTS2[:, 0] ** 2 + 3 * PTS2[:, 1], atol=0)


def test_division_guard():
    f = parse_expr("x/(y-y)")
    with pytest.raises(EvalDomainError):
        evaluate(f, PTS2)


def test_zero_base_negative_exponent_guard():
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("x^-1"), PTS2)


def test_negative_exponent_on_safe_points():
    out = evaluate(parse_expr("y^-2"), PTS3)
    np.testing.assert_allclose(out, PTS3[:, 1] ** -2.0, atol=0)


def test_z_needs_three_dimensions():
    assert evaluate(parse_expr("z"), PTS3)[0] == 3.0
    with pytest.raises(EvalDomainError):
        evaluate(parse_expr("z"), PTS2)


@pytest.mark.parametrize("text,bad", [
    ("1e400", 3),             # float() reads the literal as inf
    ("1e400-1e400", 3),       # inf - inf
    ("y^-600", 2),            # 0.25^-600 = 2^1200 overflows; 1^-600 does not
])
def test_a_result_that_is_not_finite_is_refused_without_warnings(text, bad):
    # these returned inf or nan with a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalDomainError, match=f"result not finite at {bad} of 3 points"):
            evaluate(parse_expr(text), WIDE)


def test_an_overflow_that_the_result_absorbs_is_accepted():
    # only the result must be finite: 1/inf is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = evaluate(parse_expr("1/(y^-600) + 1"), WIDE)
    assert out.tolist() == [1.0, 1.0, 2.0]


def test_test_function_wrapper():
    f = TestFunction.parse("x*y")
    np.testing.assert_allclose(f(PTS2), PTS2[:, 0] * PTS2[:, 1], atol=0)
    assert f.source == "x*y"


# -- print/parse round-trip ----------------------------------------------------

# a canonical printer owned by the tests: its output reparses to an equal tree
_PRECEDENCE = {Add: 1, Sub: 1, Mul: 2, Div: 2, Pow: 3, Const: 4, Var: 4}


def _wrap(node, parent_prec, right_side=False):
    text = expr_to_string(node)
    prec = _PRECEDENCE[type(node)]
    if prec < parent_prec or (prec == parent_prec and right_side):
        return f"({text})"
    return text


def expr_to_string(node):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Pow):
        # a leading '-' after '^' is accepted by the exponent parser
        return f"{_wrap(node.base, 4)}^{node.exponent}"
    prec, op = {Add: (1, " + "), Sub: (1, " - "), Mul: (2, "*"), Div: (2, "/")}[type(node)]
    return f"{_wrap(node.left, prec)}{op}{_wrap(node.right, prec, True)}"


_consts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                    allow_infinity=False).map(abs).map(Const)
_vars = st.sampled_from(["x", "y", "z"]).map(Var)

_exprs = st.recursive(
    st.one_of(_consts, _vars),
    lambda inner: st.one_of(
        st.builds(Add, inner, inner),
        st.builds(Sub, inner, inner),
        st.builds(Mul, inner, inner),
        st.builds(Div, inner, inner),
        st.builds(Pow, inner, st.integers(-4, 6)),
    ),
    max_leaves=25,
)


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_print_then_parse_is_identity(tree):
    assert parse_expr(expr_to_string(tree)) == tree
