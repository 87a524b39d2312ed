import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import subsup
from subsup import ExpressionError, evaluate_expression
from subsup.expressions import _FUNCTIONS, _VARIABLES, _tokenize

ORIGIN = np.zeros((1, 3))


def ev(text, coords=ORIGIN):
    return evaluate_expression(text, coords)


def reference_tokenize(text):
    """The hand-written scanner that the regular expression replaced."""
    tokens = []  # (kind, value, position)
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        elif ch.isdigit() or ch == ".":
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            lit = text[i:j]
            try:
                value = float(lit)
            except ValueError:
                raise ExpressionError(f"bad number literal '{lit}'", i) from None
            tokens.append(("num", value, i))
            i = j
        elif ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            name = text[i:j]
            if name in _VARIABLES:
                tokens.append(("var", name, i))
            elif name in _FUNCTIONS:
                tokens.append(("func", name, i))
            else:
                raise ExpressionError(f"unknown name '{name}'", i)
            i = j
        else:
            raise ExpressionError(f"unexpected character '{ch}'", i)
    tokens.append(("end", None, n))
    return tokens


def scanned(tokenize, text):
    """The token list, or the error's message and position."""
    try:
        return tokenize(text)
    except ExpressionError as exc:
        return str(exc), exc.position


# pieces whose joins make literals, names and their boundaries
FRAGMENTS = ["1", "25", ".", "1e", "E+", "-2", "e", "x", "sin", "(", ")", " ", "^", "&"]


class TestTokenize:
    # the scanner read str.isdigit/isalpha digits and letters, the pattern
    # reads ASCII ones: the two agree on every ASCII string
    @settings(max_examples=2000, deadline=None, derandomize=True, database=None)
    @given(
        st.text(alphabet="0123456789.eE+-*/^() xyzsincoexpab&_#")
        | st.text(alphabet=st.characters(max_codepoint=127))
        | st.lists(st.sampled_from(FRAGMENTS)).map("".join)
    )
    def test_matches_the_reference_scanner(self, text):
        assert scanned(_tokenize, text) == scanned(reference_tokenize, text)


class TestArithmetic:
    def test_literals(self):
        assert ev("2")[0] == 2.0
        assert ev("2.5")[0] == 2.5
        assert ev("1e-3")[0] == 1e-3
        assert ev("2.5E2")[0] == 250.0

    def test_precedence(self):
        assert ev("2+3*4")[0] == 14.0
        assert ev("(2+3)*4")[0] == 20.0
        assert ev("2*3^2")[0] == 18.0
        assert ev("10-4-3")[0] == 3.0  # left associative
        assert ev("12/2/3")[0] == 2.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert ev("-2^2")[0] == -4.0
        assert ev("(-2)^2")[0] == 4.0

    def test_power_right_associative(self):
        assert ev("2^3^2")[0] == 512.0

    def test_unary(self):
        assert ev("-3")[0] == -3.0
        assert ev("--3")[0] == 3.0
        assert ev("+3")[0] == 3.0
        assert ev("2--3")[0] == 5.0

    def test_whitespace(self):
        assert ev("  1 +   2 * 3 ")[0] == 7.0


def python_source(text):
    """The token list of text as Python source: "^" becomes "**", and each
    number np.float64 of its value.  Python's ** has the precedence and
    associativity of "^": it binds tighter than unary minus on its left,
    takes a unary operand on its right, and groups right to left."""
    pieces = []
    for kind, value, _ in _tokenize(text)[:-1]:
        if kind == "num":
            pieces.append(f"np.float64({value!r})")
        else:
            pieces.append("**" if kind == "^" else value)
    return " ".join(pieces)


def _wrap(inner):
    space = st.sampled_from(["", " "])
    call = st.tuples(st.sampled_from(sorted(_FUNCTIONS)), inner)
    return st.one_of(
        st.tuples(inner, space, st.sampled_from("+-*/^"), space, inner).map("".join),
        st.tuples(st.sampled_from("+-"), inner).map("".join),
        inner.map("({})".format),
        call.map("{0[0]}({0[1]})".format),
    )


# well-formed expressions: literals and variables joined by every rule of
# the grammar, binary operators with no parentheses of their own
EXPRESSIONS = st.recursive(
    st.sampled_from(["0", "1", "2", "0.5", "3.25", ".5", "7.", "1e-3", "2.5E+2"])
    | st.sampled_from(_VARIABLES),
    _wrap,
    max_leaves=12,
)
POINTS = np.random.default_rng(3).uniform(-2.0, 2.0, (5, 3))


class TestPythonGrammar:
    @settings(max_examples=1500, deadline=None, derandomize=True, database=None)
    @given(EXPRESSIONS)
    def test_evaluates_as_python_bit_for_bit(self, text):
        namespace = {"np": np, **_FUNCTIONS, **dict(zip(_VARIABLES, POINTS.T))}
        with np.errstate(all="ignore"):
            expected = eval(python_source(text), namespace)
        expected = np.broadcast_to(np.asarray(expected, float), (len(POINTS),))
        if np.all(np.isfinite(expected)):
            assert ev(text, POINTS).tobytes() == expected.tobytes()
        else:
            with pytest.raises(ExpressionError, match="non-finite"):
                ev(text, POINTS)


class TestVariablesAndFunctions:
    def test_coordinates(self):
        coords = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert np.array_equal(ev("x", coords), [1.0, 4.0])
        assert np.array_equal(ev("y", coords), [2.0, 5.0])
        assert np.array_equal(ev("z", coords), [3.0, 6.0])
        assert np.array_equal(ev("x+y*z", coords), [7.0, 34.0])

    def test_functions(self):
        coords = np.array([[np.pi, 0.0, -2.0]])
        assert ev("sin(x)", coords)[0] == pytest.approx(0.0, abs=1e-12)
        assert ev("cos(y)", coords)[0] == 1.0
        assert ev("exp(y)", coords)[0] == 1.0
        assert ev("abs(z)", coords)[0] == 2.0

    def test_constant_broadcasts(self):
        coords = np.zeros((5, 3))
        assert ev("7", coords).shape == (5,)

    def test_variable_coefficient_example(self):
        d = subsup.build_icosphere(1)
        f = subsup.parse_coefficient("2+0.5*z", d)
        assert isinstance(f, subsup.Field)
        assert np.allclose(f.values, 2.0 + 0.5 * d.coordinates[:, 2])
        assert f.values.min() >= 1.5
        assert f.values.max() <= 2.5

    def test_sine_offset_stays_in_range(self):
        d = subsup.build_flat_torus([(16, 2.0 * np.pi), (16, 2.0 * np.pi)])
        f = subsup.parse_coefficient("2 + sin(x)", d)
        assert f.values.min() >= 1.0
        assert f.values.max() <= 3.0
        assert f.values.max() > 2.5  # the range is actually explored

    def test_constant_one(self):
        d = subsup.build_flat_torus([(4, 1.0)])
        f = subsup.parse_coefficient("1", d)
        assert np.all(f.values == 1.0)


# each malformed text's message and position
MALFORMED = {
    "": ("unexpected end of input", 0),
    "2+": ("unexpected end of input", 2),
    "sin": ("expected '(', found end of input", 3),
    "sin 2": ("expected '(', found '2.0'", 4),
    "(1+2": ("expected ')', found end of input", 4),
    "1+2)": ("trailing input ')'", 3),
    "foo(2)": ("unknown name 'foo'", 0),
    "2..5": ("bad number literal '2..5'", 0),
    "x y": ("trailing input 'y'", 2),
}


class TestErrors:
    def test_syntax_errors_carry_position(self):
        with pytest.raises(ExpressionError) as exc:
            ev("2 +* 3")
        assert exc.value.position == 3

    @pytest.mark.parametrize("text", list(MALFORMED))
    def test_malformed(self, text):
        message, position = MALFORMED[text]
        with pytest.raises(ExpressionError) as exc:
            ev(text)
        assert str(exc.value) == f"{message} (position {position})"
        assert exc.value.position == position

    def test_unknown_character(self):
        with pytest.raises(ExpressionError):
            ev("2 & 3")

    def test_division_by_zero_field(self):
        with pytest.raises(ExpressionError, match="non-finite"):
            ev("1/(x-x)", np.ones((4, 3)))

    def test_division_by_zero_literal(self):
        with pytest.raises(ExpressionError, match="non-finite"):
            ev("1/0")

    def test_overflow_flagged(self):
        with pytest.raises(ExpressionError, match="non-finite"):
            ev("exp(1000)")

    def test_nan_flagged(self):
        with pytest.raises(ExpressionError, match="non-finite"):
            ev("0/0")

    def test_names_first_bad_vertex(self):
        coords = np.array([[1.0, 0, 0], [0.0, 0, 0], [0.0, 0, 0]])
        with pytest.raises(ExpressionError, match="vertex 1"):
            ev("1/x", coords)
