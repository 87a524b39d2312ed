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


class TestErrors:
    def test_syntax_errors_carry_position(self):
        with pytest.raises(ExpressionError) as exc:
            ev("2 +* 3")
        assert exc.value.position == 3

    @pytest.mark.parametrize(
        "text",
        ["", "2+", "sin", "sin 2", "(1+2", "1+2)", "foo(2)", "2..5", "x y"],
    )
    def test_malformed(self, text):
        with pytest.raises(ExpressionError):
            ev(text)

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
