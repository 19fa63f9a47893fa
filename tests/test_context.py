from fractions import Fraction

import pytest

from orthants import context
from orthants.context import EXACT, FLOAT, Context, common_context
from orthants.errors import BackendMismatch, OrthantsError, ParseError


class TestContext:
    def test_parse_and_format_roundtrip(self):
        for text in ["3/4", "-3/4", "5", "-5", "0"]:
            x = EXACT.parse(text)
            assert EXACT.format(x) == text

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError):
            EXACT.parse("three halves")

    def test_float_tolerance_sign(self):
        assert FLOAT.sign(1e-12) == 0
        assert FLOAT.sign(1e-6) == 1
        assert FLOAT.sign(-1e-6) == -1
        assert EXACT.sign(Fraction(1, 10**12)) == 1

    def test_exact_refuses_floats(self):
        with pytest.raises(BackendMismatch):
            EXACT.coerce(0.5)

    def test_custom_tolerance(self):
        loose = Context("float", 1e-3)
        assert loose.is_zero(5e-4)
        assert not FLOAT.is_zero(5e-4)

    @pytest.mark.parametrize(
        "tol", [0, -1, float("inf"), float("nan")], ids=["zero", "negative", "inf", "nan"]
    )
    def test_float_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError):
            Context("float", tol)

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            Context("decimal")

    def test_common_context(self):
        assert common_context(EXACT, Context()) is EXACT
        assert common_context(FLOAT, Context("float", 1e-3)) is FLOAT
        with pytest.raises(BackendMismatch):
            common_context(EXACT, FLOAT)
        with pytest.raises(BackendMismatch):
            common_context(FLOAT, FLOAT, EXACT)

    def test_coerce_parses_strings(self):
        assert EXACT.coerce("-6/4") == Fraction(-3, 2)
        assert type(EXACT.coerce(" 7 ")) is Fraction
        assert FLOAT.coerce("1/4") == 0.25
        assert FLOAT.coerce("2.5e-3") == 0.0025
        for ctx in (EXACT, FLOAT):
            with pytest.raises(ParseError):
                ctx.coerce("1/0")

    def test_coerce_keeps_values_of_the_backend_type(self):
        q, x = Fraction(-3, 7), 0.1
        assert EXACT.coerce(q) is q
        assert FLOAT.coerce(x) is x

        class Half(Fraction):
            pass

        # everything else still converts, to exactly the backend's type
        for ctx, value, expected in [
            (EXACT, 3, Fraction(3)), (EXACT, True, Fraction(1)), (EXACT, "2/6", Fraction(1, 3)),
            (EXACT, Half(1, 2), Fraction(1, 2)),
            (FLOAT, 3, 3.0), (FLOAT, True, 1.0), (FLOAT, "1/4", 0.25),
            (FLOAT, Fraction(1, 4), 0.25), (FLOAT, Half(1, 2), 0.5),
        ]:
            out = ctx.coerce(value)
            assert out == expected and type(out) is type(expected)
        with pytest.raises(BackendMismatch):
            EXACT.coerce(x)

    def test_format_on_each_backend(self):
        assert EXACT.format(Fraction(-6, 4)) == "-3/2"
        assert EXACT.format(Fraction(10**30, 7)) == f"{10**30}/7"
        assert FLOAT.format(0.25) == "0.25"
        assert FLOAT.format(Fraction(1, 3)) == repr(1 / 3)
        assert FLOAT.format(-1e-300) == "-1e-300"

    def test_exponents_beyond_4300_are_refused_before_expansion(self):
        assert EXACT.parse("1e4300") == 10**4300
        assert EXACT.parse("-2.5E-4300") == Fraction(-25, 10**4301)
        for ctx in (EXACT, FLOAT):
            for text in ("1e4301", "1e-4301", "1e999999999", "3/1e999999999"):
                with pytest.raises(ParseError):
                    ctx.parse(text)

    def test_format_names_the_digit_limit(self):
        with pytest.raises(OrthantsError, match="4300 digits"):
            EXACT.format(Fraction(10**4300))

    @pytest.mark.parametrize("text", [
        "+5", "-0", "007", "1_000", " 12 ", "\u0661\u0662", str(2**1023 + 1),
        str(2**1024 - 2**970 - 1), str(2**1024 - 2**970), str(-(2**1024 - 1)),
    ])
    def test_integer_literals_parse_as_the_fraction_grammar_reads_them(self, text):
        x = EXACT.parse(text)
        assert type(x) is Fraction and x == Fraction(text)
        try:
            expected = float(Fraction(text))
        except OverflowError:  # 2^1024 - 2^970 is a tie, rounded up beyond float range
            with pytest.raises(ParseError):
                FLOAT.parse(text)
        else:
            assert type(FLOAT.parse(text)) is float and FLOAT.parse(text) == expected

    def test_integer_literals_beyond_the_limits_are_refused(self):
        for ctx in (EXACT, FLOAT):
            with pytest.raises(ParseError):
                ctx.parse("1" * 4301)  # Python's 4300-digit limit on int(str)
        assert EXACT.parse("1" + "0" * 400) == 10**400
        with pytest.raises(ParseError):
            FLOAT.parse("1" + "0" * 400)

    def test_only_non_integer_literals_take_the_fraction_route(self, monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return Fraction(*args)

        monkeypatch.setattr(context, "Fraction", spy)
        for ctx in (EXACT, FLOAT):
            for text, value in (("3/4", Fraction(3, 4)), ("2.5", Fraction(5, 2)), ("1e5", 10**5)):
                calls.clear()
                assert ctx.parse(text) == value and calls == [(text,)]
            calls.clear()
            with pytest.raises(ParseError):  # the exponent guard runs before Fraction
                ctx.parse("1e4301")
            assert calls == []
            assert ctx.parse("+5") == 5 and calls == ([(5,)] if ctx.is_exact else [])
