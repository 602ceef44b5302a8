"""Decimal rounding helpers used by table rendering and the f0 rule.

Python's built-in round() resolves ties to the even digit, which turns
50.5 into 50. The published tables (and the reference-frequency rule)
resolve ties away from zero, so all user-facing rounding goes through
these helpers instead.
"""

from decimal import MAX_PREC, ROUND_HALF_UP, Context, Decimal

# Quantizing to d places needs the value's integer digits (up to 309 for a
# finite float) plus d, more than the default context's 28 digits.
_WIDE = Context(prec=MAX_PREC)


def _quantized(value: float, decimals: int) -> Decimal:
    """value rounded to ``decimals`` places, ties away from zero."""
    quantum = Decimal(1).scaleb(-decimals)
    return Decimal(repr(float(value))).quantize(quantum, rounding=ROUND_HALF_UP, context=_WIDE)


def round_half_away(value: float, decimals: int = 0) -> float:
    """Round to ``decimals`` places with ties going away from zero."""
    return float(_quantized(value, decimals))


def format_fixed(value: float, decimals: int) -> str:
    """Format with a fixed number of decimals, ties away from zero.

    A value that rounds to zero is printed unsigned, never "-0.0".

    Ties are the repr's, rounded half-up through Decimal. With 0-2 decimals,
    a value under 1e13 whose repr has no exponent and is no tie (its digits
    past the kept ones are not just "5") prints as the correctly rounded
    f"{value:.{decimals}f}": a rounding boundary between the repr and the
    float would read back as the float and be a repr as short and closer,
    and a shorter repr sits 0.005 or more from every boundary, wider than
    the 0.002 span of values that read back as one float below 1e13.
    """
    value = float(value)
    text = repr(value)
    if abs(value) < 1e13 and decimals <= 2 and "e" not in text \
            and text.partition(".")[2][decimals:] != "5":
        text = f"{value:.{decimals}f}"
        return text[1:] if text[0] == "-" and float(text) == 0 else text
    quantized = _quantized(value, decimals)
    if quantized == 0:
        quantized = abs(quantized)
    return f"{quantized:.{decimals}f}"
