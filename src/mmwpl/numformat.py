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
    """
    quantized = _quantized(value, decimals)
    if quantized == 0:
        quantized = abs(quantized)
    return f"{quantized:.{decimals}f}"
