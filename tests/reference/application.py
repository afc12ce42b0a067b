"""The application's segment count in rational arithmetic.

``repro.tcp.application._floor_segments`` computes the same exact
quotient over ``as_integer_ratio()``; tests/test_application.py holds
it to this form.
"""

from fractions import Fraction


def fraction_floor_segments(seconds, rate, segment_bytes):
    """``int(seconds · rate / segment_bytes)`` over the exact binary
    values of the arguments."""
    return int(Fraction(seconds) * Fraction(rate) / segment_bytes)
