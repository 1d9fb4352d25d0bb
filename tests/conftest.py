"""Fixtures shared by the test modules."""

import sys

import pytest


@pytest.fixture
def default_digit_limit():
    """CPython's default cap of 4300 decimal digits on int-to-string conversion,
    restored to the session's value afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(limit)
