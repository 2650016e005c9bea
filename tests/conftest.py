"""Fixtures shared by several test modules."""

import sys

import pytest


@pytest.fixture()
def int_str_limit():
    """Python's default limit on int-to-str conversion, 4300 digits, for one
    test; skipped on a Python without the limit."""
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(saved)
