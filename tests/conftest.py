"""Checks that hold after every test."""

import pytest

from helpers import children


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    # every forked worker ends, and is reaped, with the call that made it
    yield
    assert children() == []
