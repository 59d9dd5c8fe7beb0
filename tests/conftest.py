"""Checks that hold after every test."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_outlives_a_test():
    # every pool of forked workers ends with the call that made it
    yield
    assert multiprocessing.active_children() == []
