"""Shared fixtures for the experiment-driver tests."""

import pytest


@pytest.fixture(scope="session")
def fast_result():
    """``module.run(fast=True)``, memoized: each driver runs once a session."""
    results = {}

    def get(module):
        if module not in results:
            results[module] = module.run(fast=True)
        return results[module]

    return get
