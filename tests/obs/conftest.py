"""Shared fixtures for the observability suite (helpers: obs_configs.py)."""

import pytest

from repro.core.runner import run

from obs_configs import tiny_config


@pytest.fixture(scope="session")
def traced_hybrid_overlap():
    """One traced full-network hybrid_overlap run, shared across tests."""
    return run(tiny_config("hybrid_overlap"))
