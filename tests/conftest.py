"""Shared fixtures: gallery surfaces, a deterministic RNG, and the
environment of a child interpreter."""

import os
from pathlib import Path

import numpy as np
import pytest

import minface
from minface import gallery


@pytest.fixture(scope="session")
def enneper():
    return gallery.get("enneper")


@pytest.fixture(scope="session")
def enneper_conj():
    return gallery.get("enneper-conj")


@pytest.fixture(scope="session")
def ce_quasi():
    return gallery.get("ce-quasiumbilic")


@pytest.fixture(scope="session")
def kchange():
    return gallery.get("kchange")


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)


@pytest.fixture(scope="session")
def child_env():
    """os.environ with this minface first on PYTHONPATH."""
    src = str(Path(minface.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)
