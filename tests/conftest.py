"""Fixtures shared by the test modules."""
import os

import pytest

import fockvortex


@pytest.fixture
def child_env():
    """The environment for a fresh interpreter that imports the ``fockvortex``
    these tests import: its ``src`` directory first on ``PYTHONPATH``."""
    src = os.path.dirname(os.path.dirname(fockvortex.__file__))
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
