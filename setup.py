"""Setuptools entry point.

The project is fully described by ``pyproject.toml`` (src layout, numpy as
the runtime dependency, a ``test`` extra and the ``repro`` script); this file
exists so the package can also be installed in environments without network
access to the PEP 517 build requirements (``python setup.py develop`` or
``pip install -e . --no-build-isolation``).
"""

from setuptools import setup

setup()
