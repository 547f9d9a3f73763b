"""Legacy setup shim.

``pip install -e ".[test]"`` builds an editable wheel, which needs the
``wheel`` package.  Where only setuptools is available and there is no
network, ``python setup.py develop`` installs the same editable package
through this file.  All real metadata lives in ``pyproject.toml``.
"""

from setuptools import setup

setup()
