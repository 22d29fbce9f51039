"""Setup shim so that ``pip install -e .`` works offline.

The environment this reproduction targets has no network access and an older
setuptools without wheel support, so the modern PEP 517 editable path is not
available.  This shim lets pip fall back to the legacy ``setup.py develop``
route, and it holds all of the packaging metadata: the ``repro`` package
lives under ``src/`` and ships the native kernel's C source, which is
compiled on first use.
"""

from setuptools import find_packages, setup

setup(
    name="checkfence-repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro.sat.native": ["cdcl.c", "order.c"]},
)
