"""Setuptools entry point.

The canonical metadata lives in ``pyproject.toml``; this file exists so that
the package can also be installed in environments where the PEP 517 editable
build path is unavailable (e.g. offline machines without the ``wheel``
package), via ``pip install -e . --no-use-pep517`` or ``python setup.py develop``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of the WebdamLog system (SIGMOD 2013 demo): a distributed "
        "datalog engine with rule delegation, plus the Wepic application."
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    extras_require={"test": ["pytest", "hypothesis"]},
)
