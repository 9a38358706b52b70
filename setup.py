"""Project metadata.

The package runs on the standard library alone.  The ``test`` extra names what
the test suite uses besides pytest: scipy and networkx as oracles for the
Student-t quantile and the connectivity graph, hypothesis to generate inputs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=[],
    extras_require={"test": ["pytest", "hypothesis", "scipy", "networkx"]},
)
