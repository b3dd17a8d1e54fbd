"""Package metadata for the LLAMP reproduction.

``pip install .`` installs the ``repro`` package from ``src/`` together with
the ``llamp`` console script.  ``python setup.py develop`` keeps working on
minimal, offline environments that lack the ``wheel`` package required for
PEP 660 editable installs.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "LLAMP reproduction: network latency sensitivity and tolerance of "
        "MPI applications via linear programming"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["llamp = repro.cli:main"]},
)
