"""Package metadata (the repo has no ``pyproject.toml``; this is canonical).

A plain ``setup.py`` keeps the package installable editable in offline
environments that lack the ``wheel`` package (``pip install -e .
--no-build-isolation`` falls back to ``setup.py develop``).
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
