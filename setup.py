"""Legacy setup shim: this offline environment lacks the `wheel` package
that PEP 517 editable installs require, so metadata lives in setup.py."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of Hermes: dynamic partitioning for distributed "
        "social network graph databases (EDBT 2015)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": [
            "hermes-experiments=repro.experiments.runner:main",
        ]
    },
)
