"""Packaging for the repro rt-TDDFT reproduction.

Kept as a plain ``setup.py`` (no ``wheel``/``build`` requirement) so
offline legacy editable installs keep working.
"""

from pathlib import Path

from setuptools import find_packages, setup

_readme = Path(__file__).parent / "README.md"

setup(
    name="repro",
    version="1.29.0",
    description=(
        "Finite-temperature hybrid-functional rt-TDDFT reproduction: "
        "PT-IM / PT-IM-ACE propagators, plane-wave Kohn-Sham stack, "
        "declarative simulation facade, ensemble sweep engine and CLI"
    ),
    long_description=_readme.read_text() if _readme.exists() else "",
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy>=2.0", "scipy"],
    extras_require={"test": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.__main__:main"]},
    classifiers=[
        "Programming Language :: Python :: 3.11",
        "Topic :: Scientific/Engineering :: Physics",
        "Intended Audience :: Science/Research",
    ],
)
