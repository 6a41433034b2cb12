"""Setup shim.

``python setup.py develop`` installs the checkout in editable mode
without network access or the ``wheel`` package; so does running from
the repo root with ``PYTHONPATH=src`` and no install. ``pip install -e
.`` does not work offline: pip's isolated build cannot fetch
setuptools, and without ``wheel`` the non-isolated build stops at
``invalid command 'bdist_wheel'``. All project metadata lives in
pyproject.toml and is mirrored here.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'RMAC: A Reliable Multicast MAC Protocol for "
        "Wireless Ad Hoc Networks' (Si & Li, ICPP 2004)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24"],
)
