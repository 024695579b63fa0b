"""The `pythonpath` setting in pyproject.toml makes `src` importable inside
pytest; the CLI tests also start `python -m matpart.cli` in a child
process, which finds the package through PYTHONPATH."""

import os


def pytest_configure(config):
    src = str(config.rootpath / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )
