"""Every job script imports against the current API. ``main`` is not
run: the jobs regenerate the paper's tables and take minutes."""
import importlib.util
from pathlib import Path

import pytest

JOBS = sorted((Path(__file__).resolve().parent.parent / "jobs").glob("*.py"))


@pytest.mark.parametrize("path", JOBS, ids=lambda p: p.stem)
def test_job_imports(path):
    spec = importlib.util.spec_from_file_location(f"job_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
