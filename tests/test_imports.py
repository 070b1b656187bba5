"""What `import memlab` and the `analyze` command load, and the lazy names.

The triage modules, `ingest` and `benchlab`, are imported on first use: an
analysis never compiles or runs them, nor `dataclasses`, which only they
use.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import memlab

ROOT = Path(__file__).resolve().parent.parent
TRIAGE = {"memlab.benchlab", "memlab.ingest"}


# Runs `python -m memlab ARGS` in-process the way `-m` does, or imports
# memlab alone, then prints the modules loaded.  (An `-X importtime` trace
# would miss a submodule imported by `from . import name`.)
_PROBE = """
import json, runpy, sys
if sys.argv[1:]:
    sys.argv[0] = "memlab"
    try:
        runpy.run_module("memlab", run_name="__main__", alter_sys=True)
    except SystemExit:
        pass
else:
    import memlab
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
"""


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def loaded_modules(*args) -> set:
    """The modules a fresh interpreter loads to run `memlab ARGS`, or, with
    no ARGS, to import memlab."""
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, *args], cwd=ROOT, env=_env(),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60)
    return set(json.loads(proc.stderr.splitlines()[-1]))


@pytest.mark.parametrize("args", [
    (),
    ("analyze", "corpus/dead_store_tp.c"),
    ("analyze", "--format", "structured", "corpus/dead_store_tp.c"),
], ids=["import", "analyze", "analyze-structured"])
def test_analysis_loads_no_triage_module(args):
    loaded = loaded_modules(*args)
    assert {"memlab.analysis", "memlab.diagnostics"} <= loaded
    assert ("memlab.cli" in loaded) == bool(args)
    assert not loaded & TRIAGE
    # `dataclasses` imports `inspect`, which imports `ast`, `dis` and
    # `tokenize`: most of what a start of memlab would compile.
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("args,module", [
    (("ingest", "--format", "infer", "reports/infer_null_deref.txt"),
     "memlab.ingest"),
    (("persistence", "2009-10-14", "2009-10-18"), "memlab.benchlab"),
], ids=["ingest", "persistence"])
def test_a_triage_command_loads_its_module(args, module):
    assert module in loaded_modules(*args)


def test_first_access_imports_the_triage_module():
    check = """
import sys
import memlab
assert memlab.parse_report is sys.modules["memlab.ingest"].parse_report
assert "memlab.benchlab" not in sys.modules
assert memlab.benchlab is sys.modules["memlab.benchlab"]
assert memlab.classify is memlab.benchlab.classify
from memlab import ingest
assert ingest is memlab.ingest
"""
    proc = subprocess.run(
        [sys.executable, "-c", check], cwd=ROOT, env=_env(),
        stderr=subprocess.PIPE, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_dir_lists_the_public_and_lazy_names():
    listed = dir(memlab)
    assert listed == sorted(listed)
    assert set(memlab.__all__) | {"benchlab", "ingest"} <= set(listed)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from memlab import *", namespace)
    assert set(memlab.__all__) <= set(namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        memlab.nonexistent


def test_report_formats_are_the_parsers():
    from memlab.cli import REPORT_FORMATS
    from memlab.ingest import PARSERS

    assert REPORT_FORMATS == tuple(sorted(PARSERS))
