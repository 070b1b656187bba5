"""The corpus reports pinned byte for byte.

``tests/golden/corpus.json`` holds, for each ``corpus/*.c`` under each
profile, the ``render_text`` and ``emit_structured`` of ``analyze_unit``.
A change meant to keep the output must keep this file; one meant to change
it regenerates the file and shows the difference in review:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import json
import sys
from pathlib import Path

from memlab.analysis import PROFILES, analyze_unit
from memlab.diagnostics import emit_structured, render_text
from memlab.frontend import parse_source

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "corpus.json"


def corpus_reports() -> dict:
    """{file: {profile: {"text": ..., "structured": ...}}} for the corpus,
    each file named as `corpus/<name>.c` whatever the working directory."""
    out = {}
    for path in sorted(ROOT.glob("corpus/*.c")):
        name = f"corpus/{path.name}"
        tu = parse_source(name, path.read_text(encoding="utf-8"))
        out[name] = {}
        for profile in sorted(PROFILES):
            report = analyze_unit(tu, config=PROFILES[profile])
            out[name][profile] = {"text": render_text(report),
                                  "structured": emit_structured(report)}
    return out


def test_corpus_reports_match_the_golden_file():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = corpus_reports()
    assert len(got) == 22
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name] == want[name], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(corpus_reports(), indent=1, sort_keys=True)
                      + "\n", encoding="utf-8")
