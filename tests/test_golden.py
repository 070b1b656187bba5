"""The corpus reports, and those of seeded generated programs, pinned byte
for byte.

``tests/golden/corpus.json`` holds, for each ``corpus/*.c`` under each
profile, the ``render_text`` and ``emit_structured`` of ``analyze_unit``.
``tests/golden/generated.json`` holds one sha256 of the two, joined, for
each program of the differential generators at a few seeds, under each
profile.  A change meant to keep the output must keep both files; one meant
to change it regenerates them and shows the difference in review:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from memlab.analysis import PROFILES, analyze_unit
from memlab.diagnostics import emit_structured, render_text
from memlab.frontend import parse_source
from test_dedup import branching_loop, dying_program, escaping_program, \
    store_program
from test_exploration import random_program
from test_properties import generate_program

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "corpus.json"
GENERATED = ROOT / "tests" / "golden" / "generated.json"

# Each generator maps a seeded random.Random to a C source text.
GENERATORS = {
    "branching_loop": branching_loop,
    "dying_program": dying_program,
    "escaping_program": escaping_program,
    "generate_program": lambda rng: generate_program(rng)[0],
    "random_program": random_program,
    "store_program": store_program,
}
GENERATED_SEEDS = range(10)


def _reports(name: str, text: str) -> dict:
    """{profile: (render_text, emit_structured)} of one source text."""
    tu = parse_source(name, text)
    out = {}
    for profile in sorted(PROFILES):
        report = analyze_unit(tu, config=PROFILES[profile])
        out[profile] = (render_text(report), emit_structured(report))
    return out


def corpus_reports() -> dict:
    """{file: {profile: {"text": ..., "structured": ...}}} for the corpus,
    each file named as `corpus/<name>.c` whatever the working directory."""
    out = {}
    for path in sorted(ROOT.glob("corpus/*.c")):
        name = f"corpus/{path.name}"
        reports = _reports(name, path.read_text(encoding="utf-8"))
        out[name] = {profile: {"text": text, "structured": structured}
                     for profile, (text, structured) in reports.items()}
    return out


def generated_digests() -> dict:
    """{"generator/seed/profile": sha256 of render_text + emit_structured}."""
    out = {}
    for gen, make in GENERATORS.items():
        for seed in GENERATED_SEEDS:
            text = make(random.Random(seed))
            reports = _reports(f"{gen}-{seed}.c", text)
            for profile, (rendered, structured) in reports.items():
                out[f"{gen}/{seed}/{profile}"] = hashlib.sha256(
                    (rendered + structured).encode("utf-8")).hexdigest()
    return out


def test_corpus_reports_match_the_golden_file():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = corpus_reports()
    assert len(got) == 22
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name] == want[name], name


def test_generated_reports_match_the_golden_file():
    want = json.loads(GENERATED.read_text(encoding="utf-8"))
    got = generated_digests()
    assert len(got) == len(GENERATORS) * len(GENERATED_SEEDS) * len(PROFILES)
    assert sorted(got) == sorted(want)
    for key in sorted(want):
        assert got[key] == want[key], key


def _write(path: Path, data: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    _write(GOLDEN, corpus_reports())
    _write(GENERATED, generated_digests())
