"""The corpus reports, and those of seeded generated programs, pinned byte
for byte, and the work each exploration of those programs took.

``tests/golden/corpus.json`` holds, for each ``corpus/*.c`` under each
profile, the ``render_text`` and ``emit_structured`` of ``analyze_unit``.
``tests/golden/generated.json`` holds one sha256 of the two, joined, for
each program of the differential generators at a few seeds, under each
profile.  ``tests/golden/explored.json`` holds, for the same programs and
for a few loop families, each exploration's function, paths counted, merge
entries recorded and ``incomplete`` flag, in order, in clear text: a change
to how states are keyed that keeps the reports must keep these too.  A
change meant to keep the output must keep all three files; one meant to
change it regenerates them and shows the difference in review:

    PYTHONPATH=src python3 tests/test_golden.py --write
"""

import functools
import hashlib
import json
import random
import sys
from pathlib import Path
from unittest import mock

from memlab.analysis import PROFILES, _FunctionAnalysis, analyze_unit
from memlab.diagnostics import emit_structured, render_text
from memlab.frontend import parse_source
from test_dedup import SIX_IF_LOOP, branching_loop, dying_program, \
    escaping_program, loop_nest, loops_in_a_row, store_program
from test_exploration import random_program
from test_properties import generate_program

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "corpus.json"
GENERATED = ROOT / "tests" / "golden" / "generated.json"
EXPLORED = ROOT / "tests" / "golden" / "explored.json"

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
# Loop families whose exploration counts are pinned beside the generators'.
FAMILIES = {
    **{f"loops_in_a_row/{n}": loops_in_a_row(n) for n in (1, 2, 4, 8)},
    **{f"loop_nest/{ifs}{'-leak' * leak}": loop_nest(ifs, leak)
       for ifs, leak in ((1, False), (2, False), (2, True))},
    "six_if_loop": SIX_IF_LOOP,
}


def _reports(name: str, text: str, explored: dict | None = None) -> dict:
    """{profile: (render_text, emit_structured)} of one source text.  With
    `explored`, also {profile: ["function paths-counted merge-entries
    complete|incomplete", ...]}, one per exploration in order, into it."""
    tu = parse_source(name, text)
    out = {}
    run = _FunctionAnalysis.run
    for profile in sorted(PROFILES):
        runs = []

        def recording_run(self):
            run(self)
            runs.append(f"{self.fn.name} {self.paths_counted} "
                        f"{len(self.seen)} "
                        f"{'incomplete' if self.incomplete else 'complete'}")

        with mock.patch.object(_FunctionAnalysis, "run", recording_run):
            report = analyze_unit(tu, config=PROFILES[profile])
        out[profile] = (render_text(report), emit_structured(report))
        if explored is not None:
            explored[profile] = runs
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


@functools.cache
def generated_digests() -> tuple[dict, dict]:
    """({"generator/seed/profile": sha256 of render_text +
    emit_structured}, {"generator/seed/profile" or "family/profile": the
    explorations of `_reports`}), from one analysis of each program."""
    digests, explored = {}, {}
    programs = [(f"{gen}/{seed}", make(random.Random(seed)))
                for gen, make in GENERATORS.items()
                for seed in GENERATED_SEEDS]
    for key, text in programs + list(FAMILIES.items()):
        runs: dict = {}
        reports = _reports(f"{key.replace('/', '-')}.c", text, runs)
        for profile, (rendered, structured) in reports.items():
            if key not in FAMILIES:
                digests[f"{key}/{profile}"] = hashlib.sha256(
                    (rendered + structured).encode("utf-8")).hexdigest()
            explored[f"{key}/{profile}"] = runs[profile]
    return digests, explored


def test_corpus_reports_match_the_golden_file():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = corpus_reports()
    assert len(got) == 22
    assert sorted(got) == sorted(want)
    for name in sorted(want):
        assert got[name] == want[name], name


def test_generated_reports_match_the_golden_file():
    want = json.loads(GENERATED.read_text(encoding="utf-8"))
    got = generated_digests()[0]
    assert len(got) == len(GENERATORS) * len(GENERATED_SEEDS) * len(PROFILES)
    assert sorted(got) == sorted(want)
    for key in sorted(want):
        assert got[key] == want[key], key


def test_exploration_counts_match_the_golden_file():
    want = json.loads(EXPLORED.read_text(encoding="utf-8"))
    got = generated_digests()[1]
    assert len(got) == (len(GENERATORS) * len(GENERATED_SEEDS)
                        + len(FAMILIES)) * len(PROFILES)
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
    digests, explored = generated_digests()
    _write(GENERATED, digests)
    _write(EXPLORED, explored)
