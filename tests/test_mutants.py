"""A seeded mutation smoke gate over the corpus.

Each mutant is a `corpus/*.c` file with one line-level change: a line
deleted, duplicated or swapped with another, or one identifier occurrence
renamed to another identifier of the same file.  Most mutants are outside
the subset or break a declaration; the others reach the engine with
shapes the corpus never shows it.  Whatever the input, `memlab analyze`
must exit 0, 1 or 2 without an internal error, and an exit 2 must be one
`memlab: error:` line.
"""

import contextlib
import io
import random
import re
from collections import Counter
from pathlib import Path

import pytest

from memlab.cli import main

CORPUS = sorted(Path(__file__).resolve().parent.parent.glob("corpus/*.c"))
PROFILES = ("union", "cppcheck-like", "clang-like", "infer-like",
            "predator-like")
MUTANTS_PER_PROFILE = 300
_IDENT = re.compile(r"[A-Za-z_]\w*")


def mutate(text: str, rng: random.Random) -> str:
    lines = text.splitlines()
    k = rng.randrange(len(lines))
    op = rng.choice(("delete", "duplicate", "swap", "rename"))
    if op == "delete":
        del lines[k]
    elif op == "duplicate":
        lines.insert(k, lines[k])
    elif op == "swap":
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    else:
        spots = list(_IDENT.finditer(text))
        spot = rng.choice(spots)
        name = rng.choice(sorted({m.group() for m in spots}))
        return text[:spot.start()] + name + text[spot.end():]
    return "\n".join(lines) + "\n"


def mutants(seed: int, count: int):
    """`count` (name, text) mutants of the corpus files, from `seed`."""
    rng = random.Random(seed)
    texts = [(path.name, path.read_text()) for path in CORPUS]
    for i in range(count):
        name, text = rng.choice(texts)
        yield f"{i}-{name}", mutate(text, rng)


@pytest.mark.parametrize("profile", PROFILES)
def test_mutants_exit_cleanly(tmp_path, profile):
    assert len(CORPUS) == 22
    exits = Counter()
    for name, text in mutants(PROFILES.index(profile), MUTANTS_PER_PROFILE):
        path = tmp_path / name
        path.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["analyze", str(path), "--profile", profile])
        err = err.getvalue()
        where = f"{name} under {profile}:\n{text}"
        assert code in (0, 1, 2), where
        assert "internal error" not in err, err + where
        if code == 2:
            assert err.startswith("memlab: error: ") and err.count("\n") == 1 \
                and err.endswith("\n"), err + where
        else:
            assert err == "", err + where
        exits[code] += 1
    # The gate checks the engine only through mutants that parse.
    assert exits[0] + exits[1] >= MUTANTS_PER_PROFILE // 4, exits
