"""A seeded mutation smoke gate over the corpus.

Each mutant is a `corpus/*.c` file with one line-level change: a line
deleted, duplicated or swapped with another, or one identifier occurrence
renamed to another identifier of the same file.  Most mutants are outside
the subset or break a declaration; the others reach the engine with
shapes the corpus never shows it.  Whatever the input, `memlab analyze`
must exit 0, 1 or 2 without an internal error, and an exit 2 must be one
`memlab: error:` line.

At the token level, every corpus file is cut at each token boundary, and
seeded mutants delete, duplicate or replace one token.  There an exit 2
must also name a `line:col` inside the text, however early it ends.

At the byte level, seeded mutants of the tool reports in `reports/`, of a
memlab JSONL report and of the truth manifests in `truth/` delete 1-8
bytes, insert one byte or overwrite one, and go through `ingest`, `bench
--truth` and `persistence --truth`.  The same exits hold, and an exit 2
names the mutated file first.
"""

import contextlib
import io
import random
import re
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from memlab.analysis import analyze_unit
from memlab.cli import main
from memlab.diagnostics import Report, emit_structured
from memlab.frontend import SourceUnit, parse_file, tokenize

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted(ROOT.glob("corpus/*.c"))
REPORTS = sorted(ROOT.glob("reports/*"))
TRUTHS = sorted(ROOT.glob("truth/*.jsonl"))
PROFILES = ("union", "cppcheck-like", "clang-like", "infer-like",
            "predator-like")
MUTANTS_PER_PROFILE = 300
TOKEN_MUTANTS = 600
REPORT_MUTANTS = 800
MANIFEST_MUTANTS = 300
# Printable ASCII, layout, NUL and a byte that is never UTF-8.
_BYTES = bytes(range(32, 127)) + b"\n\t\x00\xff"
_IDENT = re.compile(r"[A-Za-z_]\w*")


def run_main(*argv):
    """Exit code and stderr of `main(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, err.getvalue()


def analyze(path, text, *argv):
    """Exit code and stderr of `memlab analyze` on `text`, saved at `path`."""
    path.write_text(text)
    return run_main("analyze", str(path), *argv)


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
        code, err = analyze(tmp_path / name, text, "--profile", profile)
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


def cuts():
    """Each corpus file cut before each of its tokens, and whole."""
    for path in CORPUS:
        text = path.read_text()
        for tok in tokenize(SourceUnit(path.name, text)):
            yield f"{path.name}@{tok.offset}", text[:tok.offset]
        yield path.name, text


def token_mutants(seed: int, count: int):
    """`count` corpus files with one token deleted, duplicated or replaced
    by a lexeme of the corpus, from `seed`."""
    rng = random.Random(seed)
    texts = [(path.name, path.read_text()) for path in CORPUS]
    tokens = {name: tokenize(SourceUnit(name, text)) for name, text in texts}
    lexemes = sorted({t.lexeme for toks in tokens.values() for t in toks})
    for i in range(count):
        name, text = rng.choice(texts)
        tok = rng.choice(tokens[name])
        start, end = tok.offset, tok.offset + len(tok.lexeme)
        op = rng.choice(("delete", "duplicate", "replace"))
        new = {"delete": "", "duplicate": f"{tok.lexeme} {tok.lexeme}",
               "replace": rng.choice(lexemes)}[op]
        yield f"{i}-{op}-{name}", text[:start] + new + text[end:]


@pytest.mark.parametrize("inputs", [cuts, partial(token_mutants, 5, TOKEN_MUTANTS)],
                         ids=["cuts", "token-mutants"])
def test_token_mutants_exit_cleanly_with_a_located_error(tmp_path, inputs):
    path = tmp_path / "m.c"
    located = re.compile(re.escape(f"memlab: error: {path}:") + r"(\d+):(\d+): ")
    exits = Counter()
    for name, text in inputs():
        code, err = analyze(path, text)
        where = f"{name}:\n{text}"
        assert code in (0, 1, 2), where
        assert "internal error" not in err, err + where
        if code == 2:
            m = located.match(err)
            assert m and err.count("\n") == 1 and err.endswith("\n"), err + where
            line, col = int(m[1]), int(m[2])
            lines = text.split("\n")
            assert 1 <= line <= len(lines) and 1 <= col <= len(lines[line - 1]), \
                err + where
        else:
            assert err == "", err + where
        exits[code] += 1
    assert exits[0] + exits[1] and exits[2], exits


@pytest.mark.parametrize("text,message", [
    ("int f() {", "1:9: unexpected end of input"),
    ("int x", "1:5: expected ';', got 'end of input'"),
    ("int f() { int 3 = 1; return 0; }", "1:15: expected a name, got '3'"),
    # Cuts where the parser looks up to two tokens past the last one; no
    # corpus cut does.  No variable is named `st`.
    ("struct", "1:1: expected a name, got 'end of input'"),
    ("typedef struct { int a; } st; int *p = (st",
     "1:41: undeclared name 'st'"),
])
def test_cut_and_misnamed_inputs_name_the_place(tmp_path, text, message):
    path = tmp_path / "m.c"
    assert analyze(path, text) == (2, f"memlab: error: {path}:{message}\n")


def byte_mutant(data: bytes, rng: random.Random) -> bytes:
    """`data` with 1-8 bytes deleted, one byte inserted or one overwritten."""
    k = rng.randrange(len(data))
    op = rng.choice(("delete", "insert", "overwrite"))
    if op == "delete":
        return data[:k] + data[k + rng.randint(1, 8):]
    byte = bytes([rng.choice(_BYTES)])
    return data[:k] + byte + data[k + (op == "overwrite"):]


def assert_clean_exit(code, err, path, where):
    assert code in (0, 1, 2), where
    assert "internal error" not in err, err + where
    if code == 2:
        assert err.startswith(f"memlab: error: {path}") \
            and err.count("\n") == 1 and err.endswith("\n"), err + where
    else:
        assert err == "", err + where


def test_report_byte_mutants_exit_cleanly(tmp_path):
    assert len(REPORTS) == 5
    memlab = tmp_path / "memlab_corpus.jsonl"
    memlab.write_text(emit_structured(Report(
        [f for path in CORPUS for f in analyze_unit(parse_file(path))])))
    sources = [(p.name.split("_")[0], p.read_bytes())
               for p in (*REPORTS, memlab)]
    rng = random.Random(11)
    path = tmp_path / "report.txt"
    exits = Counter()
    for i in range(REPORT_MUTANTS):
        fmt, data = rng.choice(sources)
        mutant = byte_mutant(data, rng)
        path.write_bytes(mutant)
        code, err = run_main("ingest", str(path), "--format", fmt)
        assert_clean_exit(code, err, path, f"{i} ({fmt}): {mutant!r}")
        exits[code] += 1
    assert exits[0] and exits[2], exits


def test_manifest_byte_mutants_exit_cleanly(tmp_path):
    assert len(TRUTHS) == 2
    sources = [p.read_bytes() for p in TRUTHS]
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    rng = random.Random(13)
    path = tmp_path / "truth.jsonl"
    exits = Counter()
    for i in range(MANIFEST_MUTANTS):
        mutant = byte_mutant(rng.choice(sources), rng)
        path.write_bytes(mutant)
        for argv in (("bench", "--truth", str(path), "--ingested", str(empty)),
                     ("persistence", "--truth", str(path))):
            code, err = run_main(*argv)
            assert_clean_exit(code, err, path, f"{i} {argv[0]}: {mutant!r}")
            exits[code] += 1
    assert exits[0] and exits[2], exits
