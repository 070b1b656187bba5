"""The one-pass report parsers against the line-by-line ones they replaced.

Each test builds reports from a seeded vocabulary of lines, well-formed and
not, and asserts that memlab.ingest gives the same findings as the reference
parsers in ingest_oracle.py, or the same FormatError message.  Lines are
joined with every kind of break `str.splitlines` knows, and padded with tabs,
no-break spaces and other in-line whitespace.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import ingest_oracle
from memlab.ingest import PARSERS, FormatError

SEEDS = range(3000)

# `\n` most of the time, then every other break splitlines counts.
BREAKS = ["\n"] * 12 + ["\r\n", "\r", "\f", "\v", "\x1c", "\x1e", "\x85",
                        "\u2028", "\u2029"]
# In-line whitespace: what str.strip removes without breaking the line.
PADS = ["", "", "", " ", "  ", "\t", "\xa0", " \t", "\x1f", "\u3000"]
INDENTS = [" ", "  ", "\t", "\xa0 ", "    ", "\u2003"]
WORDS = ["pointer", "`p`", "last", "assigned", "on", "line", "12", "could",
         "be", "null", "a\tb", "two  spaces", "x\xa0y", "(error)", "[tag]",
         "a:1:", "error:", "note:", "warning:", "Summary", "MEMORY_LEAK"]


def pad(rng):
    return rng.choice(PADS)


def words(rng, low=0, high=5):
    return [rng.choice(WORDS) for _ in range(rng.randint(low, high))]


def wrap(rng, tokens):
    """`tokens` on one to three lines, broken between tokens, joined on a
    line by a space, two or a tab, with trailing whitespace now and then."""
    cuts = sorted(rng.sample(range(1, len(tokens)),
                             min(len(tokens) - 1, rng.randint(0, 2))))
    pieces = []
    for start, end in zip([0] + cuts, cuts + [len(tokens)]):
        sep = rng.choice([" ", " ", " ", "  ", "\t"])
        pieces.append(sep.join(tokens[start:end]) + pad(rng))
    return pieces


def join(rng, lines):
    text = "".join(line + rng.choice(BREAKS) for line in lines)
    return text if rng.random() < 0.7 else text[:-1] if text else text


def blank(rng):
    return pad(rng)


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except FormatError as exc:
        return "error", str(exc)


def assert_same(fmt, make):
    outcomes = Counter()
    features = Counter()
    for seed in SEEDS:
        text = make(random.Random(seed), features)
        expected = outcome(ingest_oracle.PARSERS[fmt], text)
        assert outcome(PARSERS[fmt], text) == expected, (seed, text)
        outcomes[expected[0]] += 1
    return outcomes, features


# ---------------------------------------------------------------------------
# Infer
# ---------------------------------------------------------------------------

INFER_KINDS = ["DEAD_STORE", "NULL_DEREFERENCE", "MEMORY_LEAK",
               "PREMATURE_NIL", "BUFFER_OVERRUN"] * 4 + ["dead", "DEAD_STOREx"]
PATHS = ["a.c", "dir/b.c", "c:d.c", "e.c:3"]


def infer_context(rng):
    return rng.choice(INDENTS) + rng.choice(
        ["12. > p = q;", "5.   int x;", "Summary of the reports x", "}"])


def infer_entry(rng, features):
    kind = rng.choice(INFER_KINDS)
    head = [f"{rng.choice(PATHS)}:{rng.randint(1, 99)}:",
            rng.choice(["error:"] * 19 + ["warning:"]), kind] + words(rng)
    pieces = wrap(rng, head)
    lines = [pieces[0]]
    for piece in pieces[1:]:
        if rng.random() < 0.3:
            # A context line inside the wrapped message does not end it.
            lines.append(infer_context(rng))
            features["context between wrapped lines"] += 1
        lines.append(piece)
    lines += [infer_context(rng) for _ in range(rng.randint(0, 3))]
    return lines, kind


def infer_summary(rng, counts):
    lines = [pad(rng) + "Summary of the reports" + pad(rng)]
    for kind, n in counts.items():
        if rng.random() < 0.3:
            lines.append(blank(rng))
        line = rng.choice(INDENTS) + f"{kind}:{pad(rng)}{n}"
        if rng.random() < 0.04:
            line = rng.choice([f"{kind}: {n}", line + " ", f"  {kind}: x",
                               line + " extra", "Summary of the reports"])
        lines.append(line)
    return lines


def infer_report(rng, features):
    if rng.random() < 0.03:
        return join(rng, [blank(rng) for _ in range(rng.randint(0, 3))])
    entries = rng.randint(0, 5)
    declared = entries + (rng.random() < 0.08) * rng.choice((-1, 1))
    lines = [blank(rng) for _ in range(rng.randint(0, 2))]
    header = f"Found {declared} issue{'s' if rng.random() < 0.7 else ''}"
    lines.append(rng.choice([pad(rng) + header + pad(rng)] * 30 +
                            ["Found one issue", "a.c:1: error: X m"]))
    if rng.random() < 0.04:
        lines.append(infer_context(rng))
    counts = Counter()
    for _ in range(entries):
        lines += [blank(rng) for _ in range(rng.choice([0, 1, 1, 1, 2]))]
        if rng.random() < 0.1:
            lines.append(infer_context(rng))
            features["context after a blank line"] += 1
        entry, kind = infer_entry(rng, features)
        counts[kind] += 1
        lines += entry
    if rng.random() < 0.7:
        lines += [blank(rng) for _ in range(rng.randint(0, 2))]
        lines += infer_summary(rng, counts)
        features["summary"] += 1
    if rng.random() < 0.05:
        lines.append(rng.choice(["stray line", "  indented", "a.c:2: error:"
                                 " DEAD_STORE late"]))
    return join(rng, lines)


def test_infer_against_the_line_by_line_parser():
    outcomes, features = assert_same("infer", infer_report)
    assert outcomes["ok"] > 600 and outcomes["error"] > 600, outcomes
    assert min(features.values()) > 300, features


# ---------------------------------------------------------------------------
# Cppcheck
# ---------------------------------------------------------------------------

CPPCHECK_MESSAGES = ["Memory leak: p", "Common realloc mistake: 'new' nulled",
                     "Resource leak: fd", "Null pointer dereference: q",
                     "Uninitialized variable: x",
                     "Dereferencing 'p' after it is deallocated / released",
                     "Array 'a[8]' accessed at index 8, out of bounds."]


def cppcheck_entry(rng, features):
    sev = rng.choice(["(error)"] * 6 + ["(style)", "(warning)", "(err or)",
                                        ""])
    tokens = ([sev] if sev else []) + \
        rng.choice(CPPCHECK_MESSAGES).split(" ") + words(rng, 0, 2)
    head = (pad(rng) + f"[{rng.choice(['a.c', 'dir/b c.c'])}:"
            f"{rng.randint(1, 99)}]:" + pad(rng))
    pieces = wrap(rng, tokens)
    if rng.random() < 0.4:
        # The generator's shape: `[path:line]: ` alone, message below.
        lines = [head]
    else:
        lines = [head + " " + pieces.pop(0)]
    for piece in pieces:
        if rng.random() < 0.15:
            lines.append(blank(rng))
            features["blank line inside an entry"] += 1
        lines.append(rng.choice(["", "", " ", "\t"]) + piece)
    return lines


def cppcheck_report(rng, features):
    lines = [blank(rng) for _ in range(rng.randint(0, 1))]
    for _ in range(rng.randint(0, 3)):
        banner = rng.choice([f"Checking {rng.choice(PATHS)} ..."] * 8 +
                            ["Checking ...", "  Checking a.c ...  "])
        lines.append(banner)
        for _ in range(rng.randint(0, 3)):
            lines += cppcheck_entry(rng, features)
            if rng.random() < 0.2:
                lines.append(blank(rng))
            if rng.random() < 0.05:
                lines.append(rng.choice(["[bad line", "  [a.c:3 x",
                                         "[a.c 5]: (error) x"]))
                features["stray bracket line"] += 1
    if rng.random() < 0.05:
        lines.insert(rng.randint(0, len(lines)),
                     rng.choice(["a.c:4: error: something", "stray"]))
    return join(rng, lines)


def test_cppcheck_against_the_line_by_line_parser():
    outcomes, features = assert_same("cppcheck", cppcheck_report)
    assert outcomes["ok"] > 600 and outcomes["error"] > 600, outcomes
    assert min(features.values()) > 300, features


# ---------------------------------------------------------------------------
# Predator
# ---------------------------------------------------------------------------

TAG = "[-fplugin=libsl.so]"
PREDATOR_MESSAGES = ["memory leak detected while destroying a variable",
                     "invalid dereference of 'p' after free",
                     "double free of 'q'", "dereference of NULL value",
                     "write of 8 bytes out of range"]


def predator_record(rng):
    note = rng.random() < 0.25
    where = f"{rng.choice(PATHS + ['a:1:b.c'])}:{rng.randint(1, 99)}:"
    if note:
        where += " note:"
    else:
        where += f"{rng.randint(1, 9)}:{pad(rng)} warning:"
    tokens = [where] + rng.choice(PREDATOR_MESSAGES).split(" ") + \
        words(rng, 0, 2)
    terminated = rng.random() < 0.9
    if terminated:
        tokens.insert(rng.choice([len(tokens)] * 4 + [len(tokens) - 1]), TAG)
        if rng.random() < 0.05:
            tokens.append(TAG)
    lines = [pad(rng) + line for line in wrap(rng, tokens)]
    if rng.random() < 0.1:
        lines.insert(rng.randint(1, len(lines)), blank(rng))
    if terminated and rng.random() < 0.03:
        # The tag broken across two lines terminates nothing.
        lines[-1] = lines[-1].replace(TAG, "[-fplugin=\nlibsl.so]")
    return lines, terminated


def predator_report(rng, features):
    lines = []
    unterminated = False
    for _ in range(rng.randint(0, 5)):
        record, terminated = predator_record(rng)
        if unterminated:
            features["unterminated then another warning or note"] += 1
        unterminated = not terminated
        lines += record
        if rng.random() < 0.2:
            lines.append(blank(rng))
    if rng.random() < 0.06:
        lines.insert(rng.randint(0, len(lines)), rng.choice(
            ["a.c: warning: memory leak " + TAG, "stray text",
             "  warning: nowhere"]))
    return join(rng, lines)


def test_predator_against_the_line_by_line_parser():
    outcomes, features = assert_same("predator", predator_report)
    assert outcomes["ok"] > 600 and outcomes["error"] > 600, outcomes
    assert min(features.values()) > 300, features


# ---------------------------------------------------------------------------
# Memlab (well-typed records: ill-typed ones are FormatErrors only now)
# ---------------------------------------------------------------------------

MEMLAB_PAIRS = [("MEMORY_LEAK", "MEMORY_LEAK"),
                ("NULL_DEREFERENCE", "NULL_DEREF"),
                ("DEAD_STORE", "DEAD_STORE"), ("OUT_OF_BOUNDS", "ingest:x")]


def memlab_report(rng, features):
    lines = []
    for _ in range(rng.randint(0, 6)):
        kind, checker = rng.choice(MEMLAB_PAIRS)
        line = json.dumps({"file": rng.choice(PATHS),
                           "line": rng.randint(1, 99), "kind": kind,
                           "checker": checker,
                           "message": " ".join(words(rng)), "function": "f"})
        lines.append(rng.choice([line] * 12 + [
            " " + line + "\t", blank(rng), "not json", '{"file": "a.c"}',
            "[1, 2]", "\xa0" + line, line + " x"]))
    return join(rng, lines)


def test_memlab_against_the_line_by_line_parser():
    outcomes, _ = assert_same("memlab", memlab_report)
    assert outcomes["ok"] > 600 and outcomes["error"] > 600, outcomes


@pytest.mark.parametrize("fmt,text,message", [
    # A context line between the wrapped lines of an issue does not end it.
    ("infer", "Found 1 issue\na.c:1: error: DEAD_STORE msg\n  ctx\n"
              "more words\n", "msg more words"),
    ("infer", "Found 1 issue\na.c:1:\n  ctx\nerror: DEAD_STORE msg\n", "msg"),
    ("cppcheck", "[a.c:1]:\n\n  (error)  Memory leak:\tp  \n\n\nnext\n",
     "Memory leak:\tp next"),
    ("predator", "a.c:1:2: warning: x [-fplugin=libsl.so] y\n", "x  y"),
])
def test_messages_as_the_line_by_line_parser_joins_them(fmt, text, message):
    assert ingest_oracle.PARSERS[fmt](text)[0].message == message
    assert PARSERS[fmt](text)[0].message == message


@pytest.mark.parametrize("path", sorted(Path("reports").glob("*.txt")),
                         ids=lambda path: path.name)
def test_report_fixtures_as_before(path):
    fmt = path.name.split("_")[0]
    text = path.read_text(encoding="utf-8")
    assert PARSERS[fmt](text) == ingest_oracle.PARSERS[fmt](text)
