"""Metamorphic relations on `analyze_unit`: two programs that differ only in
how their variables are spelled give the same reports, spelling aside.

Renaming one spelling of variables consistently, in its declarations and in
every use, to a fresh name changes the findings only in that spelling; the
corpus and seeded programs of the test generators are checked.  A
shadowing declaration is the same relation seen from the inside: an arm
that redeclares an outer name in its block reports what the same arm
reports with the inner variable given a fresh name, so the inner variable
is a variable of its own and the outer one is untouched.

Inserting a blank or comment line is no change of meaning either: every
line from there on, of a finding or in its message, moves down by one, and
nothing else changes.

The order in which a unit defines its functions is not part of what it
means either: with no call cycle, defining the callees after their callers
gives the same reports, each line counted from its function's first line.

Nor should it matter whether a store is written as a declaration's
initializer or as an assignment after the declaration: both should give the
same checkers.  Today they do not, and that test is a strict xfail.
"""

import graphlib
import random
import re
from pathlib import Path

import pytest

from memlab.analysis import PROFILES, analyze_unit
from memlab.frontend import SourceUnit, VarDecl, parse_source, tokenize
from test_dedup import branching_loop, dying_program, escaping_program, \
    store_program
from test_exploration import random_program
from test_properties import generate_program

ROOT = Path(__file__).resolve().parent.parent
CORPUS = sorted(ROOT.glob("corpus/*.c"))
FRESH = "zq_fresh"
GENERATORS = {
    "branching_loop": branching_loop,
    "dying_program": dying_program,
    "escaping_program": escaping_program,
    "generate_program": lambda rng: generate_program(rng)[0],
    "random_program": random_program,
    "store_program": store_program,
}


def report(text, profile):
    """(incomplete, sorted findings) of `text` under `profile`."""
    result = analyze_unit(parse_source("m.c", text), config=PROFILES[profile])
    return result.incomplete, sorted(result)


def spelled(outcome, new, old):
    """`outcome` with `new` spelled `old` in every message."""
    incomplete, findings = outcome
    return incomplete, sorted(f._replace(message=f.message.replace(new, old))
                              for f in findings)


def variable_tokens(text):
    """The identifier tokens of `text` whose spelling names only variables:
    no callee, field or struct has it."""
    toks = tokenize(SourceUnit("m.c", text))
    variables, others = [], set()
    for prev, tok, nxt in zip([None, *toks], toks, [*toks[1:], None]):
        if tok.kind != "IDENT":
            continue
        if (prev is not None and prev.lexeme in (".", "->", "struct")) \
                or (nxt is not None and nxt.lexeme == "("):
            others.add(tok.lexeme)
        else:
            variables.append(tok)
    tu = parse_source("m.c", text)
    others |= {st.name for st in tu.structs}
    others |= {name for st in tu.structs for name, _ in st.fields}
    return [tok for tok in variables if tok.lexeme not in others]


def rename(text, old, new):
    """`text` with every variable token spelled `old` spelled `new`."""
    out, last = [], 0
    for tok in variable_tokens(text):
        if tok.lexeme == old:
            out += [text[last:tok.offset], new]
            last = tok.offset + len(old)
    return "".join(out) + text[last:]


def assert_renaming_changes_only_the_spelling(text, old):
    renamed = rename(text, old, FRESH)
    assert renamed != text
    for profile in sorted(PROFILES):
        assert spelled(report(renamed, profile), FRESH, old) \
            == report(text, profile), (old, profile, text)


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_renaming_a_corpus_variable(path):
    text = path.read_text(encoding="utf-8")
    names = sorted({tok.lexeme for tok in variable_tokens(text)})
    assert names
    for old in names:
        assert_renaming_changes_only_the_spelling(text, old)


@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_renaming_a_generated_variable(gen):
    for seed in range(20):
        rng = random.Random(seed)
        text = GENERATORS[gen](rng)
        names = sorted({tok.lexeme for tok in variable_tokens(text)})
        for old in rng.sample(names, min(2, len(names))):
            assert_renaming_changes_only_the_spelling(text, old)


# ---------------------------------------------------------------------------
# Inserted lines
# ---------------------------------------------------------------------------


def shifted(outcome, at):
    """`outcome` with every line from `at` on, of a finding or in its
    message, one line further down."""
    incomplete, findings = outcome

    def down(line):
        return line + 1 if line >= at else line

    return incomplete, sorted(
        f._replace(line=down(f.line), message=re.sub(
            r"line (\d+)", lambda m: f"line {down(int(m[1]))}", f.message))
        for f in findings)


def assert_inserted_lines_shift_only_the_lines(text, rng):
    """Insert a blank or a comment line before three lines of `text`, in
    turn: the first line and the end of the text are among the places."""
    lines = text.splitlines(keepends=True)
    places = range(1, len(lines) + 2)
    for at in rng.sample(places, min(3, len(places))):
        filler = rng.choice(["\n", "// inserted\n"])
        changed = "".join(lines[:at - 1]) + filler + "".join(lines[at - 1:])
        for profile in sorted(PROFILES):
            assert report(changed, profile) \
                == shifted(report(text, profile), at), (at, profile, text)


# A path that runs off the end of the body leaks at its closing brace.
FALL_OFF_THE_END = ("int *f(int c) {\n  int *p = malloc(4);\n"
                    "  if (c) {\n    return p;\n  }\n}\n")


@pytest.mark.parametrize("path", CORPUS, ids=[p.name for p in CORPUS])
def test_a_line_inserted_in_a_corpus_file(path):
    assert_inserted_lines_shift_only_the_lines(
        path.read_text(encoding="utf-8"), random.Random(path.name))


@pytest.mark.parametrize("gen", sorted(GENERATORS))
def test_a_line_inserted_in_a_generated_program(gen):
    for seed in range(20):
        rng = random.Random(seed)
        assert_inserted_lines_shift_only_the_lines(GENERATORS[gen](rng), rng)


def test_a_line_inserted_before_the_closing_brace():
    assert report(FALL_OFF_THE_END, "union")[1][0].line == 6
    for at in range(1, 8):
        changed = FALL_OFF_THE_END.splitlines(keepends=True)
        changed.insert(at - 1, "\n")
        assert report("".join(changed), "union") \
            == shifted(report(FALL_OFF_THE_END, "union"), at), at


# ---------------------------------------------------------------------------
# Shadowing
# ---------------------------------------------------------------------------


# An arm on a line of its own, with no block inside it.
ARM = re.compile(r"^(?P<head>(?:if \([^{}]*\) |else )\{ )(?P<body>[^{}]*)"
                 r"(?P<tail> \})$")


def _use(name):
    """A use of the variable `name`, not of a field of its spelling."""
    return rf"(?<![.>\w]){name}\b"


def shadowing_pair(text, rng):
    """(shadowed, renamed, name): `text` with one arm's block opened by a
    declaration of an outer variable `name`, and the same with the inner
    variable spelled FRESH; None if no arm uses a variable."""
    tu = parse_source("m.c", text)
    types = {g.name: g.ctype for g in tu.globals}
    for fn in tu.functions:
        types.update(fn.params)
        types.update((d.name, d.ctype) for d in fn.body
                     if isinstance(d, VarDecl))
    lines = text.split("\n")
    arms = []
    for k, line in enumerate(lines):
        m = ARM.match(line)
        if m:
            arms += [(k, m, name) for name in sorted(types)
                     if re.search(_use(name), m["body"])]
    if not arms:
        return None
    k, m, name = rng.choice(arms)
    ctype = types[name]
    init = rng.choice(("NULL", "malloc(8)") if ctype.is_pointer
                      else ("0", "1"))

    def arm(spelling, body):
        return f"{m['head']}{ctype} {spelling} = {init}; {body}{m['tail']}"

    fresh_body = re.sub(_use(name), FRESH, m["body"])
    shadowed = lines[:k] + [arm(name, m["body"])] + lines[k + 1:]
    renamed = lines[:k] + [arm(FRESH, fresh_body)] + lines[k + 1:]
    return "\n".join(shadowed), "\n".join(renamed), name


@pytest.mark.parametrize("gen", ["branching_loop", "dying_program",
                                 "escaping_program"])
def test_a_shadowing_declaration_is_a_variable_of_its_own(gen):
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        pair = shadowing_pair(GENERATORS[gen](rng), rng)
        if pair is None:
            continue
        shadowed, renamed, name = pair
        for profile in sorted(PROFILES):
            assert report(shadowed, profile) \
                == spelled(report(renamed, profile), FRESH, name), \
                (profile, shadowed)
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# Definition order
# ---------------------------------------------------------------------------


def functions_of(text):
    """The source text of each function of `text`, which holds nothing
    else, in order, and whether the unit's calls form a cycle."""
    tu = parse_source("m.c", text)
    lines = text.splitlines(keepends=True)
    starts = [fn.loc.line - 1 for fn in tu.functions] + [len(lines)]
    names = {fn.name for fn in tu.functions}
    try:
        graphlib.TopologicalSorter(
            {fn.name: fn.calls & names for fn in tu.functions}).prepare()
        cyclic = False
    except graphlib.CycleError:
        cyclic = True
    return ["".join(lines[a:b]) for a, b in zip(starts, starts[1:])], cyclic


def relative_report(text, profile):
    """report(), with every line, in a finding or its message, counted from
    the first line of the finding's function."""
    tu = parse_source("m.c", text)
    first = {fn.name: fn.loc.line - 1 for fn in tu.functions}
    incomplete, findings = report(text, profile)

    def shift(f):
        base = first[f.function]
        message = re.sub(r"line (\d+)", lambda m: f"line {int(m[1]) - base}",
                         f.message)
        return f._replace(line=f.line - base, message=message)

    return incomplete, sorted(map(shift, findings))


def assert_order_keeps_the_reports(functions):
    forward = "".join(functions)
    backward = "".join(reversed(functions))
    for profile in sorted(PROFILES):
        assert relative_report(backward, profile) \
            == relative_report(forward, profile), (profile, forward)


# A caller and its callee, each of whose summaries the caller reads: a
# fresh block returned, a parameter freed.
CALLEE_PAIR = [
    "int *mk(int c) {\n  if (c) {\n    return NULL;\n  }\n"
    "  return malloc(4);\n}\n",
    "void rel(int *p) {\n  free(p);\n}\n",
    "int f(int c) {\n  int *q = mk(c);\n  int *r = mk(c);\n  rel(r);\n"
    "  rel(r);\n  return 0;\n}\n",
]


def test_a_callee_defined_after_its_caller():
    _, cyclic = functions_of("".join(CALLEE_PAIR))
    assert not cyclic
    assert report("".join(CALLEE_PAIR), "union")[1], "the pair reports nothing"
    assert_order_keeps_the_reports(CALLEE_PAIR)


def test_random_programs_in_reverse_definition_order():
    checked = 0
    for seed in range(60):
        functions, cyclic = functions_of(random_program(random.Random(seed)))
        if not cyclic:
            assert_order_keeps_the_reports(functions)
            checked += 1
    assert checked >= 30


# `a` and `b` call each other; `f` calls `b`.  In the order a, b, f, `b` is
# explored while `a` has no summary yet and keeps that summary, so `f` does
# not see the block `a` returns.
CALL_CYCLE = [
    "int *a(int c) {\n  if (c) {\n    return b(c - 1);\n  }\n"
    "  return malloc(4);\n}\n",
    "int *b(int c) {\n  return a(c);\n}\n",
    "int f(int c) {\n  int *p = b(c);\n  return 0;\n}\n",
]


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 9: a function on a call cycle keeps the summary of its "
    "first exploration, so the order of definitions decides what a caller "
    "of the cycle reads"))
def test_a_call_cycle_in_either_order():
    ab = "".join(CALL_CYCLE)
    ba = "".join([CALL_CYCLE[1], CALL_CYCLE[0], CALL_CYCLE[2]])
    assert functions_of(ab)[1]
    for profile in sorted(PROFILES):
        assert relative_report(ab, profile) == relative_report(ba, profile), \
            profile


# ---------------------------------------------------------------------------
# A store written two ways
# ---------------------------------------------------------------------------


def test_a_store_declared_or_assigned_has_one_checker():
    declared = "int f() {\n  int x = 0;\n  int z = x;\n  return 0;\n}\n"
    assigned = ("int f() {\n  int x = 0;\n  int z;\n  z = x;\n"
                "  return 0;\n}\n")
    assert report(declared, "union")[1]
    for profile in sorted(PROFILES):
        declared_as, assigned_as = (
            sorted(f.checker for f in report(text, profile)[1])
            for text in (declared, assigned))
        assert declared_as == assigned_as, profile
