"""Property-based tests: randomized oracles and algebraic laws."""

import glob
import random
import re

from memlab.analysis import Finding, PROFILES, analyze_unit
from memlab.benchlab import GroundTruthEntry, classify, compute_rates
from memlab.diagnostics import Report, render_text
from memlab.frontend import parse_source

ALLOC_LINE = re.compile(r"allocated at line (\d+)")


# ---------------------------------------------------------------------------
# Random straight-line programs with a concrete leak oracle
# ---------------------------------------------------------------------------

VARS = ("p0", "p1", "p2")


def generate_program(rng):
    """A straight-line sequence of allocs, copies, nulls, and frees.

    Returns (source, leaked_alloc_lines) where the leak set is computed by
    direct interpretation: an allocation leaks iff it is never freed.
    """
    lines = ["int main() {"]
    env = {}
    for v in VARS:
        lines.append(f"    int *{v} = NULL;")
        env[v] = None
    allocs = {}  # alloc line -> freed?

    for _ in range(rng.randrange(3, 9)):
        line_no = len(lines) + 1
        op = rng.choice(("alloc", "alloc", "copy", "null", "free", "free"))
        v = rng.choice(VARS)
        if op == "alloc":
            lines.append(f"    {v} = malloc(4);")
            env[v] = line_no
            allocs[line_no] = False
        elif op == "copy":
            src = rng.choice([w for w in VARS if w != v])
            lines.append(f"    {v} = {src};")
            env[v] = env[src]
        elif op == "null":
            lines.append(f"    {v} = NULL;")
            env[v] = None
        else:
            # Only free a null pointer or a not-yet-freed allocation, so
            # the program has no double free to muddy the leak oracle.
            if env[v] is not None and allocs[env[v]]:
                continue
            lines.append(f"    free({v});")
            if env[v] is not None:
                allocs[env[v]] = True
    lines.append("    return 0;")
    lines.append("}")
    leaked = {line for line, freed in allocs.items() if not freed}
    return "\n".join(lines) + "\n", leaked


def analyzer_leak_lines(source):
    result = analyze_unit(parse_source("<p>", source))
    lines = set()
    for f in result:
        if f.kind == "MEMORY_LEAK":
            m = ALLOC_LINE.search(f.message)
            assert m, f.message
            lines.add(int(m.group(1)))
    return lines


class TestLeakOracle:
    def test_equivalence_on_random_programs(self):
        rng = random.Random(20240817)
        for i in range(1000):
            source, expected = generate_program(rng)
            got = analyzer_leak_lines(source)
            assert got == expected, f"program {i}:\n{source}"


# ---------------------------------------------------------------------------
# Random straight-line stores with a dead-store oracle
# ---------------------------------------------------------------------------

STORE_TARGETS = ("a", "b", "x", "c")  # `c` is a parameter
DEAD_MESSAGE = re.compile(r"The value written to &(\w+) is never used")


def straight_line_stores(rng):
    """A straight-line function of scalar and pointer stores, reads, and
    `&x`, each statement on a line of its own.

    Returns (source, dead): the (line, variable) of each store that the
    next statement touching its variable writes without reading it first,
    or that no later statement touches.  A variable whose address is taken
    and the global `g` are exempt: a read through a pointer, or after the
    function returns, is invisible here.  Straight-line code has one path
    (up to allocation failures), so what a path reads and what a path of
    the CFG reads are the same.
    """
    lines = ["int g;", "int f(int c, int *r) {"]
    stmts = []  # (line, variable written or None, variables read)
    scalars, pointers = ["c"], []  # declared so far
    mallocs = 0

    def add(text, written, read):
        lines.append("    " + text)
        stmts.append((len(lines), written, read))

    def scalar():
        """An int expression over what is declared: (text, reads)."""
        s, t = rng.choice(scalars), rng.choice(scalars)
        choices = [("0", set()), ("1", set()), ("g", set()), (s, {s}),
                   (f"{s} + {t}", {s, t})]
        if pointers:
            p = rng.choice(pointers)
            choices.append((f"*{p}", {p}))
        return rng.choice(choices)

    def pointer(target):
        nonlocal mallocs
        choices = [("r", set()), ("NULL", set()), ("&x", set())]
        choices += [(p, {p}) for p in pointers if p != target]
        if mallocs < 3:
            choices.append(("malloc(4)", set()))
        text, read = rng.choice(choices)
        mallocs += text == "malloc(4)"
        return text, read

    for v in ("a", "b", "x"):
        text, read = scalar()
        add(f"int {v} = {text};", v, read)
        scalars.append(v)
    for v in ("p", "q"):
        text, read = pointer(v)
        add(f"int *{v} = {text};", v, read)
        pointers.append(v)
    for _ in range(rng.randint(3, 10)):
        kind = rng.choice(("scalar", "scalar", "pointer", "through", "global",
                           "read"))
        if kind == "scalar":
            v = rng.choice(STORE_TARGETS)
            text, read = scalar()
            add(f"{v} = {text};", v, read)
        elif kind == "pointer":
            v = rng.choice(pointers)
            text, read = pointer(v)
            add(f"{v} = {text};", v, read)
        elif kind == "through":
            v = rng.choice(pointers)
            text, read = scalar()
            add(f"*{v} = {text};", None, read | {v})
        elif kind == "global":
            text, read = scalar()
            add(f"g = {text};", "g", read)
        else:
            v = rng.choice(scalars + pointers)
            add(f'printf("%d\\n", {v});', None, {v})
    v = rng.choice(("a", "b", "0"))
    add(f"return {v};", None, {v})
    lines.append("}")

    exempt = {"g"} | ({"x"} if any("&x" in line for line in lines) else set())
    dead = set()
    for i, (line, var, _) in enumerate(stmts):
        if var is None or var in exempt:
            continue
        for _, written, read in stmts[i + 1:]:
            if var in read:
                break
            if written == var:
                dead.add((line, var))
                break
        else:
            dead.add((line, var))
    return "\n".join(lines) + "\n", dead


class TestDeadStoreOracle:
    def test_union_reports_exactly_the_oracle_dead_stores(self):
        kinds = set()
        for seed in range(400):
            source, dead = straight_line_stores(random.Random(seed))
            result = analyze_unit(parse_source("<p>", source))
            assert not result.incomplete, source
            got = set()
            for f in result:
                if f.kind == "DEAD_STORE":
                    kinds.add(f.checker)
                    got.add((f.line,
                             DEAD_MESSAGE.fullmatch(f.message).group(1)))
            assert got == dead, f"seed {seed}:\n{source}"
        assert kinds == {"DEAD_STORE", "DEAD_STORE_NULL_INIT"}


# ---------------------------------------------------------------------------
# Buggy/fixed monotonicity on the corpus
# ---------------------------------------------------------------------------


class TestMonotonicity:
    def test_fixed_findings_subset_of_buggy(self):
        for buggy_path in sorted(glob.glob("corpus/*.c")):
            if buggy_path.endswith("_fixed.c"):
                continue
            fixed_path = buggy_path[:-2] + "_fixed.c"
            buggy = analyze_unit(parse_source(
                buggy_path, open(buggy_path, encoding="utf-8").read()))
            fixed = analyze_unit(parse_source(
                fixed_path, open(fixed_path, encoding="utf-8").read()))
            assert len(fixed) == 0, fixed_path
            assert len(buggy) >= 1, buggy_path


# ---------------------------------------------------------------------------
# Classification partition law
# ---------------------------------------------------------------------------

KINDS = ("MEMORY_LEAK", "NULL_DEREFERENCE", "DEAD_STORE")
FILES = ("a.c", "b.c")


def random_truth(rng):
    slots = [(f, line, k) for f in FILES for line in range(1, 11)
             for k in KINDS]
    rng.shuffle(slots)
    return [GroundTruthEntry(file=f, line=line, kind=k,
                             is_real=rng.random() < 0.5,
                             introduced_version="v1")
            for f, line, k in slots[:rng.randrange(0, 8)]]


def random_findings(rng):
    out = []
    for _ in range(rng.randrange(0, 8)):
        kind = rng.choice(KINDS + ("UNMAPPED",))
        out.append(Finding(file=rng.choice(FILES),
                           line=rng.randrange(1, 11), kind=kind,
                           checker="ingest:memlab", message="", function=""))
    return out


class TestPartitionLaw:
    def test_every_item_lands_in_exactly_one_bucket(self):
        rng = random.Random(99)
        for _ in range(1000):
            truth = random_truth(rng)
            findings = random_findings(rng)
            matrix, labels = classify(findings, truth)
            unmapped = sum(1 for _, lab in labels if lab == "UNMAPPED")
            assert matrix.tp + matrix.fp + unmapped == len(findings)
            assert len(labels) == len(findings)
            # Matched entries plus FN plus TN account for all of truth.
            matched = {id(e) for f in findings if f.kind != "UNMAPPED"
                       for e in truth
                       if e.file == f.file and e.line == f.line
                       and e.kind == f.kind}
            assert matrix.fn + matrix.tn + len(matched) == len(truth)
            if matrix.total:
                assert abs(sum(compute_rates(matrix).values()) - 1.0) < 1e-12


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_repeated_analysis_renders_identically(self):
        for path in sorted(glob.glob("corpus/*.c")):
            text = open(path, encoding="utf-8").read()
            first = render_text(Report(list(analyze_unit(
                parse_source(path, text)))))
            second = render_text(Report(list(analyze_unit(
                parse_source(path, text)))))
            assert first == second

    def test_profiles_are_deterministic_too(self):
        path = "corpus/struct_field_leak.c"
        text = open(path, encoding="utf-8").read()
        for profile in PROFILES.values():
            runs = {render_text(Report(list(analyze_unit(
                parse_source(path, text), config=profile))))
                for _ in range(3)}
            assert len(runs) == 1
