"""Exact state deduplication against exploring every path.

The engine drops a path when it enters a merge block in a state it has
already explored from there.  With ``_state_key`` replaced by one that never
repeats, nothing is dropped, which is how paths were explored before.  Both
must give the same findings, ``incomplete`` flags and summaries on every
input that both finish within the budget, and the deduplicated walk must
finish within every budget the full walk finishes within.

The key blanks the slots the continuation cannot read (``Cfg.dead``): dead
variables and the trip counts of loops that cannot be gone round again.
With ``Cfg.dead`` patched to give no slot, the key keeps every slot, as it
did before, and is the reference for that.
"""

import random

import pytest

from memlab import analysis
from memlab.analysis import PROFILES, _FunctionAnalysis, analyze_unit
from memlab.cfg import Cfg, build_cfg
from memlab.frontend import parse_source
from test_cli import _own_var_ifs
from test_exploration import random_program

# Large enough that exploring every path finishes on every input below.
NO_LIMIT = 10 ** 6


def p_chain(n):
    """`n` plain ifs in a row: 2**n paths."""
    return ("int f(int c, int i) {\n    int x = 0;\n"
            + "    if (c) { x = i; }\n" * n + "    return x;\n}\n")


def a_chain(k, ret="0"):
    """`k` allocating ifs in a row: 3**k paths."""
    return ("int f(int c) {\n    int *p;\n"
            + "    if (c) { p = malloc(8); if (p) { free(p); } }\n" * k
            + f"    return {ret};\n}}\n")


def loops_in_a_row(n):
    """`n` loops in a row, each round one plain if."""
    return ("int f(int c, int m) {\n    int x = 0;\n"
            + "    while (x < m) { if (c) { x = x + 1; } }\n" * n
            + "    return x;\n}\n")


def loop_nest(ifs, leak):
    """Two nested loops round `ifs` plain ifs, optionally leaking."""
    body = "            if (c) { x = x + i; }\n" * ifs
    if leak:
        body += "            q = malloc(4);\n"
    return ("int f(int c, int i, int m) {\n"
            "    int x = 0;\n    int *q = NULL;\n    int k0 = 0;\n"
            "    while (k0 < m) {\n        int k1 = 0;\n"
            "        while (k1 < m) {\n" + body
            + "            k1 = k1 + 1;\n        }\n"
            "        k0 = k0 + 1;\n    }\n    return x;\n}\n")


def branching_loop(rng):
    """One loop whose body branches, between straight-line code.  Two paths
    through the body can reach one state after different numbers of trips
    round the loop, so the key must tell the trips left apart."""
    simple = ("p = malloc(4);", "free(p);", "p = NULL;", "q = p;", "p = q;",
              "x = *p;", "*p = 1;", "x = y;", "y = x;", "x = 0;", "x = 1;",
              "free(q);", "q = NULL;", "x = *q;")
    conds = ("c", "x", "p", "!p", "p == NULL", "q", "y")

    def stmts(lo, hi):
        return " ".join(rng.choice(simple) for _ in range(rng.randint(lo, hi)))

    lines = ["int f(int c, int *r) {", "int *p = r;", "int *q = NULL;",
             "int x = 0;", "int y;", stmts(0, 2),
             f"while ({rng.choice(('c > 0', 'c', 'x'))}) {{",
             f"if ({rng.choice(conds)}) {{ {stmts(0, 2)} }} "
             f"else {{ {stmts(0, 2)} }}"]
    if rng.random() < 0.5:
        lines.append(f"if ({rng.choice(conds)}) {{ {stmts(0, 2)} }}")
    lines += ["}", stmts(1, 3), "return x;", "}"]
    return "\n".join(lines) + "\n"


def store_program(rng):
    """Stores on lines of their own in both arms of ifs and in loop bodies,
    on 2-4 scalars and a pointer.  Arms that store equal values on
    different lines reach a join in one state, so the paths that arrive
    second are dropped, and their stores must still be reported exactly
    when no path of the CFG reads them; some variables are read after the
    join, some are never read."""
    scalars = ["a", "b", "x", "y"][:rng.randint(2, 4)]
    values = ("0", "1", "2", "c", "d")

    def store(var):
        if var == "p":
            return f"p = {rng.choice(('r', 'NULL', 'r'))};"
        return f"{var} = {rng.choice(values + tuple(scalars))};"

    def arm(var):
        # The first store is to `var` in both arms of one if.
        return [store(var)] + [store(rng.choice(scalars + ["p"]))
                               for _ in range(rng.randint(0, 1))]

    def read(var):
        if var == "p" or rng.random() < 0.3:
            var = rng.choice(scalars)
            return rng.choice((f"*p = {var};", f"{var} = *p;"))
        return f"{rng.choice(scalars)} = {var};"

    conds = ("c", "d", "p", "!p") + tuple(scalars)
    lines = ["int f(int c, int d, int *r) {", "int *p = r;"]
    lines += [f"int {v}{rng.choice((' = 0', ''))};" for v in scalars]
    for _ in range(rng.randint(2, 4)):
        shape = rng.choice(("if-else", "if-else", "if", "while"))
        var = rng.choice(scalars + ["p"])
        if shape == "while":
            lines += [f"while ({rng.choice(('c', 'd > 0'))}) {{", *arm(var),
                      f"if ({rng.choice(conds)}) {{", *arm(var), "}",
                      "d = d - 1;", "}"]
        else:
            lines += [f"if ({rng.choice(conds)}) {{", *arm(var), "}"]
            if shape == "if-else":
                lines += ["else {", *arm(var), "}"]
        if rng.random() < 0.8:
            lines.append(read(var))
    lines += [f"return {rng.choice(scalars + ['0'])};", "}"]
    return "\n".join(lines) + "\n"


# Statements of `dying_program`: `n` is a struct with a pointer field `f`
# and a scalar `v`, `g` a global, `s` points to `x`.
DYING_STMTS = (
    "q = p; p = NULL;", "p = malloc(sizeof(n));", "r = malloc(sizeof(n));",
    "free(p);", "free(q);", "if (p) { free(p); }", "r = q;", "p = r;",
    "q = p;", "p = NULL;", "q = NULL;", "*s = 0;", "x = 1;", "s = &x;",
    "x = *s;", "p->f = q;", "q->v = x;", "x = p->v;", "r = p->f;",
    "p->f = NULL;", "g = p;", "p = g;",
)
DYING_CONDS = ("c", "d", "p", "!q", "r == NULL", "x", "*s", "p->f")
DYING_TAIL = ("p = NULL;", "q = NULL;", "r = NULL;", "p = q;", "r = p;",
              "q = malloc(sizeof(n));", "x = 2;", "*s = 1;", "g = NULL;",
              "free(r);")


def dying_program(rng):
    """Pointer variables that die at joins.  Arms move a block from one
    variable to another, free, store through pointers and fields and go
    round loops; after the last join, variables are overwritten on lines of
    their own, so which overwrite drops the last reference to a block
    decides the line of its leak."""
    def arm():
        return " ".join(rng.choice(DYING_STMTS)
                        for _ in range(rng.randint(1, 2)))

    lines = ["typedef struct n { struct n *f; int v; } n;", "n *g;",
             "int f(int c, int d) {", "int x = 0;", "int *s = &x;",
             "n *p = malloc(sizeof(n));", "n *q = NULL;", "n *r = NULL;"]
    for _ in range(rng.randint(2, 3)):
        shape = rng.choice(("move", "if", "if-else", "while"))
        cond = rng.choice(DYING_CONDS)
        if shape == "move":
            lines.append(f"if ({cond}) {{ q = p; p = NULL; }}")
        elif shape == "while":
            lines += ["while (d > 0) {", f"if ({cond}) {{ {arm()} }}",
                      "d = d - 1;", "}"]
        else:
            lines.append(f"if ({cond}) {{ {arm()} }}")
            if shape == "if-else":
                lines.append(f"else {{ {arm()} }}")
        if rng.random() < 0.5:
            lines.append(rng.choice(DYING_STMTS))
    lines += rng.sample(DYING_TAIL, rng.randint(1, 4))
    lines += [rng.choice(("return 0;", "return x;", "return q == NULL;",
                          "return p->v;")), "}"]
    return "\n".join(lines) + "\n"


# Statements of `escaping_program`: blocks linked through the field `f`,
# some moved into it, passed to `sink`, which has no body, and read back
# through `f`.  Its tail frees or sinks what the arms linked.
ESCAPING_STMTS = (
    "p = malloc(sizeof(n));", "q = malloc(sizeof(n));",
    "r = malloc(sizeof(n));", "q->f = malloc(sizeof(n));", "p->f = q;",
    "q->f = r;", "r->f = p;", "p->f->f = r;", "p->f = q; q = NULL;",
    "q->f = r; r = NULL;", "sink(p);", "sink(q);", "free(p);", "free(q);",
    "q = p->f;", "r = q->f;", "p = r;", "p = NULL;", "r = NULL;",
    "r = realloc(p, 8);",
)
ESCAPING_TAIL = ("free(p);", "free(q);", "free(r);", "sink(p);", "sink(q);",
                 "q->f = r;", "p = NULL;")


def escaping_program(rng):
    """Blocks that escape, through a call, a return or a struct free, while
    they hold other blocks in their fields or are given some later."""
    def arm():
        return " ".join(rng.choice(ESCAPING_STMTS)
                        for _ in range(rng.randint(1, 3)))

    lines = ["typedef struct n { struct n *f; int v; } n;",
             "n *f(int c) {", "n *p = malloc(sizeof(n));",
             "n *q = malloc(sizeof(n));", "n *r = malloc(sizeof(n));"]
    for _ in range(rng.randint(2, 4)):
        shape = rng.choice(("straight", "if", "if-else", "while"))
        if shape == "straight":
            lines.append(arm())
        elif shape == "while":
            lines += ["while (c > 0) {", arm(), "c = c - 1;", "}"]
        else:
            lines.append(f"if ({rng.choice(('c', 'p', 'q', 'r'))}) "
                         f"{{ {arm()} }}")
            if shape == "if-else":
                lines.append(f"else {{ {arm()} }}")
    lines += rng.sample(ESCAPING_TAIL, rng.randint(1, 3))
    lines += [f"return {rng.choice(('p', 'q', 'r', 'NULL'))};", "}"]
    return "\n".join(lines) + "\n"


SIX_IF_LOOP = ("int f(int c, int i) {\n    int x = 0;\n    while (c > 0) {\n"
               + "        if (i) { x = i; }\n" * 6
               + "        c = c - 1;\n    }\n    return x;\n}\n")


def outcome(source, config):
    """(sorted findings, incomplete, summaries), each function explored as
    `analyze_unit` explores it."""
    tu = parse_source("t.c", source)
    cfgs = {fn.name: build_cfg(fn) for fn in tu.functions}
    summaries, findings, incomplete = analysis._explore(tu, cfgs, config)
    return sorted(findings), incomplete, summaries


def counted_outcome(source, config, monkeypatch, dedup=True):
    """outcome() and, for each exploration in order, the paths it counted
    or, without dedup, the paths it finished."""
    counts = []
    run, finish_path = _FunctionAnalysis.run, _FunctionAnalysis.finish_path

    def counting_run(self):
        self.finished = 0
        run(self)
        counts.append((self.fn.name,
                       self.paths_counted if dedup else self.finished))

    def counting_finish_path(self, state):
        self.finished += 1
        finish_path(self, state)

    with monkeypatch.context() as m:
        m.setattr(_FunctionAnalysis, "run", counting_run)
        m.setattr(_FunctionAnalysis, "finish_path", counting_finish_path)
        if not dedup:
            m.setattr(analysis, "_state_key", lambda *args: object())
        return outcome(source, config), counts


def assert_same_without_dedup(source, config, monkeypatch):
    """Same results with and without dedup, and a budget never tighter: no
    exploration counts more paths than the full walk, so a budget the full
    walk fits in is one the deduplicated walk fits in."""
    config = config.replace(path_budget=NO_LIMIT)
    deduped, counts = counted_outcome(source, config, monkeypatch)
    every_path, full_counts = counted_outcome(source, config, monkeypatch,
                                              dedup=False)
    assert not every_path[1], "raise NO_LIMIT: the reference was cut short"
    assert deduped == every_path, source
    assert [name for name, _ in counts] == [name for name, _ in full_counts]
    assert all(n <= full for (_, n), (_, full) in zip(counts, full_counts))
    # A budget is at least 1: a function whose every path is abandoned at
    # the unroll bound counts none.
    tight = config.replace(
        path_budget=max(1, *(full for _, full in full_counts)))
    if not counted_outcome(source, tight, monkeypatch, dedup=False)[0][1]:
        assert outcome(source, tight) == every_path, source


@pytest.mark.parametrize("seed", range(120))
def test_random_programs_under_every_profile(seed, monkeypatch):
    source = random_program(random.Random(seed))
    for profile in sorted(PROFILES):
        assert_same_without_dedup(source, PROFILES[profile], monkeypatch)


@pytest.mark.parametrize("seed", range(600))
def test_branching_loops(seed, monkeypatch):
    source = branching_loop(random.Random(seed))
    assert_same_without_dedup(source, PROFILES["union"], monkeypatch)


@pytest.mark.parametrize("seed", range(200))
def test_dead_stores_of_dropped_paths(seed, monkeypatch):
    source = store_program(random.Random(seed))
    for profile in ("union", "clang-like", "infer-like"):
        assert_same_without_dedup(source, PROFILES[profile], monkeypatch)


@pytest.mark.parametrize("seed", range(320))
def test_variables_that_die_at_joins(seed, monkeypatch):
    source = dying_program(random.Random(seed))
    for profile in sorted(PROFILES):
        assert_same_without_dedup(source, PROFILES[profile], monkeypatch)


@pytest.mark.parametrize("seed", range(60))
def test_blocks_that_escape_through_fields(seed, monkeypatch):
    source = escaping_program(random.Random(seed))
    for profile in sorted(PROFILES):
        assert_same_without_dedup(source, PROFILES[profile], monkeypatch)


@pytest.mark.parametrize("source", [
    pytest.param(p_chain(n), id=f"p{n}") for n in (1, 3, 8)] + [
    pytest.param(a_chain(k), id=f"a{k}") for k in (1, 3, 5)] + [
    pytest.param(loop_nest(ifs, leak), id=f"loops{ifs}{'-leak' * leak}")
    for ifs, leak in ((1, False), (2, False), (3, False), (1, True),
                      (2, True))] + [
    pytest.param(loops_in_a_row(n), id=f"row{n}") for n in (1, 2, 3)])
def test_families_under_every_profile(source, monkeypatch):
    for profile in sorted(PROFILES):
        assert_same_without_dedup(source, PROFILES[profile], monkeypatch)


# ---------------------------------------------------------------------------
# The pruned key against the key that keeps everything
# ---------------------------------------------------------------------------


def no_dead_slots(self, block_id):
    """The key as it was before pruning: every variable and every loop trip
    count stays."""
    return ()


def assert_same_as_unpruned(source, config, monkeypatch):
    """Same results as the unpruned key, and no exploration counts more
    paths than it does, so every budget the unpruned key fits in is one
    the pruned key fits in."""
    config = config.replace(path_budget=NO_LIMIT)
    pruned, counts = counted_outcome(source, config, monkeypatch)
    with monkeypatch.context() as m:
        m.setattr(Cfg, "dead", no_dead_slots)
        unpruned, unpruned_counts = counted_outcome(source, config,
                                                    monkeypatch)
    assert pruned == unpruned, source
    assert [name for name, _ in counts] == \
        [name for name, _ in unpruned_counts]
    assert all(n <= ref for (_, n), (_, ref) in zip(counts, unpruned_counts))


@pytest.mark.parametrize("make,seeds", [
    (dying_program, range(150)), (random_program, range(60)),
    (branching_loop, range(60)), (store_program, range(60)),
    (escaping_program, range(60))],
    ids=["dying", "random", "branching-loop", "store", "escaping"])
def test_pruned_key_against_the_unpruned_one(make, seeds, monkeypatch):
    for seed in seeds:
        source = make(random.Random(seed))
        for profile in sorted(PROFILES):
            assert_same_as_unpruned(source, PROFILES[profile], monkeypatch)


@pytest.mark.parametrize("source", [
    pytest.param(a_chain(k), id=f"a{k}") for k in (3, 46)] + [
    pytest.param(a_chain(12, "p == NULL"), id="a12-live")] + [
    pytest.param(loops_in_a_row(n), id=f"row{n}") for n in (4, 6)] + [
    pytest.param(loop_nest(2, True), id="loops2-leak")])
def test_families_against_the_unpruned_key(source, monkeypatch):
    for profile in sorted(PROFILES):
        assert_same_as_unpruned(source, PROFILES[profile], monkeypatch)


# The block moves from p to q in one arm, and both die at the join.  Each
# overwrite after it drops the last reference on one of the two paths, so
# the leak is reported at line 5 on one and at line 6 on the other; a dead
# variable that still points to a live site must keep the paths apart.
MOVED_BLOCK = """int f(int c) {
    int *p = malloc(4);
    int *q = NULL;
    if (c) { q = p; p = NULL; }
    p = NULL;
    q = NULL;
    return 0;
}
"""

# Nothing reads x by name after the first join, only through s: a variable
# whose address is taken is never dead.  Merging x zero with x one would
# lose the null dereference and make `p = NULL` look dead.
READ_THROUGH_POINTER = """int f(int c) {
    int x = 1;
    int *s = &x;
    int *p = NULL;
    if (c) { x = 0; }
    if (*s) { *p = 1; }
    return 0;
}
"""


class TestDeadAtTheJoin:
    @pytest.mark.parametrize("profile", sorted(PROFILES))
    def test_a_moved_block_leaks_at_both_overwrites(self, profile):
        result = analyze_unit(parse_source("t.c", MOVED_BLOCK),
                              config=PROFILES[profile])
        assert sorted(f.line for f in result
                      if f.kind == "MEMORY_LEAK") == [5, 6]

    def test_a_variable_read_through_a_pointer_stays(self):
        result = analyze_unit(parse_source("t.c", READ_THROUGH_POINTER))
        assert [(f.line, f.kind) for f in result] == \
            [(6, "NULL_DEREFERENCE")]


# ---------------------------------------------------------------------------
# The escape rule
# ---------------------------------------------------------------------------


ESCAPE_CONFIGS = [PROFILES[profile] for profile in sorted(PROFILES)] + [
    PROFILES["union"].replace(struct_field_leak=False)]

@pytest.mark.parametrize("make,seeds", [
    (dying_program, range(150)), (random_program, range(60)),
    (escaping_program, range(100))],
    ids=["dying", "random", "escaping"])
def test_escaped_blocks_reach_only_escaped_blocks(make, seeds, monkeypatch):
    """After every statement, every block a field of an escaped block
    points to has escaped too: the leak checks read the flag as it is.
    Every block value, in env or in a field, names a site of its state."""
    transfer = _FunctionAnalysis.transfer
    edges = 0

    def checking_transfer(self, stmt, state):
        nonlocal edges
        out = transfer(self, stmt, state)
        for s in out:
            values = list(s.env)
            for info in s.sites:
                values += info.fields.values()
            for v in values:
                if analysis._is_block(v):
                    assert 0 <= v.site < len(s.sites), (stmt.loc.line, source)
            for info in s.sites:
                if not info.escaped:
                    continue
                for v in info.fields.values():
                    if analysis._is_block(v):
                        assert s.sites[v.site].escaped, (stmt.loc.line, source)
                        edges += 1
        return out

    monkeypatch.setattr(_FunctionAnalysis, "transfer", checking_transfer)
    for seed in seeds:
        source = make(random.Random(seed))
        for config in ESCAPE_CONFIGS:
            outcome(source, config)
    # Only escaping_program links blocks that escape; the others check that
    # nothing else breaks the rule.
    assert edges or make is not escaping_program, \
        "no escaped block pointed to another block"


# ---------------------------------------------------------------------------
# Paths counted under the default budget
# ---------------------------------------------------------------------------


@pytest.fixture
def paths(monkeypatch):
    """Function name -> (paths counted, incomplete) of its last run."""
    seen = {}
    run = _FunctionAnalysis.run

    def counting_run(self):
        run(self)
        seen[self.fn.name] = (self.paths_counted, self.incomplete)

    monkeypatch.setattr(_FunctionAnalysis, "run", counting_run)
    return seen


class TestPathsCounted:
    @pytest.mark.parametrize("n", [0, 1, 4, 31, 48, 90, 96, 150])
    def test_p_chain_is_linear(self, paths, n):
        # The key holds values, not stores, so two states leave each join:
        # x zero and x unknown.  Each enters the next if and reaches its
        # join twice, so of the 4 arrivals at joins 2..n, 2 are dropped:
        # 2 * (n - 1) dropped paths and 2 finished ones, 2n in all; with no
        # if, the one path.
        analyze_unit(parse_source("t.c", p_chain(n)))
        assert paths["f"] == (2 * n if n else 1, False)

    @pytest.mark.parametrize("k", [1, 3, 8, 10, 46, 60])
    def test_a_chain_is_linear(self, paths, k):
        # p is dead at every join: the next if writes it before reading
        # it, and its block is freed or was never allocated.  So one state
        # leaves each join, it reaches the next join three times (c false,
        # p allocated and freed, p null) and two of those are dropped:
        # 2 * k dropped paths and the one finished path.
        analyze_unit(parse_source("t.c", a_chain(k)))
        assert paths["f"] == (2 * k + 1, False)

    @pytest.mark.parametrize("n", [2, 4, 8, 20])
    def test_loops_in_a_row_are_linear(self, paths, n):
        # The trip counts of a loop leave the key once no path can take
        # its back edge again, so each loop starts from the one state that
        # leaves the previous one, whatever its trip counts.
        analyze_unit(parse_source("t.c", loops_in_a_row(n)))
        assert paths["f"] == (8 * n - 1, False)

    def test_six_ifs_in_a_loop_finish(self, paths):
        # Trips 0, 1 and 2 round the loop (the unrolling bound is 2) hold
        # 1, 2 and 2 states at the loop head, and each state finishes one
        # path out of the loop: 5 paths.  In the body, joins 2..6 drop 2
        # arrivals each, and in trips 1 and 2 join 1 drops 2 more (two
        # states enter the body): 10 + 12 + 12 dropped paths.  Those of
        # trip 2 count 0, because every path from there is abandoned at
        # the bound: 5 + 10 + 12 = 27.
        result = analyze_unit(parse_source("t.c", SIX_IF_LOOP))
        assert paths["f"] == (27, False)
        assert not result.incomplete

    @pytest.mark.parametrize("n", [11, 12])
    def test_paths_that_never_meet_fit_the_budget_as_before(self, paths, n):
        # Nothing is dropped, so each path counts once: 2**12 = 4096 paths
        # is exactly the default budget and still complete.
        result = analyze_unit(parse_source("t.c", _own_var_ifs(n)))
        assert paths["f"] == (2 ** n, False)
        assert not result.incomplete

    def test_budget_still_cuts_what_it_cannot_fit(self, paths):
        # a46 returning `p == NULL` keeps p live at every join, and counts
        # 2 * 46 ** 2 + 1 = 4233 paths; _own_var_ifs(13) 8192.  Nothing new
        # is explored once the budget is counted, but an arrival dropped
        # after that still counts its path: the a46 chain has one such.
        budget = PROFILES["union"].path_budget
        for source, extra in ((a_chain(46, "p == NULL"), 1),
                              (_own_var_ifs(13), 0)):
            result = analyze_unit(parse_source("t.c", source))
            assert paths["f"] == (budget + extra, True)
            assert result.incomplete
