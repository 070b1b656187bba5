"""The explicit-stack engine against the recursive engine it replaced.

``recursive_reference`` puts back the engine that explored a function with
one Python call per CFG block: ``_exec`` entered a block, ``_branch`` split
the paths at its condition and ``_follow`` took one edge.  The stack engine
must enter the blocks in exactly the same depth-first order, because the
order decides which paths the budget cuts and which arrivals at a merge are
dropped.  So every exploration must count the same paths, record the same
merge entries and end with the same ``incomplete`` flag, and the unit must
give the same findings and summaries, under every profile and under budgets
small enough that the order shows.

``recursive_eval_binop`` does the same for the evaluation of a chain of
binary operators, which forks paths in the order the engine then explores,
and ``recursive_eval_field_chain`` for a chain of ``.`` and ``->``.
"""

import random

import pytest

from memlab import analysis
from memlab.analysis import (
    PROFILES,
    AbstractHeap,
    _FunctionAnalysis,
    _state_key,
    truthiness,
)
from memlab.cfg import LOOP_BACK, build_cfg
from memlab.frontend import parse_source
from test_dedup import a_chain, branching_loop, loop_nest, p_chain, \
    store_program
from test_exploration import random_program


# ---------------------------------------------------------------------------
# The recursive engine, kept as the test oracle
# ---------------------------------------------------------------------------


def _exec(self, block_id: int, state: AbstractHeap) -> None:
    key = None
    if block_id in self.cfg.merges:
        key = _state_key(block_id, state, self.cfg.dead(block_id))
        weight = self.seen.get(key)
        if weight is not None:
            self.paths_counted += weight
            return
    if self.paths_counted >= self.config.path_budget:
        self.incomplete = True
        return
    if key is not None:
        self.seen[key] = 0
        before = self.paths_counted
    blk = self.cfg.blocks[block_id]
    states = [state]
    for stmt in blk.statements:
        next_states = []
        for s in states:
            next_states.extend(self.transfer(stmt, s))
        states = next_states
        if not states:
            break
    succs = self.cfg.successors(block_id)
    if block_id == self.cfg.exit:
        for s in states:
            self.finish_path(s)
    elif blk.branch_cond is not None:
        for s in states:
            self._branch(block_id, blk.branch_cond, s, succs)
    else:
        for s in states:
            for dst, kind in succs:
                self._follow(dst, s, kind, block_id)
    if key is not None:
        self.seen[key] = int(self.paths_counted > before)


def _follow(self, dst: int, state: AbstractHeap, edge_kind: str,
            src: int) -> None:
    if edge_kind == LOOP_BACK:
        trip = self.cfg.blocks[src].trip
        taken = state.env[trip]
        if taken >= self.config.unroll_bound:
            return
        state.env[trip] = taken + 1
    self._exec(dst, state)


def _branch(self, block_id: int, cond, state: AbstractHeap, succs) -> None:
    true_edges = [(d, k) for d, k in succs if k == "true-branch"]
    false_edges = [(d, k) for d, k in succs if k == "false-branch"]
    for cstate, value in self.eval(cond, state):
        truth = truthiness(value)
        if truth != "false":
            tstate = cstate.clone() if truth == "unknown" else cstate
            self._refine(tstate, cond, branch=True)
            for dst, kind in true_edges:
                self._follow(dst, tstate, kind, block_id)
        if truth != "true":
            self._refine(cstate, cond, branch=False)
            for dst, kind in false_edges:
                self._follow(dst, cstate, kind, block_id)


def recursive_reference(m) -> None:
    """Put the recursive engine in place of the stack engine on the
    monkeypatch context `m`."""
    for method in (_exec, _branch, _follow):
        m.setattr(_FunctionAnalysis, method.__name__, method, raising=False)


# ---------------------------------------------------------------------------
# The comparison
# ---------------------------------------------------------------------------


def explore(source, config, monkeypatch, recursive):
    """(summaries, sorted findings, incomplete, explorations) of one unit,
    with one (function, paths counted, merge entries, incomplete) per
    exploration, in order."""
    explorations = []
    run = _FunctionAnalysis.run

    def recording_run(self):
        run(self)
        explorations.append((self.fn.name, self.paths_counted,
                             len(self.seen), self.incomplete))

    tu = parse_source("t.c", source)
    cfgs = {fn.name: build_cfg(fn) for fn in tu.functions}
    with monkeypatch.context() as m:
        m.setattr(_FunctionAnalysis, "run", recording_run)
        if recursive:
            recursive_reference(m)
        summaries, findings, incomplete = analysis._explore(tu, cfgs, config)
    return summaries, sorted(findings), incomplete, explorations


def assert_same_order(source, profiles, monkeypatch):
    """Both engines agree under each profile's own budget, the paths the
    full walk counts, and budgets 1-6; returns how many runs were cut."""
    cut = 0
    for profile in profiles:
        config = PROFILES[profile]
        want = explore(source, config, monkeypatch, recursive=True)
        assert explore(source, config, monkeypatch, recursive=False) \
            == want, (profile, source)
        full = max(paths for _, paths, _, _ in want[3])
        for budget in (full, 1, 2, 3, 4, 5, 6):
            tight = config.replace(path_budget=budget)
            want = explore(source, tight, monkeypatch, recursive=True)
            got = explore(source, tight, monkeypatch, recursive=False)
            assert got == want, (profile, budget, source)
            cut += want[2]
    return cut


ALL_PROFILES = sorted(PROFILES)


@pytest.mark.parametrize("seed", range(30))
def test_random_programs(seed, monkeypatch):
    assert_same_order(random_program(random.Random(seed)), ALL_PROFILES,
                      monkeypatch)


@pytest.mark.parametrize("seed", range(30))
def test_store_programs(seed, monkeypatch):
    assert_same_order(store_program(random.Random(seed)), ALL_PROFILES,
                      monkeypatch)


@pytest.mark.parametrize("seed", range(30))
def test_branching_loops(seed, monkeypatch):
    assert_same_order(branching_loop(random.Random(seed)), ["union"],
                      monkeypatch)


@pytest.mark.parametrize("source", [
    pytest.param(p_chain(n), id=f"p{n}") for n in (1, 2, 3, 5, 8, 20)] + [
    # p stays live to the end: with p dead at every join, every path after
    # the first is dropped and no budget cuts anything.
    pytest.param(a_chain(k, "p == NULL"), id=f"a{k}")
    for k in (1, 2, 3, 4, 6)] + [
    pytest.param(loop_nest(ifs, leak), id=f"loops{ifs}{'-leak' * leak}")
    for ifs, leak in ((1, False), (2, True))])
def test_families(source, monkeypatch):
    assert assert_same_order(source, ALL_PROFILES, monkeypatch) > 0


@pytest.mark.parametrize("k", [2, 6])
def test_chains_of_dead_pointers_are_never_cut(k, monkeypatch):
    # Every path after the first reaches a join in a state explored there,
    # so nothing is left for a budget to cut, even a budget of one path.
    assert assert_same_order(a_chain(k), ALL_PROFILES, monkeypatch) == 0



# ---------------------------------------------------------------------------
# Operator chains: the loop in `_eval_binop` against the recursion it replaced
# ---------------------------------------------------------------------------


def recursive_eval_binop(self, expr, state: AbstractHeap) -> list:
    results = []
    for s1, left in self.eval(expr.left, state):
        for s2, right in self.eval(expr.right, s1):
            results.append((s2, self._binop_value(expr.op, left, right, expr)))
    return results


# Operands that fork (allocations, a callee that may return null), report
# (null dereference, uninitialized read) or do neither.
CHAIN_OPERANDS = ["c", "x", "2", "p", "*p", "y", "(p == NULL)",
                  "(g(c) == NULL)", "(malloc(4) != NULL)", "g(x)", "-c"]
CHAIN_OPS = ["==", "!=", "<", ">", "<=", ">=", "+", "-", "*", "/"]


def chain_program(rng):
    """A caller whose assignments and conditions are chains of two to six
    operands, most of which fork or report, round `if`s and a `while`."""
    def chain():
        text = rng.choice(CHAIN_OPERANDS)
        for _ in range(rng.randint(1, 5)):
            text += f" {rng.choice(CHAIN_OPS)} {rng.choice(CHAIN_OPERANDS)}"
        return text

    lines = ["int *g(int c) {", "if (c) { return NULL; }",
             "return malloc(4);", "}",
             "int f(int c) {", "int *p = g(c);", "int x = 0;", "int y;"]
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(("assign", "if", "while", "free"))
        if kind == "assign":
            lines.append(f"x = {chain()};")
        elif kind == "if":
            lines.append(f"if ({chain()}) {{ x = {chain()}; }}")
        elif kind == "while":
            lines.append(f"while (x < c) {{ x = x + {chain()}; }}")
        else:
            lines += ["free(p);", "p = g(x);"]
    lines += ["return x;", "}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(40))
def test_operator_chains_fold_in_the_recursive_order(seed, monkeypatch):
    source = chain_program(random.Random(seed))
    for profile in ALL_PROFILES:
        for budget in (None, 1, 2, 3, 4, 5, 6):
            config = PROFILES[profile]
            if budget is not None:
                config = config.replace(path_budget=budget)
            got = explore(source, config, monkeypatch, recursive=False)
            with monkeypatch.context() as m:
                m.setattr(_FunctionAnalysis, "_eval_binop",
                          recursive_eval_binop)
                want = explore(source, config, monkeypatch, recursive=False)
            assert got == want, (profile, budget, source)


# ---------------------------------------------------------------------------
# Field-access chains: the loop in `_eval_field_chain` against the recursion
# ---------------------------------------------------------------------------


def recursive_eval_field_chain(self, expr, state: AbstractHeap) -> list:
    results = []
    for s, base in self.eval(expr.expr, state):
        if expr.via_pointer:
            base = self.check_null_deref(s, base, expr.expr, expr.loc)
        results.append(
            (s, self._read_through(s, base, expr.fieldname, expr.loc)))
    return results


# Bases that fork (an allocation, a callee that may return null), may be
# null or are no pointer at all.
FIELD_BASES = ["p", "q", "g(c)", "(*p)", "s", "malloc(sizeof(n))"]


def field_chain_program(rng):
    """A caller that reads, writes, tests and frees chains of one to five
    `->f`, `->h`, `.f` and `->v`, round an `if` and a `while`."""
    def chain(last=None):
        text = rng.choice(FIELD_BASES)
        for _ in range(rng.randint(0, 4)):
            text += rng.choice(("->f", "->h", ".f"))
        return text + (last or rng.choice(("->f", "->v", ".f", "->h")))

    lines = ["typedef struct n { struct n *f; struct n *h; int v; } n;",
             "n *g(int c) {", "if (c) { return NULL; }",
             "n *m = malloc(sizeof(n));", "m->f = NULL;", "return m;", "}",
             "int f(int c) {", "n *p = g(c);", "n *q = NULL;", "n s;",
             "int x = 0;", "if (p) { p->f = malloc(sizeof(n)); }"]
    for _ in range(rng.randint(2, 4)):
        kind = rng.choice(("read", "write", "if", "while", "free"))
        if kind == "read":
            lines.append(f"{rng.choice(('q', 'x'))} = {chain()};")
        elif kind == "write":
            lines.append(f"{chain('->f')} = {rng.choice(('q', 'p', 'NULL'))};")
        elif kind == "if":
            lines.append(f"if ({chain()}) {{ x = {chain('->v')}; }}")
        elif kind == "while":
            lines.append(f"while (x < c) {{ q = {chain()}; x = x + 1; }}")
        else:
            lines.append(f"free({chain('->f')});")
    lines += ["return x;", "}"]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", range(40))
def test_field_chains_fold_in_the_recursive_order(seed, monkeypatch):
    source = field_chain_program(random.Random(seed))
    for profile in ALL_PROFILES:
        for budget in (None, 1, 2, 3, 4, 5, 6):
            config = PROFILES[profile]
            if budget is not None:
                config = config.replace(path_budget=budget)
            got = explore(source, config, monkeypatch, recursive=False)
            with monkeypatch.context() as m:
                m.setattr(_FunctionAnalysis, "_eval_field_chain",
                          recursive_eval_field_chain)
                want = explore(source, config, monkeypatch, recursive=False)
            assert got == want, (profile, budget, source)
