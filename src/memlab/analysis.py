"""Path-sensitive symbolic-heap analysis over per-function CFGs.

The engine explores execution paths through each function's control-flow
graph while tracking an abstract heap: which allocation sites are live,
freed, or escaped, what each local points to, and which stores have been
read.  Allocation calls fork the path into a success branch (a definitely
non-null block) and a failure branch (a null result), so null checks in the
program prune the failure path naturally instead of requiring dominator
bookkeeping.

A block reachable through the fields of an escaped block has escaped too.
`AbstractHeap.escape_value` is the one place that marks a block escaped,
and it marks every block the fields lead to, so the leak checks read the
flags as they stand and sweep the heap once.

Each function is explored once, callees first, and that one exploration
yields both its findings and its FunctionSummary, the depth-1 shape that
callers read at call sites.  Emitting a finding never changes the abstract
state, so a function whose defined callees all had their summaries when its
exploration began reports exactly what a later exploration would.  The walk
breaks a call cycle at the function that calls back into it (a function
that calls itself is one): that function is explored while a callee still
lacks a summary, keeps the summary from that exploration, and is explored
once more for its findings after every summary exists.

A path that enters a join or a loop head in a state already explored from
there (same heap up to site numbering, same loop trip counts) is dropped:
transfer is deterministic and everything an exploration collects is a set,
so it would only repeat what was found.  The state names the variables
that hold a store but not the lines of the stores, since only the
dead-store checker asks which store a read reads: the first entry puts an
alias in place of each current store, a dropped path adds its own stores to
those aliases, and a read of an alias reads every store it stands for.  It
leaves out what no path from the block can read (`Cfg.live`): the value and
store of a dead variable, one that every path writes before reading, and
the trip counts of loops that no path from there can take again.  A dead
variable that points to a live site keeps its value, since it keeps the
site reachable and the statement that overwrites it is the line of a leak;
one whose address is taken, or a global, is never dead.  The path budget
counts finished paths, and a dropped path as one when the exploration it
repeats counted any.  A dropped path stands for at least one path of the
full walk, so a function with no more paths than the budget is always
explored completely.

Exploration is depth first over an explicit stack of entries into blocks,
in the order of a recursive walk: the states leaving a block in turn, each
down its true edge before its false edge.  The callee-first walk over the
calls keeps a stack of its own too.  So neither the length of a function,
nor its nesting depth, nor the depth of a call chain meets Python's
recursion limit.

Checkers are toggled through a CheckerConfig; named profiles emulate the
detection columns of the tools compared in the benchmark corpus.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import NamedTuple

from . import frontend as ast
from .cfg import Cfg, LOOP_BACK, build_cfg
from .diagnostics import Report

# ---------------------------------------------------------------------------
# Checker ids, finding kinds, configuration
# ---------------------------------------------------------------------------

CHECKER_NULL_DEREF = "NULL_DEREF"
CHECKER_UNCHECKED_ALLOC = "UNCHECKED_ALLOC"
CHECKER_MEMORY_LEAK = "MEMORY_LEAK"
CHECKER_REALLOC_LEAK = "REALLOC_LEAK"
CHECKER_INVALID_FREE = "INVALID_FREE"
CHECKER_INTERIOR_FREE = "INTERIOR_FREE"
CHECKER_DEAD_STORE = "DEAD_STORE"
CHECKER_DEAD_STORE_NULL_INIT = "DEAD_STORE_NULL_INIT"
CHECKER_UNINIT_USE = "UNINIT_USE"

ALL_CHECKERS = frozenset({
    CHECKER_NULL_DEREF, CHECKER_UNCHECKED_ALLOC, CHECKER_MEMORY_LEAK,
    CHECKER_REALLOC_LEAK, CHECKER_INVALID_FREE, CHECKER_INTERIOR_FREE,
    CHECKER_DEAD_STORE, CHECKER_DEAD_STORE_NULL_INIT, CHECKER_UNINIT_USE,
})

KIND_NULL_DEREFERENCE = "NULL_DEREFERENCE"
KIND_MEMORY_LEAK = "MEMORY_LEAK"
KIND_INVALID_FREE = "INVALID_FREE"
KIND_INVALID_DEREFERENCE = "INVALID_DEREFERENCE"
KIND_DEAD_STORE = "DEAD_STORE"
KIND_UNINITIALIZED_VALUE = "UNINITIALIZED_VALUE"
KIND_RESOURCE_LEAK = "RESOURCE_LEAK"

# Kinds that may appear in findings produced by this analyzer.
ANALYZER_KINDS = frozenset({
    KIND_NULL_DEREFERENCE, KIND_MEMORY_LEAK, KIND_INVALID_FREE,
    KIND_DEAD_STORE, KIND_UNINITIALIZED_VALUE,
})

# Kinds accepted in reports, ground truth and classification.  Some occur
# only in ingested external reports or truth manifests, never from the
# analyzer itself.
ALL_KINDS = ANALYZER_KINDS | frozenset({
    KIND_INVALID_DEREFERENCE, KIND_RESOURCE_LEAK,
    "BUFFER_OVERFLOW", "DANGLING_POINTER", "OUT_OF_BOUNDS",
})

CHECKER_KIND = {
    CHECKER_NULL_DEREF: KIND_NULL_DEREFERENCE,
    CHECKER_UNCHECKED_ALLOC: KIND_NULL_DEREFERENCE,
    CHECKER_MEMORY_LEAK: KIND_MEMORY_LEAK,
    CHECKER_REALLOC_LEAK: KIND_MEMORY_LEAK,
    CHECKER_INVALID_FREE: KIND_INVALID_FREE,
    CHECKER_INTERIOR_FREE: KIND_INVALID_FREE,
    CHECKER_DEAD_STORE: KIND_DEAD_STORE,
    CHECKER_DEAD_STORE_NULL_INIT: KIND_DEAD_STORE,
    CHECKER_UNINIT_USE: KIND_UNINITIALIZED_VALUE,
}


@dataclass(frozen=True)
class CheckerConfig:
    """An enabled-checker set plus the capability flags of a tool profile."""

    profile: str
    enabled: frozenset
    interprocedural: bool = True
    # When False, allocations of the shape `malloc(sizeof(*p))` are not
    # tracked (the result is Unknown), reproducing an analyzer that cannot
    # size the pointee expression.
    sizeof_star_tracking: bool = True
    # When False, the realloc-overwrite checker is suppressed in functions
    # that call user-defined functions.
    realloc_with_calls: bool = True
    # When False, freeing a struct silently lets its heap-pointing fields
    # escape instead of reporting them.
    struct_field_leak: bool = True
    unroll_bound: int = 2
    # Paths per function; one dropped as already explored counts one at most.
    path_budget: int = 4096

    def __post_init__(self):
        unknown = self.enabled - ALL_CHECKERS
        if unknown:
            raise ValueError(f"unknown checker ids: {sorted(unknown)}")
        if CHECKER_DEAD_STORE_NULL_INIT in self.enabled \
                and CHECKER_DEAD_STORE not in self.enabled:
            raise ValueError("DEAD_STORE_NULL_INIT requires DEAD_STORE")

    def with_checkers(self, enable=(), disable=()) -> "CheckerConfig":
        enabled = (self.enabled | frozenset(enable)) - frozenset(disable)
        return replace(self, enabled=enabled)


PROFILES = {
    "union": CheckerConfig("union", ALL_CHECKERS),
    "cppcheck-like": CheckerConfig(
        "cppcheck-like",
        frozenset({CHECKER_NULL_DEREF, CHECKER_MEMORY_LEAK,
                   CHECKER_REALLOC_LEAK, CHECKER_INVALID_FREE,
                   CHECKER_UNINIT_USE}),
        interprocedural=False,
        realloc_with_calls=False,
    ),
    "clang-like": CheckerConfig(
        "clang-like",
        frozenset({CHECKER_NULL_DEREF, CHECKER_MEMORY_LEAK,
                   CHECKER_DEAD_STORE, CHECKER_INVALID_FREE,
                   CHECKER_INTERIOR_FREE, CHECKER_UNINIT_USE}),
        struct_field_leak=False,
    ),
    "infer-like": CheckerConfig(
        "infer-like",
        frozenset({CHECKER_NULL_DEREF, CHECKER_UNCHECKED_ALLOC,
                   CHECKER_MEMORY_LEAK, CHECKER_REALLOC_LEAK,
                   CHECKER_DEAD_STORE, CHECKER_DEAD_STORE_NULL_INIT}),
        sizeof_star_tracking=False,
    ),
    "predator-like": CheckerConfig(
        "predator-like",
        frozenset({CHECKER_NULL_DEREF, CHECKER_MEMORY_LEAK,
                   CHECKER_INVALID_FREE, CHECKER_INTERIOR_FREE}),
    ),
}


class Finding(NamedTuple):
    """One reported defect.  Equality, hashing and order are those of the
    six fields as a tuple, so a report sorts by file, then line."""

    file: str
    line: int
    kind: str
    checker: str
    message: str
    function: str


# ---------------------------------------------------------------------------
# Abstract values
# ---------------------------------------------------------------------------


class PtrValue(NamedTuple):
    """Abstract pointer value.

    kind: null | block | stack | unknown | uninit.
    For null values, origin records why the pointer may be null
    ("literal", "alloc_failure", "refined") and line where it was assigned.
    param_index marks values flowing in unchanged from a parameter, which
    the summary uses to detect parameter frees.
    """

    kind: str
    origin: str = ""
    line: int = 0
    site: int = -1
    offset: int = 0
    var: str = ""
    param_index: int = -1

    @staticmethod
    def null(origin: str, line: int = 0) -> "PtrValue":
        return PtrValue("null", origin=origin, line=line)

    @staticmethod
    def block(site: int, offset: int = 0) -> "PtrValue":
        return PtrValue("block", site=site, offset=offset)

    @staticmethod
    def stack(var: str) -> "PtrValue":
        return PtrValue("stack", var=var)


class ScalarValue(NamedTuple):
    state: str  # zero | nonzero | unknown | uninit


UNKNOWN = ScalarValue("unknown")
ZERO = ScalarValue("zero")
NONZERO = ScalarValue("nonzero")
SCALAR_UNINIT = ScalarValue("uninit")
PTR_UNINIT = PtrValue("uninit")
PTR_UNKNOWN = PtrValue("unknown")


def is_uninit(value) -> bool:
    return (isinstance(value, ScalarValue) and value.state == "uninit") or \
        (isinstance(value, PtrValue) and value.kind == "uninit")


def truthiness(value) -> str:
    """"true", "false", or "unknown"."""
    if isinstance(value, PtrValue):
        if value.kind == "null":
            return "false"
        if value.kind in ("block", "stack"):
            return "true"
        return "unknown"
    if isinstance(value, ScalarValue):
        if value.state == "zero":
            return "false"
        if value.state == "nonzero":
            return "true"
    return "unknown"


def value_eq(left, right) -> bool | None:
    """Abstract equality; None when undecided."""
    lp, rp = isinstance(left, PtrValue), isinstance(right, PtrValue)
    if lp and rp:
        if left.kind == "null" and right.kind == "null":
            return True
        if {left.kind, right.kind} <= {"null", "block", "stack"} \
                and (left.kind == "null") != (right.kind == "null"):
            return False
        return None
    if lp or rp:
        ptr, other = (left, right) if lp else (right, left)
        if isinstance(other, ScalarValue) and other.state == "zero":
            if ptr.kind == "null":
                return True
            if ptr.kind in ("block", "stack"):
                return False
        return None
    if isinstance(left, ScalarValue) and isinstance(right, ScalarValue):
        if left.state == "zero" and right.state == "zero":
            return True
        if {left.state, right.state} == {"zero", "nonzero"}:
            return False
    return None


# ---------------------------------------------------------------------------
# Per-path heap state
# ---------------------------------------------------------------------------


@dataclass
class SiteInfo:
    line: int          # allocation line
    status: str        # live | freed | leaked (leak already reported)
    escaped: bool
    fields: dict
    default_field: object
    hint: str = ""     # variable name for messages


@dataclass
class AbstractHeap:
    """State carried along one explored path."""

    env: dict = field(default_factory=dict)
    sites: dict = field(default_factory=dict)
    # var -> (var, line) of its last store, or an alias standing for it
    cur_store: dict = field(default_factory=dict)
    ret_line: int = 0
    next_site: int = 0

    def clone(self) -> "AbstractHeap":
        return AbstractHeap(
            env=dict(self.env),
            sites={sid: SiteInfo(s.line, s.status, s.escaped,
                                 dict(s.fields), s.default_field, s.hint)
                   for sid, s in self.sites.items()},
            cur_store=dict(self.cur_store),
            ret_line=self.ret_line,
            next_site=self.next_site,
        )

    def new_site(self, line: int, default_field) -> int:
        sid = self.next_site
        self.next_site += 1
        self.sites[sid] = SiteInfo(line, "live", False, {}, default_field)
        return sid

    def reachable_sites(self, roots=None) -> set:
        """Sites reachable from env values (or the given root values)."""
        if roots is None:
            roots = self.env.values()
        work = [v.site for v in roots if _is_block(v)]
        seen = set()
        while work:
            sid = work.pop()
            if sid in seen or sid not in self.sites:
                continue
            seen.add(sid)
            if self.sites[sid].status != "live":
                # A freed or leaked block's fields keep nothing alive.
                continue
            for v in self.sites[sid].fields.values():
                if _is_block(v):
                    work.append(v.site)
        return seen

    def escape_value(self, value) -> None:
        """Mark the value's block escaped, and every block its fields lead
        to, whatever their status: a block reachable through the fields of
        an escaped block has escaped too."""
        work = [value]
        while work:
            v = work.pop()
            if not _is_block(v):
                continue
            info = self.sites.get(v.site)
            if info is None or info.escaped:
                continue
            info.escaped = True
            work.extend(info.fields.values())


def _is_block(value) -> bool:
    return type(value) is PtrValue and value.kind == "block"


def _scalar_state(value):
    # A scalar stands for its state string in a key: a str hashes from a
    # cache, a named tuple by hashing its field again.
    return value.state if type(value) is ScalarValue else value


# What a dead variable's value is in a key: no read is left to tell values
# apart.  No scalar state or pointer value is equal to it.
_DEAD = "dead"


def _state_key(block_id: int, state: AbstractHeap, back_counts: tuple,
               interned: dict, keep: frozenset) -> tuple:
    """The entry into a block, with the state in canonical form, as tuples.

    Freed and leaked sites that nothing refers to are dropped; live sites
    stay, referenced or not, because a leak is reported at the statement
    after it happens.  Sites are renumbered in order of first reference:
    env by name, then each numbered site's fields, then any live site
    nothing refers to.  Transfer is deterministic, so two entries with
    equal keys explore the same continuations and report the same things.
    Of the current stores only the variables count: which store is current
    decides only which store a read reads, and the aliases of
    `_alias_stores` carry that.  The variable names repeat across many
    keys; `interned` keeps one copy of each tuple of them, and where in
    such a tuple the dead variables are for each `keep`.

    `keep` (see `_FunctionAnalysis._merge_key`) holds what the
    continuation may read.  A variable outside it is dead: every path
    writes it before any read, so its value becomes `_DEAD` and its store
    leaves the key.  Its value stays when it points to a live site, because
    it still keeps the site reachable, and the statement that drops the
    last reference is the line a leak is reported at.
    """
    env = state.env
    names, values = zip(*sorted(env.items())) if env else ((), ())
    names = interned.setdefault(names, names)
    sites = state.sites
    if env.keys() <= keep:
        stores = tuple(sorted(state.cur_store))
    else:
        dead = interned.get((names, keep))
        if dead is None:
            dead = interned[names, keep] = [
                i for i, name in enumerate(names) if name not in keep]
        values = list(values)
        for i in dead:
            v = values[i]
            if not (_is_block(v) and sites[v.site].status == "live"):
                values[i] = _DEAD
        stores = tuple(sorted(keep.intersection(state.cur_store)))
    stores = interned.setdefault(stores, stores)
    if not sites:
        return (block_id, names, tuple(map(_scalar_state, values)), stores,
                state.ret_line, back_counts, ())

    renum: dict = {}
    order: list = []

    def number(refs) -> None:
        for v in refs:
            if _is_block(v) and v.site not in renum:
                renum[v.site] = len(order)
                order.append(v.site)

    number(values)
    live = (sid for sid, s in sites.items() if s.status == "live")
    done = 0
    while True:
        while done < len(order):
            number(sites[order[done]].fields.values())
            done += 1
        sid = next((sid for sid in live if sid not in renum), None)
        if sid is None:
            break
        renum[sid] = len(order)
        order.append(sid)

    def canon(v):
        if _is_block(v):
            return ("block", renum[v.site], v.offset)
        return _scalar_state(v)

    return (block_id, names, tuple(map(canon, values)), stores,
            state.ret_line, back_counts,
            tuple([(s.line, s.status, s.escaped,
                    tuple([(f, canon(v)) for f, v in s.fields.items()]),
                    s.default_field, s.hint)
                   for s in map(sites.__getitem__, order)]))


class FunctionSummary(NamedTuple):
    name: str
    returns_fresh: bool = False
    returns_null_always: bool = False
    frees_params: frozenset = frozenset()


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class _FunctionAnalysis:
    def __init__(self, tu: ast.TranslationUnit, fn: ast.FunctionDef, cfg: Cfg,
                 config: CheckerConfig, summaries: dict):
        self.tu = tu
        self.fn = fn
        self.cfg = cfg
        self.config = config
        self.summaries = summaries
        self.findings: set[Finding] = set()
        self.incomplete = False
        # Paths finished plus paths dropped as already explored; nothing
        # new is explored once it reaches the path budget.
        self.paths_counted = 0
        # _state_key of each merge-block entry explored -> (1 if the paths
        # from it counted any, else 0; its [(var, alias)] from _alias_stores)
        self.seen: dict = {}
        # alias -> the stores and aliases it stands for
        self.alias_sources: list = []
        self.interned: dict = {}
        # merge block -> (what its key keeps, whether that is every back
        # edge); see _merge_key
        self.keeps: dict = {}
        self.returns: list = []  # (value, fresh_live_block: bool) snapshots
        self.frees_params: set[int] = set()

        self.has_user_calls = any(
            name not in ast.BUILTIN_FUNCTIONS for name in fn.calls)

        self.global_names = {g.name for g in tu.globals}

        # Dead-store bookkeeping is global across paths: a store is dead
        # only if no explored path reads it.
        # (var, line) -> "null-or-zero" if every value written there was
        # null or zero, else "other"
        self.stores: dict = {}
        self.read_stores: set = set()

    # -- reporting --

    def emit(self, checker: str, line: int, message: str) -> None:
        if checker not in self.config.enabled:
            return
        self.findings.add(Finding(
            file=self.tu.unit.path, line=line, kind=CHECKER_KIND[checker],
            checker=checker, message=message, function=self.fn.name))

    # -- entry point --

    def run(self) -> None:
        state = AbstractHeap()
        for idx, (name, ctype) in enumerate(self.fn.params):
            if ctype.is_pointer:
                state.env[name] = PtrValue("unknown", param_index=idx)
            else:
                state.env[name] = ScalarValue("unknown")
        for g in self.tu.globals:
            state.env[g.name] = UNKNOWN
        self._exec(self.cfg.entry, state, ())
        self.check_dead_store()

    def summary(self) -> FunctionSummary:
        """The depth-1 summary of the paths explored by run()."""
        returned = [(v, fresh) for v, fresh in self.returns if v is not None]
        return FunctionSummary(
            name=self.fn.name,
            returns_fresh=any(fresh for _, fresh in returned),
            returns_null_always=bool(returned) and all(
                isinstance(v, PtrValue) and v.kind == "null"
                for v, _ in returned),
            frees_params=frozenset(self.frees_params),
        )

    # -- path walking --

    def _exec(self, block_id: int, state: AbstractHeap,
              back_counts: tuple) -> None:
        """Explore every path from the block, depth first, on a stack of
        (block, state, back_counts) entries pushed in reverse, so that they
        are entered in order.  A merge entry puts its close entry, (None,
        key, paths counted before it), under its successors.
        """
        stack = [(block_id, state, back_counts)]
        while stack:
            block_id, state, back_counts = stack.pop()
            if block_id is None:  # every path from the merge entry is done
                key, before = state, back_counts
                self.seen[key] = (int(self.paths_counted > before),
                                  self.seen[key][1])
                continue
            key = None
            if block_id in self.cfg.merges:
                key, keep = self._merge_key(block_id, state, back_counts)
                explored = self.seen.get(key)
                if explored is not None:
                    # Explored from here already: the paths it found stand
                    # for this one, which counts as one path if they counted
                    # any; each alias made there stands for this store too.
                    weight, aliases = explored
                    for var, alias in aliases:
                        self.alias_sources[alias].append(state.cur_store[var])
                    self.paths_counted += weight
                    continue
            if self.paths_counted >= self.config.path_budget:
                self.incomplete = True
                continue
            if key is not None:
                # weight 0 until the paths from here are explored
                self.seen[key] = (0, self._alias_stores(state, keep))
                stack.append((None, key, self.paths_counted))
            blk = self.cfg.blocks[block_id]
            states = [state]
            for stmt in blk.statements:
                states = [t for s in states for t in self.transfer(stmt, s)]
                if not states:
                    break
            if block_id == self.cfg.exit:
                for s in states:
                    self.finish_path(s)
                continue
            succs = self.cfg.successors(block_id)
            cond = blk.branch_cond
            nexts = []  # (dst, edge kind, state), in the order to enter them
            for s in states:
                if cond is None:
                    nexts += [(dst, kind, s) for dst, kind in succs]
                    continue
                then_exit, else_exit = succs
                for cstate, value in self.eval(cond, s):
                    truth = truthiness(value)
                    if truth != "false":
                        tstate = cstate if truth == "true" else cstate.clone()
                        self._refine(tstate, cond, branch=True)
                        nexts.append((*then_exit, tstate))
                    if truth != "true":
                        self._refine(cstate, cond, branch=False)
                        nexts.append((*else_exit, cstate))
            for dst, kind, s in reversed(nexts):
                edge_counts = back_counts
                if kind == LOOP_BACK:
                    counts = dict(back_counts)
                    taken = counts.get((block_id, dst), 0)
                    if taken >= self.config.unroll_bound:
                        continue  # bounded unrolling: abandon this path
                    counts[(block_id, dst)] = taken + 1
                    edge_counts = tuple(sorted(counts.items()))
                stack.append((dst, s, edge_counts))

    def _merge_key(self, block_id: int, state: AbstractHeap,
                   back_counts: tuple) -> tuple:
        """(the `_state_key` of an entry into a merge block, what it keeps).

        It keeps what some path from the block may read (`Cfg.live`), and
        the variables read through pointers or after the function returns:
        those whose address is taken and the globals.  Of the loop trip
        counts, only those of the back edges it may still take stay; the
        path keeps them all.
        """
        kept = self.keeps.get(block_id)
        if kept is None:
            keep = self.cfg.live(block_id) | self.fn.addr_taken \
                | self.global_names
            kept = self.keeps[block_id] = (keep, self.cfg.back_edges <= keep)
        keep, every_loop = kept
        if back_counts and not every_loop:
            back_counts = tuple([c for c in back_counts if c[0] in keep])
        return _state_key(block_id, state, back_counts, self.interned,
                          keep), keep

    def _alias_stores(self, state: AbstractHeap, keep: frozenset) -> list:
        """Replace each current store of a variable in `keep` with a fresh
        alias: [(var, alias)].

        The continuation from a merge entry reads a variable's entry store
        exactly when it reads the variable before writing it, whichever
        store that is; so a read of the alias is a read of every store it
        stands for, this entry's and those of the arrivals dropped here.
        The store of a variable outside `keep` is never read, and needs none.
        """
        sources = self.alias_sources
        aliases = []
        for var, store in state.cur_store.items():
            if var not in keep:
                continue
            alias = len(sources)
            sources.append([store])
            state.cur_store[var] = alias
            aliases.append((var, alias))
        return aliases

    def _refine(self, state: AbstractHeap, cond, branch: bool) -> None:
        """Narrow a pointer tested by the condition on the taken branch."""
        target = self._null_test_target(cond)
        if target is None:
            return
        var, null_when_true = target
        null_branch = (branch == null_when_true)
        value = state.env.get(var)
        if null_branch and isinstance(value, PtrValue) and value.kind == "unknown":
            state.env[var] = PtrValue.null("refined", cond.loc.line)

    @staticmethod
    def _null_test_target(cond):
        """Return (var, true-branch-means-null) for recognized null tests."""
        if isinstance(cond, ast.Ident):
            return cond.name, False
        if isinstance(cond, ast.UnaryNot) and isinstance(cond.expr, ast.Ident):
            return cond.expr.name, True
        if isinstance(cond, ast.BinOp) and cond.op in ("==", "!="):
            sides = (cond.left, cond.right)
            for ident, other in (sides, sides[::-1]):
                if isinstance(ident, ast.Ident) and _is_null_expr(other):
                    return ident.name, cond.op == "=="
        return None

    # -- statement transfer --

    def transfer(self, stmt, state: AbstractHeap) -> list:
        out: list[AbstractHeap] = []
        if isinstance(stmt, ast.VarDecl):
            if stmt.init is None:
                state.env[stmt.name] = \
                    PTR_UNINIT if stmt.ctype.is_pointer else SCALAR_UNINIT
                out.append(state)
            else:
                self._check_realloc_overwrite(stmt.name, stmt.init, stmt.loc)
                cls = "null-or-zero" if _is_null_expr(stmt.init) else "other"
                for s, v in self.eval(stmt.init, state):
                    self._store_var(s, stmt.name, v, stmt.loc.line, cls)
                    out.append(s)
        elif isinstance(stmt, ast.Assign):
            if isinstance(stmt.target, ast.Ident):
                self._check_realloc_overwrite(stmt.target.name, stmt.value, stmt.loc)
            for s, v in self.eval(stmt.value, state):
                out.extend(self._assign(stmt.target, v, s, stmt.loc))
        elif isinstance(stmt, ast.ExprStmt):
            out.extend(s for s, _ in self.eval(stmt.expr, state))
        elif isinstance(stmt, ast.Return):
            if stmt.expr is None:
                self.returns.append((None, False))
                state.ret_line = stmt.loc.line
                out.append(state)
            else:
                for s, v in self.eval(stmt.expr, state):
                    fresh = _is_block(v) and s.sites.get(v.site) is not None \
                        and s.sites[v.site].status == "live"
                    self.returns.append((v, fresh))
                    s.escape_value(v)
                    s.ret_line = stmt.loc.line
                    out.append(s)
        else:
            out.append(state)
        for s in out:
            self.check_memory_leak_at(s, stmt.loc.line)
        return out

    def _store_var(self, state: AbstractHeap, name: str, value,
                   line: int, cls: str) -> None:
        key = (name, line)
        # "other" wins over "null-or-zero" whatever order paths write in,
        # so which duplicate paths are skipped cannot change the checker.
        if cls != "null-or-zero" or key not in self.stores:
            self.stores[key] = cls
        state.cur_store[name] = key
        state.env[name] = value
        if _is_block(value):
            info = state.sites.get(value.site)
            if info is not None and not info.hint:
                info.hint = name

    def _assign(self, target, value, state: AbstractHeap, loc) -> list:
        if isinstance(target, ast.Ident):
            cls = "null-or-zero" if _is_null_expr_value(value) else "other"
            self._store_var(state, target.name, value, loc.line, cls)
            return [state]
        if isinstance(target, ast.Deref):
            results = []
            for s, base in self.eval(target.expr, state):
                base = self.check_null_deref(s, base, target.expr, target.loc)
                if isinstance(base, PtrValue):
                    if base.kind == "stack":
                        s.env[base.var] = value
                    elif base.kind == "block":
                        info = s.sites.get(base.site)
                        if info is not None:
                            info.fields[""] = value
                            if info.escaped:
                                s.escape_value(value)
                    elif base.kind == "unknown":
                        s.escape_value(value)
                results.append(s)
            return results
        if isinstance(target, ast.FieldAccess):
            results = []
            for s, base in self.eval(target.expr, state):
                if target.via_pointer:
                    base = self.check_null_deref(s, base, target.expr, target.loc)
                if _is_block(base):
                    info = s.sites.get(base.site)
                    if info is not None:
                        info.fields[target.fieldname] = value
                        if _is_block(value):
                            vinfo = s.sites.get(value.site)
                            if vinfo is not None and not vinfo.hint:
                                vinfo.hint = f"{info.hint}.{target.fieldname}" \
                                    if info.hint else target.fieldname
                        if info.escaped:
                            s.escape_value(value)
                else:
                    s.escape_value(value)
                results.append(s)
            return results
        return [state]

    def _check_realloc_overwrite(self, target_name: str, rhs, loc) -> None:
        """`p = realloc(p, n)`: the old block is lost if realloc fails."""
        expr = rhs.expr if isinstance(rhs, ast.Cast) else rhs
        if not (isinstance(expr, ast.Call) and expr.name == "realloc"):
            return
        if not expr.args or not isinstance(expr.args[0], ast.Ident):
            return
        if expr.args[0].name != target_name:
            return
        if not self.config.realloc_with_calls and self.has_user_calls:
            return
        self.emit(CHECKER_REALLOC_LEAK, loc.line,
                  f"Common realloc mistake: '{target_name}' nulled "
                  f"but not freed upon failure")

    # -- expression evaluation --

    def eval(self, expr, state: AbstractHeap) -> list:
        """Evaluate to a list of (state, value) outcomes (allocations fork)."""
        if isinstance(expr, ast.IntLit):
            return [(state, ZERO if expr.value == 0 else NONZERO)]
        if isinstance(expr, ast.StrLit):
            return [(state, NONZERO)]
        if isinstance(expr, ast.NullLit):
            return [(state, PtrValue.null("literal", expr.loc.line))]
        if isinstance(expr, (ast.SizeofType, ast.SizeofExpr)):
            return [(state, NONZERO)]  # the operand is not evaluated
        if isinstance(expr, ast.Ident):
            return [(state, self._read_var(state, expr.name, expr.loc))]
        if isinstance(expr, ast.AddressOf):
            target = expr.expr
            if isinstance(target, ast.Ident):
                return [(state, PtrValue.stack(target.name))]
            # `&s.f` is an address inside s, read from nothing; `&p->f` and
            # `&*p` read the pointer p but do not dereference it.
            while isinstance(target, ast.FieldAccess) and not target.via_pointer:
                target = target.expr
            if isinstance(target, (ast.Deref, ast.FieldAccess)):
                return [(s, UNKNOWN) for s, _ in self.eval(target.expr, state)]
            return [(state, UNKNOWN)]
        if isinstance(expr, ast.Deref):
            results = []
            for s, base in self.eval(expr.expr, state):
                base = self.check_null_deref(s, base, expr.expr, expr.loc)
                results.append((s, self._read_through(s, base, "", expr.loc)))
            return results
        if isinstance(expr, ast.FieldAccess):
            return self._eval_field_chain(expr, state)
        if isinstance(expr, ast.UnaryNot):
            results = []
            for s, v in self.eval(expr.expr, state):
                truth = truthiness(v)
                value = {"true": ZERO, "false": NONZERO}.get(truth, UNKNOWN)
                results.append((s, value))
            return results
        if isinstance(expr, ast.Cast):
            return self.eval(expr.expr, state)
        if isinstance(expr, ast.BinOp):
            return self._eval_binop(expr, state)
        if isinstance(expr, ast.Call):
            return self.eval_call(expr, state)
        return [(state, UNKNOWN)]

    def _read_var(self, state: AbstractHeap, name: str, loc):
        key = state.cur_store.get(name)
        if key is not None:
            self.read_stores.add(key)
        value = state.env.get(name, UNKNOWN)
        if is_uninit(value):
            self.check_uninit_use(name, loc)
            value = UNKNOWN if isinstance(value, ScalarValue) else PTR_UNKNOWN
            state.env[name] = value
        return value

    def _read_through(self, state: AbstractHeap, base, fieldname: str, loc):
        if not isinstance(base, PtrValue):
            return UNKNOWN
        if base.kind == "stack" and fieldname == "":
            return self._read_var(state, base.var, loc)
        if base.kind == "block":
            info = state.sites.get(base.site)
            if info is None:
                return UNKNOWN
            value = info.fields.get(fieldname, info.default_field)
            if is_uninit(value):
                self.check_uninit_use(info.hint or "memory", loc)
                value = UNKNOWN
                info.fields[fieldname] = value
            return value
        return UNKNOWN

    def _eval_field_chain(self, expr: ast.FieldAccess,
                          state: AbstractHeap) -> list:
        # Fold a chain of `.` and `->` in a loop: evaluate the innermost
        # base, then apply each access in turn, so a chain of any length
        # costs no stack.  The outcomes come out in the order that
        # recursing into `expr.expr` would give.
        chain = []
        while isinstance(expr, ast.FieldAccess):
            chain.append(expr)
            expr = expr.expr
        results = self.eval(expr, state)
        for access in reversed(chain):
            folded = []
            for s, base in results:
                if access.via_pointer:
                    base = self.check_null_deref(s, base, access.expr,
                                                 access.loc)
                folded.append((s, self._read_through(
                    s, base, access.fieldname, access.loc)))
            results = folded
        return results

    def _eval_binop(self, expr: ast.BinOp, state: AbstractHeap) -> list:
        # Fold the left spine of an operator chain in a loop: evaluate its
        # leftmost operand, then apply each (op, right) in turn, so a chain
        # of any length costs no stack.  The outcomes come out in the order
        # that recursing into `expr.left` would give.
        spine = []
        while isinstance(expr, ast.BinOp):
            spine.append(expr)
            expr = expr.left
        results = self.eval(expr, state)
        for binop in reversed(spine):
            folded = []
            for s1, left in results:
                for s2, right in self.eval(binop.right, s1):
                    folded.append(
                        (s2, self._binop_value(binop.op, left, right, binop)))
            results = folded
        return results

    def _binop_value(self, op: str, left, right, expr: ast.BinOp):
        if op in ("==", "!="):
            eq = value_eq(left, right)
            if eq is None:
                return UNKNOWN
            return NONZERO if (eq == (op == "==")) else ZERO
        if op in ("<", ">", "<=", ">="):
            return UNKNOWN
        # Pointer arithmetic: keep the block, adjust the offset when the
        # other operand is a literal (interior pointers stay representable).
        for ptr in (left, right):
            if _is_block(ptr) and op in ("+", "-"):
                delta = _literal_of(expr.right if ptr is left else expr.left)
                if delta is None:
                    return PtrValue.block(ptr.site, offset=1)  # nonzero, unknown
                if op == "-" and ptr is left:
                    delta = -delta
                return PtrValue.block(ptr.site, offset=ptr.offset + delta)
        return UNKNOWN

    # -- calls --

    def eval_call(self, call: ast.Call, state: AbstractHeap) -> list:
        name = call.name
        if name in ("malloc", "calloc"):
            return self._eval_alloc(call, state)
        if name == "realloc":
            return self._eval_realloc(call, state)
        if name == "free":
            return self._eval_free(call, state)
        if name in ("printf", "memset", "memcpy", "memmove"):
            return [(s, UNKNOWN) for s, _ in self._eval_args(call.args, state)]
        return self._eval_user_call(call, state)

    def _eval_args(self, args, state: AbstractHeap) -> list:
        # Evaluate arguments left to right, threading forks through:
        # (state, values) outcomes.
        outcomes = [(state, [])]
        for arg in args:
            next_outcomes = []
            for s, vals in outcomes:
                for s2, v in self.eval(arg, s):
                    next_outcomes.append((s2, vals + [v]))
            outcomes = next_outcomes
        return outcomes

    def _eval_alloc(self, call: ast.Call, state: AbstractHeap) -> list:
        lost = not self.config.sizeof_star_tracking and any(
            isinstance(a, ast.SizeofExpr) and a.star_of_ident for a in call.args)
        default_field = ZERO if call.name == "calloc" else SCALAR_UNINIT
        results = []
        for s, _vals in self._eval_args(call.args, state):
            if lost:
                results.append((s, PTR_UNKNOWN))
                continue
            fail = s.clone()
            sid = s.new_site(call.loc.line, default_field)
            results.append((s, PtrValue.block(sid)))
            results.append((fail, PtrValue.null("alloc_failure", call.loc.line)))
        return results

    def _eval_realloc(self, call: ast.Call, state: AbstractHeap) -> list:
        results = []
        for s, vals in self._eval_args(call.args, state):
            old = vals[0] if vals else UNKNOWN
            fail = s.clone()
            # Success: the old block is consumed by realloc itself.
            if _is_block(old):
                info = s.sites.get(old.site)
                if info is not None:
                    info.status = "freed"
            sid = s.new_site(call.loc.line, SCALAR_UNINIT)
            results.append((s, PtrValue.block(sid)))
            # Failure: the old block stays allocated.  The dedicated
            # realloc-overwrite checker owns this pattern, so the block is
            # marked escaped rather than double-reported as a generic leak.
            if _is_block(old):
                fail.escape_value(old)
            results.append((fail, PtrValue.null("alloc_failure", call.loc.line)))
        return results

    def _eval_free(self, call: ast.Call, state: AbstractHeap) -> list:
        results = []
        for s, vals in self._eval_args(call.args, state):
            v = vals[0] if vals else UNKNOWN
            self.check_invalid_free(s, v, call)
            results.append((s, UNKNOWN))
        return results

    def _eval_user_call(self, call: ast.Call, state: AbstractHeap) -> list:
        summary = self.summaries.get(call.name) \
            if self.config.interprocedural else None
        results = []
        for s, vals in self._eval_args(call.args, state):
            if summary is None:
                for v in vals:
                    s.escape_value(v)
                results.append((s, UNKNOWN))
                continue
            for idx in summary.frees_params:
                if idx < len(vals):
                    v = vals[idx]
                    if _is_block(v):
                        info = s.sites.get(v.site)
                        if info is not None and info.status == "live":
                            info.status = "freed"
            if summary.returns_fresh:
                sid = s.new_site(call.loc.line, UNKNOWN)
                s.sites[sid].hint = call.name
                results.append((s, PtrValue.block(sid)))
            elif summary.returns_null_always:
                results.append((s, PtrValue.null("literal", call.loc.line)))
            else:
                results.append((s, UNKNOWN))
        return results

    # -- checkers --

    def check_null_deref(self, state: AbstractHeap, value, expr, loc):
        """Check a dereference through `value`; returns the recovered value."""
        if not isinstance(value, PtrValue) or value.kind != "null":
            return value
        name = expr.name if isinstance(expr, ast.Ident) else "pointer"
        if value.origin == "alloc_failure":
            self.emit(CHECKER_UNCHECKED_ALLOC, loc.line,
                      f"pointer `{name}` last assigned on line {value.line} "
                      f"could be null and is dereferenced at line {loc.line}")
        else:
            self.emit(CHECKER_NULL_DEREF, loc.line,
                      f"pointer `{name}` is NULL and is dereferenced "
                      f"at line {loc.line}")
        # Error recovery: continue the path as if the pointer were valid.
        if isinstance(expr, ast.Ident):
            state.env[expr.name] = PTR_UNKNOWN
        return PTR_UNKNOWN

    def check_invalid_free(self, state: AbstractHeap, value, call: ast.Call) -> None:
        line = call.loc.line
        arg = call.args[0] if call.args else None
        name = arg.name if isinstance(arg, ast.Ident) else "pointer"
        if not isinstance(value, PtrValue):
            return
        if value.param_index >= 0:
            self.frees_params.add(value.param_index)
        if value.kind == "stack":
            self.emit(CHECKER_INVALID_FREE, line,
                      f"free of stack address `&{value.var}`")
            return
        if value.kind != "block":
            return  # free(NULL) and free(unknown) are no-ops here
        info = state.sites.get(value.site)
        if info is None:
            return
        if info.status == "freed":
            self.emit(CHECKER_INVALID_FREE, line,
                      f"double free of `{name}` (allocated at line {info.line})")
            return
        if value.offset != 0:
            self.emit(CHECKER_INTERIOR_FREE, line,
                      f"free of interior pointer `{name}` "
                      f"(offset inside block allocated at line {info.line})")
        if info.status == "live":
            info.status = "freed"
            self._check_field_leaks(state, info, name, line)

    def _check_field_leaks(self, state: AbstractHeap, freed: SiteInfo,
                           struct_name: str, line: int) -> None:
        """A struct was freed; handle heap blocks hanging off its fields."""
        field_blocks = [(fname, v) for fname, v in freed.fields.items()
                        if _is_block(v)]
        if not field_blocks:
            return
        reachable = state.reachable_sites()
        for fname, v in field_blocks:
            info = state.sites.get(v.site)
            if info is None or info.status != "live" or info.escaped:
                continue
            if v.site in reachable:
                continue
            if self.config.struct_field_leak:
                self.emit(CHECKER_MEMORY_LEAK, line,
                          f"Memory leak: {struct_name}.{fname} "
                          f"(allocated at line {info.line})")
                info.status = "leaked"
            else:
                state.escape_value(v)

    def check_memory_leak_at(self, state: AbstractHeap, line: int,
                             roots=None) -> None:
        """Report blocks that just became unreachable on this path: those
        no value in env (or in `roots`) reaches."""
        for info in state.sites.values():
            if info.status == "live" and not info.escaped:
                break
        else:
            return  # nothing can leak
        reachable = state.reachable_sites(roots)
        for sid, info in state.sites.items():
            if info.status != "live" or info.escaped or sid in reachable:
                continue
            self.emit(CHECKER_MEMORY_LEAK, line,
                      f"memory dynamically allocated at line {info.line} "
                      f"is not reachable after line {line}")
            info.status = "leaked"

    def finish_path(self, state: AbstractHeap) -> None:
        self.paths_counted += 1
        # Only globals survive the function; locals go out of scope.
        self.check_memory_leak_at(
            state, state.ret_line or self.fn.loc.line,
            [state.env[g] for g in self.global_names if g in state.env])

    def check_uninit_use(self, name: str, loc) -> None:
        self.emit(CHECKER_UNINIT_USE, loc.line,
                  f"variable `{name}` may be read before initialization")

    def check_dead_store(self) -> None:
        if self.incomplete:
            return  # unexplored paths could read the stores; stay quiet
        # A read of an alias reads every store it stands for.
        read = set(self.read_stores)
        work = [alias for alias in read if type(alias) is int]
        while work:
            for store in self.alias_sources[work.pop()]:
                if store not in read:
                    read.add(store)
                    if type(store) is int:
                        work.append(store)
        for (var, line), cls in sorted(self.stores.items()):
            if (var, line) in read:
                continue
            if var in self.fn.addr_taken or var in self.global_names:
                continue
            checker = CHECKER_DEAD_STORE_NULL_INIT if cls == "null-or-zero" \
                else CHECKER_DEAD_STORE
            self.emit(checker, line,
                      f"The value written to &{var} is never used")


def _is_null_expr(expr) -> bool:
    return isinstance(expr, ast.NullLit) or \
        (isinstance(expr, ast.IntLit) and expr.value == 0)


def _is_null_expr_value(value) -> bool:
    return (isinstance(value, PtrValue) and value.kind == "null"
            and value.origin == "literal") or \
        (isinstance(value, ScalarValue) and value.state == "zero")


def _literal_of(expr):
    if isinstance(expr, ast.IntLit):
        return expr.value
    return None


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _explore(tu: ast.TranslationUnit, cfgs: dict,
             config: CheckerConfig) -> tuple[dict, set, bool]:
    """Explore each function callees first: (summaries, findings, incomplete).

    A function's findings are kept from its first exploration when every
    function it calls that the unit defines already had a summary then.
    The others call back into a cycle that the walk has not closed yet:
    their summaries keep the first exploration, and their findings come
    from one more exploration against the full table.
    """
    summaries: dict[str, FunctionSummary] = {}
    started: set[str] = set()  # in progress or summarized
    by_name = {fn.name: fn for fn in tu.functions}
    findings: set[Finding] = set()
    incomplete = False
    on_cycle: list[str] = []

    def keep(fa: _FunctionAnalysis) -> None:
        nonlocal incomplete
        findings.update(fa.findings)
        incomplete = incomplete or fa.incomplete

    def opened(name: str) -> tuple:
        started.add(name)
        return name, iter(sorted(by_name[name].calls))

    # Depth first over the calls, each function analysed after its callees:
    # the stack holds the functions in progress, each with the callees it
    # has yet to go through, in sorted order.
    for root in tu.functions:
        if root.name in started:
            continue
        stack = [opened(root.name)]
        while stack:
            name, callees = stack[-1]
            for callee in callees:
                if callee in by_name and callee not in started \
                        and callee not in ast.BUILTIN_FUNCTIONS:
                    stack.append(opened(callee))
                    break
            else:
                stack.pop()
                fn = by_name[name]
                final = all(callee in summaries
                            for callee in fn.calls if callee in by_name)
                fa = _FunctionAnalysis(tu, fn, cfgs[name], config, summaries)
                fa.run()
                summaries[name] = fa.summary()
                if final:
                    keep(fa)
                else:
                    on_cycle.append(name)
    for name in on_cycle:
        fa = _FunctionAnalysis(tu, by_name[name], cfgs[name], config,
                               summaries)
        fa.run()
        keep(fa)
    return summaries, findings, incomplete


def compute_summaries(tu: ast.TranslationUnit, cfgs: dict,
                      config: CheckerConfig) -> dict:
    """Summaries in call-graph dependency order.  A function on a call
    cycle keeps the summary of its first exploration, in which a call into
    the cycle's unfinished functions has no summary to read."""
    return _explore(tu, cfgs, config)[0]


def analyze_unit(tu: ast.TranslationUnit, cfgs: dict | None = None,
                 config: CheckerConfig | None = None) -> Report:
    """Run all enabled checkers over one translation unit.

    Each function is explored once, callees first, and gives its findings
    and its summary together.  A function that calls back into an open call
    cycle (itself included) is explored once more after every summary in
    the unit exists, and keeps the findings of that second exploration.
    The report is marked incomplete when any kept exploration hit the path
    budget.
    """
    config = config or PROFILES["union"]
    if cfgs is None:
        cfgs = {fn.name: build_cfg(fn) for fn in tu.functions}
    _, findings, incomplete = _explore(tu, cfgs, config)
    return Report(findings, incomplete)
