"""Path-sensitive symbolic-heap analysis over per-function CFGs.

The engine explores execution paths through each function's control-flow
graph while tracking an abstract heap: which allocation sites are live,
freed, or escaped, and what each local points to.  Allocation calls fork
the path into a success branch (a definitely non-null block) and a failure
branch (a null result), so null checks in the program prune the failure
path naturally instead of requiring dominator bookkeeping.

A block reachable through the fields of an escaped block has escaped too.
`AbstractHeap.escape_value` is the one place that marks a block escaped,
and it marks every block the fields lead to, so the leak checks read the
flags as they stand and sweep the heap once.

Each function is explored once, callees first, and that one exploration
yields both its findings and its FunctionSummary, the depth-1 shape that
callers read at call sites.  A call frees each argument whose parameter
the summary frees, with the checks of a direct `free`.  Emitting a finding
never changes the abstract state, so a function whose defined callees all
had their summaries when its exploration began reports exactly what a
later exploration would.  The walk breaks a call cycle at the function
that calls back into it (a function that calls itself is one): that
function is explored while a callee still lacks a summary, keeps the
summary from that exploration, and is explored once more for its findings
after every summary exists.

A variable is the slot the parser bound its uses to, and the environment a
list indexed by slot: the globals the function sees, its parameters and
locals, then the loops' trip counts (see `cfg`).  A local's slot holds None
until its declaration runs, which every use in its scope comes after, so
no name is ever compared.  A trip count starts at 0; a path that would go
round its loop more than `unroll_bound` times is abandoned.  A path ends
in a block with no successor, at its `return` or the body's closing brace:
a block that no global reaches then is reported leaked at that line.

A path that enters a join or a loop head in a state already explored from
there, up to site numbering, is dropped: transfer is deterministic and
everything an exploration collects is a set, so it would only repeat what
was found.  The state blanks the slots no path from the block can read
(`Cfg.dead`): a variable every path writes before reading, and the trip
count of a loop no path from there goes round again.  A dead variable that
points to a live site keeps its value, since it keeps the site reachable
and the statement that overwrites it is the line of a leak.  The path
budget counts finished paths, and a dropped path as one when the
exploration it repeats counted any.  A dropped path stands for at least one
path of the full walk, so a function with no more paths than the budget is
always explored completely.

Dead stores come from the same liveness, as in the Clang static analyzer
and Infer, not from the paths: a store that an explored path executed is
dead when no path of the CFG from it reads the variable before writing it
again (`Cfg.live_stores`).  So the state holds no stores, and a store read
only on a branch the engine proves infeasible is not reported.  Each store
of a block some path ran is checked once, after the walk, and a dead one is
classed by how its statement spells the value, not by what paths wrote.

Exploration is depth first over an explicit stack of entries into blocks,
in the order of a recursive walk: the states leaving a block in turn, each
down its true edge before its false edge.  The callee-first walk over the
calls keeps a stack of its own too.  So neither the length of a function,
nor its nesting depth, nor the depth of a call chain meets Python's
recursion limit.

Checkers are toggled through a CheckerConfig, an immutable named tuple
that `replace` derives from and every constructor checks; named profiles
emulate the detection columns of the tools compared in the benchmark
corpus.
"""

from __future__ import annotations

from typing import NamedTuple

from . import frontend as ast
from .cfg import Cfg, build_cfg
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

KIND_NULL_DEREFERENCE = "NULL_DEREFERENCE"
KIND_MEMORY_LEAK = "MEMORY_LEAK"
KIND_INVALID_FREE = "INVALID_FREE"
KIND_INVALID_DEREFERENCE = "INVALID_DEREFERENCE"
KIND_DEAD_STORE = "DEAD_STORE"
KIND_UNINITIALIZED_VALUE = "UNINITIALIZED_VALUE"
KIND_RESOURCE_LEAK = "RESOURCE_LEAK"

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
ALL_CHECKERS = frozenset(CHECKER_KIND)
# Kinds that may appear in findings produced by this analyzer.
ANALYZER_KINDS = frozenset(CHECKER_KIND.values())

# Kinds accepted in reports, ground truth and classification.  Some occur
# only in ingested external reports or truth manifests, never from the
# analyzer itself.
ALL_KINDS = ANALYZER_KINDS | frozenset({
    KIND_INVALID_DEREFERENCE, KIND_RESOURCE_LEAK,
    "BUFFER_OVERFLOW", "DANGLING_POINTER", "OUT_OF_BOUNDS",
})


class _Settings(NamedTuple):
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


class CheckerConfig(_Settings):
    """An enabled-checker set plus the capability flags of a tool profile.

    Immutable, and equal and hashed by its fields.  `replace` derives a
    config with some settings changed; it, `_replace`, `_make` and
    unpickling all build through the constructor, which rejects an invalid
    config with an InputError."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        unknown = self.enabled - ALL_CHECKERS
        if unknown:
            raise ast.InputError(f"unknown checker ids: {sorted(unknown)}")
        if CHECKER_DEAD_STORE_NULL_INIT in self.enabled \
                and CHECKER_DEAD_STORE not in self.enabled:
            raise ast.InputError("DEAD_STORE_NULL_INIT requires DEAD_STORE")
        if self.path_budget < 1:
            raise ast.InputError(
                f"path budget must be at least 1, got {self.path_budget}")
        if self.unroll_bound < 0:
            raise ast.InputError(
                f"unroll bound must be at least 0, got {self.unroll_bound}")
        return self

    @classmethod
    def _make(cls, iterable) -> "CheckerConfig":
        return cls(*iterable)

    def replace(self, **settings) -> "CheckerConfig":
        """This config with the named fields set to new values."""
        return type(self)(**{**self._asdict(), **settings})

    _replace = replace

    def with_checkers(self, enable=(), disable=()) -> "CheckerConfig":
        enabled = (self.enabled | frozenset(enable)) - frozenset(disable)
        return self.replace(enabled=enabled)


PROFILES = {c.profile: c for c in (
    CheckerConfig("union", ALL_CHECKERS),
    CheckerConfig(
        "cppcheck-like",
        frozenset({CHECKER_NULL_DEREF, CHECKER_MEMORY_LEAK,
                   CHECKER_REALLOC_LEAK, CHECKER_INVALID_FREE,
                   CHECKER_UNINIT_USE}),
        interprocedural=False,
        realloc_with_calls=False,
    ),
    CheckerConfig(
        "clang-like",
        frozenset({CHECKER_NULL_DEREF, CHECKER_MEMORY_LEAK,
                   CHECKER_DEAD_STORE, CHECKER_INVALID_FREE,
                   CHECKER_INTERIOR_FREE, CHECKER_UNINIT_USE}),
        struct_field_leak=False,
    ),
    CheckerConfig(
        "infer-like",
        frozenset({CHECKER_NULL_DEREF, CHECKER_UNCHECKED_ALLOC,
                   CHECKER_MEMORY_LEAK, CHECKER_REALLOC_LEAK,
                   CHECKER_DEAD_STORE, CHECKER_DEAD_STORE_NULL_INIT}),
        sizeof_star_tracking=False,
    ),
    CheckerConfig(
        "predator-like",
        frozenset({CHECKER_NULL_DEREF, CHECKER_MEMORY_LEAK,
                   CHECKER_INVALID_FREE, CHECKER_INTERIOR_FREE}),
    ),
)}

# The settings a user may override, each "bool" or "int" as its default is:
# every field of CheckerConfig but the profile name and the checker set,
# the two without a default.
SETTINGS = {name: type(default).__name__
            for name, default in CheckerConfig._field_defaults.items()}


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
    A stack value points to the variable of slot `var`.  param_index marks
    values flowing in unchanged from a parameter, which the summary uses to
    detect parameter frees.
    """

    kind: str
    origin: str = ""
    line: int = 0
    site: int = -1
    offset: int = 0
    var: int = -1
    param_index: int = -1

    @staticmethod
    def null(origin: str, line: int = 0) -> "PtrValue":
        return PtrValue("null", origin=origin, line=line)

    @staticmethod
    def block(site: int, offset: int = 0) -> "PtrValue":
        return PtrValue("block", site=site, offset=offset)

    @staticmethod
    def stack(var: int) -> "PtrValue":
        return PtrValue("stack", var=var)


# A scalar is its state string.
UNKNOWN = "unknown"
ZERO = "zero"
NONZERO = "nonzero"
SCALAR_UNINIT = "uninit"
PTR_UNINIT = PtrValue("uninit")
PTR_UNKNOWN = PtrValue("unknown")


def is_uninit(value) -> bool:
    return (value.kind if type(value) is PtrValue else value) == "uninit"


def truthiness(value) -> str:
    """"true", "false", or "unknown"."""
    if type(value) is PtrValue:
        if value.kind == "null":
            return "false"
        if value.kind in ("block", "stack"):
            return "true"
        return "unknown"
    if value == ZERO:
        return "false"
    if value == NONZERO:
        return "true"
    return "unknown"


def value_eq(left, right) -> bool | None:
    """Abstract equality; None when undecided."""
    lp, rp = type(left) is PtrValue, type(right) is PtrValue
    if lp and rp:
        if left.kind == "null" and right.kind == "null":
            return True
        if {left.kind, right.kind} <= {"null", "block", "stack"} \
                and (left.kind == "null") != (right.kind == "null"):
            return False
        return None
    if lp or rp:
        ptr, other = (left, right) if lp else (right, left)
        if other == ZERO:
            if ptr.kind == "null":
                return True
            if ptr.kind in ("block", "stack"):
                return False
        return None
    if left == ZERO and right == ZERO:
        return True
    if {left, right} == {ZERO, NONZERO}:
        return False
    return None


# ---------------------------------------------------------------------------
# Per-path heap state
# ---------------------------------------------------------------------------


class SiteInfo:
    __slots__ = ("line", "status", "escaped", "fields", "default_field",
                 "hint")

    def __init__(self, line: int, status: str, escaped: bool, fields: dict,
                 default_field, hint: str = ""):
        self.line = line  # allocation line
        # live | freed | leaked (leak already reported)
        self.status = status
        self.escaped = escaped
        self.fields = fields
        self.default_field = default_field
        self.hint = hint  # variable name for messages


class AbstractHeap:
    """State carried along one explored path."""

    __slots__ = ("env", "sites")

    def __init__(self, env: list, sites: list):
        # slot -> value; None before the variable's declaration runs
        self.env = env
        # A site's id is its index.  Sites are never removed, and a block
        # value names a site of the state it is in, so `sites[v.site]`
        # always exists.
        self.sites = sites

    def clone(self) -> "AbstractHeap":
        return AbstractHeap(
            self.env.copy(),
            [SiteInfo(s.line, s.status, s.escaped, dict(s.fields),
                      s.default_field, s.hint) for s in self.sites],
        )

    def new_site(self, line: int, default_field) -> int:
        self.sites.append(SiteInfo(line, "live", False, {}, default_field))
        return len(self.sites) - 1

    def reachable_sites(self, roots=None) -> set:
        """Sites reachable from env values (or the given root values)."""
        if roots is None:
            roots = self.env
        work = [v.site for v in roots if _is_block(v)]
        seen = set()
        while work:
            sid = work.pop()
            if sid in seen:
                continue
            seen.add(sid)
            info = self.sites[sid]
            if info.status != "live":
                # A freed or leaked block's fields keep nothing alive.
                continue
            for v in info.fields.values():
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
            info = self.sites[v.site]
            if info.escaped:
                continue
            info.escaped = True
            work.extend(info.fields.values())


def _is_block(value) -> bool:
    return type(value) is PtrValue and value.kind == "block"


# What a dead variable's value is in a key: no read is left to tell values
# apart.  No scalar state or pointer value is equal to it.
_DEAD = "dead"


def _state_key(block_id: int, state: AbstractHeap, dead: list) -> tuple:
    """The entry into a block, with the state in canonical form, as tuples.

    Freed and leaked sites that nothing refers to are dropped; live sites
    stay, referenced or not, because a leak is reported at the statement
    after it happens.  Sites are renumbered in order of first reference:
    env by slot, then each numbered site's fields, then any live site
    nothing refers to.  Transfer is deterministic, so two entries with
    equal keys explore the same continuations and report the same things.

    `dead` (`Cfg.dead` of the block) holds the slots the continuation
    cannot read, so their values, trip counts included, become `_DEAD`.  A
    value stays when it points to a live site, because it still keeps the
    site reachable, and the statement that drops the last reference is the
    line a leak is reported at.
    """
    values = state.env
    sites = state.sites
    if dead:
        values = values.copy()
        for i in dead:
            v = values[i]
            if not (_is_block(v) and sites[v.site].status == "live"):
                values[i] = _DEAD
    if not sites:
        return (block_id, tuple(values), ())

    renum: dict = {}
    order: list = []

    def number(refs) -> None:
        for v in refs:
            if _is_block(v) and v.site not in renum:
                renum[v.site] = len(order)
                order.append(v.site)

    number(values)
    live = (sid for sid, s in enumerate(sites) if s.status == "live")
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
        return v

    return (block_id, tuple(map(canon, values)),
            tuple([(s.line, s.status, s.escaped,
                    tuple([(f, canon(v)) for f, v in s.fields.items()]),
                    s.default_field, s.hint)
                   for s in map(sites.__getitem__, order)]))


class FunctionSummary(NamedTuple):
    name: str
    returns_fresh: bool = False
    returns_null_always: bool = False
    frees_params: frozenset = frozenset()


class Exploration(NamedTuple):
    """What one exploration of a function did: the paths it counted, the
    merge entries it recorded, and whether the path budget cut it."""

    function: str
    paths: int
    merge_entries: int
    incomplete: bool


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
        # _state_key of each merge-block entry explored -> 1 if the paths
        # from it counted any, else 0
        self.seen: dict = {}
        self.returns_fresh = False  # some path returns a live block
        # None until a path returns a value, then "every value was null"
        self.returns_null: bool | None = None
        self.frees_params: set[int] = set()

        self.has_user_calls = any(
            name not in BUILTIN_FUNCTIONS for name in fn.calls)

        # The globals the function sees, by slot, and which of them hold a
        # pointer, as the last declaration of each says: a user call may
        # reassign those.
        self.global_types = {g.slot: g.ctype for g in tu.globals
                             if g.slot < fn.global_count}
        self.pointer_globals = [slot for slot, ctype in
                                self.global_types.items() if ctype.is_pointer]

        # The blocks some path transferred: their statements all ran.
        self.ran: set[int] = set()

    # -- reporting --

    def emit(self, checker: str, line: int, message: str) -> None:
        if checker not in self.config.enabled:
            return
        self.findings.add(Finding(
            file=self.tu.unit.path, line=line, kind=CHECKER_KIND[checker],
            checker=checker, message=message, function=self.fn.name))

    # -- entry point --

    def run(self) -> Exploration:
        fn = self.fn
        env = [None] * len(fn.names) + [0] * (self.cfg.slots - len(fn.names))
        for slot, ctype in self.global_types.items():
            env[slot] = PTR_UNKNOWN if ctype.is_pointer else UNKNOWN
        for idx, (_, ctype) in enumerate(fn.params):
            env[fn.global_count + idx] = PtrValue("unknown", param_index=idx) \
                if ctype.is_pointer else UNKNOWN
        self._exec(self.cfg.entry, AbstractHeap(env, []))
        self.check_stores()
        return Exploration(fn.name, self.paths_counted, len(self.seen),
                           self.incomplete)

    def summary(self) -> FunctionSummary:
        """The depth-1 summary of the paths explored by run()."""
        return FunctionSummary(
            name=self.fn.name,
            returns_fresh=self.returns_fresh,
            returns_null_always=bool(self.returns_null),
            frees_params=frozenset(self.frees_params),
        )

    # -- path walking --

    def _exec(self, block_id: int, state: AbstractHeap) -> None:
        """Explore every path from the block, depth first, on a stack of
        (block, state) entries pushed in reverse, so that they are entered
        in order.  A merge entry puts its close entry, (None, (key, paths
        counted before it)), under its successors.
        """
        stack = [(block_id, state)]
        while stack:
            block_id, state = stack.pop()
            if block_id is None:  # every path from the merge entry is done
                key, before = state
                self.seen[key] = int(self.paths_counted > before)
                continue
            key = None
            if block_id in self.cfg.merges:
                key = _state_key(block_id, state, self.cfg.dead(block_id))
                weight = self.seen.get(key)
                if weight is not None:
                    # Explored from here already: the paths it found stand
                    # for this one, which counts as one path if they did.
                    self.paths_counted += weight
                    continue
            if self.paths_counted >= self.config.path_budget:
                self.incomplete = True
                continue
            if key is not None:
                # weight 0 until the paths from here are explored
                self.seen[key] = 0
                stack.append((None, (key, self.paths_counted)))
            self.ran.add(block_id)
            blk = self.cfg.blocks[block_id]
            states = [state]
            for stmt in blk.statements:
                states = [t for s in states for t in self.transfer(stmt, s)]
            succs = self.cfg.successors(block_id)
            if not succs:  # at the block's `return`, or the body's end
                last = blk.statements[-1] if blk.statements else None
                line = last.loc.line if type(last) is ast.Return \
                    else self.fn.end_line
                for s in states:
                    self.finish_path(s, line)
                continue
            cond = blk.branch_cond
            nexts = []  # (dst, state), in the order to enter them
            for s in states:
                if cond is None:
                    nexts += [(dst, s) for dst in succs]
                    continue
                then_dst, else_dst = succs
                for cstate, value in self.eval(cond, s):
                    truth = truthiness(value)
                    if truth != "false":
                        tstate = cstate if truth == "true" else cstate.clone()
                        self._refine(tstate, cond, branch=True)
                        nexts.append((then_dst, tstate))
                    if truth != "true":
                        self._refine(cstate, cond, branch=False)
                        nexts.append((else_dst, cstate))
            trip = blk.trip  # set when the block leaves by a back edge
            for dst, s in reversed(nexts):
                if trip is not None:
                    taken = s.env[trip]
                    if taken >= self.config.unroll_bound:
                        continue  # bounded unrolling: abandon this path
                    s.env[trip] = taken + 1
                stack.append((dst, s))

    def _refine(self, state: AbstractHeap, cond, branch: bool) -> None:
        """Narrow a pointer tested by the condition on the taken branch."""
        target = self._null_test_target(cond)
        if target is None:
            return
        slot, null_when_true = target
        null_branch = (branch == null_when_true)
        value = state.env[slot]
        if null_branch and isinstance(value, PtrValue) and value.kind == "unknown":
            state.env[slot] = PtrValue.null("refined", cond.loc.line)

    @staticmethod
    def _null_test_target(cond):
        """Return (slot, true-branch-means-null) for recognized null tests."""
        if isinstance(cond, ast.Ident):
            return cond.slot, False
        if isinstance(cond, ast.UnaryNot) and isinstance(cond.expr, ast.Ident):
            return cond.expr.slot, True
        if isinstance(cond, ast.BinOp) and cond.op in ("==", "!="):
            sides = (cond.left, cond.right)
            for ident, other in (sides, sides[::-1]):
                if isinstance(ident, ast.Ident) and _is_null_expr(other):
                    return ident.slot, cond.op == "=="
        return None

    # -- statement transfer --

    def transfer(self, stmt, state: AbstractHeap) -> list:
        out: list[AbstractHeap] = []
        if isinstance(stmt, ast.VarDecl):
            # The variable is uninitialized until its initializer runs.
            state.env[stmt.slot] = \
                PTR_UNINIT if stmt.ctype.is_pointer else SCALAR_UNINIT
            if stmt.init is None:
                out.append(state)
            else:
                for s, v in self.eval(stmt.init, state):
                    self._store_var(s, stmt.slot, v)
                    out.append(s)
        elif isinstance(stmt, ast.Assign):
            for s, v in self.eval(stmt.value, state):
                out.extend(self._assign(stmt.target, v, s))
        elif isinstance(stmt, ast.ExprStmt):
            out.extend(s for s, _ in self.eval(stmt.expr, state))
        elif isinstance(stmt, ast.Return):
            if stmt.expr is None:
                out.append(state)
            else:
                for s, v in self.eval(stmt.expr, state):
                    if _is_block(v) and s.sites[v.site].status == "live":
                        self.returns_fresh = True
                    self.returns_null = self.returns_null is not False \
                        and type(v) is PtrValue and v.kind == "null"
                    s.escape_value(v)
                    out.append(s)
        else:
            out.append(state)
        for s in out:
            self.check_memory_leak_at(s, stmt.loc.line)
        return out

    def _store_var(self, state: AbstractHeap, slot: int, value) -> None:
        state.env[slot] = value
        if _is_block(value):
            info = state.sites[value.site]
            if not info.hint:
                info.hint = self.fn.names[slot]

    def _assign(self, target, value, state: AbstractHeap) -> list:
        if isinstance(target, ast.Ident):
            self._store_var(state, target.slot, value)
            return [state]
        if isinstance(target, ast.Deref):
            results = []
            for s, base in self.eval(target.expr, state):
                base = self.check_null_deref(s, base, target.expr, target.loc)
                if isinstance(base, PtrValue):
                    if base.kind == "stack":
                        s.env[base.var] = value
                    elif base.kind == "block":
                        info = s.sites[base.site]
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
                    info = s.sites[base.site]
                    info.fields[target.fieldname] = value
                    if _is_block(value):
                        vinfo = s.sites[value.site]
                        if not vinfo.hint:
                            vinfo.hint = f"{info.hint}.{target.fieldname}" \
                                if info.hint else target.fieldname
                    if info.escaped:
                        s.escape_value(value)
                else:
                    s.escape_value(value)
                results.append(s)
            return results
        return [state]

    def _check_realloc_overwrite(self, target: int, rhs, loc) -> None:
        """`p = realloc(p, n)`, `target` the slot of `p`: the old block is
        lost if realloc fails."""
        expr = rhs.expr if isinstance(rhs, ast.Cast) else rhs
        if not (isinstance(expr, ast.Call) and expr.name == "realloc"):
            return
        if not expr.args or not isinstance(expr.args[0], ast.Ident):
            return
        if expr.args[0].slot != target:
            return
        if not self.config.realloc_with_calls and self.has_user_calls:
            return
        self.emit(CHECKER_REALLOC_LEAK, loc.line,
                  f"Common realloc mistake: '{self.fn.names[target]}' nulled "
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
            return [(state, self._read_var(state, expr.slot, expr.loc))]
        if isinstance(expr, ast.AddressOf):
            target = expr.expr
            if isinstance(target, ast.Ident):
                return [(state, PtrValue.stack(target.slot))]
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

    def _read_var(self, state: AbstractHeap, slot: int, loc):
        value = state.env[slot]
        if is_uninit(value):
            self.check_uninit_use(self.fn.names[slot], loc)
            value = PTR_UNKNOWN if type(value) is PtrValue else UNKNOWN
            state.env[slot] = value
        return value

    def _read_through(self, state: AbstractHeap, base, fieldname: str, loc):
        if not isinstance(base, PtrValue):
            return UNKNOWN
        if base.kind == "stack" and fieldname == "":
            return self._read_var(state, base.var, loc)
        if base.kind == "block":
            info = state.sites[base.site]
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
                other = expr.right if ptr is left else expr.left
                if not isinstance(other, ast.IntLit):
                    return PtrValue.block(ptr.site, offset=1)  # nonzero, unknown
                delta = other.value
                if op == "-" and ptr is left:
                    delta = -delta
                return PtrValue.block(ptr.site, offset=ptr.offset + delta)
        return UNKNOWN

    # -- calls --

    def eval_call(self, call: ast.Call, state: AbstractHeap) -> list:
        model = BUILTIN_FUNCTIONS.get(call.name, _FunctionAnalysis._eval_user_call)
        return model(self, call, state)

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
                s.sites[old.site].status = "freed"
            sid = s.new_site(call.loc.line, SCALAR_UNINIT)
            results.append((s, PtrValue.block(sid)))
            # Failure: the old block stays allocated.  The dedicated
            # realloc-overwrite checker owns this pattern, so the block is
            # marked escaped rather than double-reported as a generic leak.
            if _is_block(old):
                fail.escape_value(old)
            results.append((fail, PtrValue.null("alloc_failure", call.loc.line)))
        return results

    def _eval_opaque(self, call: ast.Call, state: AbstractHeap) -> list:
        return [(s, UNKNOWN) for s, _ in self._eval_args(call.args, state)]

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
            # The callee may reassign a pointer global, or keep its block.
            for slot in self.pointer_globals:
                s.escape_value(s.env[slot])
                s.env[slot] = PTR_UNKNOWN
            if summary is None:
                for v in vals:
                    s.escape_value(v)
                results.append((s, UNKNOWN))
                continue
            # The callee frees these arguments: check each as a free here.
            for idx in sorted(summary.frees_params):
                if idx < len(vals):
                    self.check_invalid_free(s, vals[idx], call, idx)
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
            state.env[expr.slot] = PTR_UNKNOWN
        return PTR_UNKNOWN

    def check_invalid_free(self, state: AbstractHeap, value, call: ast.Call,
                           idx: int = 0) -> None:
        """Free `value`, the argument at `idx` of `call`: `free` itself, or
        a callee whose summary frees that parameter."""
        if not isinstance(value, PtrValue):
            return
        line = call.loc.line
        arg = call.args[idx]
        name = arg.name if isinstance(arg, ast.Ident) else "pointer"
        if value.param_index >= 0:
            self.frees_params.add(value.param_index)
        if value.kind == "stack":
            self.emit(CHECKER_INVALID_FREE, line,
                      f"free of stack address `&{self.fn.names[value.var]}`")
            return
        if value.kind != "block":
            return  # free(NULL) and free(unknown) are no-ops here
        info = state.sites[value.site]
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
            info = state.sites[v.site]
            if info.status != "live" or info.escaped:
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
        for info in state.sites:
            if info.status == "live" and not info.escaped:
                break
        else:
            return  # nothing can leak
        reachable = state.reachable_sites(roots)
        for sid, info in enumerate(state.sites):
            if info.status != "live" or info.escaped or sid in reachable:
                continue
            self.emit(CHECKER_MEMORY_LEAK, line,
                      f"memory dynamically allocated at line {info.line} "
                      f"is not reachable after line {line}")
            info.status = "leaked"

    def finish_path(self, state: AbstractHeap, line: int) -> None:
        """End the path at `line`, unless the path budget is spent."""
        if self.paths_counted >= self.config.path_budget:
            self.incomplete = True
            return
        self.paths_counted += 1
        # Only globals survive the function; locals go out of scope.
        self.check_memory_leak_at(state, line,
                                  state.env[:self.fn.global_count])

    def check_uninit_use(self, name: str, loc) -> None:
        self.emit(CHECKER_UNINIT_USE, loc.line,
                  f"variable `{name}` may be read before initialization")

    def check_stores(self) -> None:
        """Check once each store of a block some path ran: `p = realloc(p,
        n)`, and a dead store unless the run was cut short, which is
        DEAD_STORE_NULL_INIT if all its (slot, line) stores spell NULL or 0."""
        null_only: dict = {}  # (slot, line) -> every store there is NULL/0
        for block_id in self.ran:
            for stmt in self.cfg.blocks[block_id].statements:
                cls = type(stmt)
                if cls is ast.VarDecl and stmt.init is not None:
                    slot, value = stmt.slot, stmt.init
                elif cls is ast.Assign and type(stmt.target) is ast.Ident:
                    slot, value = stmt.target.slot, stmt.value
                else:
                    continue
                self._check_realloc_overwrite(slot, value, stmt.loc)
                key = (slot, stmt.loc.line)
                null_only[key] = null_only.get(key, True) \
                    and _is_null_expr(value)
        if self.incomplete or CHECKER_DEAD_STORE not in self.config.enabled:
            return
        read = self.cfg.live_stores()
        for (slot, line), null in null_only.items():
            if (slot, line) not in read:
                self.emit(CHECKER_DEAD_STORE_NULL_INIT if null
                          else CHECKER_DEAD_STORE, line, f"The value written "
                          f"to &{self.fn.names[slot]} is never used")


# The library functions the analyzer models itself, each by the method that
# evaluates a call to it; no prototype is needed, and a unit's definition of
# one is never called.
BUILTIN_FUNCTIONS = {
    "malloc": _FunctionAnalysis._eval_alloc,
    "calloc": _FunctionAnalysis._eval_alloc,
    "realloc": _FunctionAnalysis._eval_realloc,
    "free": _FunctionAnalysis._eval_free,
    **dict.fromkeys(("printf", "memset", "memcpy", "memmove"),
                    _FunctionAnalysis._eval_opaque),
}


def _is_null_expr(expr) -> bool:
    return isinstance(expr, ast.NullLit) or \
        (isinstance(expr, ast.IntLit) and expr.value == 0)


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _explore(tu: ast.TranslationUnit, cfgs: dict,
             config: CheckerConfig) -> tuple[dict, set, bool, list]:
    """Explore each function callees first: (summaries, findings,
    incomplete, explorations), the last one Exploration per run, in order.

    A function's findings are kept from its first exploration when every
    function it calls that the unit defines, except one named like a
    builtin (`eval_call` models those), already had a summary then.
    The others call back into a cycle that the walk has not closed yet:
    their summaries keep the first exploration, and their findings come
    from one more exploration against the full table.
    """
    summaries: dict[str, FunctionSummary] = {}
    started: set[str] = set()  # in progress or summarized
    by_name = {fn.name: fn for fn in tu.functions}
    # The functions whose summaries a call reads.
    defined = by_name.keys() - BUILTIN_FUNCTIONS
    callees = {fn.name: sorted(fn.calls & defined) for fn in tu.functions}
    findings: set[Finding] = set()
    incomplete = False
    on_cycle: list[str] = []
    explorations: list[Exploration] = []

    def explored(name: str) -> _FunctionAnalysis:
        fa = _FunctionAnalysis(tu, by_name[name], cfgs[name], config,
                               summaries)
        explorations.append(fa.run())
        return fa

    def keep(fa: _FunctionAnalysis) -> None:
        nonlocal incomplete
        findings.update(fa.findings)
        incomplete = incomplete or fa.incomplete

    def opened(name: str) -> tuple:
        started.add(name)
        return name, iter(callees[name])

    # Depth first over the calls, each function analysed after its callees:
    # the stack holds the functions in progress, each with the callees it
    # has yet to go through, in sorted order.
    for root in tu.functions:
        if root.name in started:
            continue
        stack = [opened(root.name)]
        while stack:
            name, pending = stack[-1]
            for callee in pending:
                if callee not in started:
                    stack.append(opened(callee))
                    break
            else:
                stack.pop()
                final = all(callee in summaries for callee in callees[name])
                fa = explored(name)
                summaries[name] = fa.summary()
                if final:
                    keep(fa)
                else:
                    on_cycle.append(name)
    for name in on_cycle:
        keep(explored(name))
    return summaries, findings, incomplete, explorations


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
    budget, and lists every exploration's counts, in order.
    """
    config = config or PROFILES["union"]
    if cfgs is None:
        cfgs = {fn.name: build_cfg(fn) for fn in tu.functions}
    _, findings, incomplete, explorations = _explore(tu, cfgs, config)
    return Report(findings, incomplete, explorations)
