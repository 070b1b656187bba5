"""Per-function control-flow graph construction.

Each function body becomes a directed graph of basic blocks.  Straight-line
statements stay inside one block; ``if``/``while`` introduce branch blocks
with labeled true/false edges, and ``while`` adds a loop-back edge.  Early
``return`` statements get an edge straight to the single exit block.  Code
after a ``return`` is kept in an unreachable block and flagged, never
reported.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .frontend import FunctionDef, If, Return, Stmt, While

FALLTHROUGH = "fallthrough"
TRUE_BRANCH = "true-branch"
FALSE_BRANCH = "false-branch"
LOOP_BACK = "loop-back"


@dataclass
class BasicBlock:
    id: int
    statements: list = field(default_factory=list)
    # "branch" (terminated by If/While condition), "return", or "jump"
    terminator: str = "jump"
    branch_cond: object | None = None


@dataclass
class Cfg:
    function: str
    blocks: list[BasicBlock]
    entry: int
    exit: int
    edges: list[tuple[int, int, str]]
    has_dead_code: bool = False
    # (dst, kind) per block, in edge insertion order; built once because the
    # engine asks for a block's successors on every step of every path.
    _succs: list = field(init=False, repr=False, compare=False)
    # Blocks with two or more incoming edges, joins and loop heads: where
    # paths meet, and so where the engine looks for a state it has already
    # explored.  The exit is left out: no block follows it.
    merges: set = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        succs = self._succs = [[] for _ in self.blocks]
        entered = set()
        merges = self.merges = set()
        for src, dst, kind in self.edges:
            succs[src].append((dst, kind))
            if dst in entered:
                merges.add(dst)
            else:
                entered.add(dst)
        merges.discard(self.exit)

    def successors(self, block_id: int) -> list[tuple[int, str]]:
        return self._succs[block_id]

    def block(self, block_id: int) -> BasicBlock:
        return self.blocks[block_id]

    def dump_edges(self) -> str:
        """One line per edge, ``from -> to [kind]``, in edge insertion order."""
        return "".join(f"{src} -> {dst} [{kind}]\n" for src, dst, kind in self.edges)


class _Builder:
    def __init__(self, name: str):
        self.name = name
        self.blocks: list[BasicBlock] = []
        self.edges: list[tuple[int, int, str]] = []
        self.has_dead_code = False

    def new_block(self) -> BasicBlock:
        blk = BasicBlock(id=len(self.blocks))
        self.blocks.append(blk)
        return blk

    def edge(self, src: int, dst: int, kind: str) -> None:
        self.edges.append((src, dst, kind))

    def build(self, fn: FunctionDef) -> Cfg:
        entry = self.new_block()
        exit_blk = self.new_block()
        exit_blk.terminator = "return"
        first = self.new_block()
        self.edge(entry.id, first.id, FALLTHROUGH)
        last = self.lower_stmts(fn.body, first, exit_blk)
        if last is not None:
            self.edge(last.id, exit_blk.id, FALLTHROUGH)
        return Cfg(self.name, self.blocks, entry.id, exit_blk.id, self.edges,
                   self.has_dead_code)

    def lower_stmts(self, stmts: list, current: BasicBlock,
                    exit_blk: BasicBlock) -> BasicBlock | None:
        """Lower statements into `current`; return the open trailing block,
        or None if every path has already returned."""
        for idx, stmt in enumerate(stmts):
            if current is None:
                # Dead code after a return: park it in an unreachable block.
                self.has_dead_code = True
                current = self.new_block()
            current = self.lower_stmt(stmt, current, exit_blk)
        return current

    def lower_stmt(self, stmt: Stmt, current: BasicBlock,
                   exit_blk: BasicBlock) -> BasicBlock | None:
        if isinstance(stmt, Return):
            current.statements.append(stmt)
            current.terminator = "return"
            self.edge(current.id, exit_blk.id, FALLTHROUGH)
            return None
        if isinstance(stmt, If):
            # An `else` that is exactly one `If` goes round this loop instead
            # of recursing, so an else-if chain costs no stack; the joins are
            # then made last arm first, as recursion would make them.
            arms = []  # (branch block, end of the then arm, has an else)
            end = None  # where the last arm's else ends
            while True:
                current.statements.append(stmt)
                current.terminator = "branch"
                current.branch_cond = stmt.cond
                then_blk = self.new_block()
                self.edge(current.id, then_blk.id, TRUE_BRANCH)
                then_end = self.lower_stmts(stmt.then, then_blk, exit_blk)
                arms.append((current, then_end, stmt.els is not None))
                if stmt.els is None:
                    break
                else_blk = self.new_block()
                self.edge(current.id, else_blk.id, FALSE_BRANCH)
                if len(stmt.els) == 1 and isinstance(stmt.els[0], If):
                    stmt, current = stmt.els[0], else_blk
                    continue
                end = self.lower_stmts(stmt.els, else_blk, exit_blk)
                break
            for branch, then_end, has_else in reversed(arms):
                if then_end is None and has_else and end is None:
                    continue
                join = self.new_block()
                if then_end is not None:
                    self.edge(then_end.id, join.id, FALLTHROUGH)
                if not has_else:
                    self.edge(branch.id, join.id, FALSE_BRANCH)
                elif end is not None:
                    self.edge(end.id, join.id, FALLTHROUGH)
                end = join
            return end
        if isinstance(stmt, While):
            cond_blk = self.new_block()
            self.edge(current.id, cond_blk.id, FALLTHROUGH)
            cond_blk.statements.append(stmt)
            cond_blk.terminator = "branch"
            cond_blk.branch_cond = stmt.cond
            body_blk = self.new_block()
            self.edge(cond_blk.id, body_blk.id, TRUE_BRANCH)
            body_end = self.lower_stmts(stmt.body, body_blk, exit_blk)
            if body_end is not None:
                self.edge(body_end.id, cond_blk.id, LOOP_BACK)
            after = self.new_block()
            self.edge(cond_blk.id, after.id, FALSE_BRANCH)
            return after
        current.statements.append(stmt)
        return current


def build_cfg(fn: FunctionDef) -> Cfg:
    return _Builder(fn.name).build(fn)

