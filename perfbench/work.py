"""Run one benchmark workload in its own process and print its metrics.

Started by ``run.py`` with the ``inputs.json`` that ``gen.py`` wrote.  The
process uses one thread.  It repeats whole rounds (every input unit once,
cheap ones a few times) until ``--seconds`` have passed, times every
operation, checks every output against the generator's expectations, and
prints one JSON line:
``{"attempted": .., "failed": .., "metrics": {name: {"value", "unit"}}}``.

With ``--trace 1`` it alternates traced rounds, with spans around the public
calls into each memlab layer kept in memory, and untraced rounds, and
reports per-layer figures per round plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import memlab  # noqa: E402
from memlab import (PROFILES, Report, analyze_unit, build_cfg,  # noqa: E402
                    classify, emit_structured, load_truth_manifest,
                    parse_file, parse_report, render_text)
from memlab.analysis import compute_summaries  # noqa: E402
from memlab.benchlab import compute_rates  # noqa: E402
from memlab.frontend import Node, SourceUnit, parse, tokenize  # noqa: E402

PATH_BUDGET = PROFILES["union"].path_budget
# A timed run repeats every input at least this often.  An input's time is
# its fastest repetition: on a shared host, other tenants only ever add time.
MIN_ROUNDS = 2
MAX_LOGGED_FAILURES = 5
# Set-up time is sampled across the run, because the host's speed drifts:
# this many fresh imports before the first round and after the last, and
# one between rounds every SETUP_INTERVAL_S.
SETUP_EDGE_SAMPLES = 4
SETUP_INTERVAL_S = 2.5
IMPORT_TIMEOUT_S = 60

# Per-layer metrics, in the order they are printed.  A "_s" metric is the
# self time of the spans with the name before "_s"; every value is per round.
PER_LAYER = (
    ("frontend.tokenize_s", "s"), ("frontend.tokens", "count"),
    ("frontend.parse_s", "s"), ("frontend.ast_nodes", "count"),
    ("cfg.build_s", "s"), ("cfg.blocks", "count"), ("cfg.edges", "count"),
    ("analysis.summaries_s", "s"), ("analysis.analyze_unit_s", "s"),
    ("analysis.incomplete_units", "count"), ("analysis.findings", "count"),
    ("diagnostics.render_s", "s"), ("diagnostics.emit_s", "s"),
    ("diagnostics.bytes", "bytes"),
    ("ingest.infer_s", "s"), ("ingest.cppcheck_s", "s"),
    ("ingest.predator_s", "s"), ("ingest.memlab_s", "s"),
    ("ingest.findings", "count"),
    ("benchlab.classify_s", "s"), ("benchlab.findings_classified", "count"),
    ("trace.op_s", "s"), ("trace.overhead_s", "s"),
)


class CheckFailed(Exception):
    pass


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans ``(id, name, start, end, parent id)`` and counts, in memory."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self._open: list = []
        self._next_id = 0

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict:
        """Total self time per span name: each span's duration minus the
        part its child spans cover."""
        child = [0.0] * self._next_id
        for _id, _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict = {}
        for span_id, name, start, end, _parent in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start) - child[span_id]
        return totals

    def total(self, name: str) -> float:
        return sum(end - start for _, n, start, end, _ in self.spans if n == name)

    def write(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent")
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


class _Span:
    __slots__ = ("tracer", "name", "id", "parent", "start")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        tr = self.tracer
        self.id = tr._next_id
        tr._next_id += 1
        self.parent = tr._open[-1] if tr._open else -1
        tr._open.append(self.id)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        end = time.perf_counter()
        tr = self.tracer
        tr._open.pop()
        # Finished spans are tuples of atoms, which the cyclic garbage
        # collector stops tracking, so a long trace does not slow collection.
        tr.spans.append((self.id, self.name, self.start, end, self.parent))
        return False


def _ast_nodes(tu) -> int:
    stack = [*tu.structs, *tu.functions, *tu.globals]
    count = 0
    while stack:
        node = stack.pop()
        count += 1
        for value in vars(node).values():
            if isinstance(value, Node):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, Node))
    return count


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class AnalyzeWorkload:
    """One C file per operation, analysed the way ``memlab analyze`` does:
    parse, analyse under the unit's profile, render text and JSONL."""

    def __init__(self, spec: dict):
        self.units = spec["units"]
        self._ast_nodes: dict = {}

    def run(self, unit: dict):
        result = analyze_unit(parse_file(unit["path"]),
                              config=PROFILES[unit["profile"]])
        report = Report(list(result), incomplete=result.incomplete)
        return result, render_text(report), emit_structured(report)

    def run_traced(self, unit: dict, tr: Tracer):
        config = PROFILES[unit["profile"]]
        with tr.span("frontend.tokenize"):
            source = SourceUnit.from_file(unit["path"])
            tokens = tokenize(source)
        with tr.span("frontend.parse"):
            tu = parse(tokens, source)
        with tr.span("cfg.build"):
            cfgs = {fn.name: build_cfg(fn) for fn in tu.functions}
        with tr.span("analysis.summaries"):
            compute_summaries(tu, cfgs, config)
        with tr.span("analysis.analyze_unit"):
            result = analyze_unit(tu, cfgs, config)
        with tr.span("diagnostics.render"):
            report = Report(list(result), incomplete=result.incomplete)
            text = render_text(report)
        with tr.span("diagnostics.emit"):
            structured = emit_structured(report)
        if unit["path"] not in self._ast_nodes:
            self._ast_nodes[unit["path"]] = _ast_nodes(tu)
        tr.count("frontend.tokens", len(tokens))
        tr.count("frontend.ast_nodes", self._ast_nodes[unit["path"]])
        tr.count("cfg.blocks", sum(len(c.blocks) for c in cfgs.values()))
        tr.count("cfg.edges", sum(len(c.edges) for c in cfgs.values()))
        tr.count("analysis.incomplete_units", int(result.incomplete))
        tr.count("analysis.findings", len(result))
        tr.count("diagnostics.bytes",
                 len(text.encode()) + len(structured.encode()))
        return result, text, structured

    @staticmethod
    def complete(out) -> bool:
        return not out[0].incomplete

    @staticmethod
    def _found(out) -> list:
        result, _text, structured = out
        if structured.count("\n") != len(result):
            raise CheckFailed(f"{len(result)} findings but "
                              f"{structured.count(chr(10))} JSONL records")
        return sorted([f.line, f.kind] for f in result)


class ProjectWorkload(AnalyzeWorkload):
    def check(self, unit: dict, out) -> None:
        """Exactly the manifest's (line, kind) pairs, shifted; every function
        fits the budget; the text report announces that many issues."""
        result, text, _ = out
        found = self._found(out)
        if result.incomplete:
            raise CheckFailed(f"{unit['path']}: incomplete")
        if found != unit["expected"]:
            raise CheckFailed(f"{unit['path']} [{unit['profile']}]: "
                              f"expected {unit['expected']}, got {found}")
        n = len(found)
        header = f"Found {n} issue" + ("s" if n != 1 else "")
        if text.split("\n", 1)[0] != header:
            raise CheckFailed(f"{unit['path']}: text report starts "
                              f"{text.split(chr(10), 1)[0]!r}")


class BranchyWorkload(AnalyzeWorkload):
    def check(self, unit: dict, out) -> None:
        """Complete: exactly the planted defects.  Incomplete: a subset of
        them and no DEAD_STORE.  At most PATH_BUDGET paths: complete."""
        result = out[0]
        found = self._found(out)
        planted = unit["planted"]
        if not result.incomplete:
            if found != planted:
                raise CheckFailed(f"{unit['path']}: planted {planted}, "
                                  f"got {found}")
            return
        if unit["max_paths"] <= PATH_BUDGET:
            raise CheckFailed(f"{unit['path']}: {unit['max_paths']} paths "
                              f"fit the budget but the result is incomplete")
        if any(f not in planted for f in found) or \
                any(kind == "DEAD_STORE" for _, kind in found):
            raise CheckFailed(f"{unit['path']}: incomplete result {found} "
                              f"is not a DEAD_STORE-free subset of {planted}")


class TriageWorkload:
    """One report per operation, scored the way ``memlab bench --truth``
    does: parse the report, classify it against the truth manifest, and
    compute the rates."""

    def __init__(self, spec: dict):
        self.units = spec["units"]
        self.truth = load_truth_manifest(spec["truth"]).entries
        for unit in self.units:
            unit["text"] = Path(unit["path"]).read_text(encoding="utf-8")
        self._round_tripped: set = set()

    def run(self, unit: dict):
        findings = parse_report(unit["text"], unit["format"])
        matrix, _labels = classify(findings, self.truth)
        return findings, matrix, compute_rates(matrix)

    def run_traced(self, unit: dict, tr: Tracer):
        with tr.span(f"ingest.{unit['format']}"):
            findings = parse_report(unit["text"], unit["format"])
        with tr.span("benchlab.classify"):
            matrix, _labels = classify(findings, self.truth)
        rates = compute_rates(matrix)
        tr.count("ingest.findings", len(findings))
        tr.count("benchlab.findings_classified", matrix.tp + matrix.fp)
        return findings, matrix, rates

    @staticmethod
    def complete(out) -> bool:
        return True

    def check(self, unit: dict, out) -> None:
        """The generator's counts; rates from them; and, once per report,
        emit_structured read back by the memlab parser gives the same
        findings."""
        findings, matrix, rates = out
        unmapped = sum(1 for f in findings if f.kind == "UNMAPPED")
        if (len(findings), unmapped) != (unit["findings"], unit["unmapped"]):
            raise CheckFailed(f"{unit['path']}: parsed {len(findings)} "
                              f"findings ({unmapped} unmapped), expected "
                              f"{unit['findings']} ({unit['unmapped']})")
        got = {"tp": matrix.tp, "fp": matrix.fp, "fn": matrix.fn,
               "tn": matrix.tn}
        if got != unit["matrix"]:
            raise CheckFailed(f"{unit['path']}: matrix {got}, expected "
                              f"{unit['matrix']}")
        total = sum(got.values())
        if rates != {f"{k}_rate": v / total for k, v in got.items()}:
            raise CheckFailed(f"{unit['path']}: rates {rates} do not match "
                              f"the matrix {got}")
        if unit["path"] not in self._round_tripped:
            report = Report(findings)
            back = parse_report(emit_structured(report), "memlab")
            if back != report.findings:
                raise CheckFailed(f"{unit['path']}: emit_structured does not "
                                  f"round-trip through the memlab parser")
            self._round_tripped.add(unit["path"])


WORKLOADS = {"project": ProjectWorkload, "branchy": BranchyWorkload,
             "triage": TriageWorkload}


# ---------------------------------------------------------------------------
# Running
# ---------------------------------------------------------------------------


class Rounds:
    """Timings and tallies of the operations of a set of whole rounds."""

    def __init__(self):
        self.rounds = 0
        self.times: list = []
        self.best: dict = {}        # unit path -> fastest repetition
        self.complete: dict = {}    # unit path -> verdict not incomplete
        self.attempted = 0
        self.failed = 0


def run_round(workload, op, out: Rounds) -> None:
    """Every unit once, then the units with ``repeats`` > 1 again, so that
    repetitions of a unit lie apart in time.  A failed operation is counted,
    not timed."""
    passes = max(unit.get("repeats", 1) for unit in workload.units)
    for pass_no in range(passes):
        for unit in workload.units:
            if unit.get("repeats", 1) > pass_no:
                _run_op(workload, op, unit, out)
    out.rounds += 1


def _run_op(workload, op, unit: dict, out: Rounds) -> None:
    out.attempted += 1
    t0 = time.perf_counter()
    try:
        result = op(unit)
        elapsed = time.perf_counter() - t0
        workload.check(unit, result)
    except Exception as exc:  # an operation that raises has failed
        out.failed += 1
        if out.failed <= MAX_LOGGED_FAILURES:
            print(f"failed: {unit['path']}: "
                  f"{''.join(traceback.format_exception_only(exc)).strip()}",
                  file=sys.stderr)
        return
    path = unit["path"]
    out.times.append(elapsed)
    out.best[path] = min(elapsed, out.best.get(path, elapsed))
    out.complete[path] = workload.complete(result)


def time_import() -> float:
    """Wall time of a fresh interpreter that imports memlab."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", "import memlab"],
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            cwd=ROOT)
    # A blocking wait returns when the child exits; waiting with a timeout
    # would poll, in steps of up to 50 ms.
    watchdog = threading.Timer(IMPORT_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    elapsed = time.perf_counter() - t0
    if code != 0:
        raise RuntimeError(f"importing memlab exited with {code}")
    return elapsed


def run_timed(workload, op, seconds: float, setup: list) -> Rounds:
    """Whole rounds until `seconds` have passed and, unless `seconds` is 0
    (one round), at least MIN_ROUNDS rounds ran.  Appends import times to
    `setup`, taken between rounds, never during one."""
    out = Rounds()
    setup += [time_import() for _ in range(SETUP_EDGE_SAMPLES)]
    start = last_sample = time.perf_counter()
    while True:
        run_round(workload, op, out)
        now = time.perf_counter()
        if now - start >= seconds and \
                (seconds == 0 or out.rounds >= MIN_ROUNDS):
            break
        if now - last_sample >= SETUP_INTERVAL_S:
            setup.append(time_import())
            last_sample = time.perf_counter()
    setup += [time_import() for _ in range(SETUP_EDGE_SAMPLES)]
    return out


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload, run: Rounds, setup: list) -> dict:
    """Set-up time, latency quantiles and throughput: the fastest import,
    and the inputs' best times."""
    lines = {unit["path"]: unit["lines"] for unit in workload.units}
    best = list(run.best.values())
    return {
        "setup_s": _metric(min(setup), "s"),
        "lines_per_s": _metric(
            sum(lines[path] for path in run.best) / sum(best), "lines/s"),
        "op_p50_ms": _metric(statistics.median(best) * 1e3, "ms"),
        "op_p90_ms": _metric(statistics.quantiles(best, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "verdicts_complete": _metric(sum(run.complete.values()), "count"),
    }


def per_layer(tr: Tracer, traced: Rounds, untraced: Rounds) -> dict:
    rounds = traced.rounds
    self_times = tr.self_times()
    metrics = {}
    for name, unit in PER_LAYER:
        if name.startswith("trace."):
            continue
        if unit == "s":
            total = self_times.get(name[:-2], 0.0)
        else:
            total = tr.counts.get(name, 0)
        metrics[name] = _metric(total / rounds, unit)
    traced_s = sum(traced.times)
    metrics["trace.op_s"] = _metric(traced_s / rounds, "s")
    # The traced run also calls compute_summaries on its own; that call is
    # measured work, not tracing cost.
    extra = traced_s - tr.total("analysis.summaries") - sum(untraced.times)
    metrics["trace.overhead_s"] = _metric(extra / rounds, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True, type=Path,
                        help="the inputs.json written by gen.py")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="run length; 0 runs one round")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(memlab.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"memlab imported from {memlab.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads(args.inputs.read_text(encoding="utf-8"))
    workload = WORKLOADS[args.workload](spec)
    if args.trace:
        tr = Tracer()

        def traced_op(unit):
            with tr.span("op"):
                return workload.run_traced(unit, tr)

        # Traced and untraced rounds alternate, so that both see the same
        # machine conditions and their difference is the tracing cost.
        traced, untraced = Rounds(), Rounds()
        start = time.perf_counter()
        while True:
            run_round(workload, traced_op, traced)
            run_round(workload, workload.run, untraced)
            if time.perf_counter() - start >= args.seconds:
                break
        tr.write(args.inputs.parent / "trace.jsonl")
        metrics = per_layer(tr, traced, untraced)
        attempted = traced.attempted + untraced.attempted
        failed = traced.failed + untraced.failed
    else:
        setup: list = []
        run = run_timed(workload, workload.run, args.seconds, setup)
        if len(run.best) < 2:
            print("every operation failed; nothing to measure", file=sys.stderr)
            return 1
        metrics = end_to_end(workload, run, setup)
        attempted, failed = run.attempted, run.failed
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
