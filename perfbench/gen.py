"""Seeded input generators for the three benchmark workloads.

Each generator writes C sources or reports plus an ``inputs.json`` that
holds, for every operation, the expectation the benchmark checks memlab's
output against.  Expectations come from the generator itself or from the
hand-written ``corpus/manifest.jsonl``, never from memlab.  The seed changes
names, line shifts, profile and defect assignment and order; the make-up of
each workload (unit families, sizes, report sizes) is fixed, so that runs
with different seeds measure the same amount of work.

Regenerate the inputs of one run with::

    python3 perfbench/gen.py --workload project --seed 1 --out perfbench/out/project-s1
"""

from __future__ import annotations

import argparse
import json
import random
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("project", "branchy", "triage")
PROFILES = ("union", "cppcheck-like", "clang-like", "infer-like",
            "predator-like")

# The engine's default loop unrolling, which branchy units are analysed with.
UNROLL_BOUND = 2

# Words that renaming must leave alone: the subset's keywords and the
# library functions the analyzer models.
_RESERVED = {
    "int", "void", "char", "struct", "typedef", "if", "else", "while",
    "return", "sizeof", "NULL", "malloc", "calloc", "realloc", "free",
    "printf", "memset", "memcpy", "memmove",
}
# Comments, string literals and preprocessor lines are copied verbatim;
# identifiers elsewhere are renamed.
_C_TOKEN = re.compile(r'/\*.*?\*/|//[^\n]*|"(?:\\.|[^"\\])*"|#[^\n]*|'
                      r'[A-Za-z_]\w*', re.S)


def _word(rng: random.Random) -> str:
    return "".join(rng.choice("bdfgklmnprstvz") + rng.choice("aeiou")
                   for _ in range(rng.randint(1, 3)))


def _balanced(rng: random.Random, values, count: int) -> list:
    """`count` values cycling through `values`, shuffled: the multiset is
    the same for every seed, only the assignment changes."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def rename_identifiers(text: str, suffix: str) -> str:
    def sub(m: re.Match) -> str:
        tok = m.group(0)
        if tok[0] in '/"#' or tok in _RESERVED:
            return tok
        return f"{tok}_{suffix}"
    return _C_TOKEN.sub(sub, text)


# ---------------------------------------------------------------------------
# project: the corpus patterns as a multi-file project
# ---------------------------------------------------------------------------

PROJECT_COPIES = 5          # 11 patterns x {buggy, fixed} x 5 = 110 units
PROJECT_MAX_HELPERS = 3
PROJECT_MAX_PAD = 6


def _pair_helper(n: str) -> str:
    """A callee that returns a fresh block and a caller that frees it."""
    return (
        f"int *mk_{n}(int v_{n}) {{\n"
        f"    int *q_{n} = malloc(sizeof(int));\n"
        f"    if (q_{n} == NULL) {{\n"
        f"        return NULL;\n"
        f"    }}\n"
        f"    *q_{n} = v_{n};\n"
        f"    return q_{n};\n"
        f"}}\n"
        f"\n"
        f"int use_{n}(int k_{n}) {{\n"
        f"    int *r_{n} = mk_{n}(k_{n});\n"
        f"    if (r_{n} == NULL) {{\n"
        f"        return 0;\n"
        f"    }}\n"
        f"    k_{n} = *r_{n};\n"
        f"    free(r_{n});\n"
        f"    return k_{n};\n"
        f"}}\n"
        f"\n")


def _loop_helper(n: str) -> str:
    """Two nested `while` loops, explored up to the unroll bound."""
    return (
        f"int sum_{n}(int m_{n}) {{\n"
        f"    int acc_{n} = 0;\n"
        f"    int o_{n} = 0;\n"
        f"    while (o_{n} < m_{n}) {{\n"
        f"        int k_{n} = 0;\n"
        f"        while (k_{n} < o_{n}) {{\n"
        f"            acc_{n} = acc_{n} + k_{n};\n"
        f"            k_{n} = k_{n} + 1;\n"
        f"        }}\n"
        f"        o_{n} = o_{n} + 1;\n"
        f"    }}\n"
        f"    return acc_{n};\n"
        f"}}\n"
        f"\n")


def gen_project(seed: int, out: Path, small: bool = False) -> dict:
    """Buggy and fixed variant of each corpus pattern, renamed and shifted.

    Expected (line, kind) pairs are the manifest's, shifted by the lines
    the generator puts in front; a profile the manifest marks as blind to
    the pattern, and every fixed variant, expect no finding at all.
    """
    rng = random.Random(f"project:{seed}")
    corpus = ROOT / "corpus"
    records = [json.loads(line) for line in
               (corpus / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
               if line.strip()]
    variants = [(rec, buggy) for rec in records for buggy in (True, False)]
    copies = 1 if small else PROJECT_COPIES
    picks = [v for _ in range(copies) for v in variants]
    profiles = _balanced(rng, PROFILES, len(picks))
    helpers = _balanced(rng, range(PROJECT_MAX_HELPERS + 1), len(picks))
    pads = _balanced(rng, range(PROJECT_MAX_PAD + 1), len(picks))
    src_dir = out / "src"
    src_dir.mkdir(parents=True)
    units = []
    for idx, (rec, buggy) in enumerate(picks):
        tag = f"{_word(rng)}{idx}"
        name = rec["fixture"] if buggy else rec["fixed"]
        body = rename_identifiers(
            (corpus / name).read_text(encoding="utf-8"), tag)
        head = [f"/* {name} as unit {tag}, profile {profiles[idx]} */\n"]
        head += [f"/* padding line {i} */\n" for i in range(pads[idx])]
        head.append("\n")
        for h in range(helpers[idx]):
            helper = _pair_helper if h % 2 == 0 else _loop_helper
            head.append(helper(f"{tag}h{h}"))
        prefix = "".join(head)
        shift = prefix.count("\n")
        text = prefix + body
        path = src_dir / f"{Path(name).stem}_{tag}.c"
        path.write_text(text, encoding="utf-8")
        detects = buggy and rec["profiles"].get(profiles[idx], True)
        expected = sorted((e["line"] + shift, e["kind"]) for e in rec["expected"]) \
            if detects else []
        units.append({"path": str(path), "profile": profiles[idx],
                      "lines": text.count("\n"), "expected": expected})
    rng.shuffle(units)
    return {"workload": "project", "seed": seed, "units": units}


# ---------------------------------------------------------------------------
# branchy: one-function families that stress path exploration
# ---------------------------------------------------------------------------

# (family, size, runs per round), 100 units.  25 exceed the path budget:
# a8-a10 and p13 and up; p12 has exactly 4096 paths.  Keep `p` below ~190:
# longer chains overflow the engine's recursion.  Loop nests stay small: the
# budget counts finished paths only, so a loop whose body forks 64 ways takes
# seconds.  The sixty cheapest units, which hold the median, run ten times
# per round, spread over the round, so that their fastest time is found.
BRANCHY_FAMILIES = (
    [("p", 4, 10)] * 11 + [("p", n, 10) for n in (5, 6, 7) for _copy in range(10)]
    + [("a", 2, 10)] * 5 + [("a", 3, 10)] * 5 + [("a", 4, 10)] * 4
    + [("loop", (1, 1), 10)] * 2 + [("pairs", m, 10) for m in (2, 3, 4)]
    + [("p", n, 1) for n in (8, 9, 10, 11, 12)]
    + [("a", k, 1) for k in (5, 6, 7)]
    + [("loop", d, 1) for d in ((1, 3), (2, 1), (2, 2), (3, 1))]
    + [("pairs", m, 1) for m in (8, 16, 48)]
    + [("a", k, 1) for k in (8, 9, 10)]
    + [("p", n, 1) for n in (*range(13, 32), 48, 96, 150)]
)
BRANCHY_SMALL = (("a", 3, 2), ("p", 6, 2), ("p", 13, 1), ("loop", (2, 1), 1),
                 ("pairs", 4, 1))

# Planted defects that do not fork a path: kind -> (declaration, defect line).
_PLANTS = {
    "NULL_DEREFERENCE": ("int *z_{n} = NULL;", "*z_{n} = i_{n};"),
    "UNINITIALIZED_VALUE": ("int u_{n};", 'printf("%d\\n", u_{n});'),
    "INVALID_FREE": ("int s_{n} = i_{n};", "free(&s_{n});"),
    "DEAD_STORE": ("int d_{n};", "d_{n} = i_{n};"),
}
_PLANT_PAIRS = [(a, b) for a in _PLANTS for b in _PLANTS if a < b]


def _loop_paths(depth: int, ifs: int) -> int:
    """Finished paths through `depth` nested `while (unknown)` loops whose
    innermost body holds `ifs` unknown `if`s.

    Mirrors the engine's bounded unrolling: each loop-back edge may be taken
    `UNROLL_BOUND` times per path, counted over the whole path, and a path
    that would take it once more is dropped unfinished.
    """
    def at_cond(level: int, counts: tuple, cont) -> int:
        exits = cont(counts)
        if level == depth - 1:
            return exits + 2 ** ifs * back_edge(level, counts, cont)
        return exits + at_cond(level + 1, counts,
                               lambda c: back_edge(level, c, cont))

    def back_edge(level: int, counts: tuple, cont) -> int:
        if counts[level] >= UNROLL_BOUND:
            return 0
        bumped = counts[:level] + (counts[level] + 1,) + counts[level + 1:]
        return at_cond(level, bumped, cont)

    return at_cond(0, (0,) * depth, lambda counts: 1)


def _branchy_unit(family: str, size, n: str, plants, leak_at: int):
    """C text, planted (line offset from the function start, kind) pairs and
    the largest path count of any function in the unit."""
    lines = [f"int f_{n}(int c_{n}, int i_{n}, int m_{n}) {{",
             f"    int x_{n} = i_{n};"]
    planted = []
    for kind in plants:
        decl, use = _PLANTS[kind]
        lines.append("    " + decl.format(n=n))
        lines.append("    " + use.format(n=n))
        planted.append((len(lines), kind))
    helpers = []
    paths = 1
    if family == "a":
        lines.append(f"    int *p_{n};")
        lines.append(f"    int *q_{n};")
        for j in range(size):
            if j == leak_at:
                lines.append(f"    if (c_{n}) {{ q_{n} = malloc(8); "
                             f"if (q_{n}) {{ *q_{n} = i_{n}; }} }}")
            else:
                lines.append(f"    if (c_{n}) {{ p_{n} = malloc(8); "
                             f"if (p_{n}) {{ free(p_{n}); }} }}")
        paths = 3 ** size
    elif family == "p":
        lines += [f"    if (c_{n}) {{ x_{n} = i_{n}; }}"] * size
        paths = 2 ** size
    elif family == "loop":
        depth, ifs = size
        for level in range(depth):
            pad = "    " * (level + 1)
            lines.append(f"{pad}int k{level}_{n} = 0;")
            lines.append(f"{pad}while (k{level}_{n} < m_{n}) {{")
        pad = "    " * (depth + 1)
        lines += [f"{pad}if (c_{n}) {{ x_{n} = x_{n} + i_{n}; }}"] * ifs
        for level in reversed(range(depth)):
            pad = "    " * (level + 2)
            lines.append(f"{pad}k{level}_{n} = k{level}_{n} + 1;")
            lines.append("    " * (level + 1) + "}")
        paths = _loop_paths(depth, ifs)
    elif family == "pairs":
        for j in range(size):
            helpers.append(_pair_helper(f"{n}_{j}"))
        paths = 2
    lines.append(f"    return x_{n};")
    if leak_at >= 0:
        planted.append((len(lines), "MEMORY_LEAK"))
    lines.append("}")
    return "".join(helpers), "\n".join(lines) + "\n", planted, paths


def gen_branchy(seed: int, out: Path, small: bool = False) -> dict:
    rng = random.Random(f"branchy:{seed}")
    families = list(BRANCHY_SMALL if small else BRANCHY_FAMILIES)
    plant_sets = _balanced(rng, _PLANT_PAIRS, len(families))
    pads = _balanced(rng, range(PROJECT_MAX_PAD + 1), len(families))
    src_dir = out / "src"
    src_dir.mkdir(parents=True)
    units = []
    for idx, (family, size, repeats) in enumerate(families):
        tag = f"{_word(rng)}{idx}"
        leak_at = rng.randrange(size) if family == "a" else -1
        helpers, fn, planted, paths = _branchy_unit(
            family, size, tag, plant_sets[idx], leak_at)
        head = [f"/* {family} {size} as unit {tag} */\n"]
        head += [f"/* padding line {i} */\n" for i in range(pads[idx])]
        head.append("#include <stdlib.h>\n\n")
        prefix = "".join(head) + helpers
        shift = prefix.count("\n")
        text = prefix + fn
        label = family + ("x".join(map(str, size)) if family == "loop"
                          else str(size))
        path = src_dir / f"{label}_{tag}.c"
        path.write_text(text, encoding="utf-8")
        units.append({"path": str(path), "profile": "union", "family": label,
                      "lines": text.count("\n"), "max_paths": paths,
                      "repeats": repeats,
                      "planted": sorted((line + shift, kind)
                                        for line, kind in planted)})
    rng.shuffle(units)
    return {"workload": "branchy", "seed": seed, "units": units}


# ---------------------------------------------------------------------------
# triage: a truth manifest and third-party reports with known counts
# ---------------------------------------------------------------------------

TRIAGE_FILES = 50
TRIAGE_ENTRIES_PER_FILE = 40       # 2000 truth entries
TRIAGE_REAL_SHARE = 0.7
TRIAGE_MAX_LINE = 6000
# Findings per report; each size is used once per format, so 100 reports.
TRIAGE_REPORT_SIZES = tuple(range(10, 135, 5))
TRIAGE_SMALL = (8, 20, (30, 60))
TRUTH_KINDS = ("MEMORY_LEAK", "NULL_DEREFERENCE", "INVALID_DEREFERENCE",
               "INVALID_FREE", "DEAD_STORE", "UNINITIALIZED_VALUE",
               "RESOURCE_LEAK")
VERSIONS = ("1.0", "1.1", "2.0")

# Message text that each report format's parser maps to a kind; the
# UNMAPPED entries are findings the parsers keep but cannot classify.
_CPPCHECK_MSG = {
    "MEMORY_LEAK": "Memory leak: {v}",
    "NULL_DEREFERENCE": "Null pointer dereference: {v}",
    "UNINITIALIZED_VALUE": "Uninitialized variable: {v}",
    "RESOURCE_LEAK": "Resource leak: {v}",
    "INVALID_DEREFERENCE": "Dereferencing '{v}' after it is deallocated / "
                           "released",
    "UNMAPPED": "Array '{v}' accessed at index 8, which is out of bounds.",
}
_PREDATOR_MSG = {
    "MEMORY_LEAK": "memory leak detected while destroying a variable on "
                   "stack",
    "INVALID_DEREFERENCE": "invalid dereference of '{v}' after free",
    "INVALID_FREE": "double free of '{v}'",
    "UNMAPPED": "write of 8 bytes out of range of the block behind '{v}'",
}
_INFER_KINDS = ("MEMORY_LEAK", "NULL_DEREFERENCE", "DEAD_STORE",
                "UNINITIALIZED_VALUE", "RESOURCE_LEAK")
_INFER_UNMAPPED = ("BUFFER_OVERRUN", "USE_AFTER_LIFETIME")
_MEMLAB_CHECKER = {
    "MEMORY_LEAK": "MEMORY_LEAK", "NULL_DEREFERENCE": "NULL_DEREF",
    "INVALID_FREE": "INVALID_FREE", "DEAD_STORE": "DEAD_STORE",
    "UNINITIALIZED_VALUE": "UNINIT_USE",
}
FORMAT_KINDS = {
    "infer": _INFER_KINDS,
    "cppcheck": tuple(k for k in _CPPCHECK_MSG if k != "UNMAPPED"),
    "predator": tuple(k for k in _PREDATOR_MSG if k != "UNMAPPED"),
    "memlab": tuple(_MEMLAB_CHECKER),
}
# Shares of each report: true positives, known-false matches, findings
# matching nothing, and findings of a kind no parser maps (memlab never
# writes those; its share goes to true positives).
_SHARE_TP, _SHARE_FP_KNOWN, _SHARE_FP_NEW, _SHARE_UNMAPPED = 0.5, 0.15, 0.25, 0.1
_WRAP = 60


def _wrap(text: str, width: int = _WRAP) -> list:
    """Split at spaces into pieces of at most about `width` characters."""
    pieces, cur = [], ""
    for word in text.split(" "):
        if cur and len(cur) + 1 + len(word) > width:
            pieces.append(cur)
            cur = word
        else:
            cur = f"{cur} {word}" if cur else word
    pieces.append(cur)
    return pieces


def _infer_report(findings) -> list:
    out = [f"Found {len(findings)} issue{'s' if len(findings) != 1 else ''}", ""]
    summary: dict = {}
    for f in findings:
        head = (f"{f['file']}:{f['line']}: error: {f['kind']} pointer "
                f"`{f['var']}` last assigned on line {max(1, f['line'] - 1)} "
                f"is used at line {f['line']}.")
        out += _wrap(head)
        for delta in range(-1, 2):
            mark = ">" if delta == 0 else " "
            out.append(f"  {f['line'] + delta}. {mark} {f['var']} = step();")
        out.append("")
        summary[f["kind"]] = summary.get(f["kind"], 0) + 1
    out += ["Summary of the reports", ""]
    out += [f"  {kind}: {count}" for kind, count in sorted(summary.items())]
    return out


def _cppcheck_report(findings) -> list:
    out, current = [], None
    for f in sorted(findings, key=lambda f: (f["file"], f["line"])):
        if f["file"] != current:
            current = f["file"]
            out.append(f"Checking {current} ...")
        msg = _CPPCHECK_MSG[f["kind"]].format(v=f["var"])
        out.append(f"[{f['file']}:{f['line']}]: ")
        out += _wrap(f"(error) {msg}")
        if f["line"] % 5 == 0:
            # Style notes are not errors; the parser drops them.
            out.append(f"[{f['file']}:{f['line'] + 1}]: (style) Variable "
                       f"'{f['var']}' is assigned a value that is never used.")
    return out


def _predator_report(findings) -> list:
    out = []
    for f in findings:
        msg = _PREDATOR_MSG[f["kind"]].format(v=f["var"])
        out += _wrap(f"{f['file']}:{f['line']}:{f['col']}: warning: {msg} "
                     f"[-fplugin=libsl.so]")
        if f["line"] % 4 == 0:
            out += _wrap(f"{f['file']}:{max(1, f['line'] - 3)}: note: the "
                         f"block was allocated here [-fplugin=libsl.so]")
    out.append("cl/cl_easy.cc:83: note: clEasyRun() took "
               "0.001 s [internal location] [-fplugin=libsl.so]")
    return out


def _memlab_report(findings) -> list:
    return [json.dumps({
        "file": f["file"], "line": f["line"], "kind": f["kind"],
        "checker": _MEMLAB_CHECKER[f["kind"]],
        "message": f"value of `{f['var']}` at line {f['line']}",
        "function": f"fn_{f['var']}",
    }) for f in findings]


_WRITERS = {"infer": _infer_report, "cppcheck": _cppcheck_report,
            "predator": _predator_report, "memlab": _memlab_report}


def gen_triage(seed: int, out: Path, small: bool = False) -> dict:
    rng = random.Random(f"triage:{seed}")
    n_files, per_file, sizes = TRIAGE_SMALL if small else (
        TRIAGE_FILES, TRIAGE_ENTRIES_PER_FILE, TRIAGE_REPORT_SIZES)
    files = [f"src/{_word(rng)}_{i}.c" for i in range(n_files)]
    n_real = round(per_file * TRIAGE_REAL_SHARE)
    entries = []
    for path in files:
        lines = sorted(rng.sample(range(1, TRIAGE_MAX_LINE), per_file))
        kinds = _balanced(rng, TRUTH_KINDS, per_file)
        real = _balanced(rng, [True] * n_real + [False] * (per_file - n_real),
                         per_file)
        for line, kind, is_real in zip(lines, kinds, real):
            v = rng.randrange(len(VERSIONS) - 1)
            entries.append({
                "record": "entry", "file": path, "line": line, "kind": kind,
                "is_real": is_real, "introduced_version": VERSIONS[v],
                "fixed_version": VERSIONS[v + 1] if is_real else None,
                "source": "commit" if is_real else "manual-review",
            })
    truth_path = out / "truth.jsonl"
    header = {"record": "header", "program": "synth", "versions": list(VERSIONS)}
    truth_path.write_text("".join(json.dumps(r) + "\n"
                                  for r in [header] + entries), encoding="utf-8")
    taken = {(e["file"], e["line"]) for e in entries}
    total_real = sum(e["is_real"] for e in entries)
    total_false = len(entries) - total_real
    units = []
    for fmt, writer in _WRITERS.items():
        kinds = FORMAT_KINDS[fmt]
        real_pool = [e for e in entries if e["is_real"] and e["kind"] in kinds]
        false_pool = [e for e in entries if not e["is_real"] and e["kind"] in kinds]
        for size in sizes:
            n_unmapped = 0 if fmt == "memlab" else round(size * _SHARE_UNMAPPED)
            n_fpk = round(size * _SHARE_FP_KNOWN)
            n_fpn = round(size * _SHARE_FP_NEW)
            n_tp = size - n_unmapped - n_fpk - n_fpn
            picked = [(e, e["kind"]) for e in rng.sample(real_pool, n_tp)]
            picked += [(e, e["kind"]) for e in rng.sample(false_pool, n_fpk)]
            used = set(taken)
            for _ in range(n_fpn + n_unmapped):
                # A line with no truth entry in that file: matches nothing.
                while True:
                    spot = (rng.choice(files), rng.randrange(1, TRIAGE_MAX_LINE))
                    if spot not in used:
                        used.add(spot)
                        break
                picked.append(({"file": spot[0], "line": spot[1]},
                               rng.choice(kinds)))
            unmapped = picked[len(picked) - n_unmapped:]
            picked = picked[:len(picked) - n_unmapped]
            picked += [(e, rng.choice(_INFER_UNMAPPED) if fmt == "infer"
                        else "UNMAPPED") for e, _ in unmapped]
            findings = [{"file": e["file"], "line": e["line"], "kind": kind,
                         "var": _word(rng), "col": rng.randrange(1, 40)}
                        for e, kind in picked]
            rng.shuffle(findings)
            text = "\n".join(writer(findings)) + "\n"
            path = out / f"{fmt}_{size}.txt"
            path.write_text(text, encoding="utf-8")
            units.append({
                "path": str(path), "format": fmt, "lines": text.count("\n"),
                "findings": size, "unmapped": n_unmapped,
                "matrix": {"tp": n_tp, "fp": n_fpk + n_fpn,
                           "fn": total_real - n_tp, "tn": total_false - n_fpk},
            })
    rng.shuffle(units)
    return {"workload": "triage", "seed": seed, "truth": str(truth_path),
            "units": units}


GENERATORS = {"project": gen_project, "branchy": gen_branchy,
              "triage": gen_triage}


def write_inputs(workload: str, seed: int, out: Path, small: bool = False) -> Path:
    """Generate one workload's inputs into `out` (replaced if present) and
    return the path of its ``inputs.json``."""
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    spec = GENERATORS[workload](seed, out, small)
    spec_path = out / "inputs.json"
    spec_path.write_text(json.dumps(spec, indent=1) + "\n", encoding="utf-8")
    return spec_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    print(write_inputs(args.workload, args.seed, args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
