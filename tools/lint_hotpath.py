#!/usr/bin/env python3
"""Repo-specific hot-path invariant linter for the event-kernel layer.

The event simulator's correctness contract is not just "tests pass": the
integration/fire loops must stay allocation-free in steady state (the SimArena
is the only sanctioned scratch source), kernel math must go through the
ThresholdLut / LogPe lookup tables (a transcendental call inside a kernel
would both cost cycles and desync the quantized path from `cat::LogPe`), and
snn/kernels.cpp must compile with -ffp-contract=off (a fused mul-add would
diverge bitwise from the frozen reference simulator). This linter makes those
three invariants CI-enforced:

  1. no heap-allocating calls (push_back, resize, new, make_unique, ...)
     inside a hot function body;
  2. no transcendental math calls (std::exp, std::log, std::pow, ...) inside
     a hot function body — std::ldexp is sanctioned (exact power-of-two
     scaling, no rounding);
  3. the snn/kernels.cpp entry in compile_commands.json carries
     -ffp-contract=off as its effective contraction setting.

"Hot function" is decided by name (see HOT_NAME_RE): the integrate_*/fire_*
kernels (fire_read included), the axpy family, the accumulator policies'
per-tap methods (step_prepare, span_add and its span_add_* vector bodies),
the quantized shift-add helpers, and the fire-phase bucketing. Driver
functions (run_event_sim*, trace assembly) allocate their *outputs* and are
deliberately not hot.

Intentional exceptions are suppressed inline, one finding per line, with a
mandatory justification:

    out.spikes.resize(total);  // lint-hotpath: allow(alloc) trace output, ...

A suppression comment may sit on the offending line or alone on the line
above it. `allow(<category>)` without a justification is itself an error.

Token-level on purpose: no libclang dependency, so it runs anywhere python3
does. Comments and string literals are stripped before scanning; function
bodies are found by brace matching from `hotname(...) ... {`.

Usage:
    tools/lint_hotpath.py [--compile-db build/compile_commands.json]
    tools/lint_hotpath.py --self-test

Exit codes: 0 clean, 1 violations found, 2 setup/usage error.
"""

import argparse
import json
import os
import re
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# The TUs whose hot functions are linted, relative to the repo root.
KERNEL_TUS = [
    "src/snn/kernels.cpp",
    "src/snn/event_sim.cpp",
    "src/snn/quant.cpp",
]

# The TU that must compile with -ffp-contract=off.
CONTRACT_TU = "src/snn/kernels.cpp"

# A function definition whose name matches is a hot region.
HOT_NAME_RE = re.compile(
    r"^(?:integrate_\w+|fire_\w+|axpy\w*|tap_axpy|scatter_buckets|pool_layer"
    r"|broadcast_rows|quant_product|quant_add|step_prepare|span_add\w*)$"
)

# Heap-allocation (or growth) calls banned inside hot regions.
ALLOC_CALLS = {
    "push_back", "emplace_back", "emplace", "resize", "reserve", "insert",
    "make_unique", "make_shared", "malloc", "calloc", "realloc", "strdup",
}

# Transcendental/rounding libm calls banned inside hot regions. ldexp/frexp
# are deliberately absent: they scale by exact powers of two.
MATH_CALLS = {
    "exp", "expf", "expl", "exp2", "exp2f", "exp10", "expm1",
    "log", "logf", "logl", "log2", "log2f", "log10", "log1p",
    "pow", "powf", "powl", "sqrt", "sqrtf", "cbrt", "hypot",
    "sin", "sinf", "cos", "cosf", "tan", "tanf",
    "asin", "acos", "atan", "atan2",
    "sinh", "cosh", "tanh", "tanhf", "asinh", "acosh", "atanh",
    "erf", "erfc", "tgamma", "lgamma",
}

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
SUPPRESS_RE = re.compile(r"lint-hotpath:\s*allow\((alloc|math)\)\s*(.*)")


class Violation:
    def __init__(self, path, line, category, message):
        self.path = path
        self.line = line
        self.category = category
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.category}] {self.message}"


def strip_comments_and_strings(text):
    """Blanks out comments and string/char literals, preserving newlines so
    offsets and line numbers stay valid."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                out[i] = " "
                i += 1
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] != "\n":
                    out[i] = " "
                i += 1
            if i + 1 < n:
                out[i] = out[i + 1] = " "
                i += 2
        elif c == '"' or c == "'":
            quote = c
            out[i] = " "
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    out[i] = " "
                    i += 1
                if i < n and text[i] != "\n":
                    out[i] = " "
                i += 1
            if i < n:
                out[i] = " "
                i += 1
        else:
            i += 1
    return "".join(out)


def collect_suppressions(raw_text):
    """Maps line number -> (category, justification_ok). A suppression on a
    code line blesses that line; a comment-only suppression blesses the next
    code line (comment continuations and blank lines are skipped over)."""
    suppressions = {}
    lines = raw_text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        m = SUPPRESS_RE.search(line)
        if m is None:
            continue
        category, justification = m.group(1), m.group(2).strip()
        target = lineno
        if line.lstrip().startswith("//"):
            target = lineno + 1
            while target <= len(lines):
                nxt = lines[target - 1].lstrip()
                if nxt and not nxt.startswith("//"):
                    break
                target += 1
        suppressions.setdefault(target, []).append(
            (category, bool(justification), lineno))
    return suppressions


def match_paren(text, open_pos):
    """Index just past the parenthesis group opening at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        elif text[i] in "{};":
            return -1  # ill-formed / not a parameter list
    return -1


def match_brace(text, open_pos):
    """Index of the brace closing the block opening at open_pos, or -1."""
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return -1


def find_hot_regions(stripped):
    """Yields (name, body_start, body_end) for every hot function definition:
    a HOT_NAME_RE identifier, its parameter list, optional qualifiers, then a
    brace-matched body."""
    regions = []
    for m in IDENT_RE.finditer(stripped):
        name = m.group(0)
        if not HOT_NAME_RE.match(name):
            continue
        i = m.end()
        while i < len(stripped) and stripped[i].isspace():
            i += 1
        if i >= len(stripped) or stripped[i] != "(":
            continue
        i = match_paren(stripped, i)
        if i < 0:
            continue
        # Skip trailing qualifiers (const, noexcept, attribute macros with
        # their own parens) up to the body brace; any terminator char means
        # this was a call or declaration, not a definition.
        while i < len(stripped):
            c = stripped[i]
            if c.isspace():
                i += 1
            elif c == "{":
                end = match_brace(stripped, i)
                if end > 0:
                    regions.append((name, i, end))
                break
            elif c == "(":
                i = match_paren(stripped, i)
                if i < 0:
                    break
            elif IDENT_RE.match(c):
                im = IDENT_RE.match(stripped, i)
                i = im.end()
            else:
                break  # ';', ',', '=', ':' ... => not a definition
        # fallthrough: next candidate
    return regions


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def scan_source(path, raw_text):
    """Returns the list of Violations in one translation unit."""
    stripped = strip_comments_and_strings(raw_text)
    suppressions = collect_suppressions(raw_text)
    used_suppressions = set()
    violations = []

    def suppressed(lineno, category):
        for idx, (cat, has_why, at_line) in enumerate(suppressions.get(lineno, [])):
            if cat != category:
                continue
            used_suppressions.add((lineno, idx))
            if not has_why:
                violations.append(Violation(
                    path, at_line, category,
                    "suppression without a justification -- say why this "
                    "allocation/call is sanctioned"))
            return True
        return False

    for name, start, end in find_hot_regions(stripped):
        body = stripped[start:end]
        for m in IDENT_RE.finditer(body):
            ident = m.group(0)
            pos = start + m.end()
            while pos < end and stripped[pos].isspace():
                pos += 1
            is_call = pos < end and stripped[pos] == "("
            lineno = line_of(stripped, start + m.start())
            if ident == "new":
                if not suppressed(lineno, "alloc"):
                    violations.append(Violation(
                        path, lineno, "alloc",
                        f"operator new inside hot function '{name}' -- use the "
                        "SimArena scratch buffers"))
            elif ident in ALLOC_CALLS and is_call:
                if not suppressed(lineno, "alloc"):
                    violations.append(Violation(
                        path, lineno, "alloc",
                        f"heap-allocating call '{ident}' inside hot function "
                        f"'{name}' -- use the SimArena scratch buffers"))
            elif ident in MATH_CALLS and is_call:
                if not suppressed(lineno, "math"):
                    violations.append(Violation(
                        path, lineno, "math",
                        f"transcendental call '{ident}' inside hot function "
                        f"'{name}' -- kernel math goes through the "
                        "ThresholdLut/LogPe tables"))
    return violations


def check_compile_db(db_path, tu_rel=CONTRACT_TU):
    """Verifies the kernel TU's effective -ffp-contract is 'off'."""
    violations = []
    try:
        with open(db_path, "r", encoding="utf-8") as fh:
            entries = json.load(fh)
    except (OSError, ValueError) as err:
        return [Violation(db_path, 0, "contract",
                          f"cannot read compilation database: {err}")]
    found = False
    for entry in entries:
        file_path = entry.get("file", "")
        if not file_path.replace("\\", "/").endswith(tu_rel):
            continue
        found = True
        if "arguments" in entry:
            args = list(entry["arguments"])
        else:
            args = entry.get("command", "").split()
        effective = None
        for arg in args:
            if arg.startswith("-ffp-contract="):
                effective = arg.split("=", 1)[1]
        if effective != "off":
            violations.append(Violation(
                file_path, 0, "contract",
                f"kernel TU compiled with -ffp-contract={effective or '<default>'} "
                "(must be 'off': FMA contraction diverges bitwise from the "
                "frozen reference)"))
    if not found:
        violations.append(Violation(
            db_path, 0, "contract",
            f"no compilation-database entry for {tu_rel}"))
    return violations


def run_lint(repo_root, compile_db, check_db=True):
    violations = []
    for rel in KERNEL_TUS:
        path = os.path.join(repo_root, rel)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as err:
            violations.append(Violation(rel, 0, "setup", str(err)))
            continue
        violations.extend(scan_source(rel, raw))
    if check_db:
        violations.extend(check_compile_db(compile_db))
    return violations


# --------------------------------------------------------------------------
# Self-test: prove the linter actually fails on injected violations.

CLEAN_FIXTURE = """
#include <cmath>
#include <vector>
namespace fix {
// hot: allocation-free, LUT-only
void integrate_fixture(const float* w, float* acc, long n) {
  for (long i = 0; i < n; ++i) acc[i] += w[i];
}
int fire_fixture(const int* lut, float v) {
  return lut[static_cast<int>(v)];
}
// cold driver: may allocate, may even call exp
std::vector<float> run_fixture(const float* w, long n) {
  std::vector<float> out;
  out.reserve(static_cast<unsigned long>(n));
  for (long i = 0; i < n; ++i) out.push_back(std::exp(w[i]));
  return out;
}
}  // namespace fix
"""

INJECT_ALLOC = "void integrate_fixture(const float* w, float* acc, long n) {\n  std::vector<int> scratch; scratch.push_back(1);"
INJECT_MATH = "void integrate_fixture(const float* w, float* acc, long n) {\n  acc[0] = std::exp(w[0]);"
INJECT_SUPPRESSED = ("void integrate_fixture(const float* w, float* acc, long n) {\n"
                     "  std::vector<int> s;\n"
                     "  s.resize(1);  // lint-hotpath: allow(alloc) fixture: output buffer\n")
INJECT_BARE_ALLOW = ("void integrate_fixture(const float* w, float* acc, long n) {\n"
                     "  std::vector<int> s;\n"
                     "  s.resize(1);  // lint-hotpath: allow(alloc)\n")


def self_test():
    failures = []

    def expect(label, violations, want_categories):
        got = sorted({v.category for v in violations})
        if got != sorted(want_categories):
            failures.append(f"{label}: want categories {want_categories}, got "
                            f"{[str(v) for v in violations]}")

    expect("clean fixture", scan_source("fixture.cpp", CLEAN_FIXTURE), [])
    expect("injected push_back",
           scan_source("fixture.cpp",
                       CLEAN_FIXTURE.replace(
                           "void integrate_fixture(const float* w, float* acc, long n) {",
                           INJECT_ALLOC)),
           ["alloc"])
    expect("injected std::exp",
           scan_source("fixture.cpp",
                       CLEAN_FIXTURE.replace(
                           "void integrate_fixture(const float* w, float* acc, long n) {",
                           INJECT_MATH)),
           ["math"])
    expect("justified suppression",
           scan_source("fixture.cpp",
                       CLEAN_FIXTURE.replace(
                           "void integrate_fixture(const float* w, float* acc, long n) {",
                           INJECT_SUPPRESSED)),
           [])
    expect("suppression without justification",
           scan_source("fixture.cpp",
                       CLEAN_FIXTURE.replace(
                           "void integrate_fixture(const float* w, float* acc, long n) {",
                           INJECT_BARE_ALLOW)),
           ["alloc"])

    # The real kernel TUs must scan clean (the CI gate's steady state).
    for rel in KERNEL_TUS:
        path = os.path.join(REPO_ROOT, rel)
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        expect(f"repo TU {rel}", scan_source(rel, raw), [])

    # And injecting a push_back into a real hot function must fail.
    with open(os.path.join(REPO_ROOT, "src/snn/kernels.cpp"), "r",
              encoding="utf-8") as fh:
        kernels = fh.read()
    anchor = "void broadcast_rows(T* acc, std::int64_t rows, std::int64_t stride) {"
    if anchor not in kernels:
        failures.append("kernels.cpp anchor for injection test not found")
    else:
        expect("push_back injected into kernels.cpp",
               scan_source("src/snn/kernels.cpp",
                           kernels.replace(
                               anchor,
                               anchor + "\n  std::vector<float> v; v.push_back(0.0F);")),
               ["alloc"])

    # The log-code vector body is hot too: a libm call injected there fails.
    anchor = "  std::int64_t i = 0;\n  for (; i + 8 <= n; i += 8) {\n    const __m256i c ="
    if anchor not in kernels:
        failures.append("kernels.cpp span_add_avx2 anchor for injection test not found")
    else:
        expect("std::exp2 injected into span_add_avx2",
               scan_source("src/snn/kernels.cpp",
                           kernels.replace(anchor,
                                           "  (void)std::exp2(1.0);\n" + anchor)),
               ["math"])

    # Contraction check: a db with -ffp-contract=fast (or missing) must fail,
    # one with =off (even after =fast earlier on the line) must pass.
    def fake_db(flags):
        entry = {"directory": "/tmp", "file": "/repo/src/snn/kernels.cpp",
                 "command": f"g++ {flags} -c /repo/src/snn/kernels.cpp"}
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump([entry], fh)
        return path

    for flags, want in [("-O2 -ffp-contract=off", []),
                        ("-O2 -ffp-contract=fast", ["contract"]),
                        ("-O2", ["contract"]),
                        ("-ffp-contract=fast -ffp-contract=off", []),
                        ("-ffp-contract=off -ffp-contract=fast", ["contract"])]:
        path = fake_db(flags)
        try:
            expect(f"compile db [{flags}]", check_compile_db(path), want)
        finally:
            os.unlink(path)
    expect("missing db entry", check_compile_db(fake_db("-ffp-contract=off"),
                                                tu_rel="src/snn/other.cpp"),
           ["contract"])

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print("lint_hotpath self-test: all checks passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--compile-db",
                        default=os.path.join(REPO_ROOT, "compile_commands.json"),
                        help="compilation database for the -ffp-contract check "
                             "(default: <repo>/compile_commands.json symlink)")
    parser.add_argument("--skip-compile-db", action="store_true",
                        help="lint sources only (no configured build tree)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the linter's own violation-injection tests")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    violations = run_lint(REPO_ROOT, args.compile_db,
                          check_db=not args.skip_compile_db)
    real = [v for v in violations if v.category != "setup"]
    setup = [v for v in violations if v.category == "setup"]
    for v in setup:
        print(str(v), file=sys.stderr)
    if setup:
        return 2
    for v in real:
        print(str(v), file=sys.stderr)
    if real:
        print(f"lint_hotpath: {len(real)} violation(s)", file=sys.stderr)
        return 1
    print(f"lint_hotpath: OK ({len(KERNEL_TUS)} TUs"
          f"{'' if args.skip_compile_db else ' + compile db'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
