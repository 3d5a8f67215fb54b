"""Documentation checks: links, knob coverage, and doctests.

Run as ``make docs-check`` (CI's ``docs`` and ``serving-docs`` jobs).
Five offline checks:

1. **Markdown links** — every relative link in ``README.md`` and
   ``docs/*.md`` must point at an existing file, and every in-document
   or cross-document ``#anchor`` must match a heading in its target.
   External ``http(s)`` links are not fetched (CI must not depend on
   network), only recognized and skipped.
2. **Knob coverage** — every ``REPRO_*`` environment knob referenced in
   ``src/`` or ``benchmarks/`` must be documented in
   ``docs/performance.md`` (the acceptance bar: docs cover every knob
   that exists in the source), and every *serving-layer* knob
   (``REPRO_SERVE*``, ``REPRO_OVERLAP``) must also appear in
   ``docs/serving.md`` — the serving guide may not drift behind the
   scheduler it documents.  The reverse holds too: every knob with a
   row in the ``docs/performance.md`` table must still be referenced
   in ``src/`` or ``benchmarks/``, so a deleted knob cannot leave a
   stale row behind.
3. **Execution-knob exclusions** — every knob listed in
   ``fleet.EXECUTION_KNOBS`` (the knobs kept out of ledger fingerprints)
   must be referenced somewhere else in ``src/``, ``benchmarks/`` or
   ``tests/``, so a deleted knob cannot leave a stale exclusion behind.
4. **Module doctests** — ``doctest.testmod`` over every ``src/repro``
   module whose source contains a ``>>>`` prompt, so examples in
   docstrings cannot rot silently.
5. **Markdown doctests** — the ``>>>`` examples embedded in
   ``README.md``/``docs/*.md`` run through ``doctest`` too (per file,
   shared globals top to bottom), so guide examples stay executable.

Exits non-zero with a list of problems; prints a one-line summary when
clean.
"""

from __future__ import annotations

import ast
import doctest
import importlib
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]
KNOB_DOC = REPO / "docs" / "performance.md"
SERVING_DOC = REPO / "docs" / "serving.md"
FLEET = REPO / "src" / "repro" / "core" / "fleet.py"

#: Knob prefixes the serving guide must cover in addition to the master
#: table in performance.md.
SERVING_KNOB_PREFIXES = ("REPRO_SERVE", "REPRO_OVERLAP")

LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
KNOB = re.compile(r"\bREPRO_[A-Z_]+\b")
#: A row of the knob table in performance.md: ``| `REPRO_X` | ...``.
KNOB_ROW = re.compile(r"^\| `(REPRO_[A-Z_]+)` \|", re.MULTILINE)


def _anchor(heading: str) -> str:
    """GitHub-style anchor for a heading."""
    text = heading.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _anchors(markdown: str) -> set[str]:
    return {_anchor(match) for match in HEADING.findall(markdown)}


def check_links() -> list[str]:
    problems = []
    for doc in DOC_FILES:
        text = doc.read_text()
        for target in LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, _, fragment = target.partition("#")
            if path_part:
                resolved = (doc.parent / path_part).resolve()
                if not resolved.exists():
                    problems.append(f"{doc.relative_to(REPO)}: broken link -> {target}")
                    continue
            else:
                resolved = doc
            if fragment:
                if resolved.suffix != ".md":
                    continue
                if _anchor(fragment) not in _anchors(resolved.read_text()):
                    problems.append(
                        f"{doc.relative_to(REPO)}: missing anchor -> {target}"
                    )
    return problems


def check_knob_coverage() -> list[str]:
    in_source: set[str] = set()
    for root in (REPO / "src", REPO / "benchmarks"):
        for path in root.rglob("*.py"):
            in_source.update(KNOB.findall(path.read_text()))
    problems = []
    knob_doc = KNOB_DOC.read_text()
    documented = set(KNOB.findall(knob_doc))
    problems.extend(
        f"docs/performance.md: undocumented knob {knob} (referenced in source)"
        for knob in sorted(in_source - documented)
    )
    problems.extend(
        f"docs/performance.md: stale row for {knob} (not referenced in source)"
        for knob in sorted(set(KNOB_ROW.findall(knob_doc)) - in_source)
    )
    serving_knobs = {
        knob for knob in in_source if knob.startswith(SERVING_KNOB_PREFIXES)
    }
    in_guide = set(KNOB.findall(SERVING_DOC.read_text()))
    problems.extend(
        f"docs/serving.md: serving knob {knob} missing from the serving guide"
        for knob in sorted(serving_knobs - in_guide)
    )
    return problems


def check_execution_knobs() -> list[str]:
    source = FLEET.read_text()
    node = next(
        node
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "EXECUTION_KNOBS" for target in node.targets)
    )
    definition = "".join(source.splitlines(keepends=True)[node.lineno - 1 : node.end_lineno])
    referenced = set(KNOB.findall(source.replace(definition, "")))
    for root in (REPO / "src", REPO / "benchmarks", REPO / "tests"):
        for path in root.rglob("*.py"):
            if path != FLEET:
                referenced.update(KNOB.findall(path.read_text()))
    return [
        f"src/repro/core/fleet.py: EXECUTION_KNOBS lists {knob}, "
        "referenced nowhere else in src/, benchmarks/ or tests/"
        for knob in sorted(set(KNOB.findall(definition)) - referenced)
    ]


def check_doctests() -> list[str]:
    problems = []
    src = REPO / "src"
    sys.path.insert(0, str(src))
    for path in sorted(src.rglob("*.py")):
        if ">>> " not in path.read_text():
            continue
        module_name = ".".join(path.relative_to(src).with_suffix("").parts)
        module = importlib.import_module(module_name)
        result = doctest.testmod(module)
        if result.failed:
            problems.append(f"{module_name}: {result.failed} doctest failure(s)")
        elif result.attempted == 0:
            problems.append(f"{module_name}: contains '>>>' but no runnable doctest")
    return problems


def check_markdown_doctests() -> list[str]:
    """Run the ``>>>`` examples embedded in the markdown docs.

    Each file is one doctest: examples share globals top to bottom, so a
    guide can import once and build on earlier results.  Failures print
    doctest's usual expected/got report before the summary line.
    """
    problems = []
    sys.path.insert(0, str(REPO / "src"))
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    for doc in DOC_FILES:
        text = doc.read_text()
        if ">>> " not in text:
            continue
        name = str(doc.relative_to(REPO))
        test = parser.get_doctest(text, {}, name, name, 0)
        result = runner.run(test, clear_globs=True)
        if result.failed:
            problems.append(f"{name}: {result.failed} doctest failure(s)")
        elif result.attempted == 0:
            problems.append(f"{name}: contains '>>>' but no runnable doctest")
    return problems


def main() -> int:
    problems = (
        check_links()
        + check_knob_coverage()
        + check_execution_knobs()
        + check_doctests()
        + check_markdown_doctests()
    )
    if problems:
        print("docs-check failed:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    n_links = sum(len(LINK.findall(doc.read_text())) for doc in DOC_FILES)
    print(
        f"docs-check ok: {len(DOC_FILES)} files, {n_links} links, "
        "all source knobs documented and no stale table rows "
        "(serving guide covered), no stale execution-knob exclusions, "
        "module and markdown doctests green"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
