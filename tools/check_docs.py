#!/usr/bin/env python3
"""Docs health checker: do the documents still match the repo?

Five mechanical checks over the curated markdown set (README + the
top-level reference documents + everything in ``docs/``):

* **Links resolve.** Every relative markdown link must point at a file
  that exists, and a ``file.md#anchor`` link must name a real heading
  of the target (GitHub slug rules). External links are not fetched.
* **Doctests pass.** Any fenced ``python`` block containing ``>>>``
  prompts is executed as a doctest against the installed ``repro``
  package, so documented behaviour cannot silently drift from code.
* **CLI examples parse.** Every ``python -m repro <cmd> ...`` or
  ``repro <cmd> ...`` command line (``\\`` continuations joined) may
  use only ``--flags`` that ``repro.cli.build_parser()`` accepts for
  that subcommand, so a renamed or deleted flag cannot linger in an
  example.
* **Imports resolve.** Every ``from repro... import name`` line in a
  fenced ``python`` block, doctest or not, must name a module that
  imports and a name it has (or a submodule of it), so the plain code
  samples (README's quick start) cannot name what is gone.
* **Named files exist.** Every path with a ``/`` that ends in
  ``.py``, ``.json``, ``.jsonl``, ``.md``, ``.yml`` or ``.toml``, in
  prose or code, must name a file relative to the repo root, ``src/``,
  ``src/repro/`` or the document's own directory, so a deleted script
  or data file cannot linger in the text. Absolute paths (``/tmp/...``)
  name the reader's machine and are skipped. A test reference
  ``file.py::Name`` or ``file.py::Name::name`` (slash or not) must
  also name a top-level class or function of that file, and a method
  or nested class of it; the file is read with ``ast``, never
  imported, so a renamed or deleted test cannot stay cited.

Run directly (``python tools/check_docs.py``) for a report and a
non-zero exit on problems; ``tests/test_docs_health.py`` wraps the
same functions so tier-1 CI enforces all five checks.
"""

from __future__ import annotations

import argparse
import ast
import doctest
import importlib
import importlib.util
import pathlib
import re
import sys
from typing import Dict, Iterable, List, Optional, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The documents whose health we guarantee. Deliberately a curated
#: list, not a glob over the repo: scratch/driver files are exempt.
DOC_PATHS: Tuple[str, ...] = (
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    "docs/ARCHITECTURE.md",
    "docs/SIMULATOR.md",
    "docs/OBSERVABILITY.md",
    "docs/ANALYSIS.md",
    "docs/SCALING.md",
)

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(r"^```.*?^```[ \t]*$", re.M | re.S)
_PYTHON_FENCE_RE = re.compile(r"^```python[^\n]*\n(.*?)^```[ \t]*$",
                              re.M | re.S)
#: A ``from repro... import`` statement in a python block (prompts
#: stripped): the module, then the names up to a closing parenthesis,
#: or to the end of the line or a comment.
_IMPORT_RE = re.compile(r"^[ \t]*from[ \t]+(repro(?:\.\w+)*)[ \t]+import[ \t]+"
                        r"(\([^)]*\)|[^\n#]*)", re.M)
#: A doctest prompt (``>>>`` or ``...``) at the start of a line.
_PROMPT_RE = re.compile(r"^([ \t]*)(?:>>>|\.\.\.) ?", re.M)
_HEADING_RE = re.compile(r"^#{1,6}[ \t]+(.+?)[ \t]*$", re.M)
_EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")
#: ``repro <cmd>``, bare or after ``python -m`` (not a path or module
#: name such as ``src/repro`` or ``repro.sim``).
_COMMAND_RE = re.compile(r"(?<![\w/.-])repro[ \t]+([a-z][\w-]*)")
#: Where a command line ends: a code span, a comment, a pipe or chain.
_COMMAND_END_RE = re.compile(r"`| #|\||;|&&")
_FLAG_RE = re.compile(r"(?<![\w-])(--[a-z][\w-]*)")
#: A relative file path: no leading ``/`` (and not inside a URL), at
#: least one ``/``, a known extension not followed by more name.
_PATH_RE = re.compile(r"(?<![\w./:~-])([\w.-][\w./-]*/[\w./-]*?"
                      r"\.(?:py|jsonl|json|md|yml|toml))(?![\w/-]|\.\w)")
#: A pytest-style reference: ``file.py::Name`` or ``file.py::Name::name``.
_REF_RE = re.compile(r"(?<![\w./:~-])([\w.-][\w./-]*\.py)"
                     r"::(\w+)(?:::(\w+))?")
_DEF_NODES = (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def doc_files() -> List[pathlib.Path]:
    """The curated documents that actually exist (missing ones fail)."""
    return [REPO_ROOT / rel for rel in DOC_PATHS]


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading: lowercase, punctuation
    stripped, spaces to hyphens."""
    text = re.sub(r"`([^`]*)`", r"\1", heading)  # inline code keeps text
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)  # links keep text
    text = text.strip().lower()
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def heading_slugs(markdown: str) -> List[str]:
    """All anchor slugs a markdown document exposes (in order)."""
    without_code = _FENCE_RE.sub("", markdown)
    slugs: List[str] = []
    seen: Dict[str, int] = {}
    for match in _HEADING_RE.finditer(without_code):
        slug = github_slug(match.group(1))
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        slugs.append(slug if n == 0 else f"{slug}-{n}")
    return slugs


def check_links(path: pathlib.Path, markdown: str) -> List[str]:
    """Problems with the relative links of one document."""
    problems: List[str] = []
    rel = path.relative_to(REPO_ROOT)
    without_code = _FENCE_RE.sub("", markdown)
    for match in _LINK_RE.finditer(without_code):
        target = match.group(1)
        if target.startswith(_EXTERNAL_PREFIXES):
            continue
        file_part, _, anchor = target.partition("#")
        if file_part:
            resolved = (path.parent / file_part).resolve()
            if not resolved.exists():
                problems.append(f"{rel}: broken link -> {target}")
                continue
        else:
            resolved = path  # pure-anchor link into this document
        if anchor:
            if resolved.suffix != ".md" or resolved.is_dir():
                continue  # anchors into non-markdown: not ours to judge
            slugs = heading_slugs(resolved.read_text(encoding="utf-8"))
            if anchor not in slugs:
                problems.append(
                    f"{rel}: link -> {target} names no heading of "
                    f"{resolved.relative_to(REPO_ROOT)}")
    return problems


def doctest_blocks(markdown: str) -> List[str]:
    """Fenced python blocks containing ``>>>`` prompts."""
    return [match.group(1)
            for match in _PYTHON_FENCE_RE.finditer(markdown)
            if ">>>" in match.group(1)]


def check_doctests(path: pathlib.Path, markdown: str) -> List[str]:
    """Doctest failures in one document's fenced python blocks."""
    problems: List[str] = []
    rel = path.relative_to(REPO_ROOT)
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(verbose=False,
                                   optionflags=doctest.ELLIPSIS)
    for i, block in enumerate(doctest_blocks(markdown)):
        test = parser.get_doctest(block, {}, f"{rel}[block {i}]",
                                  str(rel), 0)
        output: List[str] = []
        result = runner.run(test, out=output.append)
        if result.failed:
            problems.append(
                f"{rel}: doctest block {i} failed:\n" + "".join(output))
    return problems


def check_imports(path: pathlib.Path, markdown: str) -> List[str]:
    """``from repro... import`` lines in fenced python blocks naming a
    module that does not import, or a name that module lacks."""
    problems: List[str] = []
    rel = path.relative_to(REPO_ROOT)
    for block in _PYTHON_FENCE_RE.findall(markdown):
        code = _PROMPT_RE.sub(r"\1", block)
        for module_name, names in _IMPORT_RE.findall(code):
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                problems.append(f"{rel}: from {module_name} import ...: "
                                f"{exc}")
                continue
            for item in names.strip("()").split(","):
                words = item.split()  # "name" or "name as alias"
                if not words or hasattr(module, words[0]):
                    continue
                if importlib.util.find_spec(
                        f"{module_name}.{words[0]}") is None:
                    problems.append(f"{rel}: {module_name} has no "
                                    f"{words[0]} to import")
    return problems


def cli_flags() -> Dict[str, Set[str]]:
    """Subcommand -> the option strings ``build_parser()`` accepts."""
    from repro.cli import build_parser

    subparsers = next(action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {name: set(parser._option_string_actions)
            for name, parser in subparsers.choices.items()}


def check_cli_flags(path: pathlib.Path, markdown: str,
                    flags: Dict[str, Set[str]]) -> List[str]:
    """Documented ``repro`` command lines using flags the CLI rejects.

    ``repro <word>`` naming no subcommand is prose and is skipped.
    """
    problems: List[str] = []
    rel = path.relative_to(REPO_ROOT)
    joined = re.sub(r"\\\n[ \t]*", " ", markdown)
    for line in joined.splitlines():
        for match in _COMMAND_RE.finditer(line):
            cmd = match.group(1)
            if cmd not in flags:
                continue
            rest = _COMMAND_END_RE.split(line[match.end():], 1)[0]
            for flag in _FLAG_RE.findall(rest):
                if flag not in flags[cmd]:
                    problems.append(f"{rel}: `repro {cmd}` has no "
                                    f"{flag} flag")
    return problems


def definitions(source: pathlib.Path) -> Dict[str, Set[str]]:
    """Top-level classes and functions of a Python file, each mapped
    to the classes and functions its body defines."""
    tree = ast.parse(source.read_text(encoding="utf-8"), str(source))
    return {node.name: {child.name for child in node.body
                        if isinstance(child, _DEF_NODES)}
            for node in tree.body if isinstance(node, _DEF_NODES)}


def check_paths(path: pathlib.Path, markdown: str) -> List[str]:
    """File paths named in one document that exist nowhere we look,
    and ``file.py::Name[::name]`` references the file does not define."""
    problems: List[str] = []
    rel = path.relative_to(REPO_ROOT)
    bases = (REPO_ROOT, REPO_ROOT / "src", REPO_ROOT / "src" / "repro",
             path.parent)

    def resolve(target: str) -> Optional[pathlib.Path]:
        return next((base / target for base in bases
                     if (base / target).is_file()), None)

    refs = dict.fromkeys(_REF_RE.findall(markdown))
    targets = _PATH_RE.findall(markdown) + [file for file, _, _ in refs]
    for target in dict.fromkeys(targets):
        if resolve(target) is None:
            problems.append(f"{rel}: names missing file {target}")
    for file, name, member in refs:
        source = resolve(file)
        if source is None:
            continue
        defined = definitions(source)
        if name not in defined or (member and member not in defined[name]):
            ref = "::".join(part for part in (file, name, member) if part)
            problems.append(f"{rel}: {ref} names nothing {file} defines")
    return problems


def run_checks(paths: Iterable[pathlib.Path] = ()) -> List[str]:
    """All problems across the curated (or given) documents."""
    problems: List[str] = []
    flags = cli_flags()
    for path in paths or doc_files():
        if not path.exists():
            problems.append(
                f"{path.relative_to(REPO_ROOT)}: document missing")
            continue
        markdown = path.read_text(encoding="utf-8")
        problems.extend(check_links(path, markdown))
        problems.extend(check_doctests(path, markdown))
        problems.extend(check_imports(path, markdown))
        problems.extend(check_cli_flags(path, markdown, flags))
        problems.extend(check_paths(path, markdown))
    return problems


def main() -> int:
    sys.path.insert(0, str(REPO_ROOT / "src"))
    problems = run_checks()
    files = doc_files()
    blocks = sum(len(doctest_blocks(p.read_text(encoding="utf-8")))
                 for p in files if p.exists())
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        print(f"docs health: {len(problems)} problem(s) across "
              f"{len(files)} documents", file=sys.stderr)
        return 1
    print(f"docs health: {len(files)} documents OK "
          f"({blocks} fenced doctest block(s) executed)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
