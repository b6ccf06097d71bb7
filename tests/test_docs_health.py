"""Tier-1 enforcement of the docs-health checks (tools/check_docs.py).

The documentation makes claims about the code — link targets, anchor
names, and executable examples. These tests make those claims part of
the test surface: a renamed heading, a moved document, or drifted
doctest output fails CI, not a reader.
"""

from __future__ import annotations

import importlib.util
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py")
check_docs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(check_docs)


class TestCuratedDocs:
    def test_every_curated_document_exists(self):
        missing = [rel for rel in check_docs.DOC_PATHS
                   if not (REPO_ROOT / rel).exists()]
        assert not missing

    def test_observability_and_architecture_are_curated(self):
        assert "docs/ARCHITECTURE.md" in check_docs.DOC_PATHS
        assert "docs/OBSERVABILITY.md" in check_docs.DOC_PATHS

    def test_all_checks_pass(self):
        problems = check_docs.run_checks()
        assert problems == []

    def test_docs_contain_executable_examples(self):
        """At least one fenced doctest block must exist — the doctest
        half of the checker must never become a silent no-op."""
        blocks = 0
        for path in check_docs.doc_files():
            blocks += len(check_docs.doctest_blocks(
                path.read_text(encoding="utf-8")))
        assert blocks >= 2


class TestSlugRules:
    def test_basic_heading(self):
        assert check_docs.github_slug("The determinism contract") == \
            "the-determinism-contract"

    def test_punctuation_and_code_spans(self):
        assert check_docs.github_slug("Sweeps: what crosses the pipe") == \
            "sweeps-what-crosses-the-pipe"
        assert check_docs.github_slug("The `trace` subcommand") == \
            "the-trace-subcommand"

    def test_duplicate_headings_get_suffixes(self):
        slugs = check_docs.heading_slugs("# Same\n\n## Same\n")
        assert slugs == ["same", "same-1"]

    def test_headings_inside_code_fences_are_ignored(self):
        markdown = "# Real\n\n```console\n# not a heading\n```\n"
        assert check_docs.heading_slugs(markdown) == ["real"]


class TestNegativeCases:
    """The checker must actually fire — probe it with synthetic docs."""

    ANCHOR_DOC = REPO_ROOT / "docs" / "ARCHITECTURE.md"

    def test_broken_file_link_detected(self):
        problems = check_docs.check_links(
            REPO_ROOT / "README.md", "[gone](no-such-file.md)")
        assert len(problems) == 1
        assert "broken link" in problems[0]

    def test_broken_anchor_detected(self):
        problems = check_docs.check_links(
            REPO_ROOT / "README.md",
            "[x](docs/ARCHITECTURE.md#no-such-heading)")
        assert len(problems) == 1
        assert "names no heading" in problems[0]

    def test_valid_anchor_accepted(self):
        problems = check_docs.check_links(
            REPO_ROOT / "README.md",
            "[x](docs/ARCHITECTURE.md#the-determinism-contract)")
        assert problems == []

    def test_links_inside_code_fences_are_exempt(self):
        markdown = "```md\n[gone](no-such-file.md)\n```\n"
        assert check_docs.check_links(REPO_ROOT / "README.md",
                                      markdown) == []

    def test_external_links_are_not_fetched(self):
        markdown = "[p](https://ui.perfetto.dev) [m](mailto:a@b.c)"
        assert check_docs.check_links(REPO_ROOT / "README.md",
                                      markdown) == []

    def test_failing_doctest_detected(self):
        markdown = "```python\n>>> 1 + 1\n3\n```\n"
        problems = check_docs.check_doctests(REPO_ROOT / "README.md",
                                             markdown)
        assert len(problems) == 1
        assert "doctest block 0 failed" in problems[0]

    def test_plain_python_fences_are_not_doctested(self):
        markdown = "```python\nx = definitely_undefined\n```\n"
        assert check_docs.check_doctests(REPO_ROOT / "README.md",
                                         markdown) == []

    def test_bad_import_in_plain_block_detected(self):
        # A plain (non-doctest) block, a multi-line import with an
        # alias, a submodule, and one name the package does not have.
        markdown = ("```python\nfrom repro.sim import (SimulationConfig,\n"
                    "    run_simulation as run, no_such_name)\n"
                    "from repro.core import fluid\n```\n")
        problems = check_docs.check_imports(REPO_ROOT / "README.md",
                                            markdown)
        assert problems == ["README.md: repro.sim has no no_such_name "
                            "to import"]

    def test_import_of_missing_module_detected(self):
        markdown = "```python\n>>> from repro.no_such import thing\n```\n"
        problems = check_docs.check_imports(REPO_ROOT / "README.md",
                                            markdown)
        assert len(problems) == 1
        assert "from repro.no_such import" in problems[0]

    def test_unknown_cli_flag_detected(self):
        # The made-up flag sits on a continuation line; --jobs is real.
        markdown = ("```console\n$ python -m repro sweep --jobs 2 \\\n"
                    "      --no-such-flag 3\n```\n")
        problems = check_docs.check_cli_flags(REPO_ROOT / "README.md",
                                              markdown, check_docs.cli_flags())
        assert problems == ["README.md: `repro sweep` has no "
                            "--no-such-flag flag"]

    def test_missing_file_path_detected(self):
        # One missing script; real files under the root, src/repro/ and
        # the document's directory, and an absolute path, all pass.
        markdown = ("Run `benchmarks/no_such_bench.py`, see "
                    "`tests/paper/test_fig3.py`, `sim/engine.py`, "
                    "`../README.md` and `/tmp/out/run.json`.")
        problems = check_docs.check_paths(REPO_ROOT / "docs" / "SIMULATOR.md",
                                          markdown)
        assert problems == ["docs/SIMULATOR.md: names missing file "
                            "benchmarks/no_such_bench.py"]

    def test_stale_test_reference_detected(self):
        # DESIGN.md's E2 row once cited this test, which never existed;
        # the check is test_figure2_rankings in the same file.
        markdown = ("`tests/paper/test_table1.py::test_corollary1_rankings` "
                    "and `tests/paper/test_table1.py::test_figure2_rankings`")
        problems = check_docs.check_paths(REPO_ROOT / "DESIGN.md", markdown)
        assert problems == ["DESIGN.md: tests/paper/test_table1.py::"
                            "test_corollary1_rankings names nothing "
                            "tests/paper/test_table1.py defines"]

    def test_class_member_references_resolve(self):
        # A method of a real class passes; a missing method, and a
        # bare file name that resolves nowhere, do not.
        own = "tests/test_docs_health.py::TestNegativeCases"
        markdown = (f"`{own}::test_broken_anchor_detected`, "
                    f"`{own}::test_no_such_case` and "
                    "`test_table1.py::test_figure2_rankings`")
        problems = check_docs.check_paths(REPO_ROOT / "DESIGN.md", markdown)
        assert problems == [
            "DESIGN.md: names missing file test_table1.py",
            f"DESIGN.md: {own}::test_no_such_case names nothing "
            "tests/test_docs_health.py defines"]
