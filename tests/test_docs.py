"""Docs hygiene: the README quickstart must run, examples must import.

The README promises its quickstart snippet executes verbatim; this test
extracts every ``python`` fenced block and execs it, so API drift in the
documentation fails tier-1 locally — the CI docs-hygiene step runs the
same checks through ``tools/check_docs.py``.
"""

import shlex
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import build_parser

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT / "tools"))
import check_docs  # noqa: E402  (import after the path tweak)


README_BLOCKS = check_docs.readme_python_blocks(
    (REPO_ROOT / "README.md").read_text(encoding="utf-8")
)


class TestReadme:
    def test_readme_exists_with_required_sections(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for heading in (
            "## Architecture map",
            "## Quickstart",
            "## Running the tests",
            "## Benchmarks",
            "## The experiment CLI",
        ):
            assert heading in text, f"README.md is missing the {heading!r} section"
        # every package of the architecture map must exist on disk
        for package in ("core", "nn", "curves", "storage", "baselines", "engine",
                        "workloads", "sharding", "experiments", "evaluation"):
            assert f"`repro.{package}`" in text
            assert (REPO_ROOT / "src" / "repro" / package).is_dir()

    def test_readme_mentions_runslow_and_tier1_command(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "--runslow" in text
        assert "python -m pytest -x -q" in text

    def test_readme_has_at_least_one_python_block(self):
        assert len(README_BLOCKS) >= 1

    @pytest.mark.parametrize("block_index", range(len(README_BLOCKS)))
    def test_quickstart_block_executes_verbatim(self, block_index, capsys):
        source = README_BLOCKS[block_index]
        exec(compile(source, f"README.md#python-block-{block_index}", "exec"), {})


def readme_cli_commands(text: str) -> list[str]:
    """Every ``python -m repro.experiments.cli ...`` command in ``text``,
    backslash continuations joined."""
    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        _, marker, args = line.partition("python -m repro.experiments.cli")
        if marker:
            commands.append(args.strip())
    return commands


README_CLI = readme_cli_commands((REPO_ROOT / "README.md").read_text(encoding="utf-8"))
CI_CLI = readme_cli_commands(
    (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
)


class TestReadmeCli:
    def test_readme_documents_cli_commands(self):
        assert len(README_CLI) >= 10

    @pytest.mark.parametrize("args", README_CLI)
    def test_cli_command_parses(self, args):
        """Parse only: a flag deleted from the CLI cannot linger in the docs."""
        build_parser().parse_args(shlex.split(args))

    @pytest.mark.parametrize("args", CI_CLI)
    def test_ci_cli_command_parses(self, args):
        """Parse only: a flag deleted from the CLI cannot linger in a CI step."""
        build_parser().parse_args(shlex.split(args))


class TestExamplesImport:
    @pytest.mark.parametrize(
        "path",
        sorted((REPO_ROOT / "examples").glob("*.py")),
        ids=lambda p: p.name,
    )
    def test_example_imports_cleanly(self, path):
        """Importing executes the example's repro imports — drift fails here."""
        check_docs.import_example(path)
