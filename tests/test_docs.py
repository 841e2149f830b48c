"""Documentation health: the docs tree exists, links resolve, CLI help runs.

Mirrors the CI docs job so broken docs fail tier-1 locally too.
"""

import argparse
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_links  # noqa: E402


REQUIRED_DOCS = ("architecture.md", "api.md", "figures.md", "serve.md",
                 "fuzzing.md")


@pytest.mark.parametrize("name", REQUIRED_DOCS)
def test_docs_tree_exists(name):
    assert (REPO_ROOT / "docs" / name).is_file()


def test_markdown_links_resolve():
    errors = []
    for markdown in check_links.documentation_files(REPO_ROOT):
        assert markdown.exists(), f"missing documentation file {markdown}"
        errors.extend(check_links.check_file(markdown))
    assert errors == []


def test_readme_matches_cli_surface():
    """The README's CLI examples must name real sub-commands and flags."""
    from repro.api.cli import _build_parser
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    parser = _build_parser()
    subcommands = {"run", "figure", "grid", "cache",
                   "serve", "submit", "jobs", "fuzz"}
    parsers = next(action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction))
    assert set(parsers.choices) == subcommands
    for name in subcommands:
        assert f"repro {name}" in readme, f"README does not show `repro {name}`"
    # Every `repro <word>` the README shows must be a real sub-command.
    import re
    for match in re.finditer(r"^repro ([a-z]+)", readme, re.MULTILINE):
        assert match.group(1) in subcommands, \
            f"README shows unknown sub-command `repro {match.group(1)}`"


def test_cli_help_smoke(capsys):
    from repro.api.cli import main
    with pytest.raises(SystemExit) as excinfo:
        main(["--help"])
    assert excinfo.value.code == 0
    assert "repro" in capsys.readouterr().out
