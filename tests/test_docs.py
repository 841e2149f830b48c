"""Documentation health: the docs tree exists, links resolve, CLI help runs,
the examples run, and the package imports with the standard library alone.

Mirrors the CI docs job, which installs no third-party package, so broken
docs or a stray dependency fail tier-1 locally too.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "tools"))

import check_links  # noqa: E402


REQUIRED_DOCS = ("architecture.md", "api.md", "figures.md", "serve.md",
                 "fuzzing.md")

EXAMPLES = sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))

#: Every entry point a user or a worker process imports.
ENTRY_MODULES = ("repro", "repro.api.cli", "repro.grid.catalog",
                 "repro.experiments", "repro.serve.server",
                 "repro.fuzz.harness")


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


def test_package_imports_with_the_standard_library_alone():
    """``pyproject.toml`` declares ``dependencies = []``: with site-packages
    off (``-S``), every entry point imports and loads only stdlib modules."""
    script = (
        "import importlib, json, sys\n"
        f"for name in {ENTRY_MODULES!r}:\n"
        "    importlib.import_module(name)\n"
        "print(json.dumps(sorted({name.split('.')[0] for name in sys.modules})))\n")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    foreign = [name for name in json.loads(result.stdout)
               if name != "repro" and name not in sys.stdlib_module_names
               and not name.startswith("__")]
    assert foreign == []


def test_the_cli_imports_no_process_pool_and_no_fuzzer():
    """Every CLI call pays for what ``repro.api.cli`` imports: the worker
    pool, the fuzzer, the figure modules and the grid engine load only for
    the commands that use them."""
    lazy = ("multiprocessing", "concurrent.futures", "repro.fuzz.harness",
            "repro.fuzz.oracles", "repro.experiments", "repro.grid")
    script = ("import json, sys\n"
              "import repro.api.cli\n"
              f"print(json.dumps([name for name in {lazy!r} "
              "if name in sys.modules]))\n")
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"),
           "REPRO_CACHE_DIR": str(tmp_path / "cache")}
    result = subprocess.run([sys.executable, str(REPO_ROOT / "examples" / name)],
                            env=env, cwd=tmp_path, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()
