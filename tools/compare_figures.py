#!/usr/bin/env python3
"""Check that a change keeps every rendered figure table byte-identical.

Renders the figure tables twice with ``python -m pytest benchmarks -q``
(each benchmark writes its table to ``benchmarks/results/``): once in a
temporary ``git worktree`` of REF and once in this checkout.  Each run must
import ``repro`` from its own tree, because an editable install could
otherwise serve both runs the same code.  Every table that differs is
printed as a unified diff.

Usage::

    python tools/compare_figures.py REF    # REF: a commit, branch or tag

Exit status: 0 when every table matches, 1 when a table differs or exists
on one side only, 2 when a benchmark run fails.  Stdlib only.
"""

from __future__ import annotations

import argparse
import difflib
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path("benchmarks") / "results"

#: Runs the benchmark suite in-process, then records which ``repro`` the
#: tests imported.
_RUNNER = """\
import sys
import pytest
code = pytest.main(["benchmarks", "-q", "-p", "no:cacheprovider"])
module = sys.modules.get("repro")
with open(sys.argv[1], "w", encoding="utf-8") as handle:
    handle.write(getattr(module, "__file__", None) or "")
sys.exit(code)
"""


class RunFailed(Exception):
    """A benchmark run did not render its tables."""


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO_ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _written_since(directory: Path, before: Dict[str, int]) -> Dict[str, str]:
    """Tables in ``directory`` that are new or rewritten since ``before``."""
    tables = {}
    for path in sorted(directory.glob("*.txt")):
        if before.get(path.name) != path.stat().st_mtime_ns:
            tables[path.name] = path.read_text(encoding="utf-8")
    return tables


def render(tree: Path, marker: Path) -> Dict[str, str]:
    """Run the benchmarks in ``tree``; the tables they wrote, by file name."""
    results = tree / RESULTS
    before = {path.name: path.stat().st_mtime_ns
              for path in results.glob("*.txt")}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(tree / "src"), env.get("PYTHONPATH"))))
    print(f"rendering tables in {tree} ...", flush=True)
    result = subprocess.run([sys.executable, "-c", _RUNNER, str(marker)],
                            cwd=tree, env=env, capture_output=True, text=True)
    if result.returncode != 0:
        sys.stdout.write(result.stdout[-4000:])
        sys.stderr.write(result.stderr[-4000:])
        raise RunFailed(f"benchmark run in {tree} exited {result.returncode}")
    imported = marker.read_text(encoding="utf-8")
    if not imported or not Path(imported).resolve().is_relative_to(
            tree.resolve()):
        raise RunFailed(f"benchmark run in {tree} imported repro from "
                        f"{imported or 'nowhere'}, not from its own tree")
    tables = _written_since(results, before)
    if not tables:
        raise RunFailed(f"benchmark run in {tree} wrote no tables")
    return tables


def compare(reference: Dict[str, str], change: Dict[str, str],
            ref: str) -> int:
    """Print how the tables differ; the number of tables that do."""
    differing = 0
    for name in sorted(reference.keys() | change.keys()):
        if name not in change or name not in reference:
            side = ref if name in reference else "the checkout"
            print(f"{name}: rendered only in {side}")
            differing += 1
        elif reference[name] != change[name]:
            sys.stdout.writelines(difflib.unified_diff(
                reference[name].splitlines(keepends=True),
                change[name].splitlines(keepends=True),
                fromfile=f"{ref}:{RESULTS / name}",
                tofile=f"checkout:{RESULTS / name}"))
            differing += 1
    return differing


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="commit to compare the checkout against")
    args = parser.parse_args(argv)
    try:
        commit = _git("rev-parse", "--verify", f"{args.ref}^{{commit}}")
    except subprocess.CalledProcessError:
        print(f"compare_figures: unknown commit {args.ref!r}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="compare-figures-") as temp:
        worktree = Path(temp) / "ref"
        _git("worktree", "add", "--detach", "--quiet", str(worktree), commit)
        try:
            reference = render(worktree, Path(temp) / "ref-repro")
            change = render(REPO_ROOT, Path(temp) / "checkout-repro")
        except RunFailed as error:
            print(f"compare_figures: {error}", file=sys.stderr)
            return 2
        finally:
            _git("worktree", "remove", "--force", str(worktree))
    differing = compare(reference, change, args.ref)
    total = len(reference.keys() | change.keys())
    if differing:
        print(f"{differing} of {total} tables differ from {args.ref}")
        return 1
    print(f"all {total} tables match {args.ref}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
