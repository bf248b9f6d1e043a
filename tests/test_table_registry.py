"""The table registry in ``repro.bench.report``: names unique and backed
by committed results, every generator reached, ``results/`` laid out as
``run_table`` and ``jobs/run_all.py`` write it. Runs no table."""
import ast
import inspect
import os
import re
import subprocess

import pandas as pd

from repro.bench import report, tables_parallel, tables_single
from repro.bench.report import RESULTS_DIR, TABLES


def _generators(mod) -> list[str]:
    return [
        n
        for n, f in inspect.getmembers(mod, inspect.isfunction)
        if n.startswith("table_") and f.__module__ == mod.__name__
    ]


def test_names_are_unique():
    # A dict literal keeps the last of two equal keys silently, so check
    # the source rather than the built dict.
    tree = ast.parse(inspect.getsource(report))
    (literal,) = [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.AnnAssign) and node.target.id == "TABLES"
    ]
    names = [k.value for k in literal.keys]
    assert len(names) == len(set(names)) == len(TABLES)


def test_every_name_has_committed_results():
    stems = {p.stem for p in RESULTS_DIR.glob("*.md")} - {"ALL"}
    assert stems == set(TABLES)


def test_results_files_start_with_their_heading():
    for name, (title, _) in TABLES.items():
        text = (RESULTS_DIR / f"{name}.md").read_text()
        assert text.startswith(f"## {name} — {title}\n"), name


def test_all_md_joins_the_tables_in_registry_order():
    parts = [(RESULTS_DIR / f"{name}.md").read_text() for name in TABLES]
    assert (RESULTS_DIR / "ALL.md").read_text() == "\n".join(parts)


def test_every_generator_is_reached(monkeypatch):
    expected = _generators(tables_single) + _generators(tables_parallel)
    reached = []
    for mod in (tables_single, tables_parallel):
        for n in _generators(mod):
            monkeypatch.setattr(
                mod, n, lambda *a, _n=n: reached.append(_n) or pd.DataFrame()
            )
    for name, (title, table_fn) in TABLES.items():
        assert title, name
        assert isinstance(table_fn(None, "smoke"), pd.DataFrame), name
    assert set(reached) == set(expected)


def test_run_table_writes_results_only_at_full_scale(monkeypatch, tmp_path, capsys):
    name = "table09_single_threaded"
    title, _ = TABLES[name]
    frame = pd.DataFrame({"w": [4096], "tput": [1.5]})
    monkeypatch.setitem(TABLES, name, (title, lambda spark, scale: frame))
    monkeypatch.setattr(report, "RESULTS_DIR", tmp_path)
    assert report.run_table(None, name, "smoke") is frame
    assert f"## {name} — {title}" in capsys.readouterr().out
    assert not list(tmp_path.iterdir())
    report.run_table(None, name, "full")
    text = (tmp_path / f"{name}.md").read_text()
    assert text.startswith(f"## {name} — {title}")
    # The footer says where the numbers came from.
    footer = text.rstrip("\n").splitlines()[-1]
    cores = len(os.sched_getaffinity(0))
    assert re.fullmatch(
        rf"_generated in \d+\.\ds on {cores} cores at"
        rf" ([0-9a-f]{{4,}}(\+dirty)?|unknown)_",
        footer,
    ), footer
    monkeypatch.setattr(report, "RESULTS_DIR", tmp_path / "no-checkout" / "results")
    report.run_table(None, name, "smoke")
    assert capsys.readouterr().out.rstrip("\n").endswith(" at unknown_")


def test_git_sha_marks_uncommitted_src(monkeypatch, tmp_path):
    """The footer sha gains ``+dirty`` once ``src/`` differs from HEAD;
    changes outside ``src/`` (a results file) leave it clean."""

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text("x = 1\n")
    git("add", "-A")
    git("commit", "-q", "-m", "m")
    monkeypatch.setattr(report, "RESULTS_DIR", tmp_path / "results")
    sha = report._git_sha()
    assert re.fullmatch(r"[0-9a-f]{4,}", sha), sha
    (tmp_path / "results").mkdir()
    (tmp_path / "results" / "t.md").write_text("table\n")
    assert report._git_sha() == sha
    (tmp_path / "src" / "m.py").write_text("x = 2\n")
    assert report._git_sha() == f"{sha}+dirty"
