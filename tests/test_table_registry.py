"""The table registry in ``repro.bench.report``: names unique and backed
by committed results, every generator reached, ``results/`` laid out as
``run_table`` and ``jobs/run_all.py`` write it. Runs no table."""
import ast
import importlib.util
import inspect
import os
import re
import subprocess
from pathlib import Path

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


def test_stale_lists_tables_whose_footer_predates_src(monkeypatch, tmp_path, capsys):
    """``run_all.py --stale`` names the tables whose footer has no sha,
    a ``+dirty`` one, or a sha a later ``src/repro/`` commit follows;
    a later commit elsewhere leaves a table current. It starts no Spark
    session and writes nothing."""

    def git(*args):
        out = subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True, text=True,
        )
        return out.stdout.strip()

    def commit(path, text):
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / path).write_text(text)
        git("add", "-A")
        git("commit", "-q", "-m", path)
        return git("rev-parse", "--short", "HEAD")

    git("init", "-q")
    old = commit("src/repro/m.py", "x = 1\n")
    new = commit("src/repro/m.py", "x = 2\n")
    commit("README.md", "docs only\n")
    names = list(TABLES)[:6]
    footers = {
        names[0]: f"_generated in 1.0s on 4 cores at {old}_",
        names[1]: f"_generated in 1.0s on 4 cores at {new}_",
        names[2]: "_generated in 17.5s_",
        names[3]: f"_generated in 1.0s on 4 cores at {new}+dirty_",
        names[4]: "_generated in 1.0s on 4 cores at unknown_",
    }
    results = tmp_path / "results"
    results.mkdir()
    for name, footer in footers.items():
        (results / f"{name}.md").write_text(f"## {name}\n\n| a |\n\n{footer}\n")
    monkeypatch.setattr(report, "RESULTS_DIR", results)
    expected = [
        (names[0], f"{old} predates 1 src/repro commit(s)"),
        (names[2], "footer names no sha"),
        (names[3], f"made from uncommitted src/ at {new}"),
        (names[4], "footer names no sha"),
        (names[5], "no results file"),
    ]
    assert report.stale_tables(names) == expected

    spec = importlib.util.spec_from_file_location(
        "run_all", Path(report.__file__).parents[3] / "jobs" / "run_all.py"
    )
    run_all = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_all)
    monkeypatch.setattr(run_all, "get_spark", None)  # calling it would fail
    monkeypatch.setattr("sys.argv", ["run_all.py", "--stale", *names])
    before = sorted(p.name for p in results.iterdir())
    run_all.main()
    assert capsys.readouterr().out.splitlines() == [f"{n}: {r}" for n, r in expected]
    assert sorted(p.name for p in results.iterdir()) == before
