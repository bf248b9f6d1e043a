"""The table registry in ``repro.bench.report``: names unique and backed
by committed results, every generator reached. Runs no table."""
import ast
import inspect

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
    assert (tmp_path / f"{name}.md").read_text().startswith(f"## {name} — {title}")
