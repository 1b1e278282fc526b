"""Command-line behavior: output formats and exit codes."""

import json

import pytest

from fuzzydom.cli import main
from fuzzydom.core import FuzzyGraph
from fuzzydom.domination import BRUTE_FORCE_LIMIT
from fuzzydom.fileformat import dumps, load, save
from fuzzydom.product import direct_product


@pytest.fixture
def files(tmp_path, k2_low, k2_even, p3_mixed):
    paths = {}
    for g in (k2_low, k2_even, p3_mixed):
        path = tmp_path / f"{g.name}.fg"
        save(g, str(path))
        paths[g.name] = str(path)
    product = tmp_path / "product.fg"
    save(direct_product(k2_low, k2_even), str(product))
    paths["product"] = str(product)
    sparse = tmp_path / "sparse.fg"
    save(direct_product(p3_mixed, k2_even), str(sparse))
    paths["sparse"] = str(sparse)
    return paths


def test_validate_ok(files, capsys):
    assert main(["validate", files["k2-low"]]) == 0
    assert capsys.readouterr().out == "ok\n"


def test_validate_reports_violations(tmp_path, capsys):
    bad = tmp_path / "bad.fg"
    bad.write_text(json.dumps({
        "name": "bad",
        "vertices": [{"id": "a", "sigma": "0.2"}, {"id": "b", "sigma": "0.5"}],
        "edges": [{"u": "a", "v": "b", "mu": "0.4"}],
    }))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().out == "mu exceeds min sigma on (a,b)\n"


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.fg")]) == 1
    assert "nope.fg" in capsys.readouterr().err


def test_validate_parse_error_position(tmp_path, capsys):
    broken = tmp_path / "broken.fg"
    broken.write_text("{not json")
    assert main(["validate", str(broken)]) == 1
    assert "parse error at line 1" in capsys.readouterr().err


def test_dominate_output_format(files, capsys):
    assert main(["dominate", files["product"]]) == 0
    assert capsys.readouterr().out == "nu = 0.3, witness = {g1|h1, g1|h2}\n"


def test_dominate_total_output(files, capsys):
    assert main(["dominate", "--total", files["product"]]) == 0
    out = capsys.readouterr().out
    assert out == "nu_t = 0.7, witness = {g1|h1, g1|h2, g2|h1, g2|h2}\n"


def test_dominate_total_nonexistent(files, capsys):
    assert main(["dominate", "--total", files["sparse"]]) == 0
    assert capsys.readouterr().out == "no total dominating set\n"


def test_dominate_oracle_agrees(files, capsys):
    assert main(["dominate", files["product"]]) == 0
    fast = capsys.readouterr().out
    assert main(["dominate", "--oracle", files["product"]]) == 0
    assert capsys.readouterr().out == fast


def test_dominate_missing_file(tmp_path, capsys):
    assert main(["dominate", str(tmp_path / "nope.fg")]) == 1
    assert "nope.fg" in capsys.readouterr().err


def test_dominate_oracle_refuses_large_graphs(tmp_path, capsys):
    path = tmp_path / "large.fg"
    ids = [f"v{i}" for i in range(BRUTE_FORCE_LIMIT + 1)]
    save(FuzzyGraph.build("large", [(v, "0.5") for v in ids]), str(path))
    assert main(["dominate", "--oracle", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(BRUTE_FORCE_LIMIT) in captured.err


def test_product_roundtrip(files, tmp_path, k2_low, k2_even, capsys):
    out = tmp_path / "out.fg"
    assert main(["product", files["k2-low"], files["k2-even"],
                 "-o", str(out)]) == 0
    assert out.read_text() == dumps(direct_product(k2_low, k2_even))


def test_product_custom_separator(files, tmp_path):
    out = tmp_path / "out.fg"
    assert main(["product", files["k2-low"], files["k2-even"],
                 "-o", str(out), "--separator", "#"]) == 0
    assert load(str(out)).vertices[0] == "g1#h1"


def test_product_separator_conflict(files, tmp_path, capsys):
    out = tmp_path / "out.fg"
    assert main(["product", files["k2-low"], files["k2-even"],
                 "-o", str(out), "--separator", "g"]) == 1
    assert "separator" in capsys.readouterr().err


def test_alpha_total_output(files, capsys):
    assert main(["alpha", files["k2-low"], "--alpha", "0.1"]) == 0
    assert capsys.readouterr().out == "gamma_t = 0.2\n"


def test_alpha_closed_output(files, capsys):
    assert main(["alpha", files["k2-low"], "--alpha", "0.1", "--closed"]) == 0
    assert capsys.readouterr().out == "gamma = 0.1\n"


def test_alpha_infeasible(files, capsys):
    assert main(["alpha", files["sparse"], "--alpha", "0.1", "--total"]) == 0
    assert capsys.readouterr().out == "no total alpha-dominating function\n"


def test_alpha_requires_positive_level(files):
    with pytest.raises(SystemExit) as info:
        main(["alpha", files["k2-low"], "--alpha", "0"])
    assert info.value.code == 2


def test_alpha_modes_are_exclusive(files):
    with pytest.raises(SystemExit) as info:
        main(["alpha", files["k2-low"], "--alpha", "0.1",
              "--total", "--closed"])
    assert info.value.code == 2


def test_gen_is_deterministic(tmp_path):
    a = tmp_path / "a.fg"
    b = tmp_path / "b.fg"
    argv = ["--vertices", "4", "--edge-prob", "0.75", "--seed", "11"]
    assert main(["gen", "--out", str(a)] + argv) == 0
    assert main(["gen", "--out", str(b)] + argv) == 0
    assert a.read_text() == b.read_text()
    assert load(str(a)).name == "rand-11"


def test_gen_rejects_bad_grid(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path / "g.fg"), "--vertices", "3",
                 "--grid", "3", "--seed", "0"]) == 2
    assert "sigma_grid" in capsys.readouterr().err


def test_export_dot(files, tmp_path):
    out = tmp_path / "g.dot"
    assert main(["export-dot", files["p3-mixed"], "-o", str(out)]) == 0
    assert out.read_text().startswith('graph "p3-mixed" {')


def test_check_writes_report_and_summary(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["check",
                 "--left-params", "vertices=2,edge-prob=1,effective-prob=1",
                 "--right-params", "vertices=2",
                 "--seeds", "20",
                 "--theorems", "T1,T2a,T8",
                 "-o", str(report)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("T1: holds-on-corpus (20 instances")
    data = json.loads(report.read_text())
    assert [e["theorem_id"] for e in data] == ["T1", "T2a", "T8"]
    assert all(e["status"] != "counterexample-found" for e in data)


def test_check_counterexamples_exit_zero(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["check",
                 "--left-params", "vertices=4",
                 "--right-params", "vertices=4",
                 "--seeds", "120",
                 "--theorems", "T4b",
                 "-o", str(report)]) == 0
    out = capsys.readouterr().out
    assert "T4b: counterexample-found" in out
    data = json.loads(report.read_text())
    assert data[0]["counterexamples"]


def test_check_oversized_corpus_is_usage_error(tmp_path, capsys):
    assert main(["check",
                 "--left-params", "vertices=5",
                 "--right-params", "vertices=4",
                 "--seeds", "1",
                 "-o", str(tmp_path / "r.json")]) == 2
    assert "cap" in capsys.readouterr().err


def test_check_rejects_unknown_theorem(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["check", "--left-params", "vertices=2",
              "--right-params", "vertices=2", "--seeds", "1",
              "--theorems", "T99", "-o", str(tmp_path / "r.json")])
    assert info.value.code == 2


def test_usage_error_on_unknown_command():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
