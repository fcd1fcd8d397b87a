import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, cwd):
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def test_make_synthetic_writes_a_loadable_bundle(tmp_path):
    from hgnn_space.hgraph import load_graph

    proc = run_script("make_synthetic.py", "--out", "bundle", "--papers", "60",
                      "--authors", "30", "--edges", "150", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    g = load_graph(tmp_path / "bundle")
    assert (g.node_type("P").count, g.node_type("A").count) == (60, 30)


def test_run_demo_writes_its_reports(tmp_path):
    proc = run_script("run_demo.py", "--workdir", "demo", "--n", "2",
                      "--epochs", "1", "--splits", "1", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    report = tmp_path / "demo" / "report"
    for name in ("rank_activation.csv", "rank_activation.svg",
                 "edf_condensed_search.csv", "edf.svg"):
        assert (report / name).is_file(), name
    assert (tmp_path / "demo" / "search.ndrec").is_file()
