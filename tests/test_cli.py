import contextlib
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadelab as cl
from cascadelab import cli, graph
from cascadelab.cli import main
from cascadelab.structure import degree_priority_summary

from conftest import fill_disk


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def security_file(tmp_path):
    path = tmp_path / "sec.graph"
    assert run_cli("generate", "--model", "security", "--n", 800, "--d", 4,
                   "--a", 1.5, "--seed", 3, "--out", path) == 0
    return path


def test_generate_writes_loadable_graph(tmp_path, capsys):
    path = tmp_path / "er.graph"
    assert run_cli("generate", "--model", "er", "--n", 200, "--d", 4,
                   "--seed", 9, "--out", path) == 0
    g = cl.load_graph(path)
    assert g == cl.gen_er(200, 4, master_seed=9)
    assert "wrote" in capsys.readouterr().out


def test_generate_security_requires_a(tmp_path, capsys):
    code = run_cli("generate", "--model", "security", "--n", 100, "--d", 4,
                   "--seed", 1, "--out", tmp_path / "x.graph")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cascade_uniform_and_random(security_file, tmp_path):
    out = tmp_path / "cascade.csv"
    assert run_cli("cascade", "--graph", security_file, "--attack", "top",
                   "--k", 5, "--thresholds", "uniform:0.2", "--trials", 2,
                   "--seed", 4, "--out", out) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == ("trial,threshold_mode,phi_or_seed,attack_size,"
                        "infected,infected_fraction,rounds")
    assert len(lines) == 3
    assert lines[1].split(",")[1] == "uniform"

    assert run_cli("cascade", "--graph", security_file, "--attack", "top",
                   "--k", 5, "--thresholds", "random", "--trials", 3,
                   "--seed", 4, "--out", out) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[1:]]
    assert len(rows) == 3
    assert len({r[2] for r in rows}) == 3  # distinct derived trial seeds


def test_cascade_ids_attack(security_file, tmp_path):
    ids = tmp_path / "attack.txt"
    ids.write_text("1\n5\n9\n")
    out = tmp_path / "c.csv"
    assert run_cli("cascade", "--graph", security_file, "--attack",
                   f"ids:{ids}", "--thresholds", "uniform:0.5",
                   "--out", out) == 0
    assert out.read_text().strip().split("\n")[1].split(",")[3] == "3"


def test_cascade_repeated_ids_count_once(security_file, tmp_path):
    # the cascade runs on the distinct ids, so attack_size counts them once
    ids = tmp_path / "attack.txt"
    ids.write_text("3\n3\n3\n")
    out = tmp_path / "c.csv"
    assert run_cli("cascade", "--graph", security_file, "--attack",
                   f"ids:{ids}", "--thresholds", "uniform:1.0",
                   "--out", out) == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    g = cl.load_graph(security_file)
    infected = cl.infection_set(g, [3], cl.uniform_thresholds(g, 1.0)).infected
    assert row[3:5] == ["1", str(infected.size)]


@pytest.mark.parametrize("content,lineno,message", [
    ("1\n800\n", 2, "attack id 800 is outside 0..799"),  # id == n
    ("-1\n5\n", 1, "attack id -1 is outside 0..799"),
    ("1\n5 x7\n9\n", 2, "attack id 'x7' is not an integer"),
], ids=["id-equal-to-n", "negative-id", "non-integer"])
def test_cascade_bad_attack_id_names_its_line(security_file, tmp_path, capsys,
                                              content, lineno, message):
    ids = tmp_path / "attack.txt"
    ids.write_text(content)
    out = tmp_path / "c.csv"
    assert run_cli("cascade", "--graph", security_file, "--attack",
                   f"ids:{ids}", "--thresholds", "uniform:0.5",
                   "--out", out) == 2
    assert f"{ids}:{lineno}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_cascade_bad_thresholds(security_file, tmp_path, capsys):
    assert run_cli("cascade", "--graph", security_file, "--thresholds",
                   "nope", "--out", tmp_path / "c.csv") == 2


def test_cascade_bad_thresholds_without_trials(security_file, tmp_path,
                                                capsys):
    out = tmp_path / "c.csv"
    assert run_cli("cascade", "--graph", security_file, "--thresholds",
                   "bogus", "--trials", 0, "--out", out) == 2
    assert "thresholds must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("phi", ["abc", "0", "-0.1", "1.5", "nan"])
def test_cascade_bad_uniform_phi_checked_before_graph(tmp_path, capsys, phi):
    out = tmp_path / "c.csv"
    assert run_cli("cascade", "--graph", tmp_path / "missing.graph",
                   "--thresholds", f"uniform:{phi}", "--out", out) == 2
    assert "--thresholds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("trials", [0, -3])
def test_cascade_trials_below_one_exits_2(security_file, tmp_path, capsys,
                                          trials):
    out = tmp_path / "c.csv"
    assert run_cli("cascade", "--graph", security_file, "--thresholds",
                   "uniform:0.5", "--trials", trials, "--out", out) == 2
    assert "--trials must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_cascade_builds_uniform_thresholds_once(security_file, tmp_path,
                                                monkeypatch):
    calls = []

    def counted(g, phi):
        calls.append(phi)
        return cl.uniform_thresholds(g, phi)

    monkeypatch.setattr("cascadelab.cli.uniform_thresholds", counted)
    assert run_cli("cascade", "--graph", security_file, "--thresholds",
                   "uniform:0.5", "--trials", 3, "--out",
                   tmp_path / "c.csv") == 0
    assert calls == [0.5]


def test_cascade_uniform_runs_one_cascade_for_all_trials(security_file,
                                                        tmp_path, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return cl.infection_set(*args)

    monkeypatch.setattr("cascadelab.cli.infection_set", counted)
    out = tmp_path / "c.csv"
    assert run_cli("cascade", "--graph", security_file, "--k", 5,
                   "--thresholds", "uniform:0.3", "--trials", 3,
                   "--out", out) == 0
    assert len(calls) == 1
    rows = out.read_text().splitlines()[1:]
    assert [row.split(",", 1)[0] for row in rows] == ["0", "1", "2"]
    assert len({row.split(",", 1)[1] for row in rows}) == 1
    assert run_cli("cascade", "--graph", security_file, "--k", 5,
                   "--thresholds", "random", "--trials", 3,
                   "--out", out) == 0
    assert len(calls) == 4


def test_generate_er_negative_d_exits_2(tmp_path, capsys):
    out = tmp_path / "er.graph"
    assert run_cli("generate", "--model", "er", "--n", 10, "--d", -1,
                   "--out", out) == 2
    assert "d must be an integer of at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, message", [
    (["cascade", "--attack", "sideways", "--thresholds", "uniform:0.5"],
     "attack must be 'top' or 'ids:FILE', got 'sideways'"),
    (["injure", "--attack", "ids:F", "--k", 5], "injure supports only --attack top")],
    ids=["cascade", "injure"])
def test_unknown_attack_exits_2(security_file, tmp_path, capsys, command, message):
    out = tmp_path / "x.csv"
    assert run_cli(*command, "--graph", security_file, "--out", out) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", [0, -2])
def test_injure_k_below_one_exits_2(security_file, tmp_path, capsys, k):
    out = tmp_path / "inj.csv"
    assert run_cli("injure", "--graph", security_file, "--k", k,
                   "--out", out) == 2
    assert "--k must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("k", [0, -2])
def test_cascade_top_k_below_one_checked_before_graph(tmp_path, capsys, k):
    # the graph file does not exist, so only a check made before reading it
    # can name --k
    out = tmp_path / "c.csv"
    assert run_cli("cascade", "--graph", tmp_path / "missing.graph", "--attack", "top",
                   "--k", k, "--thresholds", "uniform:0.5", "--out", out) == 2
    assert f"--k must be at least 1, got {k}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [["cascade", "--thresholds", "uniform:0.5"], ["injure"]],
                         ids=["cascade", "injure"])
def test_top_k_above_n_exits_2(security_file, tmp_path, capsys, command):
    out = tmp_path / "x.csv"
    assert run_cli(*command, "--graph", security_file, "--k", 801, "--out", out) == 2
    assert "--k must be at most n = 800, got 801" in capsys.readouterr().err
    assert not out.exists()
    assert run_cli(*command, "--graph", security_file, "--k", 800, "--out", out) == 0


@pytest.mark.parametrize("report", ["navigate", "distances"])
@pytest.mark.parametrize("pairs", [0, -3])
def test_analyze_pairs_below_one_checked_before_graph(tmp_path, capsys,
                                                      report, pairs):
    out = tmp_path / "a.csv"
    assert run_cli("analyze", "--graph", tmp_path / "missing.graph",
                   "--report", report, "--pairs", pairs, "--out", out) == 2
    assert "--pairs must be at least 1" in capsys.readouterr().err
    assert not out.exists()


def test_failed_csv_write_keeps_previous_csv(security_file, tmp_path,
                                             monkeypatch, capsys):
    out = tmp_path / "report.csv"
    assert run_cli("analyze", "--graph", security_file, "--report",
                   "communities", "--out", out) == 0
    previous = out.read_bytes()
    fill_disk(monkeypatch, lambda path: path.name.startswith(".report.csv."))
    assert run_cli("analyze", "--graph", security_file, "--report",
                   "conductance", "--out", out) == 2
    monkeypatch.undo()
    assert "disk full" in capsys.readouterr().err
    assert out.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv",
                                                          "sec.graph"]


def test_failed_graph_write_keeps_previous_graph(tmp_path):
    # the child may write at most 4 KiB to a file, so writing the ~12 KB
    # graph fails partway through (EFBIG, with SIGXFSZ ignored)
    pytest.importorskip("resource")
    out = tmp_path / "er.graph"
    assert run_cli("generate", "--model", "er", "--n", 300, "--d", 4,
                   "--seed", 1, "--out", out) == 0
    previous = out.read_bytes()
    code = ("import resource, signal, sys\n"
            "from cascadelab.cli import main\n"
            "signal.signal(signal.SIGXFSZ, signal.SIG_IGN)\n"
            "hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_FSIZE, (4096, hard))\n"
            "sys.exit(main(sys.argv[1:]))\n")
    src = str(Path(cl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", code, "generate", "--model", "er", "--n", "300",
         "--d", "4", "--seed", "2", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 2, child.stderr
    assert "error" in child.stderr
    assert out.read_bytes() == previous
    assert [p.name for p in tmp_path.iterdir()] == ["er.graph"]


def test_report_goes_to_stdout_when_a_stat_fails(tmp_path, capsys):
    """A written output that cannot be compared with stdout, because the
    output or fd 1 cannot be stat'ed, is reported on stdout."""
    gone = tmp_path / "gone.csv"  # removed before the report, say
    assert cli._wrote(gone, "1 row(s)") == 0
    with mock.patch.object(cli.os, "fstat",
                           side_effect=OSError(9, "Bad file descriptor")):
        assert cli._wrote(tmp_path, "1 row(s)") == 0
    out, err = capsys.readouterr()
    assert out == f"wrote {gone}: 1 row(s)\nwrote {tmp_path}: 1 row(s)\n"
    assert err == ""


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_generate_to_piped_stdout_writes_the_graph():
    """--out /dev/stdout with stdout a pipe: the path resolves to a pipe,
    which is written in place, and the report goes to stderr."""
    src = str(Path(cl.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-m", "cascadelab.cli", "generate", "--model", "er",
         "--n", "50", "--d", "2", "--seed", "1", "--out", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout == cl.serialize(cl.gen_er(50, 2, master_seed=1))
    assert b"wrote /dev/stdout" in child.stderr


def test_generate_through_symlink_writes_its_target(tmp_path):
    target, link = tmp_path / "target.graph", tmp_path / "link.graph"
    target.write_bytes(b"old\n")
    link.symlink_to(target.name)
    assert run_cli("generate", "--model", "er", "--n", 50, "--d", 2,
                   "--seed", 1, "--out", link) == 0
    assert link.is_symlink()
    assert cl.load_graph(target) == cl.gen_er(50, 2, master_seed=1)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.graph",
                                                          "target.graph"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_generate_into_fifo_writes_through_it(tmp_path):
    fifo = tmp_path / "out.graph"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()),
                              daemon=True)
    reader.start()
    assert run_cli("generate", "--model", "er", "--n", 50, "--d", 2,
                   "--seed", 1, "--out", fifo) == 0
    assert fifo.is_fifo()
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert got == [cl.serialize(cl.gen_er(50, 2, master_seed=1))]
    assert [p.name for p in tmp_path.iterdir()] == ["out.graph"]


def test_injure_sweep(security_file, tmp_path):
    out = tmp_path / "inj.csv"
    assert run_cli("injure", "--graph", security_file, "--attack", "top",
                   "--k", 6, "--out", out) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "attack_size,injured,injured_fraction"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [1, 2, 3, 4, 5, 6]
    g = cl.load_graph(security_file)
    assert [int(line.split(",")[1]) for line in lines[1:]] == [
        cl.injury_set(g, cl.top_degree_nodes(g, k)).size for k in range(1, 7)]


@pytest.mark.parametrize("report,header", [
    ("communities", "color,seed,size"),
    ("conductance", "color,size,volume,cut,conductance"),
    ("degree-priority",
     "node,color,is_seed,degree,length,first_degree,second_degree,own_color_first"),
    ("powerlaw", "n_samples,d_min,exponent,ccdf_r2"),
    ("distances", "pairs_sampled,pairs_unreachable,avg_distance,est_diameter"),
    ("ptree", "vertices,edges,is_tree,height,violations"),
    ("diameters", "color,diameter"),
    ("navigate", "pair,u,v,success,hops,visited"),
])
def test_analyze_reports(security_file, tmp_path, report, header):
    out = tmp_path / f"{report}.csv"
    assert run_cli("analyze", "--graph", security_file, "--report", report,
                   "--pairs", 20, "--out", out) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == header
    assert len(lines) >= 2


def per_node_degree_priority_rows(g):
    """The degree-priority CSV rows of g, formatted one node at a time."""
    summary = degree_priority_summary(g)
    own = summary.own_color_first(g)
    deg = g.degrees
    return [
        f"{v},{g.color[v]},{int(g.is_seed[v])},{deg[v]},"
        f"{summary.length[v]},{summary.first_degree[v]},"
        f"{summary.second_degree[v]},{int(own[v])}"
        for v in range(g.n)
    ]


def test_degree_priority_rows_match_per_node_format(security_file, tmp_path):
    out = tmp_path / "dp.csv"
    assert run_cli("analyze", "--graph", security_file, "--report",
                   "degree-priority", "--out", out) == 0
    g = cl.load_graph(security_file)
    assert out.read_text().split("\n")[1:-1] == per_node_degree_priority_rows(g)


def test_degree_priority_rows_past_one_chunk(tmp_path):
    """More nodes than one writer chunk, with colors of 1 to 19 digits,
    zeros and isolated nodes among them."""
    n = cl.graph._CHUNK + 3
    er = cl.gen_er(n, 3, master_seed=2)
    rng = np.random.default_rng(2)
    color = rng.integers(0, 40, n)
    color[::997] = 2**63 - 1 - rng.integers(0, 40, color[::997].shape[0])
    is_seed = np.zeros(n, dtype=bool)
    is_seed[np.unique(color, return_index=True)[1]] = True
    g = cl.LabeledGraph(n, color, is_seed, er.birth_time, er.edge_u,
                        er.edge_v, er.edge_tag)
    assert (g.degrees == 0).any()
    cl.save_graph(g, tmp_path / "g.graph")
    out = tmp_path / "dp.csv"
    assert run_cli("analyze", "--graph", tmp_path / "g.graph", "--report",
                   "degree-priority", "--out", out) == 0
    assert out.read_text().split("\n")[1:-1] == per_node_degree_priority_rows(g)


def test_analyze_negative_hop_budget_checked_before_graph(tmp_path, capsys):
    out = tmp_path / "nav.csv"
    assert run_cli("analyze", "--graph", tmp_path / "missing.graph", "--report",
                   "navigate", "--hop-budget", -1, "--out", out) == 2
    assert "--hop-budget must be at least 0, got -1" in capsys.readouterr().err
    assert not out.exists()


# SHA-256 of `analyze --report R --seed S` on a security graph (n=2000,
# d=10, a=1.5, generated at seed S), computed with the Dijkstra distances
# and diameters and the dict-adjacency navigation; the conductance,
# degree-priority and ptree entries were computed while those reports still
# indexed arrays by color value, and the communities entries while
# communities() still grouped nodes with np.split; the powerlaw entries
# were computed while the graph parser still had a line-by-line fallback
GOLDEN_ANALYZE_SHA256 = {
    ("communities", 1):
        "0df2f8c0b8cef95b5031a13d3ad7a7a343cb93596fe399d84d84562596856df6",
    ("communities", 2):
        "b6db57e8a2505cc46f07c4c07cacbd199707565a4b19bb015fc8d0d7001b96d2",
    ("distances", 1):
        "b2fef3c36d721f1446e7c14746d5927163199e5f9d15a4cefe8134e3871621ea",
    ("distances", 2):
        "7e677d767cc3371c19d0f5db67062ab874ab7cf6b4601f6c376fa8a6435d0932",
    ("diameters", 1):
        "ce39b3e20cabd5af55ec9043ddd655bb40b9b1fec34314487cf93e6fe8b1cc9c",
    ("diameters", 2):
        "f55994e88400a016827852b183bdbac564ee0fae121f555fdef229961dfe3785",
    ("navigate", 1):
        "d1605edb0fb8bb11f6ac8c6073f08c7bed2216a7c55a2f2dae53bbdea0ec7dac",
    ("navigate", 2):
        "f0d1bb7054f7f39bb9fe14682f7392cf6542760d2372fa28ec1e65751c15c20b",
    ("conductance", 1):
        "d314cba9a4fce04e558e76e22754aad5efd3177327397645e74c31fd6a1cb318",
    ("conductance", 2):
        "3b8de3077b7b94c40974571a412fb998f5937ec48cba189a24e2a64de33329ca",
    ("degree-priority", 1):
        "a4265a4b82da7938d95ef9a9ad259702ae37d698777105a1ab8d6270609010eb",
    ("degree-priority", 2):
        "072a53380dbdd949930daaafca760663e31ef0870f0cade1e3b5fcf0089ad09d",
    ("ptree", 1):
        "2c2f7d48d0ec094e7baf649baae18166c761528edda823057b4b246748843787",
    ("ptree", 2):
        "bee622317a8511cf2a57a3d0a1f19a31298e0c757cd90d4bc9a7a07b67f53eec",
    ("powerlaw", 1):
        "9f3b7d5526e4d113c674b8f291dfeefa0b98a62bf29ed7d682cf748b861d901f",
    ("powerlaw", 2):
        "57eefd7ec7ca9b27cd0b0e2082bc61d3aad9b538dad22c089b9d0837ab3ef309",
}


@pytest.mark.parametrize("seed", [1, 2])
def test_analyze_golden_hash(tmp_path, seed):
    path = tmp_path / "sec.graph"
    assert run_cli("generate", "--model", "security", "--n", 2000, "--d", 10,
                   "--a", 1.5, "--seed", seed, "--out", path) == 0
    for report in sorted({report for report, _ in GOLDEN_ANALYZE_SHA256}):
        out = tmp_path / f"{report}.csv"
        assert run_cli("analyze", "--graph", path, "--report", report,
                       "--seed", seed, "--out", out) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN_ANALYZE_SHA256[report, seed], report


# SHA-256 of `cascade --k 40 --thresholds T --trials 3 --seed S` on a
# security graph (n=2000, d=4, a=1.5, generated at seed S), computed while
# the cascade kernel compared precomputed integer need counts
GOLDEN_CASCADE_SHA256 = {
    ("uniform:0.28", 1):
        "37bacc9550e1435c05f1a3e81ebe07d12d66955be91be87268452e6c3635c773",
    ("uniform:0.28", 2):
        "17303913ab042812795ed7760c9a04b84ecddca987d30d1b4a15d340fc856240",
    ("random", 1):
        "12de15c7a4cd83d1e92b5b9683d37da28c04c3b7c068dee724ddcfdfa0603b88",
    ("random", 2):
        "980ee998d35709677bbcfe505d69fee9c4f82777b078646bbe6e878eaafa64ec",
}


@pytest.mark.parametrize("seed", [1, 2])
def test_cascade_golden_hash(tmp_path, seed):
    path = tmp_path / "sec.graph"
    assert run_cli("generate", "--model", "security", "--n", 2000, "--d", 4,
                   "--a", 1.5, "--seed", seed, "--out", path) == 0
    for thresholds in ("uniform:0.28", "random"):
        out = tmp_path / "cascade.csv"
        assert run_cli("cascade", "--graph", path, "--k", 40, "--thresholds",
                       thresholds, "--trials", 3, "--seed", seed,
                       "--out", out) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == GOLDEN_CASCADE_SHA256[thresholds, seed], thresholds


def test_analyze_field_past_int64_exits_2(tmp_path, capsys):
    path = tmp_path / "big.graph"
    path.write_bytes(b"cascadelab-graph v1 2 1\nN 0 0 1 0\n"
                     b"N 1 0 0 99999999999999999999\nE 0 1 PLAIN\n")
    assert run_cli("analyze", "--graph", path, "--report", "communities",
                   "--out", tmp_path / "c.csv") == 2
    assert "line 3" in capsys.readouterr().err


def test_analyze_non_canonical_field_exits_2(tmp_path, capsys):
    path = tmp_path / "plus.graph"
    path.write_bytes(b"cascadelab-graph v1 2 1\nN 0 0 1 0\n"
                     b"N 1 0 0 1\nE 0 +1 PLAIN\n")
    assert run_cli("analyze", "--graph", path, "--report", "communities",
                   "--out", tmp_path / "c.csv") == 2
    assert "line 4: non-canonical" in capsys.readouterr().err


def test_analyze_uncolored_graph_errors(tmp_path, capsys):
    path = tmp_path / "er.graph"
    run_cli("generate", "--model", "er", "--n", 100, "--d", 4, "--seed", 0,
            "--out", path)
    assert run_cli("analyze", "--graph", path, "--report", "communities",
                   "--out", tmp_path / "c.csv") == 2


def test_experiment_cli_roundtrip(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=fig2\nmodels=er\nn_list=60\nd=4\ntrials=2\n")
    out = tmp_path / "run"
    assert run_cli("experiment", "--config", cfg, "--seed", 8,
                   "--out", out) == 0
    assert (out / "fig2.csv").exists()
    assert (out / "manifest.txt").exists()
    # rerun resumes
    assert run_cli("experiment", "--config", cfg, "--seed", 8,
                   "--out", out) == 0
    assert "skipped" in capsys.readouterr().out


def test_experiment_cli_stdout_without_out(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=fig2\nmodels=er\nn_list=60\nd=4\ntrials=1\n")
    assert run_cli("experiment", "--config", cfg) == 0
    assert capsys.readouterr().out.startswith("model,n,d,a,")


def test_experiment_cli_fig_override(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=fig2\nmodels=er\nn_list=60\nd=4\ntrials=1\n"
                   "phi_grid=0.2,0.5\n")
    out = tmp_path / "run3"
    assert run_cli("experiment", "--config", cfg, "--fig", 3,
                   "--out", out) == 0
    assert (out / "fig3.csv").exists()


def test_experiment_cli_config_error(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=fig1\nmodels=security\nd=4\na=1.5\nn_list=60\n")
    assert run_cli("experiment", "--config", cfg) == 2
    assert "error" in capsys.readouterr().err


def test_experiment_cli_repeated_model_exits_2(tmp_path, capsys):
    cfg = tmp_path / "rep.cfg"
    cfg.write_text("experiment=fig2\nmodels=er,er\nn_list=60\nd=4\ntrials=1\n")
    out = tmp_path / "run"
    assert run_cli("experiment", "--config", cfg, "--out", out) == 2
    assert "rep.cfg:2: models must not repeat" in capsys.readouterr().err
    assert not (out / "fig2.csv").exists()


def test_experiment_cli_fig1_n_below_attack_size(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=fig1\nmodels=er\nn_list=12\nd=4\ntrials=1\n")
    assert run_cli("experiment", "--config", cfg) == 2
    assert "n=12" in capsys.readouterr().err


def test_experiment_cli_repeated_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=fig2\nmodels=er\nn_list=60\nd=4\n"
                   "trials=1\nmaster_seed=2\nseed=3\n")
    assert run_cli("experiment", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "exp.cfg:7:" in err and "line 6" in err


@pytest.mark.parametrize("jobs", [0, -3])
def test_experiment_cli_jobs_below_one_exits_2(tmp_path, capsys, jobs):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=fig2\nmodels=er\nn_list=60\nd=4\ntrials=1\n")
    out = tmp_path / "run"
    assert run_cli("experiment", "--config", cfg, "--jobs", jobs,
                   "--out", out) == 2
    assert "--jobs must be at least 1" in capsys.readouterr().err
    assert not (out / "fig2.csv").exists()


def test_experiment_cli_missing_config_file(tmp_path):
    assert run_cli("experiment", "--config", tmp_path / "nope.cfg") == 2


# ---- count flags -------------------------------------------------------------


@pytest.mark.parametrize("command, flags, first", [
    (["cascade", "--thresholds", "uniform:0.5"], ("--trials", "--k"),
     "--trials"),
    (["analyze", "--report", "navigate"], ("--pairs", "--hop-budget"),
     "--pairs"),
], ids=["cascade", "analyze"])
@pytest.mark.parametrize("values", [(0, -1), (-3, -2)])
def test_two_bad_count_flags_name_the_first_checked(tmp_path, capsys, command,
                                                    flags, first, values):
    out = tmp_path / "x.csv"
    argv = [*command, "--graph", tmp_path / "missing.graph", "--out", out]
    for flag, value in zip(flags, values):
        argv += [flag, value]
    assert run_cli(*argv) == 2
    value = values[flags.index(first)]
    least = 0 if first == "--hop-budget" else 1
    assert capsys.readouterr().err == (
        f"error: {first} must be at least {least}, got {value}\n")
    assert not out.exists()


def test_ids_attack_takes_any_k(security_file, tmp_path):
    ids = tmp_path / "attack.txt"
    ids.write_text("1\n5\n")
    assert run_cli("cascade", "--graph", security_file, "--attack",
                   f"ids:{ids}", "--k", 0, "--thresholds", "uniform:0.5",
                   "--out", tmp_path / "c.csv") == 0


def test_report_choices_are_the_report_table(capsys):
    with pytest.raises(SystemExit):
        run_cli("analyze", "--graph", "g", "--out", "o", "--report", "nope")
    assert f"choose from {', '.join(map(repr, cli._REPORTS))}" in (
        capsys.readouterr().err)
    assert list(cli._REPORTS) == [
        "communities", "conductance", "degree-priority", "powerlaw",
        "distances", "ptree", "diameters", "navigate"]


def test_csv_body_reaches_the_file_as_chunks(security_file, tmp_path,
                                             monkeypatch):
    """The CSV writer hands on the header and the body's chunks (the array
    writer's for degree-priority) without joining them."""
    written = []
    real = cli._write_atomic

    def spy(path, data):
        data = list(data)
        written.append([type(chunk).__name__ for chunk in data])
        real(path, data)

    monkeypatch.setattr(cli, "_write_atomic", spy)
    for report in ("degree-priority", "communities"):
        assert run_cli("analyze", "--graph", security_file, "--report", report,
                       "--out", tmp_path / f"{report}.csv") == 0
    assert written[0][0] == "bytes" and set(written[0][1:]) == {"ndarray"}
    assert written[1][0] == "bytes" and len(written[1]) > 2


def test_ids_file_byte_not_utf8_names_its_line(security_file, tmp_path,
                                               capsys):
    ids = tmp_path / "attack.txt"
    ids.write_bytes(b"1\n5 \xff7\n9\n")
    assert run_cli("cascade", "--graph", security_file, "--attack",
                   f"ids:{ids}", "--thresholds", "uniform:0.5",
                   "--out", tmp_path / "c.csv") == 2
    assert f"error: {ids}:2: 'utf-8' codec can't decode byte 0xff in " \
           "position 4: invalid start byte" in capsys.readouterr().err


def test_ids_file_names_a_bad_id_before_a_later_bad_byte(security_file,
                                                         tmp_path, capsys):
    ids = tmp_path / "attack.txt"
    ids.write_bytes(b"1 2\n3 x\n\xff\n")
    assert run_cli("cascade", "--graph", security_file, "--attack",
                   f"ids:{ids}", "--thresholds", "uniform:0.5",
                   "--out", tmp_path / "c.csv") == 2
    assert f"error: {ids}:2: attack id 'x' is not an integer" in (
        capsys.readouterr().err)


# ---- bad input exits 2 from every subcommand ----------------------------------

# bytes a corruption writes: digits, separators of the graph, ids and config
# files, signs, letters, a carriage return, a NUL and a byte that is not UTF-8
NOISE = b"0159 \n\r+-_=,#NEPLAINTKYZfig\x00\xff"
SMALL_GRAPH = cl.serialize(cl.gen_security(120, 4, 1.5, master_seed=3))
IDS = b"1\n5 7\n9\n"
CONFIG = b"experiment=fig2\nmodels=er\nn_list=60\nd=4\ntrials=2\n"
GRAPH_COMMANDS = [
    ["cascade", "--k", "3", "--thresholds", "random", "--trials", "2"],
    ["cascade", "--attack", "ids:{ids}", "--thresholds", "uniform:0.3"],
    ["injure", "--k", "3"],
    *(["analyze", "--report", report, "--pairs", "20"]
      for report in cli._REPORTS),
]


@st.composite
def corrupted(draw, raw):
    """raw with one byte replaced, or one line deleted, repeated or cut
    short."""
    kind = draw(st.sampled_from(("byte", "delete", "repeat", "truncate")))
    if kind == "byte":
        at = draw(st.integers(0, len(raw) - 1))
        return raw[:at] + bytes([draw(st.sampled_from(NOISE))]) + raw[at + 1:]
    lines = raw.split(b"\n")[:-1]
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "delete":
        del lines[i]
    elif kind == "repeat":
        lines.insert(i, lines[i])
    else:
        lines[i] = lines[i][:draw(st.integers(0, len(lines[i]) - 1))]
    return b"".join(line + b"\n" for line in lines)


def run_on_files(command, **files):
    """main(command) with each named file written to a fresh directory and
    put in place of its {name} in the command: (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp) / name for name in files}
        for name, data in files.items():
            paths[name].write_bytes(data)
        argv = [arg.format(**paths) for arg in command]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("ignore")  # a config's d < 4, say
            code = main(argv)
        return code, err.getvalue().replace(tmp + os.sep, "")


@settings(max_examples=150, deadline=None)
@given(corrupted(SMALL_GRAPH), st.sampled_from([1, 64, graph._PIECE]),
       st.sampled_from(GRAPH_COMMANDS))
def test_corrupted_graph_file_exits_0_or_2(data, piece, command):
    """A graph file that does not parse exits 2 naming its line; one that
    parses (a changed color, say) runs, or exits 2 on a check of its
    values; nothing ends in a traceback."""
    try:
        cl.deserialize(data)
        parses = True
    except cl.GraphFormatError:
        parses = False
    with mock.patch.object(graph, "_PIECE", piece):
        code, err = run_on_files(
            [*command, "--graph", "{graph}", "--out", "{graph}.csv"],
            graph=data, ids=IDS)
    assert code in (0, 2), err
    if not parses:
        assert code == 2 and re.match(r"error: line \d+: ", err), err


@settings(max_examples=100, deadline=None)
@given(corrupted(IDS))
def test_corrupted_ids_file_exits_0_or_2(data):
    code, err = run_on_files(
        ["cascade", "--graph", "{graph}", "--attack", "ids:{ids}",
         "--thresholds", "uniform:0.3", "--out", "{graph}.csv"],
        graph=SMALL_GRAPH, ids=data)
    assert code in (0, 2), err
    assert code == 0 or re.match(r"error: ids:\d+: ", err), err


@settings(max_examples=100, deadline=None)
@given(corrupted(CONFIG))
def test_corrupted_config_file_exits_0_or_2(data):
    """A config whose error comes from the file names FILE:LINE; only a
    missing experiment, which no line sets, names none."""
    code, err = run_on_files(["experiment", "--config", "{config}"],
                             config=data)
    assert code in (0, 2), err
    assert code == 0 or re.match(r"error: config:\d+: ", err) or (
        err == "error: config must set experiment (fig1, fig2 or fig3)\n"), err
