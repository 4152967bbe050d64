import hashlib
from pathlib import Path

import pytest

import cascadelab as cl
from cascadelab.cli import main
from cascadelab.structure import degree_priority_summary


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


@pytest.mark.parametrize("k", [0, -2])
def test_injure_k_below_one_exits_2(security_file, tmp_path, capsys, k):
    out = tmp_path / "inj.csv"
    assert run_cli("injure", "--graph", security_file, "--k", k,
                   "--out", out) == 2
    assert "--k must be at least 1" in capsys.readouterr().err
    assert not out.exists()


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
    real_write = Path.write_text

    def half_then_fail(self, text, *args, **kwargs):
        real_write(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError("disk full")

    monkeypatch.setattr(Path, "write_text", half_then_fail)
    assert run_cli("analyze", "--graph", security_file, "--report",
                   "conductance", "--out", out) == 2
    monkeypatch.undo()
    assert "disk full" in capsys.readouterr().err
    assert out.read_bytes() == previous
    assert sorted(p.name for p in tmp_path.iterdir()) == ["report.csv",
                                                          "sec.graph"]


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


def test_degree_priority_rows_match_per_node_format(security_file, tmp_path):
    out = tmp_path / "dp.csv"
    assert run_cli("analyze", "--graph", security_file, "--report",
                   "degree-priority", "--out", out) == 0
    g = cl.load_graph(security_file)
    summary = degree_priority_summary(g)
    own = summary.own_color_first(g)
    deg = g.degrees
    expected = [
        f"{v},{g.color[v]},{int(g.is_seed[v])},{deg[v]},"
        f"{summary.length[v]},{summary.first_degree[v]},"
        f"{summary.second_degree[v]},{int(own[v])}"
        for v in range(g.n)
    ]
    assert out.read_text().split("\n")[1:-1] == expected


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
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("experiment=fig2\nmodels=er,er\nn_list=60\nd=4\ntrials=1\n")
    out = tmp_path / "run"
    assert run_cli("experiment", "--config", cfg, "--out", out) == 2
    assert "models" in capsys.readouterr().err
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
