import dataclasses
import hashlib
import itertools
import math
import multiprocessing
import os
import signal
import time
import warnings
from concurrent.futures import Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cascadelab as cl
import cascadelab.experiment as xp
from cascadelab import ConfigError, ExperimentConfig
from cascadelab.cascade import degree_order
from cascadelab.cli import main
from cascadelab.seeding import derive_seed

from conftest import Hang, figure_csv, fill_disk
from oracles import branchwise_config_error


def tiny_cfg(**over):
    values = dict(experiment="fig2", models=("er", "pa"), n_list=(60, 120),
                  d=4, trials=3, master_seed=5)
    values.update(over)
    return ExperimentConfig(**values)


# ---- config validation ---------------------------------------------------------

def test_defaults_match_figures():
    c1 = xp.default_config("fig1")
    assert c1.models == ("er", "pa") and c1.n_list == (10_000,) and c1.d == 10
    c2 = xp.default_config("fig2")
    assert c2.n_list[-1] == 10_000 and "security" in c2.models
    c3 = xp.default_config("fig3")
    assert c3.n_list[-1] == 100_000 and c3.d == 5
    assert c3.phi_grid[0] == 0.01 and c3.phi_grid[-1] == 0.50


def test_default_config_refuses_unknown_experiment():
    with pytest.raises(ConfigError, match="unknown experiment 'fig4'") as info:
        xp.default_config("fig4")
    assert info.value.keys == ("experiment",)


def test_fig1_rejects_security_model():
    with pytest.raises(ConfigError):
        tiny_cfg(experiment="fig1", models=("er", "security"), a=1.5)


def test_validation_errors():
    with pytest.raises(ConfigError):
        tiny_cfg(trials=0)
    with pytest.raises(ConfigError):
        tiny_cfg(epsilon=0.0)
    with pytest.raises(ConfigError):
        tiny_cfg(n_list=(120, 60))
    with pytest.raises(ConfigError):
        tiny_cfg(n_list=(3,))  # below d + 1
    with pytest.raises(ConfigError):
        tiny_cfg(phi_grid=(0.2, 0.1))
    with pytest.raises(ConfigError):
        tiny_cfg(attack="sideways")
    with pytest.raises(ConfigError):
        tiny_cfg(experiment="fig3", attack="random")
    with pytest.raises(ConfigError):
        tiny_cfg(models=("security",), a=1.0)


@pytest.mark.parametrize("over, message", [
    (dict(experiment="fig4"), "unknown experiment 'fig4'"),
    (dict(models=()), "models must not be empty"),
    (dict(n_list=()), "n_list must not be empty"),
    (dict(d=0), "d must be at least 1"),
    (dict(models=("security",), d=1), r"security model requires d >= 2"),
    (dict(phi_grid=()), "phi_grid must not be empty"),
    (dict(phi_grid=(0.0, 0.5)), r"phi_grid values must lie in \(0, 1\]"),
    (dict(phi_grid=(0.5, 1.5)), r"phi_grid values must lie in \(0, 1\]"),
    (dict(phi_grid=(float("nan"),)), r"phi_grid values must lie in \(0, 1\]"),
    (dict(graphs_per_cell=0), "graphs_per_cell must be at least 1"),
    (dict(d=4.5), "d takes integers, got 4.5"),
    (dict(trials=1.5), "trials takes integers, got 1.5"),
    (dict(graphs_per_cell=2.0), "graphs_per_cell takes integers, got 2.0"),
    (dict(master_seed=1.5), "master_seed takes integers, got 1.5"),
    (dict(n_list=(60, 120.0)), "n_list takes integers, got 120.0"),
    (dict(models=("security",), a="1.5"), "a takes numbers, got '1.5'"),
    (dict(epsilon="0.1"), "epsilon takes numbers, got '0.1'"),
    (dict(phi_grid=(0.1, "0.2")), "phi_grid takes numbers, got '0.2'"),
], ids=["experiment", "models", "n_list", "d", "security-d", "grid-empty",
        "grid-zero", "grid-above-one", "grid-nan", "graphs", "d-float",
        "trials-float", "graphs-float", "seed-float", "n_list-float", "a-str",
        "epsilon-str", "grid-str"])
def test_config_rejections(over, message):
    with pytest.raises(ConfigError, match=message):
        tiny_cfg(**over)


@pytest.mark.parametrize("key, value", [("n_list", 100), ("phi_grid", 0.5),
                                        ("models", "er")])
def test_config_list_given_one_value_names_its_key(key, value):
    """A number where a list belongs, or a string that would split into
    letters, is a ConfigError about that key, not a TypeError."""
    with pytest.raises(ConfigError,
                       match=f"^{key} takes a list, got {value!r}$") as info:
        xp.default_config("fig2", **{key: value})
    assert info.value.keys == (key,)


# test_config_rejections' cases, then a bad value for every other check, so
# that each pass over the field table meets two bad fields
REJECTED = [over for over, _ in test_config_rejections.pytestmark[0].args[1]]
BAD_FIELDS = REJECTED + [
    dict(models="er"), dict(n_list=100), dict(phi_grid=0.5),
    dict(models=("er", "er")), dict(models=("er", "security"), experiment="fig1"),
    dict(n_list=(120, 60)), dict(n_list=(3,)), dict(n_list=(0, 1), d=-1),
    dict(models=("security",), a=1.0), dict(experiment="fig1", n_list=(12,)),
    dict(trials=0), dict(epsilon=0.0), dict(epsilon=float("nan")),
    dict(phi_grid=(0.2, 0.1)), dict(attack="sideways"),
    dict(experiment="fig3", attack="random"), dict(d=True, master_seed="5"),
]


def config_error(over):
    """(message, keys) of tiny_cfg(**over)'s ConfigError, or None."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # d < 4
            tiny_cfg(**over)
    except ConfigError as exc:
        return str(exc), exc.keys
    return None


def branchwise_error(over):
    values = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    values.update(experiment="fig2", models=("er", "pa"), n_list=(60, 120),
                  d=4, trials=3, master_seed=5)
    return branchwise_config_error(**{**values, **over})


def test_field_table_lists_every_field():
    assert sorted(xp._FIELDS) == sorted(f.name for f in
                                       dataclasses.fields(ExperimentConfig))
    assert config_error({}) is None


def test_every_pair_of_bad_fields_fails_the_branchwise_check():
    """Two bad fields at once: the field table reports the check, message
    and keys that the branch-per-rule checks reported first."""
    assert all(config_error(over) for over in BAD_FIELDS)
    differ = [(a, b) for a, b in itertools.combinations(BAD_FIELDS, 2)
              for over in ({**a, **b}, {**b, **a})
              if config_error(over) != branchwise_error(over)]
    assert differ == []


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(BAD_FIELDS), min_size=1, max_size=5))
def test_bad_fields_fail_the_branchwise_check(cases):
    over = {key: value for case in cases for key, value in case.items()}
    assert config_error(over) == branchwise_error(over)


def test_config_file_byte_not_utf8_names_its_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_bytes(b"experiment=fig2\r\nmodels=er\nd=\xff\n")
    with pytest.raises(ConfigError, match=r"exp\.cfg:3: 'utf-8' codec can't "
                                          r"decode byte 0xff in position 29"):
        xp.read_config(path)


def test_config_file_names_the_first_bad_line(tmp_path):
    """A bad line and a byte that is not UTF-8, in both orders: the first
    is named, so a later bad byte does not hide an earlier bad line."""
    path = tmp_path / "exp.cfg"
    for text, message in [
            (b"experiment=fig2\nbogus=3\nd=\xff\n", "unknown config key 'bogus'"),
            (b"experiment=fig2\nd=\xff\nbogus=3\n",
             "'utf-8' codec can't decode byte 0xff in position 18")]:
        path.write_bytes(text)
        with pytest.raises(ConfigError) as info:
            xp.read_config(path)
        assert str(info.value).startswith(f"{path}:2: {message}")


def test_config_takes_numpy_integers():
    cfg = tiny_cfg(n_list=(np.int64(60), np.int32(120)), d=np.int64(4),
                   trials=np.int16(3), master_seed=np.uint8(5),
                   graphs_per_cell=np.int64(1))
    assert cfg.canonical_text() == tiny_cfg().canonical_text()


def test_list_and_tuple_configs_hash_equal():
    listed = xp.default_config("fig2", models=["er", "pa"], n_list=[100, 300],
                               phi_grid=[0.1, 0.2])
    tupled = xp.default_config("fig2", models=("er", "pa"), n_list=(100, 300),
                               phi_grid=(0.1, 0.2))
    assert listed.models == ("er", "pa") and listed == tupled
    assert xp.config_hash(listed) == xp.config_hash(tupled)
    assert hash(listed) == hash(tupled)


def test_repeated_model_rejected():
    with pytest.raises(ConfigError, match="models"):
        tiny_cfg(models=("er", "pa", "er"))


def test_small_d_warns():
    with pytest.warns(UserWarning, match="d=2") as caught:
        tiny_cfg(models=("er", "security"), d=2)
    assert [w.filename for w in caught] == [__file__]  # the line that built it


def test_small_d_without_security_does_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tiny_cfg(d=2)
        xp.default_config("fig2", models=("er",), d=2)


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "# comment\n"
        "experiment=fig2\n"
        "models=er,security\n"
        "n_list=100,300\n"
        "d=5\n"
        "a=1.5\n"
        "trials=7\n"
        "seed=99   # alias for master_seed\n",
        encoding="utf-8")
    cfg = xp.read_config(path)
    assert cfg.models == ("er", "security")
    assert cfg.n_list == (100, 300)
    assert cfg.trials == 7
    assert cfg.master_seed == 99
    # typed overrides win over the file's values
    assert xp.read_config(path, master_seed=8, trials=2) == xp.default_config(
        "fig2", models=("er", "security"), n_list=(100, 300), d=5, a=1.5,
        trials=2, master_seed=8)


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("experiment=fig1\nbogus=3\n", encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=r"exp\.cfg:2: unknown config key 'bogus'"):
        xp.read_config(path)


def test_config_file_bad_line(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("experiment fig1\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"exp\.cfg:1: expected key=value"):
        xp.read_config(path)


def test_config_file_repeated_key(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("experiment=fig2\nmaster_seed=3\nd=5\nseed=4\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError, match=r"exp\.cfg:4: 'master_seed'.*line 2"):
        xp.read_config(path)


def test_config_values_bad_value_and_shorthand(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("experiment=fig2\n\nd=ten\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"exp\.cfg:3: bad value for 'd'"):
        xp.read_config(path)
    path.write_text("# grid\nexperiment=fig3\nphi_grid=0.1,x\n",
                    encoding="utf-8")
    with pytest.raises(ConfigError,
                       match=r"exp\.cfg:3: bad value for 'phi_grid'"):
        xp.read_config(path)
    path.write_text("experiment=1\nn_list=300\n", encoding="utf-8")
    assert xp.read_config(path) == xp.default_config("fig1", n_list=(300,))


@pytest.mark.parametrize("text, line", [
    ("experiment=fig2\nn_list=5,60\nmodels=er\nd=8\n", 4),
    ("experiment=fig2\nd=8\nmodels=er\nn_list=5,60\n", 4),
    ("experiment=fig2\nd=200\nmodels=er\n", 2),  # the default n_list
], ids=["d-later", "n_list-later", "n_list-default"])
def test_config_check_of_two_keys_names_the_later_line(tmp_path, text, line):
    path = tmp_path / "exp.cfg"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"exp\.cfg:{line}: every n must "
                                          r"be at least d \+ 1$"):
        xp.read_config(path)


@pytest.mark.parametrize("overrides, message", [
    (dict(trials=0), "trials must be at least 1"),  # replaces line 3
    (dict(models=("er", "er")), "models must not repeat"),
    (dict(d=200), r"every n must be at least d \+ 1"),  # default n_list
], ids=["replaced-key", "new-key", "against-default"])
def test_config_error_from_overrides_or_defaults_names_no_line(
        tmp_path, overrides, message):
    path = tmp_path / "exp.cfg"
    path.write_text("experiment=fig2\nd=5\ntrials=3\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"^{message}$"):
        xp.read_config(path, **overrides)


def test_config_hash_tells_grids_apart_past_six_decimals(tmp_path):
    cfg = xp.default_config("fig3", models=("pa",), n_list=(300,),
                            phi_grid=(0.05, 0.1, 0.2))
    near = xp.default_config("fig3", models=("pa",), n_list=(300,),
                             phi_grid=(0.05, 0.1, 0.2000001))
    assert xp.config_hash(cfg) != xp.config_hash(near)
    xp.run_experiment(cfg, out_dir=tmp_path)
    rerun = xp.run_experiment(near, out_dir=tmp_path)
    assert rerun.skipped == () and rerun.computed == ("fig3_pa_n300",)


def test_default_grid_canonical_text_is_stable():
    # the manifest's config hash, and so its bytes, rest on this text
    text = xp.default_config("fig3").canonical_text()
    grid = ",".join(xp.fmt_number(i / 100) for i in range(1, 51))
    assert f"\nphi_grid={grid}\n" in text


def test_config_requires_experiment(tmp_path):
    with pytest.raises(ConfigError, match="experiment"):
        xp.read_config(d=5)
    path = tmp_path / "exp.cfg"
    path.write_text("d=5\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="experiment"):
        xp.read_config(path)


# ---- attack size ----------------------------------------------------------------

def test_attack_sizes():
    assert xp.attack_size(10_000) == math.ceil(math.log(10_000))
    assert xp.attack_size(10_000, 5.0) == 47
    assert xp.attack_size(2) == 1  # never empty


# ---- fig1 -----------------------------------------------------------------------

def test_fig1_row_count_and_k_range():
    cfg = ExperimentConfig(experiment="fig1", models=("er",),
                           n_list=(10_000,), d=10, trials=1, master_seed=2)
    csv = figure_csv(cfg)
    lines = csv.strip().split("\n")
    assert lines[0] == "model,n,d,k,injury_fraction,max_infection_fraction"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 47  # ceil(5 ln 10^4)
    assert [int(r[3]) for r in rows] == list(range(1, 48))
    for r in rows:
        assert 0.0 <= float(r[4]) <= 1.0
        assert 0.0 <= float(r[5]) <= 1.0


def test_fig1_rejects_n_below_its_largest_attack():
    # ceil(5 ln 12) = 13 > 12, while ceil(5 ln 13) = 13
    with pytest.raises(ConfigError, match="n=12"):
        xp.default_config("fig1", n_list=(12,), d=4)
    with pytest.raises(ConfigError, match="n=12"):
        xp.default_config("fig1", n_list=(12, 13), d=4)
    cfg = xp.default_config("fig1", n_list=(13,), d=4, trials=2)
    rows = figure_csv(cfg).strip().split("\n")[1:]
    assert [int(r.split(",")[3]) for r in rows if r.startswith("er,")] == \
        list(range(1, 14))


# ---- fig2 -----------------------------------------------------------------------

def test_fig2_boundary_n_runs():
    cfg = ExperimentConfig(experiment="fig2", models=("security",),
                           n_list=(11,), d=10, a=1.5, trials=2, master_seed=1)
    csv = figure_csv(cfg)
    line = csv.strip().split("\n")[1].split(",")
    assert line[:4] == ["security", "11", "10", "1.5"]
    assert 0.0 <= float(line[4]) <= 1.0


def test_fig2_er_leaves_a_empty():
    csv = figure_csv(tiny_cfg())
    for line in csv.strip().split("\n")[1:]:
        assert line.split(",")[3] == ""


def test_identical_config_identical_bytes():
    cfg = tiny_cfg()
    assert figure_csv(cfg) == figure_csv(tiny_cfg())


def test_random_attack_flag_changes_result():
    top = figure_csv(tiny_cfg())
    rnd = figure_csv(tiny_cfg(attack="random"))
    assert top != rnd


# ---- fig3 -----------------------------------------------------------------------

def test_fig3_schema_and_none_serialization():
    cfg = ExperimentConfig(experiment="fig3", models=("er",), n_list=(40,),
                           d=4, trials=1, master_seed=3,
                           phi_grid=(0.01,), epsilon=0.05)
    csv = figure_csv(cfg)
    lines = csv.strip().split("\n")
    assert lines[0] == "model,n,d,a,security_threshold"
    # phi=0.01 cannot contain a 4-node attack on a 40-node graph: empty field
    assert lines[1].endswith(",")


def test_fig3_finds_threshold():
    cfg = ExperimentConfig(experiment="fig3", models=("er",), n_list=(200,),
                           d=4, trials=1, master_seed=3)
    csv = figure_csv(cfg)
    value = csv.strip().split("\n")[1].split(",")[4]
    assert value != ""
    assert 0.01 <= float(value) <= 0.5


# SHA-256 of run_experiment(cfg).csv_text for fig3 (er, pa and security,
# n_list=(300, 2000), d=5, a=1.5) under five grid/epsilon settings.  Taken
# while security_threshold still ran one cascade per grid value.  "coarse"
# and "single" (a one-value grid) leave some cells empty; "multi" averages
# three graphs per cell and puts 1.0 on the grid.  "mixed", pinned later,
# has a cell (er, n=300, seed 1) where only some graphs find a threshold.
FIG3_SETTINGS = {
    "default": {},
    "coarse": dict(phi_grid=(0.05, 0.1, 0.2, 0.3), epsilon=0.02),
    "single": dict(phi_grid=(0.25,), epsilon=0.05),
    "multi": dict(phi_grid=(0.1, 0.2, 0.25, 0.3, 0.35, 1.0), epsilon=0.2,
                  graphs_per_cell=3),
    "mixed": dict(phi_grid=(0.1, 0.2, 0.3), epsilon=0.1, graphs_per_cell=3),
}
GOLDEN_FIG3_SHA256 = {
    ("default", 1):
        "7eb5b7441201ecca6b4c9dd9e9cfee6678afaf04febda138dead40f65298216d",
    ("default", 2):
        "5445a33a6ad9600d5b1aa43451760e1bef6f498d20b574619a3d0a2d85dc6867",
    ("coarse", 1):
        "9734a863f000296e72c5528b502be7c6e5dee440b99b6926f0480460a54ebaed",
    ("coarse", 2):
        "1face589f424c3be54fdeb61e3c6cb436a1a912e4f996410d736b5b058b9fa60",
    ("single", 1):
        "54feec24229c3ca4d00e670d0e876459e16ec2382da3df658d8566165919320f",
    ("single", 2):
        "54feec24229c3ca4d00e670d0e876459e16ec2382da3df658d8566165919320f",
    ("multi", 1):
        "081891fc28d3573ca5c03a72a0d0dabd0bce7d79549920a959de713a2571c86b",
    ("multi", 2):
        "2eed1f54fbd66cdee0d457a3aa16f897044263098d2751f3de68dfbaa7a1a93b",
    ("mixed", 1):
        "b80fbfc7f47159f5e9bac9d0f0b61e73e79e42b49bfd054ccf04cf972d6db987",
    ("mixed", 2):
        "b80fbfc7f47159f5e9bac9d0f0b61e73e79e42b49bfd054ccf04cf972d6db987",
}


@pytest.mark.parametrize("setting,seed", sorted(GOLDEN_FIG3_SHA256))
def test_fig3_golden_hash(setting, seed):
    cfg = ExperimentConfig(experiment="fig3", models=("er", "pa", "security"),
                           n_list=(300, 2000), d=5, a=1.5, master_seed=seed,
                           **FIG3_SETTINGS[setting])
    csv = figure_csv(cfg)
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == \
        GOLDEN_FIG3_SHA256[setting, seed]


def test_fig3_mixed_cell_averages_only_found_thresholds():
    # the "mixed" pin's er cell at n=300, seed 1: one of three graphs finds
    # phi 0.3, so the row is 0.3 (not 0.3 / 3 and not empty)
    grid = FIG3_SETTINGS["mixed"]["phi_grid"]
    per_graph = []
    for j in range(3):
        g = cl.generate("er", 300, 5, master_seed=derive_seed(
            1, "fig3/graph", "er", 300, j))
        per_graph.append(cl.security_threshold(
            g, degree_order(g, xp.attack_size(300)), grid, 0.1))
    assert per_graph == [None, 0.3, None]
    cfg = ExperimentConfig(experiment="fig3", models=("er",), n_list=(300,),
                           d=5, master_seed=1, **FIG3_SETTINGS["mixed"])
    assert figure_csv(cfg).splitlines()[1] == "er,300,5,,0.3"


# fig1 and fig2 bytes, keyed (setting, graphs_per_cell, master_seed): both
# run the threshold trials over an attack order, fig2 with either attack
FIG12_SETTINGS = {
    "fig1": dict(experiment="fig1", models=("er", "pa")),
    "fig2-top": dict(experiment="fig2", models=("er", "pa", "security")),
    "fig2-random": dict(experiment="fig2", models=("er", "pa", "security"),
                        attack="random"),
}
GOLDEN_FIG12_SHA256 = {
    ("fig1", 1, 1):
        "7a93762910ec50bdd4a8a325dd244564a6d3284ceb79e5afe11f3581ffa4d408",
    ("fig1", 1, 2):
        "0a92a770d88bcc0566e38a647499f24e78a397d727060d22745a92a63a146f5c",
    ("fig1", 2, 1):
        "425b8b5338ed792234bdc0014709248f9c6c65dcce7142511791645931fab9ae",
    ("fig1", 2, 2):
        "f142f53db7ef91c1d919c97d623b6686ef4535a83f2e4c88f5ea0ea45cfa5eda",
    ("fig2-top", 1, 1):
        "a8986980e87d39d12ed2cb9cd0694c3de0715d3743504fbdfdd0fc9a0a3ec206",
    ("fig2-top", 1, 2):
        "e70966b18bd89666674f94f9236885336a042dce759a934294b005b2c6015310",
    ("fig2-top", 2, 1):
        "2cf6c305b6ba49cf71c3ace8bcf9c02073e9d286046dd5e6df5810c04f528bb6",
    ("fig2-top", 2, 2):
        "915c45f806b2049e8a1392dbaa458eed08d573c8720c3563e7d6ead9c0fc078f",
    ("fig2-random", 1, 1):
        "a4b66d5349d91426b9c7ee58835ca5d41d2f5b67f892da7e2513e10af738c27e",
    ("fig2-random", 1, 2):
        "09f170beec90ad0acc373590812bc5c267b3fd00135faa188308d9bd80dced43",
    ("fig2-random", 2, 1):
        "db33aa44804236fc6db1a12d878e0c2a0deb1fd7e8e5a2a368ad4272aaeff103",
    ("fig2-random", 2, 2):
        "57732febfc3c80948d73614a23eb62d3000c83109508263e257777d2104b6b74",
}


@pytest.mark.parametrize("setting,graphs,seed", sorted(GOLDEN_FIG12_SHA256))
def test_fig1_fig2_golden_hash(setting, graphs, seed):
    cfg = ExperimentConfig(n_list=(100, 400), d=4, a=1.5, trials=6,
                           master_seed=seed, graphs_per_cell=graphs,
                           **FIG12_SETTINGS[setting])
    csv = figure_csv(cfg)
    assert hashlib.sha256(csv.encode("utf-8")).hexdigest() == \
        GOLDEN_FIG12_SHA256[setting, graphs, seed]


# ---- orchestration ----------------------------------------------------------------

def test_resume_skips_completed_cells(tmp_path):
    cfg = tiny_cfg()
    first = xp.run_experiment(cfg, out_dir=tmp_path)
    assert first.ok and not first.skipped
    assert (tmp_path / "fig2.csv").read_text() == first.csv_text
    manifest = (tmp_path / "manifest.txt").read_text()
    assert manifest.count("cell ") == 4

    second = xp.run_experiment(cfg, out_dir=tmp_path)
    assert second.ok
    assert second.computed == ()
    assert set(second.skipped) == {"fig2_er_n60", "fig2_er_n120",
                                   "fig2_pa_n60", "fig2_pa_n120"}
    assert second.csv_text == first.csv_text


def test_resume_invalidated_by_config_change(tmp_path):
    xp.run_experiment(tiny_cfg(), out_dir=tmp_path)
    changed = xp.run_experiment(tiny_cfg(trials=4), out_dir=tmp_path)
    assert changed.ok
    assert changed.skipped == ()


def test_resume_invalidated_by_version_change(tmp_path):
    cfg = tiny_cfg()
    first = xp.run_experiment(cfg, out_dir=tmp_path)
    manifest = tmp_path / "manifest.txt"
    lines = manifest.read_text(encoding="utf-8").splitlines()
    assert lines[1] == f"version {xp.__version__}"
    lines[1] = "version 0.0.0-other"
    manifest.write_text("\n".join(lines) + "\n", encoding="utf-8")
    rerun = xp.run_experiment(cfg, out_dir=tmp_path)
    assert rerun.ok and rerun.skipped == ()
    assert set(rerun.computed) == {"fig2_er_n60", "fig2_er_n120",
                                   "fig2_pa_n60", "fig2_pa_n120"}
    assert rerun.csv_text == first.csv_text


@pytest.mark.parametrize("lines", [
    ["cascadelab-manifest v1", f"version {xp.__version__}"],
    [],
    ["cascadelab-manifest v0", f"version {xp.__version__}", "{config}",
     "cell fig2_er_n60"],
], ids=["two-lines", "empty", "wrong-magic"])
def test_malformed_manifest_starts_over(tmp_path, lines):
    cfg = tiny_cfg()
    first = xp.run_experiment(cfg, out_dir=tmp_path)
    text = "\n".join(lines).format(config=f"config {xp.config_hash(cfg)}")
    (tmp_path / "manifest.txt").write_text(text, encoding="utf-8")
    rerun = xp.run_experiment(cfg, out_dir=tmp_path)
    assert rerun.ok and rerun.skipped == ()
    assert len(rerun.computed) == 4
    assert rerun.csv_text == first.csv_text


def test_parallel_matches_serial(tmp_path):
    cfg = tiny_cfg()
    serial = xp.run_experiment(cfg, out_dir=tmp_path / "a", jobs=1)
    parallel = xp.run_experiment(cfg, out_dir=tmp_path / "b", jobs=4)
    assert serial.csv_text == parallel.csv_text
    assert ((tmp_path / "a" / "manifest.txt").read_bytes()
            == (tmp_path / "b" / "manifest.txt").read_bytes())


class _InPlacePool:
    """A ``ProcessPoolExecutor`` stand-in that runs each submit in place and
    records the ``max_workers`` it was built with; it starts no process."""

    def __init__(self, max_workers, built):
        built.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


# a pool forks all max_workers processes at its first submit, so it is
# built with no more workers than cells left to compute, and not for one
@pytest.mark.parametrize("jobs, models, done, workers", [
    (500, ("er",), 0, [2]), (3, ("er", "pa"), 0, [3]), (500, ("er", "pa"), 2, [2]),
    (500, ("er", "pa"), 3, []), (1, ("er", "pa"), 0, [])])
def test_jobs_start_only_the_workers_the_cells_use(tmp_path, monkeypatch, jobs,
                                                   models, done, workers):
    cfg = tiny_cfg(models=models)
    out = tmp_path / "out"
    serial = xp.run_experiment(cfg, out_dir=out)
    cells = [xp.cell_id(cfg, m, n) for m in models for n in cfg.n_list]
    for cid in cells[done:]:  # the rerun resumes the first `done` cells
        (out / "cells" / f"{cid}.csv").unlink()
    built = []
    monkeypatch.setattr(xp, "ProcessPoolExecutor",
                        lambda max_workers: _InPlacePool(max_workers, built))
    result = xp.run_experiment(cfg, out_dir=out, jobs=jobs)
    assert built == workers
    assert len(result.skipped) == done and result.csv_text == serial.csv_text


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_manifest_write_keeps_previous_manifest(tmp_path, monkeypatch,
                                                       jobs):
    cfg = tiny_cfg()
    xp.run_experiment(cfg, out_dir=tmp_path / "clean", jobs=jobs)
    out = tmp_path / "out"
    manifests = []

    def second_manifest(path):
        if not path.name.startswith(".manifest.txt."):
            return False
        manifests.append((out / "manifest.txt").read_bytes()
                         if manifests else None)
        return len(manifests) == 2  # half written, then the disk fills up

    fill_disk(monkeypatch, second_manifest)
    with pytest.raises(OSError, match="disk full"):
        xp.run_experiment(cfg, out_dir=out, jobs=jobs)
    monkeypatch.undo()

    previous = manifests[1]
    assert previous.count(b"\ncell ") == 1
    assert (out / "manifest.txt").read_bytes() == previous
    assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]
    resumed = xp.run_experiment(cfg, out_dir=out, jobs=jobs)
    assert resumed.ok and len(resumed.skipped) == 1
    assert _files(out) == _files(tmp_path / "clean")


def test_partial_failure_reported(tmp_path, monkeypatch):
    cfg = tiny_cfg()
    real = xp._compute_cell

    def boom(cfg_, model, n):
        if model == "pa" and n == 120:
            raise RuntimeError("synthetic fault")
        return real(cfg_, model, n)

    monkeypatch.setattr(xp, "_compute_cell", boom)
    result = xp.run_experiment(cfg, out_dir=tmp_path)
    assert not result.ok
    assert list(result.failed) == ["fig2_pa_n120"]
    assert result.csv_text is None
    assert not (tmp_path / "fig2.csv").exists()

    # completed cells were persisted; a repaired rerun resumes them
    monkeypatch.setattr(xp, "_compute_cell", real)
    fixed = xp.run_experiment(cfg, out_dir=tmp_path)
    assert fixed.ok
    assert fixed.computed == ("fig2_pa_n120",)


_REAL_COMPUTE_CELL = xp._compute_cell


def _exit_in_pa_120(cfg, model, n):
    # module level, so a pool can pickle it by name when it is patched in
    if model == "pa" and n == 120:
        os._exit(1)
    return _REAL_COMPUTE_CELL(cfg, model, n)


def test_worker_crash_reported_as_broken_pool(tmp_path, monkeypatch):
    monkeypatch.setattr(xp, "_compute_cell", _exit_in_pa_120)
    result = xp.run_experiment(tiny_cfg(), jobs=2)
    assert result.failed["fig2_pa_n120"].startswith("BrokenProcessPool")
    assert result.csv_text is None
    path = tmp_path / "exp.cfg"
    path.write_text("experiment=fig2\nmodels=er,pa\nn_list=60,120\nd=4\n"
                    "trials=3\nmaster_seed=5\n", encoding="utf-8")
    assert main(["experiment", "--config", str(path), "--jobs", "2",
                 "--out", str(tmp_path / "out")]) == 3


def _hang_in_er_120(cfg, model, n):
    # module level, so a pool can pickle it by name when it is patched in
    if model == "er" and n == 120:
        time.sleep(3600)
    return _REAL_COMPUTE_CELL(cfg, model, n)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs SIGALRM")
def test_error_in_parent_stops_the_pool(tmp_path, monkeypatch):
    """With jobs=2, a fragment write that fails in the parent is raised at
    once: the queued cells are cancelled and the worker still running a
    cell is ended, where leaving the pool used to wait for every cell."""
    monkeypatch.setattr(xp, "_compute_cell", _hang_in_er_120)
    fill_disk(monkeypatch, lambda path: path.name.startswith(".fig2_er_n60."))

    def expire(signum, frame):
        for child in multiprocessing.active_children():
            child.terminate()
        raise Hang("run_experiment waited for its workers")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        with pytest.raises(OSError, match="disk full"):
            xp.run_experiment(tiny_cfg(), out_dir=tmp_path, jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
    assert not [p for p in tmp_path.rglob("*") if p.is_file()]


def test_trial_seed_layout_matches_spec_signature():
    from cascadelab.seeding import derive_trial_seed
    a = derive_trial_seed(5, "fig2", "er", 60, 0)
    b = derive_trial_seed(5, "fig2", "er", 60, 1)
    assert a != b
