"""Reproduce the three figure datasets at desk scale.

Writes demo_out/fig1/fig1.csv, demo_out/fig2/fig2.csv and
demo_out/fig3/fig3.csv, each fully determined by the master seed.  Every
experiment gets its own directory because an out dir holds one manifest.
Scale the n_list / trials up to match the published settings (the
defaults in cascadelab.experiment) when you have a few minutes to spare;
this demo keeps sizes small so it finishes in well under a minute.
"""

from pathlib import Path

import cascadelab as cl

OUT = Path("demo_out")
SEED = 2024


def run(cfg: cl.ExperimentConfig, out_dir: Path) -> str:
    result = cl.run_experiment(cfg, out_dir=out_dir)
    if not result.ok:
        raise SystemExit(f"{len(result.failed)} cell(s) failed: {result.failed}")
    return result.csv_text


fig1 = cl.ExperimentConfig(
    experiment="fig1", models=("er", "pa"), n_list=(2_000,), d=10,
    trials=30, master_seed=SEED)
csv1 = run(fig1, OUT / "fig1")
print(f"fig1.csv: {len(csv1.splitlines()) - 1} rows "
      f"(injury vs max infection, attack sizes 1..5 ln n)")

fig2 = cl.ExperimentConfig(
    experiment="fig2", models=("er", "pa", "security"),
    n_list=(100, 300, 1_000, 3_000), d=10, a=1.5, trials=30,
    master_seed=SEED)
csv2 = run(fig2, OUT / "fig2")
print("fig2.csv: largest cascade among random-threshold attacks of size ln n")
for line in csv2.strip().splitlines()[1:]:
    print("   ", line)

fig3 = cl.ExperimentConfig(
    experiment="fig3", models=("er", "pa", "security"),
    n_list=(1_000, 3_000, 10_000), d=5, a=1.5, epsilon=0.1,
    master_seed=SEED)
csv3 = run(fig3, OUT / "fig3")
print("fig3.csv: smallest uniform threshold containing a ln n attack at 10%")
for line in csv3.strip().splitlines()[1:]:
    print("   ", line)

print(f"\nwrote {OUT}/fig1, fig2 and fig3 (a CSV and a manifest each); "
      "rerunning resumes completed cells")
