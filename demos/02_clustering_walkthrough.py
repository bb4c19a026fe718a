"""Threshold-driven clustering, merging, and dictionary truncation.

Plants five archetype shapes plus outlier days, then shows each stage of
the clustering chain: how the error threshold theta controls the initial
cluster count, how hierarchical merging consolidates under a violation
budget, and how iterative truncation discards outlier clusters while
keeping total membership conserved. Ends with recovery scoring against
the generator's ground truth.

Run:  python3 demos/02_clustering_walkthrough.py
"""

import warnings

import numpy as np

from loadshapes import GeneratorConfig, generate_synthetic
from loadshapes.cluster import adaptive_kmeans, hierarchical_merge
from loadshapes.dictionary import assign_all, truncate
from loadshapes.preprocess import preprocess_days

warnings.simplefilter("ignore")  # merge-path monotonicity flags are expected

config = GeneratorConfig(
    archetypes=5, households=150, days=90,
    noise_level=0.05, temperature_response=1.0,
    outlier_rate=0.27, fuzz_rate=0.04,
)
corpus = generate_synthetic(config, seed=42)
table, _ = preprocess_days(corpus.days)
print(f"{len(table)} shapes; 5 planted archetypes, "
      f"{config.outlier_rate:.0%} spike outliers, {config.fuzz_rate:.0%} fuzz days")

# --- the theta / K1 trade-off -----------------------------------------------

print("\nerror threshold sweep (every shape must fit within theta):")
print("  theta   K1   violation rate")
for theta in (0.1, 0.2, 0.3, 0.4, 0.5):
    model = adaptive_kmeans(table, theta=theta, k_init=10, seed=42)
    print(f"  {theta:4.2f} {model.n_clusters:5d}   {model.violation_rate:.4f}")

# --- the full chain at theta = 0.3 ------------------------------------------

model = adaptive_kmeans(table, theta=0.3, k_init=10, seed=42)
print(f"\nadaptive phase: K1 = {model.n_clusters} clusters after "
      f"{model.meta['split_rounds']} split rounds, "
      f"violation rate {model.violation_rate:.4f}")

merged = hierarchical_merge(model, max_violation=0.05)
print(f"merge phase:    K2 = {merged.n_clusters} clusters, violation rate "
      f"{merged.violation_rate:.4f} (budget 5%)")

dictionary = truncate(merged, v=0.30)
prov = dictionary.provenance
print(f"truncation:     {len(dictionary)} dictionary shapes "
      f"(violation {prov['entry_violation_rate']:.3f} -> "
      f"{prov['exit_violation_rate']:.3f} at budget V=0.30)")
print(f"membership conserved: {int(dictionary.member_counts.sum())} == {len(table)}")

# --- recovery against ground truth -------------------------------------------

assignments = assign_all(table, dictionary)
dict_to_arch = np.argmin(
    ((dictionary.values[:, None] - corpus.archetypes[None]) ** 2).sum(-1), axis=1
)
truth = {
    (corpus.truth.household_ids[i], corpus.truth.dates[i]):
        int(corpus.truth.archetype_ids[i])
    for i in range(len(corpus.truth.archetype_ids))
}
truth_rows = np.array(
    [truth[(table.household_ids[i], table.dates[i])] for i in range(len(table))]
)
pred = dict_to_arch[np.searchsorted(dictionary.ids, assignments.cluster_ids)]
scored = truth_rows >= 0
accuracy = (pred[scored] == truth_rows[scored]).mean()
print(f"\ndictionary shapes map onto archetypes {sorted(dict_to_arch.tolist())}")
print(f"assignment accuracy on archetype-truth days: {accuracy:.2%}")
print("\ndictionary summary (id, members, kWh coverage, peak hour):")
for i in range(len(dictionary)):
    peak = int(dictionary.values[i].argmax())
    print(f"  shape {int(dictionary.ids[i])}: {int(dictionary.member_counts[i]):6d} "
          f"members, {dictionary.member_kwh[i]:9.1f} kWh, peak at hour {peak}")
