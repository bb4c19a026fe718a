"""From raw hourly kWh to clusterable load shapes.

Walks the preprocessing path on a small synthetic corpus: cleaning rules,
de-minning (baseload removal), unit-sum normalization, and why de-minning
matters (a high baseload flattens plainly-normalized shapes and buries the
behavioural signal).

Run:  python3 demos/01_shapes_and_cleaning.py
"""

import datetime as dt

import numpy as np

from loadshapes import DayTable, GeneratorConfig, generate_synthetic
from loadshapes.preprocess import demin, normalize, preprocess_days, subsample

# --- a corpus with deliberately injected bad days -------------------------

config = GeneratorConfig(
    archetypes=5, households=80, days=60,
    noise_level=0.1, bad_day_rate=0.06,
)
corpus = generate_synthetic(config, seed=11)
print(f"generated {len(corpus.days)} household-days "
      f"({config.households} households x {config.days} days)")

table, report = preprocess_days(corpus.days)
print("\ncleaning report")
print(f"  input days:              {report.n_input}")
print(f"  dropped missing hours:   {report.dropped_missing_hours}")
print(f"  dropped low demand:      {report.dropped_low_demand}")
print(f"  dropped zero discretionary: {report.dropped_zero_discretionary}")
print(f"  retained:                {report.retained} "
      f"({report.retention_fraction:.1%})")

# every surviving shape sums to one and touches zero at its minimum hour
assert np.abs(table.values.sum(axis=1) - 1).max() < 1e-9
assert (table.values.min(axis=1) == 0).all()
print(f"\n{len(table)} shapes: unit sum and exact-zero minimum verified")

# --- why de-min: the flattening effect -------------------------------------

# two days with the same discretionary behaviour but different baseloads
# (dyadic values keep the baseload-shift arithmetic exact in binary floats)
profile = np.zeros(24)
profile[17] = 1.25  # a single evening activity burst
profile[18] = 0.75
days = DayTable(["low", "high"], [dt.date(2011, 7, 1)] * 2,
                [0.25 + profile, 2.5 + profile])

plain_low, plain_high = days.kwh / days.kwh.sum(axis=1, keepdims=True)
print("\nnormalize WITHOUT de-minning (shape range = max - min):")
print(f"  low baseload:  range {plain_low.max() - plain_low.min():.4f}")
print(f"  high baseload: range {plain_high.max() - plain_high.min():.4f}"
      "   <- flattened, signal muted")

shape_low, shape_high = normalize(demin(days.kwh))  # row by row
print("de-min THEN normalize:")
print(f"  identical shapes for both baseloads: "
      f"{np.array_equal(shape_low, shape_high)}")

# --- drawing the clustering subsample --------------------------------------

sample = subsample(table, 2000, seed=7)
again = subsample(table, 2000, seed=7)
print(f"\nsubsample of {len(sample)} shapes; same seed reproduces the draw: "
      f"{np.array_equal(sample.values, again.values)}")
