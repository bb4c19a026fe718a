"""Deterministic synthetic corpora for desk-scale validation.

Each household draws its daily shape from a household-specific categorical
mixture over K planted archetype shapes. The mixture's concentration is set
by solving for a target entropy (a base level plus per-characteristic
biases), so group differences in day-to-day variability are planted with
known magnitude. Hotter days shift mixture mass onto archetype 0, the
designated cooling shape.

Two kinds of non-archetype days can be injected: "spike" outliers (a narrow
peak at a random hour, which clustering isolates into many small clusters)
and "fuzz" days (an archetype heavily blended with a random shape, which
stay attached to archetype clusters but violate tight error thresholds).
Both carry ground-truth label -1. A configurable fraction of days is
corrupted (missing hours or sub-0.2kW demand) to exercise cleaning.

A baseload offset is added to every hour before writing kWh so that
de-minning is always exercised. Everything is drawn from one seeded
generator in a fixed order: equal seeds give byte-identical files.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .config import flag
from .errors import GeneratorConfigError
from .ingest import (
    HOURS_PER_DAY,
    INDICATOR_VOCABULARY,
    DayTable,
    KeyedTable,
    Survey,
    WeatherDay,
    write_meter_corpus,
    write_survey,
    write_weather,
)
from .preprocess import demin, normalize

COOLING_ARCHETYPE = 0

# annual temperature model (deg F): peak around mid July
TEMP_BASE_F = 58.0
TEMP_AMPLITUDE_F = 22.0
TEMP_NOISE_F = 3.0
TEMP_PEAK_DOY = 196
# cooling response ramps linearly over this range
RAMP_LOW_F = 72.0
RAMP_SPAN_F = 14.0

ENTROPY_JITTER = 0.05


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the synthetic corpus."""

    archetypes: int = flag(5, "number of planted archetype shapes")
    households: int = flag(100, "number of households")
    days: int = flag(90, "number of days")
    start_date: dt.date = flag(dt.date(2011, 6, 1), "first day (ISO date)")
    noise_level: float = flag(0.05, "log-normal noise scale of each hourly reading")
    temperature_response: float = flag(1.0, "weight of the cooling shape on the hottest days")
    base_entropy: float = flag(0.9, "target entropy (nats) of a household's daily shape mix")
    # written as one bias.<indicator>=value line per entry
    entropy_bias: dict[str, float] = field(default_factory=dict, metadata={
        "key": "bias", "help": "entropy bias as indicator=value (repeatable)"})
    outlier_rate: float = flag(0.0, "share of days with a single spike hour")
    fuzz_rate: float = flag(0.0, "share of days blended toward a random shape")
    bad_day_rate: float = flag(0.0, "share of days with missing hours or too low a demand")
    # unannotated, so class constants and not fields: no flag or config key sets them
    baseload_low_kw = 0.25
    baseload_high_kw = 0.9
    discretionary_kwh_mean = 6.0

    def validate(self) -> None:
        numbers = [(f.name, getattr(self, f.name)) for f in fields(self)]
        numbers += [(f"bias.{k}", v) for k, v in self.entropy_bias.items()]
        for name, value in numbers:
            if isinstance(value, float) and not math.isfinite(value):
                raise GeneratorConfigError(f"{name} must be finite, got {value}")
        if self.archetypes < 2:
            raise GeneratorConfigError("need at least 2 archetype shapes")
        if self.days <= 0:
            raise GeneratorConfigError("date range is empty")
        if self.households <= 0:
            raise GeneratorConfigError("need at least one household")
        for rate in (self.outlier_rate, self.fuzz_rate, self.bad_day_rate):
            if not 0.0 <= rate <= 1.0:
                raise GeneratorConfigError(f"rate {rate} outside [0, 1]")
        if self.outlier_rate + self.fuzz_rate > 1.0:
            raise GeneratorConfigError("outlier_rate + fuzz_rate exceeds 1")
        unknown = set(self.entropy_bias) - set(INDICATOR_VOCABULARY)
        if unknown:
            raise GeneratorConfigError(f"entropy bias for unknown indicators {unknown}")


def _circular_bump(center, width: float) -> np.ndarray:
    """A circular Gaussian bump over the 24 hours; an (n, 1) array of
    centers gives n bumps."""
    t = np.arange(HOURS_PER_DAY, dtype=float)
    d = np.abs(t - center)
    d = np.minimum(d, HOURS_PER_DAY - d)
    return np.exp(-0.5 * (d / width) ** 2)


def archetype_shapes(k: int) -> np.ndarray:
    """K planted archetypes, unit sum and min 0; index 0 peaks in the
    TOU window (the cooling shape)."""
    recipes = [
        _circular_bump(17.0, 1.4),                            # cooling / TOU
        _circular_bump(21.0, 1.4),                            # evening
        _circular_bump(7.0, 1.4),                             # morning
        _circular_bump(8.0, 1.1) + _circular_bump(20.0, 1.1),  # classic double
        _circular_bump(12.5, 2.2),                            # daytime
    ]
    # extension peaks sit in the gaps the first five leave open
    extension = ((3.0, 1.2), (10.5, 0.9), (14.5, 0.9), (0.5, 0.9),
                 (5.0, 0.8), (23.0, 0.7))
    for j in range(5, k):
        center, width = extension[(j - 5) % len(extension)]
        shift = 0.25 * ((j - 5) // len(extension))  # crowding beyond 11
        recipes.append(_circular_bump(center + shift, width))
    return normalize(demin(np.array(recipes[:k])))


def _mixtures_for_entropy(k: int, preferred: np.ndarray,
                          targets: np.ndarray) -> np.ndarray:
    """Per-household mixtures (1-eps)*delta + eps*uniform hitting target
    entropies; entropy is monotone in eps so bisection converges."""
    n = len(preferred)
    lo = np.zeros(n)
    hi = np.ones(n)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        peak = 1.0 - mid + mid / k
        rest = mid / k
        with np.errstate(divide="ignore", invalid="ignore"):
            h = -(
                np.where(peak > 0, peak * np.log(peak), 0.0)
                + (k - 1) * np.where(rest > 0, rest * np.log(rest), 0.0)
            )
        lower = h < targets
        lo = np.where(lower, mid, lo)
        hi = np.where(lower, hi, mid)
    eps = 0.5 * (lo + hi)
    mixtures = np.full((n, k), (eps / k)[:, None])
    mixtures[np.arange(n), preferred] += 1.0 - eps
    return mixtures


class SyntheticTruth(KeyedTable):
    """Sidecar ground truth aligned with the meter rows; -1 marks days not
    drawn from any archetype (spike or fuzz)."""

    COLUMNS = (("archetype_ids", int, ["archetype_id"]),)

    write_csv = KeyedTable._write_csv

    @classmethod
    def read_csv(cls, path) -> "SyntheticTruth":
        return cls._parse_csv(path)


@dataclass
class SyntheticCorpus:
    config: GeneratorConfig
    days: DayTable
    weather: list
    profiles: Survey
    truth: SyntheticTruth
    archetypes: np.ndarray
    target_entropy: np.ndarray

    def write(self, out_dir, meter_schema: str = "wide") -> dict:
        """Write meter/weather/survey/truth CSVs; returns the path map."""
        from pathlib import Path

        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {
            "meter": out / "meter.csv",
            "weather": out / "weather.csv",
            "survey": out / "survey.csv",
            "truth": out / "truth.csv",
        }
        write_meter_corpus(self.days, paths["meter"], meter_schema)
        write_weather(self.weather, paths["weather"])
        write_survey(self.profiles, paths["survey"])
        self.truth.write_csv(paths["truth"])
        return paths


def generate_synthetic(config: GeneratorConfig, seed: int,
                       include_meter: bool = True) -> SyntheticCorpus:
    """Draw a full synthetic corpus; deterministic for a fixed seed.

    With include_meter=False only weather, survey, and ground-truth labels
    are produced (no kWh rendering), which keeps repeated statistical
    trials cheap.
    """
    config.validate()
    k = config.archetypes
    n_house = config.households
    n_days = config.days
    rng = np.random.default_rng(seed)

    dates = [config.start_date + dt.timedelta(days=i) for i in range(n_days)]
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=float)
    temps = (
        TEMP_BASE_F
        + TEMP_AMPLITUDE_F * np.cos(2 * np.pi * (doy - TEMP_PEAK_DOY) / 365.25)
        + rng.normal(0.0, TEMP_NOISE_F, n_days)
    )
    weather = [WeatherDay(d, float(t)) for d, t in zip(dates, temps)]

    house_ids = np.array([f"H{i:05d}" for i in range(n_house)], dtype=object)
    flags = rng.random((n_house, len(INDICATOR_VOCABULARY))) < 0.5
    profiles = Survey(house_ids, flags)

    jitter = rng.uniform(-ENTROPY_JITTER, ENTROPY_JITTER, n_house)
    targets = np.full(n_house, config.base_entropy) + jitter
    for name, bias in sorted(config.entropy_bias.items()):
        col = INDICATOR_VOCABULARY.index(name)
        targets += np.where(flags[:, col], bias, 0.0)
    targets = np.clip(targets, 0.02, np.log(k) - 1e-3)

    preferred = np.arange(n_house) % k
    mixtures = _mixtures_for_entropy(k, preferred, targets)

    ramp = np.clip((temps - RAMP_LOW_F) / RAMP_SPAN_F, 0.0, 1.0)
    w_day = config.temperature_response * ramp  # (n_days,)

    kind_u = rng.random((n_house, n_days))
    spike_mask = kind_u < config.outlier_rate
    fuzz_mask = (~spike_mask) & (kind_u < config.outlier_rate + config.fuzz_rate)

    # daily mixture = (1-w) * household mixture + w * cooling point mass
    day_probs = (1.0 - w_day)[None, :, None] * mixtures[:, None, :]
    day_probs[:, :, COOLING_ARCHETYPE] += w_day[None, :]
    cum = np.cumsum(day_probs, axis=2)
    draw_u = rng.random((n_house, n_days))
    archetype_id = (draw_u[:, :, None] > cum).sum(axis=2)
    archetype_id = np.minimum(archetype_id, k - 1)

    truth_ids = archetype_id.copy()
    truth_ids[spike_mask | fuzz_mask] = -1

    hid_grid = np.repeat(house_ids, n_days)
    date_grid = np.tile(np.array(dates, dtype=object), n_house)
    truth = SyntheticTruth(hid_grid, date_grid, truth_ids.reshape(-1))

    shapes = archetype_shapes(k)
    if not include_meter:
        return SyntheticCorpus(
            config, DayTable([], [], np.empty((0, HOURS_PER_DAY))),
            weather, profiles, truth, shapes, targets,
        )

    base = shapes[archetype_id.reshape(-1)]  # (N, 24)
    n_total = base.shape[0]

    flat_spike = spike_mask.reshape(-1)
    n_spike = int(flat_spike.sum())
    if n_spike:
        hours = rng.integers(0, HOURS_PER_DAY, n_spike)
        base[flat_spike] = normalize(demin(_circular_bump(hours[:, None], 0.7)))

    flat_fuzz = fuzz_mask.reshape(-1)
    n_fuzz = int(flat_fuzz.sum())
    if n_fuzz:
        beta = rng.uniform(0.5, 0.9, n_fuzz)
        raw = rng.gamma(0.5, size=(n_fuzz, HOURS_PER_DAY))
        blend_target = raw / raw.sum(axis=1, keepdims=True)
        base[flat_fuzz] = (
            (1.0 - beta)[:, None] * base[flat_fuzz]
            + beta[:, None] * blend_target
        )

    noise = np.exp(config.noise_level * rng.standard_normal((n_total, HOURS_PER_DAY)))
    profile = normalize(demin(base * noise))

    disc = rng.lognormal(np.log(config.discretionary_kwh_mean), 0.35, n_total)
    baseload = rng.uniform(config.baseload_low_kw, config.baseload_high_kw, n_house)
    kwh = np.repeat(baseload, n_days)[:, None] + disc[:, None] * profile

    if config.bad_day_rate > 0.0:
        bad = rng.random(n_total) < config.bad_day_rate
        bad_idx = np.flatnonzero(bad)
        corrupt_kind = rng.random(len(bad_idx)) < 0.5
        for pos, as_missing in zip(bad_idx, corrupt_kind):
            if as_missing:
                n_missing = int(rng.integers(1, 4))
                hours = rng.choice(HOURS_PER_DAY, size=n_missing, replace=False)
                kwh[pos, hours] = np.nan
            else:
                row = kwh[pos]
                kwh[pos] = row * (0.12 / row.mean())

    return SyntheticCorpus(
        config, DayTable(hid_grid, date_grid, kwh), weather, profiles, truth,
        shapes, targets,
    )
