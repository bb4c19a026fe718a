"""Daily load shape clustering and variability analytics.

Pipeline: ingest hourly meter data, isolate discretionary usage by
de-minning and unit-sum normalization, cluster a subsample with
threshold-driven adaptive k-means, consolidate by hierarchical merging,
truncate into a compact dictionary under a violation budget, assign every
household-day to its nearest dictionary shape, and quantify variability
via entropy across temporal, meteorological, and household strata.
"""

from .analytics import (
    CharacteristicDelta,
    CoverageCurve,
    EntropyReport,
    OccurrenceMap,
    PeakTaxonomy,
    Stratum,
    build_frame,
    characteristic_entropy_delta,
    coverage_curve,
    davies_bouldin,
    day_type_strata,
    entropy,
    household_entropy,
    occurrence_map,
    peak_taxonomy,
    season_strata,
    stratified_entropy,
    temperature_quartiles,
)
from .cluster import (
    ClusterModel,
    adaptive_kmeans,
    hierarchical_merge,
    kmeans,
    load_model,
    rse,
    save_model,
)
from .dictionary import (
    AssignmentTable,
    ClusterDictionary,
    assign_all,
    load_dictionary,
    save_dictionary,
    truncate,
)
from .ingest import (
    INDICATOR_VOCABULARY,
    HouseholdProfile,
    LoadDay,
    SeasonCalendar,
    WeatherDay,
    read_meter_corpus,
    read_survey,
    read_weather,
    write_meter_corpus,
)
from .pipeline import RunConfig, run_pipeline
from .preprocess import (
    CleaningReport,
    ShapeTable,
    ShapeVector,
    clean,
    demin,
    normalize,
    preprocess_days,
    shape_from_day,
    subsample,
)
from .synthetic import (
    GeneratorConfig,
    SyntheticCorpus,
    archetype_shapes,
    generate_synthetic,
)

__version__ = "0.1.0"

__all__ = [
    "AssignmentTable",
    "CharacteristicDelta",
    "CleaningReport",
    "ClusterDictionary",
    "ClusterModel",
    "CoverageCurve",
    "EntropyReport",
    "GeneratorConfig",
    "HouseholdProfile",
    "INDICATOR_VOCABULARY",
    "LoadDay",
    "OccurrenceMap",
    "PeakTaxonomy",
    "RunConfig",
    "SeasonCalendar",
    "ShapeTable",
    "ShapeVector",
    "Stratum",
    "SyntheticCorpus",
    "WeatherDay",
    "adaptive_kmeans",
    "archetype_shapes",
    "assign_all",
    "build_frame",
    "characteristic_entropy_delta",
    "clean",
    "coverage_curve",
    "davies_bouldin",
    "day_type_strata",
    "demin",
    "entropy",
    "generate_synthetic",
    "hierarchical_merge",
    "household_entropy",
    "kmeans",
    "load_dictionary",
    "load_model",
    "normalize",
    "occurrence_map",
    "peak_taxonomy",
    "preprocess_days",
    "read_meter_corpus",
    "read_survey",
    "read_weather",
    "rse",
    "run_pipeline",
    "save_dictionary",
    "save_model",
    "season_strata",
    "shape_from_day",
    "stratified_entropy",
    "subsample",
    "temperature_quartiles",
    "truncate",
    "write_meter_corpus",
]
