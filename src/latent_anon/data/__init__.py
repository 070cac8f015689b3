from .archive import ArchiveError, ArchiveMeta, load_embeddings, save_embeddings
from .csvload import CsvFormatError, CsvSchema, load_csv_dir, mobiact_schema, motionsense_schema
from .csvload import SCHEMA_PRESETS, read_json_config
from .labels import bin_weight
from .normalize import NormStats, compute_norm_stats, denormalize, normalize
from .split import subject_split, trial_split
from .synth import SynthConfig, class_template, oracle_accuracy, oracle_classify, synth_generate
from .types import DatasetSplit, Embedding, LabelSpace, SensorSeries
from .windowing import window_embeddings, window_offsets

__all__ = [
    "ArchiveError",
    "ArchiveMeta",
    "CsvFormatError",
    "CsvSchema",
    "DatasetSplit",
    "Embedding",
    "LabelSpace",
    "NormStats",
    "SCHEMA_PRESETS",
    "SensorSeries",
    "SynthConfig",
    "bin_weight",
    "class_template",
    "compute_norm_stats",
    "denormalize",
    "load_csv_dir",
    "load_embeddings",
    "mobiact_schema",
    "motionsense_schema",
    "normalize",
    "oracle_accuracy",
    "oracle_classify",
    "read_json_config",
    "save_embeddings",
    "subject_split",
    "synth_generate",
    "trial_split",
    "window_embeddings",
    "window_offsets",
]
