"""CSV ingestion driven by a small user-declared schema.

A schema names the channel columns, the sampling rate, and a path regex with
named groups that carry the per-file metadata: ``subject`` (required) plus
optionally ``trial``, ``public`` and ``private``. The private label comes
from a subjects table (one CSV joined on the subject id) exactly when the
schema names one, and otherwise from the path group; a numeric weight column
can be binned into weight groups.

Presets for the common inertial-sensor dataset layouts are provided; real
recordings are supplied by the user and never ship with this package.
"""

import csv
import json
import re
import warnings
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path

import numpy as np

from .labels import bin_weight
from .types import SensorSeries


class CsvFormatError(ValueError):
    """One or more input files violate the declared schema."""


@dataclass
class CsvSchema:
    channels: list
    sampling_rate_hz: float
    path_pattern: str
    public_classes: list | None = None
    private_classes: list | None = None
    subjects_table: str | None = None
    subjects_key: str | None = None
    private_column: str | None = None
    bin_weights: bool = False
    test_trials: list = field(default_factory=list)

    @staticmethod
    def from_json(path):
        with open(path, "r", encoding="utf-8") as f:
            raw = json.load(f)
        if not isinstance(raw, dict):
            raise CsvFormatError(f"schema {path} is not a JSON object")
        unknown = sorted(set(raw) - {f.name for f in fields(CsvSchema)})
        if unknown:
            raise CsvFormatError(f"unknown keys in schema {path}: {unknown}")
        missing = sorted(
            f.name
            for f in fields(CsvSchema)
            if f.default is MISSING and f.default_factory is MISSING and f.name not in raw
        )
        if missing:
            raise CsvFormatError(f"schema {path} lacks required keys: {missing}")
        return CsvSchema(**raw)


def motionsense_schema():
    """Layout of the common device-motion recordings: one CSV per
    (activity, trial) directory and subject, 12 motion channels at 50 Hz,
    gender joined from the subject info table. Trials 11 and up form the
    conventional test set."""
    return CsvSchema(
        channels=[
            "attitude.roll",
            "attitude.pitch",
            "attitude.yaw",
            "gravity.x",
            "gravity.y",
            "gravity.z",
            "rotationRate.x",
            "rotationRate.y",
            "rotationRate.z",
            "userAcceleration.x",
            "userAcceleration.y",
            "userAcceleration.z",
        ],
        sampling_rate_hz=50.0,
        # sitting/standing recordings exist on disk but are not usable classes
        # here; restricting the pattern makes the loader skip them
        path_pattern=r"(?P<public>dws|ups|wal|jog)_(?P<trial>\d+)/sub_(?P<subject>\d+)\.csv$",
        public_classes=["dws", "ups", "wal", "jog"],
        private_classes=["0", "1"],
        subjects_table="data_subjects_info.csv",
        subjects_key="code",
        private_column="gender",
        test_trials=[11, 12, 13, 14, 15, 16],
    )


def mobiact_schema(private="gender"):
    """Layout for the phone IMU recordings: one CSV per activity, subject and
    trial, 6 inertial channels. private selects "gender" or "weight"; weight
    values are binned into the three weight groups."""
    if private not in ("gender", "weight"):
        raise ValueError("private must be 'gender' or 'weight'")
    return CsvSchema(
        channels=["acc_x", "acc_y", "acc_z", "gyro_x", "gyro_y", "gyro_z"],
        sampling_rate_hz=20.0,
        path_pattern=r"(?P<public>WAL|STD|JOG|STU)_(?P<subject>\d+)_(?P<trial>\d+)[^/]*\.csv$",
        public_classes=["WAL", "STD", "JOG", "STU"],
        private_classes=None if private == "weight" else ["0", "1"],
        subjects_table="subjects_info.csv",
        subjects_key="id",
        private_column="weight" if private == "weight" else "gender",
        bin_weights=private == "weight",
    )


def _load_subjects_table(root, schema, problems):
    table_path = Path(root) / schema.subjects_table
    if not table_path.exists():
        problems.append(f"{table_path}: subjects table not found")
        return {}
    mapping = {}
    with open(table_path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        fields = reader.fieldnames or []
        for col in (schema.subjects_key, schema.private_column):
            if col not in fields:
                problems.append(f"{table_path}: missing column {col!r}")
                return {}
        for row in reader:
            mapping[row[schema.subjects_key].strip()] = row[schema.private_column].strip()
    return mapping


def _private_label(value, schema, context, problems):
    if schema.bin_weights:
        try:
            return bin_weight(float(value))
        except ValueError as exc:
            problems.append(f"{context}: bad weight value {value!r} ({exc})")
            return None
    if schema.private_classes is not None:
        if value not in schema.private_classes:
            problems.append(f"{context}: unknown private class {value!r}")
            return None
        return schema.private_classes.index(value)
    try:
        return int(value)
    except ValueError:
        problems.append(f"{context}: private label {value!r} is not an integer")
        return None


def _parse_file(path, schema, problems):
    rows = []
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        fields = reader.fieldnames
        if fields is None:
            warnings.warn(f"{path}: empty file, loaded as a zero-length series")
            return rows
        missing = [c for c in schema.channels if c not in fields]
        if missing:
            problems.append(f"{path}: missing columns {missing}")
            return None
        for line_no, row in enumerate(reader, start=2):
            values = []
            for col in schema.channels:
                cell = row[col]
                try:
                    values.append(float(cell))
                except (TypeError, ValueError):
                    problems.append(f"{path}: row {line_no}: non-numeric value {cell!r} in {col!r}")
                    return None
            rows.append(values)
    return rows


def load_csv_dir(root, schema):
    """Load every CSV under root that matches the schema's path pattern.

    Returns one SensorSeries per matching file, in sorted path order. All
    schema violations are collected and raised together so a mixed directory
    reports every offending file at once.
    """
    root = Path(root)
    pattern = re.compile(schema.path_pattern)
    problems = []
    from_table = schema.subjects_table is not None
    subjects = _load_subjects_table(root, schema, problems) if from_table else {}

    series = []
    matched = 0
    for path in sorted(root.rglob("*.csv")):
        rel = path.relative_to(root).as_posix()
        m = pattern.search(rel)
        if m is None:
            continue
        matched += 1
        groups = m.groupdict()
        rows = _parse_file(path, schema, problems)
        if rows is None:
            continue

        attributes = {}
        if "trial" in groups:
            attributes["trial"] = int(groups["trial"])
        if "public" in groups:
            value = groups["public"]
            if schema.public_classes is not None:
                if value not in schema.public_classes:
                    problems.append(f"{path}: unknown public class {value!r}")
                    continue
                attributes["public"] = schema.public_classes.index(value)
            else:
                attributes["public"] = int(value)
        subject = groups["subject"]
        if from_table:
            if subject not in subjects:
                problems.append(f"{path}: subject {subject!r} not in the subjects table")
                continue
            label = _private_label(subjects[subject], schema, str(path), problems)
        elif "private" in groups:
            label = _private_label(groups["private"], schema, str(path), problems)
        else:
            label = None
        if label is not None:
            attributes["private"] = label

        data = np.asarray(rows, dtype=float).reshape(len(rows), len(schema.channels))
        series.append(
            SensorSeries(
                subject_id=subject,
                samples=data,
                sampling_rate_hz=schema.sampling_rate_hz,
                attributes=attributes,
            )
        )
    if problems:
        raise CsvFormatError("\n".join(problems))
    if matched == 0:
        raise CsvFormatError(f"no files under {root} match pattern {schema.path_pattern!r}")
    return series
