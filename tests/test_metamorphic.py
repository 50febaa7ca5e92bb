"""Whole-pipeline metamorphic relations: a known change to the input must
leave named outputs byte for byte the same.

A relation needs no oracle, so it also catches a fault that the oracles
and the program might share by reading the same spec (Chen et al.,
"Metamorphic Testing: A Review of Challenges and Opportunities", ACM
Computing Surveys 51(1), 2018).

- (a) Shifting every fix and label stamp by whole seconds, inside years
  1-9999, leaves features.csv the same: every feature is a function of
  time differences only.
- (e) Multiplying features.csv columns by powers of two, 2**k with
  |k| <= 8, leaves every classify and anomaly output the same except the
  two scatter CSVs, which print the raw values: a power of two scales
  sums, midpoints and standard deviations exactly, so tree splits and
  z-scores keep their bits.
"""

import contextlib
import csv
import io
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tripkin import synth
from tripkin.cli import main as tripkin
from tripkin.features import CSV_COLUMNS, FEATURE_NAMES
from tripkin.geokinematics import T_MAX, T_MIN, Track
from tripkin.ingest import Trip


def run(argv: list[str]) -> str:
    """Run one tripkin command in process; its stdout, after asserting exit 0."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = tripkin(argv)
    assert code == 0, (argv, code)
    return stdout.getvalue()


@st.composite
def profiles(draw):
    """One to three users of a few short trips, with and without noise."""
    return [
        synth.UserProfile(
            user_id=f"{u:03d}",
            mean_cruise_speed=draw(st.floats(0.5, 30.0)),
            speed_jitter=draw(st.sampled_from([0.0, 0.5, 2.0])),
            accel_scale=draw(st.sampled_from([0.0, 0.05, 0.5])),
            trips=draw(st.integers(1, 5)),
            points_per_trip=draw(st.integers(3, 12)),
            sampling_period=float(draw(st.integers(1, 10))),
            gps_noise_std=draw(st.sampled_from([0.0, 1.0, 10.0])),
        )
        for u in range(draw(st.integers(1, 3)))
    ]


@settings(max_examples=60, deadline=None)
@given(profiles=profiles(), seed=st.integers(0, 2**16), data=st.data())
def test_a_time_shift_keeps_features(profiles, seed, data):
    corpus = synth.generate_corpus(profiles, seed=seed)
    first = min(int(trip.points.t[0]) for trip in corpus.trips)
    last = max(int(trip.points.t[-1]) for trip in corpus.trips)
    shift = data.draw(st.integers(T_MIN - first, T_MAX - last), label="shift")
    shifted = synth.SyntheticCorpus(
        [Trip(p.user_id, p.modality, Track(p.points.t + shift, p.points.lat, p.points.lon)) for p in corpus.trips],
        corpus.profiles,
    )
    with tempfile.TemporaryDirectory() as tmp:
        features = []
        for name, c in (("base", corpus), ("shifted", shifted)):
            root, out = Path(tmp, name), Path(tmp, f"{name}-out")
            synth.write_corpus(c, root)
            run(["extract", "--root", str(root), "--out", str(out), "--min-trips", "1"])
            features.append((out / "features.csv").read_bytes())
    assert features[0] == features[1]


@st.composite
def feature_tables(draw):
    """features.csv rows of 2-4 users, 6-30 trips each.

    Each column has its own magnitude and a relative spread from 1e-13
    to 0.1, and may be rounded onto a coarse grid so that it holds ties;
    each user's values sit at their own offset. Every value is positive,
    as a duration must be.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    sizes = draw(st.lists(st.integers(6, 30), min_size=2, max_size=4), label="trips per user")
    users = np.repeat([f"{u:03d}" for u in range(len(sizes))], sizes)
    columns = []
    for name in FEATURE_NAMES:
        magnitude = 10.0 ** draw(st.integers(-3, 4), label=f"{name} magnitude")
        spread = 10.0 ** draw(st.integers(-13, -1), label=f"{name} spread")
        offset = rng.uniform(-0.5, 0.5, size=len(sizes))
        u = rng.uniform(-0.5, 0.5, size=len(users)) + np.repeat(offset, sizes)
        if draw(st.booleans(), label=f"{name} ties"):
            u = np.round(u * 4) / 4
        columns.append(magnitude * (1.0 + spread * u))
    return users.tolist(), np.column_stack(columns)


def write_table(path: Path, users, rows: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        writer.writerows([user, "walk", *map(repr, row)] for user, row in zip(users, rows.tolist()))


@settings(max_examples=60, deadline=None)
@given(
    table=feature_tables(),
    powers=st.dictionaries(st.sampled_from(range(len(FEATURE_NAMES))), st.integers(-8, 8), min_size=1),
)
def test_e_power_of_two_column_scaling_keeps_reports(table, powers):
    users, rows = table
    scaled = rows.copy()
    for j, k in powers.items():
        scaled[:, j] *= 2.0**k
    with tempfile.TemporaryDirectory() as tmp:
        reports = []
        for name, table_rows in (("base", rows), ("scaled", scaled)):
            features, out = Path(tmp, f"{name}.csv"), Path(tmp, name)
            write_table(features, users, table_rows)
            common = ["--features", str(features), "--out", str(out), "--seed", "3"]
            stdout = run(["classify", *common, "--k-folds", "3"])
            stdout += run(["anomaly", *common, "--trials", "3", "--lof-k", "5"])
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir()) if not p.name.startswith("scatter_")}
            reports.append((stdout.replace(str(out), "OUT"), files))
    assert len(reports[0][1]) == 6  # three classify and three anomaly reports
    assert reports[0] == reports[1]
