"""Command-line pipeline: extract, classify, anomaly, synth.

Every subcommand is deterministic given its inputs and --seed. The
command reports and features.csv are written atomically (temp file, then
rename); synth writes its corpus files in place. Defaults
carry the experiment constants (5 folds, 30-trip minimum, 1.5 IQR
fences, 3% injection rate, 10 trials per user, LOF k=20); flags override
an optional JSON config file, which overrides the defaults.

Exit codes: 0 success, 1 validation or metric failure, 2 input/IO error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

from . import anomaly as anomaly_mod
from . import features as features_mod
from . import ingest, learn, synth
from .features import FEATURE_NAMES

log = logging.getLogger(__name__)

DEFAULTS = {
    "seed": 0,
    "k_folds": 5,
    "min_trips": 30,
    "iqr_mult": 1.5,
    "rate": 0.03,
    "trials": 10,
    "lof_k": 20,
}


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one subcommand invocation."""

    seed: int
    k_folds: int
    min_trips: int
    iqr_mult: float
    rate: float
    trials: int
    lof_k: int
    root: str | None = None
    features: str | None = None
    profiles: str | None = None
    out: str = "."

    def validate(self) -> None:
        if self.k_folds < 2:
            raise ValueError("--k-folds must be at least 2")
        if self.min_trips < 1:
            raise ValueError("--min-trips must be positive")
        if not self.iqr_mult > 0:
            raise ValueError("--iqr-mult must be positive")
        if not 0.0 < self.rate < 1.0:
            raise ValueError("--rate must be in (0, 1)")
        if self.trials < 1:
            raise ValueError("--trials must be positive")
        if self.lof_k < 1:
            raise ValueError("--lof-k must be positive")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_values = {}
    if getattr(args, "config", None):
        with open(args.config) as fh:
            file_values = json.load(fh)
        if not isinstance(file_values, dict):
            raise ValueError(f"config must be a JSON object, got {type(file_values).__name__}")
        unknown = set(file_values) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, value in file_values.items():
            # A key with a float default also takes an int; bool is never a number here.
            numeric = isinstance(DEFAULTS[key], float)
            if isinstance(value, bool) or not isinstance(value, (int, float) if numeric else int):
                kind = "a number" if numeric else "an integer"
                raise ValueError(f"config key {key!r} must be {kind}, got {value!r}")
    resolved = {}
    for key, default in DEFAULTS.items():
        flag = getattr(args, key, None)
        resolved[key] = flag if flag is not None else file_values.get(key, default)
    cfg = RunConfig(
        root=getattr(args, "root", None),
        features=getattr(args, "features", None),
        profiles=getattr(args, "profiles", None),
        out=args.out,
        **resolved,
    )
    cfg.validate()
    return cfg


def _write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    tmp.replace(path)


def _write_csv(path: Path, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    _write_text(path, buf.getvalue())


def cmd_extract(cfg: RunConfig) -> int:
    """Dataset root -> feature CSV, printing stage-by-stage drop counts."""
    if not cfg.root:
        raise ValueError("extract requires --root")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    trips: list[ingest.Trip] = []
    labels_skipped = 0
    duplicates = 0
    n_users_loaded = 0
    n_quarantined = 0
    for archive in ingest.iter_user_archives(cfg.root):
        n_users_loaded += bool(archive.labels)
        n_quarantined += len(archive.quarantined)
        user_trips, skipped, dropped = ingest.assemble_trips(archive)
        trips.extend(user_trips)
        labels_skipped += skipped
        duplicates += dropped
        log.info("user %s: %d trips (%d labels skipped)", archive.user_id, len(user_trips), skipped)

    dataset = features_mod.build_feature_dataset(
        trips,
        min_trips=cfg.min_trips,
        iqr_multiplier=cfg.iqr_mult,
        labels_skipped=labels_skipped,
        duplicate_timestamps=duplicates,
    )
    features_mod.write_features_csv(dataset, out_dir / "features.csv")

    prov = dataset.provenance
    users = dataset.user_counts()
    print(f"labeled users loaded:        {n_users_loaded}")
    print(f"quarantined files:           {n_quarantined}")
    print(f"dropped, duplicate timestamps: {prov.duplicate_timestamps}")
    print(f"trips assembled:             {len(trips)} (labels with <2 points: {prov.labels_skipped})")
    print(f"dropped, too few points:     {prov.too_few_points}")
    print(f"dropped, IQR outlier:        {prov.iqr_dropped}")
    print(f"dropped, user below minimum: {prov.below_min_trips_rows} rows / {prov.users_dropped} users")
    print(f"final: {len(dataset.rows)} trips over {len(users)} users -> {out_dir / 'features.csv'}")
    return 0


def _load_features(cfg: RunConfig) -> features_mod.FeatureDataset:
    if not cfg.features:
        raise ValueError("this subcommand requires --features")
    return features_mod.read_features_csv(cfg.features)


def cmd_classify(cfg: RunConfig) -> int:
    """Feature CSV -> classification report, confusion matrix, scatter CSVs."""
    dataset = _load_features(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    report = learn.run_classification(dataset, k=cfg.k_folds, seed=cfg.seed)
    _write_text(
        out_dir / "classification_report.json",
        json.dumps(report.to_dict(), indent=2) + "\n",
    )
    _write_csv(
        out_dir / "confusion_matrix.csv",
        ["true_user", "predicted_user", "count"],
        (
            (t, p, int(report.confusion[i, j]))
            for i, t in enumerate(report.class_order)
            for j, p in enumerate(report.class_order)
        ),
    )
    _write_csv(
        out_dir / "per_class_metrics.csv",
        ["user_id", "trips", "precision", "recall"],
        (
            (
                c,
                report.class_trip_counts[c],
                repr(report.per_class_precision[c]),
                repr(report.per_class_recall[c]),
            )
            for c in report.class_order
        ),
    )
    for x_name, y_name in (
        ("max_speed", "std_abs_accel"),
        ("max_speed", "mean_speed"),
    ):
        x = dataset.rows[:, FEATURE_NAMES.index(x_name)].tolist()
        y = dataset.rows[:, FEATURE_NAMES.index(y_name)].tolist()
        _write_csv(
            out_dir / f"scatter_{x_name}_vs_{y_name}.csv",
            ["user_id", x_name, y_name],
            zip(dataset.users.tolist(), map(repr, x), map(repr, y)),
        )

    for name, scores in (
        ("decision tree ", report.tree),
        ("weighted guess", report.weighted_baseline),
        ("uniform guess ", report.uniform_baseline),
    ):
        s = scores.summary()
        print(
            f"{name}  accuracy {s['accuracy_mean']:.3f} +/- {s['accuracy_std']:.3f}"
            f"  roc-auc {s['roc_auc_mean']:.3f} +/- {s['roc_auc_std']:.3f}"
            f"  macro-f1 {s['macro_f1_mean']:.3f} +/- {s['macro_f1_std']:.3f}"
        )
    print(f"reports written to {out_dir}")
    return 0


def cmd_anomaly(cfg: RunConfig) -> int:
    """Feature CSV -> per-trial PR-AUC CSV plus summary statistics."""
    dataset = _load_features(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    results, summary = anomaly_mod.run_anomaly_experiment(
        dataset,
        trials_per_user=cfg.trials,
        rate=cfg.rate,
        k=cfg.lof_k,
        seed=cfg.seed,
    )
    _write_csv(
        out_dir / "anomaly_trials.csv",
        ["subject_user", "trial", "seed", "n_normal", "n_anomaly", "pr_auc_lof", "pr_auc_random"],
        (
            (r.user_id, r.trial, r.seed, r.n_normal, r.n_anomaly, repr(r.pr_auc_lof), repr(r.pr_auc_random))
            for r in results
        ),
    )
    summary_doc = {
        "n_trials": summary.n_trials,
        "lof": vars(summary.lof).copy(),
        "random": vars(summary.random).copy(),
    }
    _write_text(out_dir / "anomaly_summary.json", json.dumps(summary_doc, indent=2) + "\n")
    _write_csv(
        out_dir / "anomaly_per_user.csv",
        ["user_id", "mean_pr_auc_lof", "mean_pr_auc_random"],
        (
            (u, repr(summary.per_user_mean_lof[u]), repr(summary.per_user_mean_random[u]))
            for u in sorted(summary.per_user_mean_lof)
        ),
    )

    print(f"trials: {summary.n_trials}")
    for name, stats in (("lof   ", summary.lof), ("random", summary.random)):
        print(
            f"{name}  mean {stats.mean:.3f}  std {stats.std:.3f}  min {stats.min:.3f}"
            f"  median {stats.median:.3f}  max {stats.max:.3f}"
        )
    print(f"reports written to {out_dir}")
    return 0


def cmd_synth(cfg: RunConfig) -> int:
    """Profile JSON -> synthetic corpus in Geolife layout under --out."""
    if not cfg.profiles:
        raise ValueError("synth requires --profiles")
    profiles = synth.load_profiles(cfg.profiles)
    corpus = synth.generate_corpus(profiles, seed=cfg.seed)
    synth.write_corpus(corpus, cfg.out)
    print(f"wrote {len(corpus.trips)} trips for {len(corpus.profiles)} users under {cfg.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tripkin",
        description="Mine kinematic trip features from GPS logs and run the "
        "classification and anomaly-detection experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="master RNG seed")
        p.add_argument("--config", default=None, help="JSON config file (flags win)")

    p_extract = sub.add_parser("extract", help="parse a dataset root into a feature CSV")
    p_extract.add_argument("--root", required=True, help="dataset root (holds Data/)")
    p_extract.add_argument("--min-trips", dest="min_trips", type=int, default=None)
    p_extract.add_argument("--iqr-mult", dest="iqr_mult", type=float, default=None)
    add_common(p_extract)
    p_extract.set_defaults(func=cmd_extract)

    p_classify = sub.add_parser("classify", help="user-wise trip classification")
    p_classify.add_argument("--features", required=True, help="feature CSV path")
    p_classify.add_argument("--k-folds", dest="k_folds", type=int, default=None)
    add_common(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_anomaly = sub.add_parser("anomaly", help="injected-trip anomaly detection")
    p_anomaly.add_argument("--features", required=True, help="feature CSV path")
    p_anomaly.add_argument("--rate", type=float, default=None, help="injection rate")
    p_anomaly.add_argument("--trials", type=int, default=None, help="trials per user")
    p_anomaly.add_argument("--lof-k", dest="lof_k", type=int, default=None, help="LOF neighbor count")
    add_common(p_anomaly)
    p_anomaly.set_defaults(func=cmd_anomaly)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("--profiles", required=True, help="JSON list of user profiles")
    add_common(p_synth)
    p_synth.set_defaults(func=cmd_synth)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg)
    except (FileNotFoundError, IsADirectoryError, PermissionError, json.JSONDecodeError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
